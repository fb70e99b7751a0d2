/**
 * @file
 * Byte-stream transport of the distributed sweep runtime. Every worker,
 * local or launched through a BINGO_DIST_HOSTS command template (ssh
 * stdin/stdout), speaks to the coordinator over two pipes. Pipes and
 * ssh deliver bytes in order, intact and once, or the stream ends with
 * EOF or a broken pipe; so the link only has to frame messages and
 * report a dead peer:
 *
 *  - Frames are `BJF3 <type> <len>\n<payload>`: typed, length-prefixed,
 *    delivered in order. A worker that dies mid-frame leaves a short
 *    tail before EOF, which is never delivered. A header that does not
 *    parse (bad magic, unknown type, a length over the limit, or no
 *    newline within a header's length) ends the link with an error
 *    naming the header — typically a host template that printed to
 *    stdout before exec'ing the worker. The link does not resync.
 *
 *  - Broken-pipe writes surface as structured errors instead of
 *    SIGPIPE (both ends ignore the signal; plain pipes have no
 *    MSG_NOSIGNAL).
 *
 *  - Deterministic fault injection (the `transport` chaos site of
 *    BINGO_CHAOS, see chaos::transportChaosFromEnv): at each send the
 *    injector may sever the link, the fault a dead remote hop has. (A
 *    hung peer is the job-stall test knob's business: a frame delay
 *    short enough to keep a sweep fast never reaches a supervision
 *    deadline.) Draws come from a per-endpoint RNG stream seeded from
 *    (chaos seed, role, slot, spawn epoch), so schedules are
 *    seed-stable yet a respawned worker does not replay its
 *    predecessor's faults (which could otherwise livelock on a
 *    first-frame sever).
 *
 * None of this changes what any job computes: transport faults perturb
 * delivery, and the coordinator's re-dispatch/lease machinery restores
 * exactly-once journal commits. The coordinator's journal stays
 * byte-identical to a single-process run — that oracle is what the
 * chaos site exists to defend.
 */

#ifndef BINGO_DIST_TRANSPORT_HPP
#define BINGO_DIST_TRANSPORT_HPP

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "chaos/chaos.hpp"
#include "common/rng.hpp"
#include "dist/protocol.hpp"

namespace bingo
{
namespace dist
{

/** Sender role half of a fault-stream identity (see enableFaults). */
enum class LinkRole : std::uint64_t
{
    Coordinator = 0,
    Worker = 1,
};

/**
 * Length-prefixed framing over a separate read fd and write fd — a
 * worker's stdout/stdin as seen from the coordinator, or stdin/stdout
 * as seen from a `bingo_worker --stdio` worker — with optional
 * deterministic fault injection on the send side. Owns both fds; either
 * may be -1 (half-open links fail cleanly instead of crashing). One
 * FramedLink per endpoint; the coordinator holds one per worker slot,
 * the worker holds one.
 *
 * Thread-safety: callers serialize sends externally (the worker wraps
 * send() in the same mutex its heartbeat thread uses); reads are
 * single-threaded per link. readBlocking and send share no state, so
 * one thread may read while another sends — a worker's job loop blocks
 * in readBlocking while its heartbeat thread sends. error() and
 * close() are for when neither side runs.
 */
class FramedLink
{
  public:
    FramedLink(int read_fd, int write_fd)
        : read_fd_(read_fd), write_fd_(write_fd)
    {
    }
    ~FramedLink() { close(); }
    FramedLink(const FramedLink &) = delete;
    FramedLink &operator=(const FramedLink &) = delete;

    /** Arm the chaos injector for this endpoint's send side. */
    void enableFaults(const chaos::TransportFaultPlan &plan,
                      LinkRole role, std::uint64_t slot,
                      std::uint64_t epoch);

    /**
     * Frame and write one message. Returns false once the send side
     * is down (severed, broken pipe, write error); error() explains.
     * A sever closes only the write fd: the peer sees EOF and tears
     * the link down from its end.
     */
    bool send(MsgType type, std::string_view payload);

    /**
     * Non-blocking drain (coordinator side): pull everything readable,
     * decode, and append complete frames to `out`. Returns false once
     * the peer is gone or sent a malformed header — frames decoded
     * before that are still appended first, so a dead worker's final
     * `result` is never lost to the race with its own exit.
     */
    bool poll(std::vector<Frame> &out);

    /**
     * Blocking read of one frame (worker side). False on EOF, error or
     * a malformed header — the coordinator is gone and the worker must
     * exit, never simulate orphaned.
     */
    bool readBlocking(Frame &out);

    void close();
    /** Why the link is down: the read side's reason first. */
    const std::string &error() const
    {
        return read_error_.empty() ? send_error_ : read_error_;
    }

    /** Chaos draws that fired on this endpoint's sends. */
    std::uint64_t injectedFaults() const { return injected_faults_; }

    /** Wire bytes for one frame (exposed for tests). */
    static std::string encodeFrame(MsgType type,
                                   std::string_view payload);

  private:
    bool readMore();
    void decodeBuffered();
    bool writeBytes(const std::string &bytes);

    // Read side.
    int read_fd_ = -1;
    std::string inbuf_;
    std::deque<Frame> decoded_;
    bool peer_gone_ = false;
    std::string read_error_;

    // Send side.
    int write_fd_ = -1;
    std::string send_error_;

    bool faults_enabled_ = false;
    double fault_rate_ = 0.0;
    Rng fault_rng_;
    std::uint64_t injected_faults_ = 0;
};

} // namespace dist
} // namespace bingo

#endif // BINGO_DIST_TRANSPORT_HPP
