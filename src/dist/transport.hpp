/**
 * @file
 * Byte-stream transport of the distributed sweep runtime. Every worker,
 * local or launched through a BINGO_DIST_HOSTS command template (ssh
 * stdin/stdout), speaks to the coordinator over two pipes, and a remote
 * hop makes that stream a fault domain of its own, so it is layered:
 *
 *  - PipeChannel — a duplex byte stream over a read fd and a write fd.
 *    Broken-pipe writes surface as structured errors instead of
 *    SIGPIPE (both ends ignore the signal; plain pipes have no
 *    MSG_NOSIGNAL).
 *
 *  - FramedLink — the robustness layer. Frames are
 *    `BJF2 <type> <seq> <len> <crc32hex>\n<payload>`, with the CRC
 *    computed over `<type> <seq> <len>\n<payload>` so header corruption
 *    is caught too. The receiver resynchronizes to the next magic after
 *    a parse/CRC failure (a corrupted or truncated frame costs exactly
 *    that frame), suppresses duplicated sequence numbers, and counts
 *    sequence gaps so lost frames are observable. Frames within one
 *    direction are delivered in order or not at all — the lease and
 *    heartbeat-reconciliation logic in the coordinator depends on that.
 *
 *  - Deterministic fault injection (the `transport` chaos site of
 *    BINGO_CHAOS, see chaos::transportChaosFromEnv): at each send the
 *    injector may corrupt a byte, truncate the tail, duplicate the
 *    frame, stall it (and everything behind it — ordering is
 *    preserved) for a bounded delay, or sever the channel. Draws come
 *    from a per-endpoint RNG stream seeded from (chaos seed, role,
 *    slot, spawn epoch), so schedules are seed-stable yet a respawned
 *    worker does not replay its predecessor's faults (which could
 *    otherwise livelock on a first-frame sever).
 *
 * None of this changes what any job computes: transport faults perturb
 * delivery, and the coordinator's re-dispatch/lease machinery restores
 * exactly-once journal commits. The coordinator's journal stays
 * byte-identical to a single-process run — that oracle is what the
 * chaos site exists to defend.
 */

#ifndef BINGO_DIST_TRANSPORT_HPP
#define BINGO_DIST_TRANSPORT_HPP

#include <chrono>
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

/** Outcome of one PipeChannel::read attempt. */
enum class ReadStatus
{
    Data,        ///< `*got` bytes were read.
    WouldBlock,  ///< Non-blocking fd with nothing buffered.
    Eof,         ///< Orderly end of stream (peer exited).
    Error,       ///< Hard error; PipeChannel::error() explains.
};

/**
 * A duplex byte stream over a separate read fd and write fd — a
 * worker's stdout/stdin as seen from the coordinator, or stdin/stdout
 * as seen from a `bingo_worker --stdio` worker. Owns both fds. Either
 * fd may be -1 (half-open channels fail cleanly instead of crashing).
 * A peer that died mid-write surfaces as a structured error string,
 * because the coordinator outliving its workers is the whole point of
 * supervision.
 */
class PipeChannel
{
  public:
    PipeChannel(int read_fd, int write_fd)
        : read_fd_(read_fd), write_fd_(write_fd)
    {
    }
    ~PipeChannel() { close(); }
    PipeChannel(const PipeChannel &) = delete;
    PipeChannel &operator=(const PipeChannel &) = delete;

    /** Write all of data (EINTR/short-write safe); false = hard error. */
    bool write(const char *data, std::size_t size);

    /** Read up to `size` bytes into `buf`. Blocking-ness follows the
     *  read fd's own O_NONBLOCK flag. */
    ReadStatus read(char *buf, std::size_t size, std::size_t &got);

    void close();
    bool isOpen() const { return read_fd_ >= 0 || write_fd_ >= 0; }
    const std::string &error() const { return error_; }

  private:
    int read_fd_ = -1;
    int write_fd_ = -1;
    std::string error_;
};

/** What the robustness layer saw and did on one link. */
struct LinkStats
{
    std::uint64_t frames_sent = 0;
    std::uint64_t frames_received = 0;
    std::uint64_t corrupt_frames_dropped = 0;  ///< CRC/parse resyncs.
    std::uint64_t duplicate_frames_suppressed = 0;
    std::uint64_t frame_gaps = 0;  ///< Sequence holes (frames lost).
    std::uint64_t injected_faults = 0;  ///< Chaos draws that fired here.

    void
    accumulate(const LinkStats &other)
    {
        frames_sent += other.frames_sent;
        frames_received += other.frames_received;
        corrupt_frames_dropped += other.corrupt_frames_dropped;
        duplicate_frames_suppressed += other.duplicate_frames_suppressed;
        frame_gaps += other.frame_gaps;
        injected_faults += other.injected_faults;
    }
};

/** Sender role half of a fault-stream identity (see endpointSeed). */
enum class LinkRole : std::uint64_t
{
    Coordinator = 0,
    Worker = 1,
};

/**
 * CRC-checked, sequence-numbered framing over a PipeChannel (which it
 * owns: reading `read_fd`, writing `write_fd`), with optional
 * deterministic fault injection on the send side. One FramedLink per
 * endpoint; the coordinator holds one per worker slot, the worker
 * holds one.
 *
 * Thread-safety: callers serialize sends externally (the worker wraps
 * send() in the same mutex its heartbeat thread uses); reads are
 * single-threaded per link.
 */
class FramedLink
{
  public:
    FramedLink(int read_fd, int write_fd) : channel_(read_fd, write_fd)
    {
    }

    /** Arm the chaos injector for this endpoint's send side. */
    void enableFaults(const chaos::TransportFaultPlan &plan,
                      LinkRole role, std::uint64_t slot,
                      std::uint64_t epoch);

    /**
     * Frame and write one message (flushing any stalled bytes first —
     * a stall delays, it never reorders). Returns false once the link
     * is down (severed, broken pipe, write error); error() explains.
     */
    bool send(MsgType type, std::string_view payload);

    /**
     * Non-blocking drain (coordinator side): pull everything readable,
     * decode, and append complete frames to `out`. Returns false once
     * the peer is gone — buffered frames are still appended first, so
     * a dead worker's final `result` is never lost to the race with
     * its own exit.
     */
    bool poll(std::vector<Frame> &out);

    /**
     * Blocking read of one frame (worker side). False on EOF/error —
     * the coordinator is gone and the worker must exit, never simulate
     * orphaned.
     */
    bool readBlocking(Frame &out);

    /** Release stalled bytes whose deadline passed (poll/send do this
     *  implicitly; the worker's heartbeat tick calls it explicitly). */
    void flushStalled();

    void close();
    bool isOpen() const { return channel_.isOpen(); }
    const std::string &error() const { return error_; }

    LinkStats &stats() { return stats_; }
    const LinkStats &stats() const { return stats_; }

    /** Wire bytes for one frame (exposed for tests). */
    static std::string encodeFrame(MsgType type, std::uint64_t seq,
                                   std::string_view payload);

  private:
    bool decodeBuffered(bool &made_progress);
    bool resync(std::size_t from);
    bool writeBytes(const std::string &bytes);
    bool faultedWrite(std::string bytes);

    PipeChannel channel_;
    std::string error_;
    LinkStats stats_;

    std::uint64_t next_seq_ = 1;
    std::uint64_t last_seq_seen_ = 0;
    std::string inbuf_;
    std::deque<Frame> decoded_;
    bool peer_gone_ = false;

    struct Stalled
    {
        std::chrono::steady_clock::time_point release;
        std::string bytes;
    };
    std::deque<Stalled> outbox_;

    bool faults_enabled_ = false;
    double fault_rate_ = 0.0;
    Rng fault_rng_;
};

/** CRC-32 (IEEE 802.3) of `data`; exposed for tests. */
std::uint32_t crc32(std::string_view data);

} // namespace dist
} // namespace bingo

#endif // BINGO_DIST_TRANSPORT_HPP
