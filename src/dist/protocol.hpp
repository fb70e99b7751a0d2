/**
 * @file
 * Wire protocol between the sweep coordinator and its bingo_worker
 * processes (src/dist/coordinator.hpp, src/dist/worker.hpp).
 *
 * Framing — CRC-checked, sequence-numbered `BJF2` frames over the
 * worker's stdin/stdout pipes — lives in dist/transport.hpp. This
 * file is the message layer: frame types plus the payload codecs.
 * Payloads are the same pipe-separated, length-prefixed-string,
 * doubles-as-IEEE-bits text the journal uses, so every value
 * round-trips bit-exactly.
 *
 * Messages:
 *  - coordinator → worker: `job` (a fully serialized SweepJob plus the
 *    coordinator's job index, fingerprint and lease token), `shutdown`
 *    (drain and exit).
 *  - worker → coordinator: `hello` (pid/slot/version handshake),
 *    `heartbeat` (liveness plus busy/idle state, every few hundred ms
 *    from a dedicated thread even while a simulation runs — the
 *    coordinator reconciles this state against its dispatch records to
 *    recover jobs whose frames the transport lost), `result` (the
 *    JobOutcome summary, the lease it was computed under, and for
 *    completed jobs the exact journal record bytes — journalEncode
 *    output — so the coordinator needs no second serializer), `bye`
 *    (graceful exit notice).
 *
 * Leases: every dispatch of a work item carries a fresh lease token
 * (a per-item epoch counter). A result is committed only if its lease
 * matches the item's current lease, so a stalled worker that resurfaces
 * after its job was re-dispatched cannot double-commit: at-most-once
 * commit is an invariant of the coordinator, not a property of worker
 * good behaviour.
 *
 * Drift guard: the worker re-derives the job fingerprint from the
 * decoded SweepJob and refuses a mismatch. A SystemConfig field added
 * to the fingerprint but forgotten here therefore fails loudly at the
 * first dispatch instead of silently simulating the wrong config.
 */

#ifndef BINGO_DIST_PROTOCOL_HPP
#define BINGO_DIST_PROTOCOL_HPP

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/experiment.hpp"

namespace bingo
{
namespace dist
{

/** Frame types. */
enum class MsgType : unsigned
{
    Hello,
    Heartbeat,
    Job,
    Result,
    Shutdown,
    Bye,
};

/** One parsed frame. */
struct Frame
{
    MsgType type = MsgType::Heartbeat;
    std::string payload;
};

/** `job` payload: the coordinator's view of one dispatched job. */
struct WireJob
{
    std::uint64_t index = 0;       ///< Coordinator job index.
    std::uint64_t lease = 0;       ///< Dispatch epoch; echoed in result.
    std::string fingerprint;       ///< jobFingerprint(job), precomputed.
    SweepJob job;
    /// Baseline warm, not a sweep job. Neither end branches on it (the
    /// coordinator tracks baselines itself); it stays on the wire
    /// because the sweep manifest reuses this codec, and the
    /// manifest's bytes are part of the journal oracle.
    bool baseline = false;
};

/** `result` payload: everything the coordinator needs back. */
struct WireResult
{
    std::uint64_t index = 0;
    std::uint64_t lease = 0;       ///< Lease the job ran under.
    JobStatus status = JobStatus::Failed;
    unsigned attempts = 0;
    double wall_seconds = 0.0;
    std::uint64_t runs = 0;        ///< Simulations completed (counters).
    std::uint64_t cycles = 0;      ///< Simulated cycles (counters).
    std::string fingerprint;
    std::string error;             ///< Failure/degradation reason.
    std::string record;            ///< journalEncode bytes; empty when
                                   ///< the job failed.
};

std::string encodeJob(const WireJob &job);
bool decodeJob(const std::string &payload, WireJob &out);

std::string encodeResult(const WireResult &result);
bool decodeResult(const std::string &payload, WireResult &out);

/** `hello` payload. */
struct WireHello
{
    std::uint64_t pid = 0;
    unsigned slot = 0;
};

std::string encodeHello(const WireHello &hello);
bool decodeHello(const std::string &payload, WireHello &out);

/**
 * `heartbeat` payload: liveness plus what the worker believes it is
 * doing. The busy/idle state lets the coordinator detect a job whose
 * Job or Result frame the transport lost (worker idle long after a
 * dispatch) and revoke the lease instead of waiting forever.
 */
struct WireHeartbeat
{
    bool busy = false;
    std::uint64_t index = 0;  ///< In-flight job index (busy only).
    std::uint64_t lease = 0;  ///< Its lease token (busy only).
};

std::string encodeHeartbeat(const WireHeartbeat &beat);
bool decodeHeartbeat(const std::string &payload, WireHeartbeat &out);

} // namespace dist
} // namespace bingo

#endif // BINGO_DIST_PROTOCOL_HPP
