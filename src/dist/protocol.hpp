/**
 * @file
 * Wire protocol between the sweep coordinator and its bingo_worker
 * processes (src/dist/coordinator.hpp, src/dist/worker.hpp).
 *
 * Framing — typed, length-prefixed `BJF3` frames over the worker's
 * stdin/stdout pipes — lives in dist/transport.hpp. This file is the
 * message layer: frame types plus the payload codecs. Payloads are the
 * same pipe-separated, length-prefixed-string, doubles-as-IEEE-bits
 * text the journal uses, so every value round-trips bit-exactly. Each
 * codec carries a version; a field removed from a message bumps it.
 *
 * Messages:
 *  - coordinator → worker: `job` (a SweepJob's workload, options and
 *    every SystemConfig field, written through the same
 *    visitConfigFields list as its fingerprint, plus the coordinator's
 *    job index, fingerprint and lease token; compare_baseline does not
 *    travel, as the coordinator sends baselines as jobs of their own).
 *    Closing the link (EOF) tells a worker to exit.
 *  - worker → coordinator: `hello` (version handshake),
 *    `heartbeat` (liveness plus busy/idle state, every few hundred ms
 *    from a dedicated thread even while a simulation runs — the
 *    coordinator reconciles this state against its dispatch records to
 *    recover a job whose Job frame sat in a slow hop past the grace
 *    period), `result` (the JobOutcome summary, the lease it was
 *    computed under, and for completed jobs the exact journal record
 *    bytes — journalEncode output — so the coordinator needs no second
 *    serializer).
 *
 * Leases: every dispatch of a work item carries a fresh lease token
 * (a per-item epoch counter). A result is committed only if its lease
 * matches the item's current lease, so a stalled worker that resurfaces
 * after its job was re-dispatched cannot double-commit: at-most-once
 * commit is an invariant of the coordinator, not a property of worker
 * good behaviour.
 *
 * Build-skew guard: the worker re-derives the job fingerprint from the
 * decoded SweepJob and refuses a mismatch. Fingerprint and wire share
 * one field list, so a mismatch means the coordinator and the worker
 * come from different builds; the job then fails loudly at its first
 * dispatch instead of silently simulating the wrong config.
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
    std::string error;             ///< Failure/degradation reason.
    std::string record;            ///< journalEncode bytes; empty when
                                   ///< the job failed.
};

std::string encodeJob(const WireJob &job);
bool decodeJob(const std::string &payload, WireJob &out);

std::string encodeResult(const WireResult &result);
bool decodeResult(const std::string &payload, WireResult &out);

/** `hello` payload: a worker's first frame. The coordinator
 *  dispatches to a worker only after it said exactly this. */
constexpr std::string_view kHelloPayload = "hello 2\n";

/**
 * `heartbeat` payload: liveness plus whether the worker is running a
 * job. A worker still idle long after a dispatch holds a Job frame
 * that a slow hop delayed; the coordinator revokes that lease and
 * re-dispatches instead of waiting forever.
 */
struct WireHeartbeat
{
    bool busy = false;
};

std::string encodeHeartbeat(const WireHeartbeat &beat);
bool decodeHeartbeat(const std::string &payload, WireHeartbeat &out);

} // namespace dist
} // namespace bingo

#endif // BINGO_DIST_PROTOCOL_HPP
