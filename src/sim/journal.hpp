/**
 * @file
 * Crash-safe sweep journal: completed jobs persist their RunResult to
 * one record file per job fingerprint under BINGO_JOURNAL_DIR, written
 * atomically (temp file + rename). A re-run of the same sweep loads
 * the journaled records instead of re-simulating, so a sweep killed
 * halfway resumes from where it died and reproduces the exact tables
 * the uninterrupted run would have printed.
 *
 * The fingerprint hashes the complete identity of a job — workload,
 * every SystemConfig field (including the prefetcher knobs), and the
 * run lengths/seed — so a record can never be replayed against a
 * different experiment. The config fields come from visitConfigFields
 * (common/config.hpp), the one field list the worker wire format
 * shares. Doubles are stored as their IEEE-754 bit patterns, making a
 * resumed table bit-identical, not just close. A sweep's baselines are
 * jobs like any other, so they journal under their own fingerprints.
 *
 * Distributed sweeps (src/dist) write the same journal: workers send
 * each result's journalEncode bytes over the wire, and the coordinator
 * decodes them and commits them here with journalStore, the only
 * journal writer. Because journalEncode is the only record serializer,
 * it round-trips through journalDecode bit for bit, and simulations
 * are deterministic, a distributed journal is byte-identical to the
 * journal of a single-process run of the same jobs.
 */

#ifndef BINGO_SIM_JOURNAL_HPP
#define BINGO_SIM_JOURNAL_HPP

#include <string>

#include "sim/metrics.hpp"

namespace bingo
{

struct SweepJob;

/**
 * Stable hex fingerprint of a job's full identity (workload + config +
 * options). compare_baseline is excluded: it changes what else the
 * sweep runs, not this job's result. Baselines are memoized under
 * their job's fingerprint too.
 */
std::string jobFingerprint(const SweepJob &job);

/** Record file path for `fingerprint` inside journal `dir`. */
std::string journalRecordPath(const std::string &dir,
                              const std::string &fingerprint);

/**
 * Load the journaled result for `fingerprint` from `dir` into `out`.
 * Returns false — never throws — when the record is absent, truncated,
 * garbled, from an old format, or carries a different fingerprint;
 * the caller then simply re-runs the job.
 */
bool journalLoad(const std::string &dir, const std::string &fingerprint,
                 RunResult &out);

/**
 * Persist `result` as the record for `fingerprint`, creating `dir` as
 * needed. Writes a temp file and renames it into place, so a crash
 * mid-write can never leave a half-record that journalLoad would see.
 * Throws std::runtime_error when the directory or file cannot be
 * written.
 */
void journalStore(const std::string &dir, const std::string &fingerprint,
                  const RunResult &result);

/**
 * journalStore for the sweep runners, which call it the moment a job
 * finishes: a no-op when `dir` is empty, and a failed write is
 * reported on stderr instead of thrown. The result itself is safe;
 * only a resume would re-run its job.
 */
void journalCommit(const std::string &dir, const std::string &fingerprint,
                   const RunResult &result);

/**
 * Delete the temp files of writes into `dir` that never finished.
 * journalStore writes `<name>.tmp.<n>` and renames it into place, so a
 * writer kill -9'd in between leaves one behind; the record it would
 * have become was never committed, and its job simply re-runs. Call
 * when a sweep starts on `dir`, while no other process writes it. Safe
 * when `dir` does not exist.
 */
void journalDropTornWrites(const std::string &dir);

/**
 * Serialize `result` into the exact bytes journalStore writes — the
 * single record serializer shared by the journal and the
 * coordinator/worker wire protocol, which (with journalDecode's
 * bit-exact round-trip) is what makes "a distributed journal is
 * byte-identical to a single-process journal" a structural property
 * rather than a hope.
 */
std::string journalEncode(const std::string &fingerprint,
                          const RunResult &result);

/**
 * Parse journalEncode output. Returns false — never throws — when the
 * text is truncated, garbled, from another format version, or carries
 * a fingerprint other than `fingerprint`.
 */
bool journalDecode(const std::string &text,
                   const std::string &fingerprint, RunResult &out);

} // namespace bingo

#endif // BINGO_SIM_JOURNAL_HPP
