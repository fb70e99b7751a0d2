/**
 * @file
 * SweepManifest: a sweep described as data, so a sweep survives its
 * coordinator.
 *
 * runSweepOutcomes writes `<journal>/manifest.sweep` (atomically)
 * before running a journaled sweep. The manifest is a pure function of
 * the job list — it embeds no paths, timestamps or host state — so a
 * single-process run and a distributed run of the same sweep produce
 * byte-identical manifests and the journal-tree diff oracle still
 * holds. If the coordinator is kill -9'd mid-sweep, rerunning the
 * original driver *or* `bingo_worker --sweep <journal>/manifest.sweep`
 * resumes from whatever the journal already holds: journaled jobs are
 * skipped, everything else re-runs, and the final journal is
 * byte-identical to an uninterrupted run.
 *
 * Job entries reuse the wire codec (dist/protocol.hpp encodeJob), so
 * the manifest is drift-guarded by the same serialization the worker
 * fingerprint check exercises. Fingerprints embedded in the entries
 * are advisory — they are re-derived at load time, because the
 * environment (BINGO_CHAOS simulation sites) legitimately changes what
 * a job's fingerprint is.
 */

#ifndef BINGO_DIST_MANIFEST_HPP
#define BINGO_DIST_MANIFEST_HPP

#include <string>
#include <vector>

#include "sim/experiment.hpp"

namespace bingo
{
namespace dist
{

/** Serialize a job list into manifest bytes (deterministic). */
std::string encodeManifest(const std::vector<SweepJob> &jobs);

/** Parse manifest bytes; false on truncation/garbling/version drift. */
bool decodeManifest(const std::string &text,
                    std::vector<SweepJob> &out);

/** `<journal_dir>/manifest.sweep`. */
std::string manifestPath(const std::string &journal_dir);

/**
 * Atomically write the manifest for `jobs` into `journal_dir`
 * (creating it as needed). Failures warn to stderr instead of
 * throwing: a sweep without a manifest is still a correct sweep, just
 * not coordinator-crash-resumable.
 */
void manifestStore(const std::string &journal_dir,
                   const std::vector<SweepJob> &jobs);

/** Load `<journal_dir>/manifest.sweep`; false if absent/undecodable. */
bool manifestLoad(const std::string &journal_dir,
                  std::vector<SweepJob> &out);

/**
 * `bingo_worker --sweep <manifest>` entry point: run the manifest's
 * sweep with the journal directory set to the manifest's own directory
 * (resuming from any partial journal state, including whatever a
 * dead coordinator committed). Honors BINGO_DIST_WORKERS /
 * BINGO_DIST_HOSTS like any other sweep driver. Returns the process
 * exit code: 0 when every job completed Ok/Degraded/Skipped, 1 when
 * any failed, 64 when the manifest cannot be read.
 */
int runManifestSweep(const std::string &manifest_path);

} // namespace dist
} // namespace bingo

#endif // BINGO_DIST_MANIFEST_HPP
