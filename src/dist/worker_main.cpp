/**
 * @file
 * bingo_worker entry point. Two modes:
 *  - `--stdio` — a worker of the distributed sweep runner, exec'd by
 *    the coordinator for a BINGO_DIST_WORKERS slot or launched through
 *    a BINGO_DIST_HOSTS command template (typically ssh): the protocol
 *    runs over stdin/stdout, which are re-pointed so stray prints can
 *    never corrupt the frame stream;
 *  - `--sweep <manifest>` — run/resume a whole sweep described by a
 *    SweepManifest (dist/manifest.hpp), journaling next to it. This is
 *    the coordinator-crash recovery path: point it at the manifest of
 *    the dead coordinator's journal and the sweep finishes.
 * See worker.hpp for the protocol loop and EXPERIMENTS.md
 * ("Distributed sweeps" / "Multi-machine sweeps") for the
 * operator-facing picture.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include <unistd.h>

#include "dist/manifest.hpp"
#include "dist/worker.hpp"

namespace
{

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s --stdio [--slot <n>] [--fault-epoch <e>]\n"
        "       %s --sweep <manifest>\n"
        "Worker process of the distributed sweep runner; spawned by\n"
        "the coordinator (BINGO_DIST_WORKERS=N, or BINGO_DIST_HOSTS\n"
        "command templates) with the protocol on stdin/stdout. The\n"
        "--sweep form runs or resumes a manifest's sweep directly —\n"
        "use it to recover a sweep whose coordinator died.\n",
        argv0, argv0);
    return 64;
}

} // namespace

int
main(int argc, char **argv)
{
    bool stdio = false;
    std::string manifest;
    long slot = 0;
    long fault_epoch = 1;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--stdio") == 0) {
            stdio = true;
        } else if (i + 1 < argc &&
                   std::strcmp(argv[i], "--slot") == 0) {
            slot = std::atol(argv[++i]);
        } else if (i + 1 < argc &&
                   std::strcmp(argv[i], "--fault-epoch") == 0) {
            fault_epoch = std::atol(argv[++i]);
        } else if (i + 1 < argc &&
                   std::strcmp(argv[i], "--sweep") == 0) {
            manifest = argv[++i];
        } else {
            return usage(argv[0]);
        }
    }

    if (!manifest.empty())
        return bingo::dist::runManifestSweep(manifest);
    if (!stdio || slot < 0)
        return usage(argv[0]);

    // Keep private copies of the protocol ends, then point fd 1 at
    // stderr: any printf from the simulator (journal notices,
    // bench-style headers) lands in the worker's stderr instead of
    // corrupting the frame stream.
    const int in_fd = ::dup(0);
    const int out_fd = ::dup(1);
    if (in_fd < 0 || out_fd < 0) {
        std::fprintf(stderr, "bingo_worker: cannot dup stdio fds\n");
        return 1;
    }
    ::dup2(2, 1);
    return bingo::dist::workerMain(in_fd, out_fd,
                                   static_cast<unsigned>(slot),
                                   static_cast<std::uint64_t>(fault_epoch));
}
