/**
 * @file
 * bingo_worker entry point: `--stdio` runs one worker of the
 * distributed sweep runner, exec'd by the coordinator for a
 * BINGO_DIST_WORKERS slot or launched through a BINGO_DIST_HOSTS
 * command template (typically ssh). The protocol runs over
 * stdin/stdout, which are re-pointed so stray prints can never corrupt
 * the frame stream. See worker.hpp for the protocol loop and
 * EXPERIMENTS.md ("Distributed sweeps" / "Multi-machine sweeps") for
 * the operator-facing picture.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <unistd.h>

#include "dist/worker.hpp"

namespace
{

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s --stdio [--slot <n>] [--fault-epoch <e>]\n"
        "Worker process of the distributed sweep runner; spawned by\n"
        "the coordinator (BINGO_DIST_WORKERS=N, or BINGO_DIST_HOSTS\n"
        "command templates) with the protocol on stdin/stdout. To\n"
        "finish a sweep whose coordinator died, rerun the original\n"
        "driver on the same BINGO_JOURNAL_DIR.\n",
        argv0);
    return 64;
}

} // namespace

int
main(int argc, char **argv)
{
    bool stdio = false;
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
        } else {
            return usage(argv[0]);
        }
    }

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
