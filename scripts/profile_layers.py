#!/usr/bin/env python3
"""Split fig8's host time across the simulator's layers with gprof.

Builds a ``-pg`` tree beside the normal build (``<source>/build-pg``),
runs ``bench_fig8_speedup`` at reduced fidelity on one sweep thread, and
groups the PC histogram of the resulting ``gmon.out`` into the layers
ROADMAP.md names: trace generation and replay (workload), core dispatch
and retire (core), the run loop and event queue (sim), L1D/LLC/MSHR
(cache), each prefetcher engine (prefetch.<engine>), and DRAM (dram).

Every histogram sample is attributed by the innermost *inlined* frame
that ``addr2line -i`` reports for its PC, not by gprof's flat symbol:
a function inlined into its caller (the core's run-length scan into
``System::runPhase``, say) is charged to the layer whose source it
comes from. Frames in library headers and in ``src/common/`` (shared
containers and helpers) are skipped outward to the first frame of a
layer; a sample with none is charged to the outermost frame's file.

What the histogram cannot see: time in shared libraries (libc's
``memmove`` and ``malloc``, libstdc++) and in the kernel (page faults
on fresh memory). Shares are therefore quoted as shares of the samples
that fall inside the simulator binary, and the total is printed so two
runs can be compared in absolute terms too.

Usage:
    scripts/profile_layers.py [--source DIR] [--runs N]

Each sweep runs 200 k warm-up + 500 k measured instructions per core.
gprof samples at 100 Hz, so one such sweep gives a few hundred samples;
``--runs`` sums the histograms of several sweeps.

``--source`` points at any checkout of this repository (default: the
one holding this script), so an older build can be profiled the same
way for a before/after split.
"""

import argparse
import collections
import os
import shutil
import struct
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WARMUP_INSTRS = 200000
MEASURE_INSTRS = 500000
TOP_FUNCTIONS = 3  # listed under each layer

# (path prefix under src/, layer), first match wins.
LAYERS = [
    ("workload/", "workload"),
    ("sim/translation", "workload"),
    ("core/", "core"),
    ("sim/system", "sim"),
    ("cache/completion", "sim"),
    ("cache/", "cache"),
    ("mem/", "dram"),
    ("prefetch/temporal/isb", "prefetch.isb"),
    ("prefetch/temporal/domino", "prefetch.domino"),
    ("prefetch/temporal/", "prefetch.temporal"),
    ("prefetch/bingo", "prefetch.bingo"),
    ("prefetch/prefetcher", "prefetch"),
    ("prefetch/factory", "prefetch"),
    ("prefetch/", None),  # prefetch.<file stem>, below
    ("chaos/guarded_prefetcher", "prefetch"),
    ("chaos/", "chaos"),
    ("telemetry/", "telemetry"),
    ("dist/", "dist"),
    ("sim/", "sweep"),
]


def layer_of(path):
    """Layer of a source path, None for shared and library code."""
    marker = "/src/"
    at = path.rfind(marker)
    if at < 0:
        return "sweep" if "/bench/" in path else None
    rel = path[at + len(marker):]
    if rel.startswith("common/event_queue"):
        return "sim"
    if rel.startswith("common/"):
        return None
    for prefix, layer in LAYERS:
        if rel.startswith(prefix):
            if layer is None:
                stem = os.path.splitext(os.path.basename(rel))[0]
                return "prefetch." + stem
            return layer
    return None


def run(cmd, **kwargs):
    print("+ " + " ".join(cmd), file=sys.stderr)
    subprocess.run(cmd, check=True, **kwargs)


def build(source):
    """Configure and build the -pg tree; returns the bench binary."""
    tree = os.path.join(source, "build-pg")
    # Non-PIE, so the histogram's PCs are the binary's link addresses.
    run(["cmake", "-S", source, "-B", tree,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
         "-DCMAKE_CXX_FLAGS=-pg -fno-pie",
         "-DCMAKE_EXE_LINKER_FLAGS=-pg -no-pie"],
        stdout=subprocess.DEVNULL)
    run(["cmake", "--build", tree, "-j4", "--target", "bench_fig8_speedup"],
        stdout=subprocess.DEVNULL)
    return os.path.join(tree, "bench", "bench_fig8_speedup")


def read_histogram(path):
    """(low_pc, bytes per bin, samples per bin) of a gmon.out."""
    with open(path, "rb") as f:
        data = f.read()
    if data[:4] != b"gmon":
        raise SystemExit(path + ": not a gmon.out file")
    pos = 20  # magic, version, 12 spare bytes
    low = None
    counts = collections.Counter()
    step = None
    while pos < len(data):
        tag = data[pos]
        pos += 1
        if tag == 0:  # time histogram
            lo, hi, size, _rate = struct.unpack_from("<QQII", data, pos)
            pos += 24 + 16  # + dimension name and abbreviation
            bins = struct.unpack_from("<%dH" % size, data, pos)
            pos += 2 * size
            if low is None:
                low, step = lo, (hi - lo) / size
            for i, n in enumerate(bins):
                if n:
                    counts[i] += n
        elif tag == 1:  # call-graph arc
            pos += 8 + 8 + 4
        elif tag == 2:  # basic-block counts
            (n,) = struct.unpack_from("<I", data, pos)
            pos += 4 + n * 16
        else:
            raise SystemExit(path + ": unknown gmon record tag %d" % tag)
    return low, step, counts


def frames(binary, pcs):
    """Per PC, its inlined frames innermost first, as (function, file)."""
    out = subprocess.run(
        ["addr2line", "-a", "-i", "-f", "-C", "-e", binary],
        input="".join("0x%x\n" % pc for pc in pcs),
        capture_output=True, text=True, check=True).stdout.splitlines()
    # -a prints each queried address before its frames, which are
    # (function, file:line) line pairs.
    result = []
    i = 0
    while i < len(out):
        if out[i].startswith("0x"):
            result.append([])
            i += 1
            continue
        result[-1].append((out[i], out[i + 1].rsplit(":", 1)[0]))
        i += 2
    return result


def attribute(stack):
    """(layer, function) a sample with inlined `stack` is charged to."""
    for function, path in stack:
        layer = layer_of(path)
        if layer is not None:
            return layer, function
    if stack:
        function, path = stack[-1]
        if "/src/common/" in path:
            return "common", function
        return "other", function
    return "other", "??"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--source", default=ROOT,
                        help="checkout to build and profile")
    parser.add_argument("--runs", type=int, default=1,
                        help="sweeps whose samples are summed")
    args = parser.parse_args()

    for tool in ("cmake", "addr2line"):
        if shutil.which(tool) is None:
            raise SystemExit(tool + " not found")
    source = os.path.abspath(args.source)
    binary = build(source)

    env = {k: v for k, v in os.environ.items()
           if not k.startswith("BINGO_")}
    env.update(BINGO_JOBS="1",
               BINGO_WARMUP_INSTRS=str(WARMUP_INSTRS),
               BINGO_MEASURE_INSTRS=str(MEASURE_INSTRS))
    counts = collections.Counter()
    for _ in range(args.runs):
        with tempfile.TemporaryDirectory(prefix="profile-layers-") as work:
            run([binary], cwd=work, env=env, stdout=subprocess.DEVNULL)
            low, step, run_counts = read_histogram(
                os.path.join(work, "gmon.out"))
            counts.update(run_counts)

    bins = sorted(counts)
    pcs = [low + int(b * step) for b in bins]
    stacks = frames(binary, pcs)
    if len(stacks) != len(pcs):
        raise SystemExit("addr2line returned %d stacks for %d PCs"
                         % (len(stacks), len(pcs)))
    per_layer = collections.Counter()
    per_function = collections.defaultdict(collections.Counter)
    for b, stack in zip(bins, stacks):
        layer, function = attribute(stack)
        per_layer[layer] += counts[b]
        per_function[layer][function] += counts[b]

    total = sum(per_layer.values())
    print("%d in-binary samples (libc, libstdc++ and kernel time not "
          "included)" % total)
    print("%-22s %8s %7s" % ("layer", "samples", "share"))
    for layer, n in per_layer.most_common():
        print("%-22s %8d %6.1f%%" % (layer, n, 100.0 * n / total))
        for function, m in per_function[layer].most_common(TOP_FUNCTIONS):
            print("    %6.1f%%  %s" % (100.0 * m / total, function[:100]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
