#!/usr/bin/env python3
"""Repository benchmark for bingo-sim; see README.md in this directory.

Run from anywhere inside a checkout:

    python3 perfbench/run.py --workload fig8 --seed 1 --seconds 35 --trace 0

Builds the simulator and the benchmark's sampler from source into
.bench_build/perfbench, then measures the workload in fresh sampler
processes for about --seconds seconds (--trace 0: end-to-end metrics,
host times scaled to a reference host speed by a probe run next to
each sample) or runs it once traced (--trace 1: per-layer metrics).
Every simulated job's digest is checked against reference.json. Prints
each metric with its unit, then one JSON result object as the last
line.

    python3 perfbench/run.py --write-reference --seeds 0-31,42

re-simulates every workload at the given seeds and rewrites
reference.json (only after a change meant to alter simulated results).
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
SAMPLER = os.path.join(BUILD, "perfbench_sample")
TMP = os.path.join(BUILD, "tmp")
REFERENCE = os.path.join(HERE, "reference.json")

WORKLOADS = ["fig8", "cold-compute", "hybrid-stall"]
CANARY_SEED = "42"
CANARY_JOBS = 3
MIN_SAMPLES = 3
SETUP_REPS = 5
# The sampler's host-speed probe time on a quiet 4-vCPU host (see
# README.md); end-to-end host times are scaled to this speed.
PROBE_REFERENCE_S = 0.29
SAMPLE_TIMEOUT_S = 150
RUN_BUDGET_S = 160

END_TO_END_UNITS = {
    "sweep_s": "s",
    "sim_mips": "Minstr/s",
    "job_s_p50": "s",
    "job_s_p90": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "mpki_err_pct": "%",
}

PER_LAYER_UNITS = {
    "workload.fill_ns_per_rec": "ns",
    "workload.generate_ns_per_rec": "ns",
    "workload.fill_share": "ratio",
    "workload.cache_hit_ratio": "ratio",
    "workload.bytes": "bytes",
    "sim.host_ns_per_cycle": "ns",
    "sim.host_ns_per_instr": "ns",
    "sim.skip_ratio": "ratio",
    "sim.sweep_overhead_s": "s",
    "core.ipc": "instr/cycle",
    "core.rob_full_ratio": "ratio",
    "core.lsq_full_ratio": "ratio",
    "cache.l1d.mpki": "1/kinstr",
    "cache.llc.mpki": "1/kinstr",
    "cache.llc.mshr_merge_ratio": "ratio",
    "cache.llc.mshr_stall_ratio": "ratio",
    "cache.llc.avg_miss_latency_cycles": "cycles",
    "cache.llc.pf_drop_ratio": "ratio",
    "cache.l1d.replay_ns_per_access": "ns",
    "cache.llc.replay_ns_per_access": "ns",
    "prefetch.share": "ratio",
    **{f"prefetch.{e}.share": "ratio"
       for e in ("bop", "spp", "vldp", "ampm", "sms", "bingo", "hybrid")},
    "prefetch.candidates_per_access": "count",
    "prefetch.useful_ratio": "ratio",
    "prefetch.late_ratio": "ratio",
    **{f"prefetch.{e}.replay_ns": "ns"
       for e in ("bop", "spp", "vldp", "ampm", "sms", "bingo", "isb",
                 "domino", "hybrid")},
    "mem.dram.row_hit_ratio": "ratio",
    "mem.dram.queue_delay_per_read": "cycles",
    "dist.overhead_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


def clean_env():
    """The caller's environment without any BINGO_* knob: every sample
    runs the simulator's defaults (trace cache on at 512 MB, cycle
    skipping and SIMD on, no batching, chaos, checks, telemetry or
    journal). Run lengths, thread counts and worker counts are fixed
    by the sampler's job lists, not by the environment. Temporary files
    (the compiler's) stay inside the build tree."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("BINGO_")}
    env["TMPDIR"] = TMP
    return env


def run_process(cmd, timeout):
    """Run `cmd` in its own process group; kill the whole group (the
    sampler and any bingo_worker children) if it overruns. Returns
    (exit code, stdout)."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=clean_env(),
                            stdout=subprocess.PIPE, stderr=sys.stderr,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        stop_group(proc.pid)
        proc.communicate()
        raise BenchError(f"timed out after {timeout} s: {' '.join(cmd)}")
    finally:
        stop_group(proc.pid)
    return proc.returncode, out


def stop_group(pgid):
    """Kill whatever is left of process group `pgid` and wait until
    every member has exited."""
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("simulator sources (src/) not found next to "
                         "perfbench/")
    os.makedirs(TMP, exist_ok=True)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        code, _ = run_process(["cmake", "-S", HERE, "-B", BUILD,
                               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], 600)
        if code != 0:
            raise BenchError("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    code, _ = run_process(["cmake", "--build", BUILD, "-j", jobs], 900)
    if code != 0:
        raise BenchError("build failed")


def sample(workload, seed, *extra):
    cmd = [SAMPLER, "--workload", workload, "--seed", str(seed), *extra]
    code, out = run_process(cmd, SAMPLE_TIMEOUT_S)
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        raise BenchError(f"sampler exited {code}: {' '.join(cmd)}")
    return json.loads(lines[-1])


class Checker:
    """Counts jobs attempted and failed: a job fails when the
    simulator reports it failed or degraded, or when its digest
    differs from the reference (or, for a seed without a reference,
    when the seed-42 canary jobs differ)."""

    def __init__(self, workload, seed):
        with open(REFERENCE) as f:
            refs = json.load(f).get(workload, {})
        self.expected = refs.get(str(seed))
        self.canary = refs.get(CANARY_SEED, [])[:CANARY_JOBS]
        self.attempted = 0
        self.failed = 0

    def needs_canary(self):
        return self.expected is None

    def check(self, digests, canary_digests=None):
        self.attempted += len(digests)
        if self.expected is None:
            expected = [None] * len(digests)
        elif len(self.expected) != len(digests):
            expected = [""] * len(digests)
        else:
            expected = self.expected
        for got, want in zip(digests, expected):
            if got == "failed" or (want is not None and got != want):
                self.failed += 1
        if canary_digests is not None:
            self.attempted += len(canary_digests)
            if len(canary_digests) != len(self.canary):
                self.failed += len(canary_digests) or 1
            else:
                self.failed += sum(g != w for g, w in
                                   zip(canary_digests, self.canary))


def read_setting(path, key, sep):
    """Value of the first `key<sep>value` line of a build file."""
    try:
        with open(os.path.join(BUILD, path)) as f:
            for line in f:
                name, found, value = line.partition(sep)
                if found and name.strip() == key:
                    return value.strip()
    except OSError:
        pass
    return "unknown"


def host_info():
    cxx = read_setting("CMakeCache.txt", "CMAKE_CXX_COMPILER:FILEPATH", "=")
    try:
        compiler = subprocess.run([cxx, "--version"], capture_output=True,
                                  text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        compiler = cxx
    flags = read_setting("CMakeFiles/perfbench_sample.dir/flags.make",
                         "CXX_FLAGS", "=")
    load = " ".join(f"{x:.2f}" for x in os.getloadavg())
    return (f"host: {os.cpu_count()} CPUs, load average {load}; "
            f"compiler: {compiler}; flags: {flags}")


def host_scale(s):
    """Factor that converts the host times of sample `s` to the
    reference host speed: the probe's reference time over its time
    next to the sample (mean of the probes before and after)."""
    return PROBE_REFERENCE_S / statistics.fmean(s["probe_s"])


def measure(workload, seed, seconds, checker):
    samples, durations = [], []
    start = time.monotonic()
    while True:
        extra = ["--setup-reps", str(SETUP_REPS)]
        if checker.needs_canary() and not samples:
            extra.append("--canary")
        t0 = time.monotonic()
        s = sample(workload, seed, *extra)
        durations.append(time.monotonic() - t0)
        checker.check(s["digests"], s["canary_digests"] or None)
        samples.append(s)
        # Start another sample unless more than half of it would run
        # past the measuring time, so runs end close to `seconds`.
        elapsed = time.monotonic() - start
        next_mid = elapsed + 0.5 * statistics.median(durations)
        if len(samples) >= MIN_SAMPLES and (next_mid > seconds or
                                            next_mid > RUN_BUDGET_S):
            break
    if any(s["digests"] != samples[0]["digests"] for s in samples):
        checker.failed += 1  # nondeterministic across processes

    scales = [host_scale(s) for s in samples]
    sweeps = [k * s["sweep_s"] for k, s in zip(scales, samples)]
    walls = [k * w for k, s in zip(scales, samples) for w in s["job_wall_s"]]
    metrics = {
        "sweep_s": statistics.median(sweeps),
        "sim_mips": statistics.median(s["instructions"] / t / 1e6
                                      for s, t in zip(samples, sweeps)),
        "job_s_p50": statistics.median(walls),
        "job_s_p90": statistics.quantiles(walls, n=10)[8],
        "setup_s": statistics.median(k * s["setup_s"]
                                     for k, s in zip(scales, samples)),
        "peak_rss_mb": statistics.median(s["peak_rss_kb"] / 1024.0
                                         for s in samples),
        "mpki_err_pct": samples[0]["mpki_err_pct"],
    }
    raw = statistics.median(s["sweep_s"] for s in samples)
    note = (f"{len(samples)} samples in {time.monotonic() - start:.1f} s, "
            f"{len(walls)} job wall times pooled; unscaled sweep_s "
            f"{raw:.4f} s, host scale {min(scales):.3f}-"
            f"{max(scales):.3f}")
    return metrics, END_TO_END_UNITS, note


def traced(workload, seed, checker):
    untraced = sample(workload, seed, "--setup-reps", "1",
                      *(["--canary"] if checker.needs_canary() else []))
    checker.check(untraced["digests"], untraced["canary_digests"] or None)
    # The same jobs dispatched two ways, for the distributed runtime's
    # overhead: on 2 bingo_worker processes and on 2 in-process threads.
    on_workers = sample(workload, seed, "--setup-reps", "1",
                        "--workers", "2")
    checker.check(on_workers["digests"])
    in_process = sample(workload, seed, "--setup-reps", "1",
                        "--threads", "2")
    checker.check(in_process["digests"])
    tr = sample(workload, seed, "--mode", "trace")
    checker.check(tr["digests"])
    if tr["digests"] != untraced["digests"]:
        checker.failed += 1  # the spans perturbed the simulation

    metrics = dict(tr["metrics"])
    cache = untraced["trace_cache"]
    metrics["workload.fill_share"] = (
        metrics["workload.fill_ns_per_rec"] * 1e-9 *
        cache["records_generated"] / untraced["sweep_s"])
    lookups = cache["hits"] + cache["misses"]
    metrics["workload.cache_hit_ratio"] = (cache["hits"] / lookups
                                           if lookups else 0.0)
    metrics["workload.bytes"] = float(cache["bytes"])
    metrics["sim.sweep_overhead_s"] = (untraced["sweep_s"] -
                                      sum(untraced["job_wall_s"]) /
                                      untraced["threads"])
    metrics["dist.overhead_s"] = (on_workers["sweep_s"] -
                                  in_process["sweep_s"])
    metrics["trace.overhead_s"] = tr["traced_wall_s"] - untraced["sweep_s"]
    missing = set(PER_LAYER_UNITS) - set(metrics)
    if missing:
        raise BenchError(f"traced run lacks {sorted(missing)}")
    metrics = {k: metrics[k] for k in PER_LAYER_UNITS}
    note = (f"untraced sweep {untraced['sweep_s']:.3f} s, traced "
            f"{tr['traced_wall_s']:.3f} s")
    return metrics, PER_LAYER_UNITS, note


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def write_reference(seeds):
    build()
    ref = {}
    for workload in WORKLOADS:
        ref[workload] = {}
        for seed in seeds:
            s = sample(workload, seed, "--setup-reps", "1")
            if s["failed"]:
                raise BenchError(f"{workload} seed {seed}: jobs failed")
            ref[workload][str(seed)] = s["digests"]
            log(f"reference {workload} seed {seed}: {len(s['digests'])} "
                f"jobs")
    with open(REFERENCE, "w") as f:
        json.dump(ref, f, indent=0, sort_keys=True)
        f.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    parser.add_argument("--seeds", default="0-31,42")
    args = parser.parse_args()

    try:
        if args.write_reference:
            write_reference(parse_seeds(args.seeds))
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        build()
        checker = Checker(args.workload, args.seed)
        if args.trace:
            metrics, units, note = traced(args.workload, args.seed, checker)
        else:
            metrics, units, note = measure(args.workload, args.seed,
                                           args.seconds, checker)
    except (BenchError, OSError, ValueError, KeyError) as e:
        log(f"perfbench: {e}")
        return 1

    print(host_info())
    print(f"workload {args.workload}, seed {args.seed}: {note}")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:14.6g} {units[name]}")
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    # A job that failed or whose simulated result changed makes the
    # whole run a failure, after its numbers are printed.
    return 0 if checker.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
