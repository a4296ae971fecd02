#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of an `mhbench run` cell.

    python3 perfbench/run.py --workload cv-width-train --seed 1 \\
        --seconds 30 --trace 0

Builds perfbench/bench_e2e from the checkout's sources (Release, into
.bench_build/), then launches it once per repetition until --seconds have
passed.  Every repetition is its own process, so peak RSS is the workload's
own.  With --trace 0 it prints the end-to-end metrics; with --trace 1 it
alternates untraced and traced repetitions and prints the per-layer
metrics plus the tracing overhead.  The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

A repetition fails when the driver exits non-zero, a measurement is not
finite, its output fingerprint differs from the other repetitions of the
same seed or (on the default seed) from the value recorded in
fingerprints.json, or its mean per-client accuracy is not above chance.

--tiny shrinks every workload to a smoke-test size (used by test_run.py);
too small to learn, so only the repetitions' agreement is checked there.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
DRIVER = os.path.join(BUILD_DIR, "bench_e2e")
FINGERPRINTS = os.path.join(HERE, "fingerprints.json")

WORKLOADS = ("cv-width-train", "nlp-topology-eval", "har-fleet-observed")
DEFAULT_SEED = 1
# Repetitions per run, at least, whatever --seconds says (per kind in a
# traced run): medians need a few samples.
MIN_REPS = 3
# Tail percentiles keep at least this many samples beyond them.
TAIL_BEYOND = 10
CHILD_TIMEOUT_S = 150

# End-to-end metrics (untraced repetitions): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "rounds_per_s": "1/s",
    "round_ms_p50": "ms",
    "round_ms_tail": "ms",
    "final_eval_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics (traced repetitions): name -> (unit, the end-to-end
# metric it should move, the workload it should move on, the workload it
# should leave unchanged).  Written down before any optimisation claims.
PER_LAYER = {
    "data.make_task_s": ("s", "setup_s", "cv-width-train", None),
    "constraints.build_s": ("s", "setup_s", "har-fleet-observed", None),
    "algorithms.setup_s": ("s", "setup_s", "nlp-topology-eval", None),
    "algorithms.setup_rss_mb": ("MB", "peak_rss_mb", "nlp-topology-eval",
                                "cv-width-train"),
    "fl.dispatch_share": ("ratio", "rounds_per_s", "cv-width-train", None),
    "fl.client_task_ms_p50": ("ms", "round_ms_p50", "cv-width-train", None),
    "fl.client_task_ms_tail": ("ms", "round_ms_p50", "cv-width-train", None),
    "fl.dispatch_idle_share": ("ratio", "rounds_per_s", "har-fleet-observed",
                               "cv-width-train"),
    "fl.client_heap_allocs": ("count", "rounds_per_s", "cv-width-train",
                              None),
    "fl.merge_share": ("ratio", "rounds_per_s", "har-fleet-observed",
                       "nlp-topology-eval"),
    "fl.global_eval_s": ("s", "round_ms_tail", "cv-width-train", None),
    "fl.client_eval_ms_p50": ("ms", "final_eval_s", "nlp-topology-eval",
                              None),
    "fl.engine_self_share": ("ratio", "rounds_per_s", "har-fleet-observed",
                             "cv-width-train"),
    # An exact count: it moves only when the arithmetic changes.
    "tensor.gemm_gflop": ("GFLOP", None, "all", "all"),
    "tensor.train_gflops_per_s": ("GFLOP/s", "rounds_per_s",
                                  "cv-width-train", "har-fleet-observed"),
    "tensor.eval_gflops_per_s": ("GFLOP/s", "final_eval_s",
                                 "nlp-topology-eval", None),
    "tensor.scratch_peak_bytes": ("bytes", "peak_rss_mb",
                                  "har-fleet-observed", None),
    "tensor.scratch_chunk_allocs": ("count", "peak_rss_mb",
                                    "har-fleet-observed", None),
    "nn.conv2d_fwd_gflops_per_s": ("GFLOP/s", "rounds_per_s",
                                   "cv-width-train", "nlp-topology-eval"),
    "nn.conv2d_bwd_gflops_per_s": ("GFLOP/s", "rounds_per_s",
                                   "cv-width-train", "nlp-topology-eval"),
    "nn.linear_fwd_gflops_per_s": ("GFLOP/s", "final_eval_s",
                                   "nlp-topology-eval", "cv-width-train"),
    "nn.attention_fwd_gflops_per_s": ("GFLOP/s", "final_eval_s",
                                      "nlp-topology-eval", "cv-width-train"),
    "obs.artifact_bytes": ("bytes", "rounds_per_s", "har-fleet-observed",
                           "cv-width-train"),
    "bench.trace_overhead_share": ("ratio", None, "all", None),
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def tail_percentile(values, beyond=TAIL_BEYOND):
    """The highest percentile of `values` with at least `beyond` samples
    beyond it, as (value, percentile, sample count)."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= beyond:
        raise ValueError(f"{n} samples leave none with {beyond} beyond it")
    k = n - 1 - beyond
    return ordered[k], 100.0 * (k + 1) / n, n


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("no src/CMakeLists.txt next to perfbench/: "
                           "run from a full checkout")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "bench_e2e",
                    "-j", "2"], check=True, stdout=sys.stderr)


def run_once(workload, seed, trace, tiny, rep):
    """One repetition in its own process; returns (record, error)."""
    out_dir = os.path.join(BUILD_DIR, "runs", f"{os.getpid()}-{rep}")
    os.makedirs(out_dir, exist_ok=True)
    try:
        proc = subprocess.run(
            [DRIVER, "--workload", workload, "--seed", str(seed),
             "--trace", "1" if trace else "0", "--tiny", "1" if tiny else "0",
             "--out-dir", out_dir],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, "timed out"
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    if proc.returncode != 0:
        return None, f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}"
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), None
    except (IndexError, ValueError) as e:
        return None, f"unparsable output ({e})"


def all_finite(obj):
    if isinstance(obj, dict):
        return all(all_finite(v) for v in obj.values())
    if isinstance(obj, list):
        return all(all_finite(v) for v in obj)
    if isinstance(obj, float):
        return math.isfinite(obj)
    return True


def check(rec, seed, tiny, first_fingerprint):
    """The reason `rec` is wrong, or None."""
    if not all_finite(rec):
        return "non-finite measurement"
    if first_fingerprint not in (None, rec["fingerprint"]):
        return (f"fingerprint {rec['fingerprint']} differs from "
                f"{first_fingerprint} earlier in this run")
    if seed == DEFAULT_SEED and not tiny:
        with open(FINGERPRINTS) as f:
            recorded = json.load(f).get(rec["kernel_backend"], {})
        want = recorded.get(rec["workload"])
        if want is not None and rec["fingerprint"] != want:
            return (f"fingerprint {rec['fingerprint']} != recorded {want} "
                    f"({rec['kernel_backend']})")
        if want is None:
            log(f"note: no fingerprint recorded for {rec['workload']} on "
                f"kernel backend {rec['kernel_backend']}")
    if not tiny and rec["mean_client_accuracy"] <= rec["chance_accuracy"]:
        return (f"mean client accuracy {rec['mean_client_accuracy']} not "
                f"above chance {rec['chance_accuracy']}")
    return None


def rounds_per_s(rec):
    return len(rec["round_ms"]) / rec["loop_s"]


def end_to_end(recs):
    med = lambda key: statistics.median(r[key] for r in recs)
    pooled = [ms for r in recs for ms in r["round_ms"]]
    tail, pct, n = tail_percentile(pooled)
    print(f"round_ms_p50 over {n} rounds; round_ms_tail = p{pct:.1f} of {n} "
          f"rounds ({TAIL_BEYOND} beyond); {len(recs)} repetitions")
    return {
        "setup_s": med("setup_s"),
        "rounds_per_s": statistics.median(rounds_per_s(r) for r in recs),
        "round_ms_p50": statistics.median(pooled),
        "round_ms_tail": tail,
        "final_eval_s": med("final_eval_s"),
        "peak_rss_mb": med("peak_rss_mb"),
    }


def op_rate(rec, op):
    flops, wall_ns = rec["ops"].get(op, (0, 0))
    return flops / wall_ns if wall_ns else 0.0  # flop/ns == GFLOP/s


def per_layer(traced, untraced):
    def med(fn):
        return statistics.median(fn(r) for r in traced)

    def share(key):
        return med(lambda r: r[key] / r["loop_s"])

    tasks = [ms for r in traced for ms in r["client_task_ms"]]
    task_tail, pct, n = tail_percentile(tasks)
    print(f"fl.client_task_ms_tail = p{pct:.1f} of {n} client tasks")
    metrics = {
        "data.make_task_s": med(lambda r: r["make_task_s"]),
        "constraints.build_s": med(lambda r: r["constraints_build_s"]),
        "algorithms.setup_s": med(lambda r: r["algorithm_setup_s"]),
        "algorithms.setup_rss_mb": med(lambda r: r["setup_rss_mb"]),
        "fl.dispatch_share": share("dispatch_s"),
        "fl.client_task_ms_p50": statistics.median(tasks),
        "fl.client_task_ms_tail": task_tail,
        "fl.dispatch_idle_share": med(lambda r: 1 - r["train_wall_s"] / (
            r["threads"] * r["dispatch_s"])),
        "fl.client_heap_allocs": med(
            lambda r: r["client_heap_allocs"] / len(r["client_task_ms"])),
        "fl.merge_share": share("merge_s"),
        "fl.global_eval_s": med(lambda r: r["global_eval_s"]),
        "fl.client_eval_ms_p50": med(
            lambda r: statistics.median(r["client_eval_ms"])),
        "fl.engine_self_share": med(
            lambda r: 1 - (r["dispatch_s"] + r["merge_s"] +
                           r["global_eval_s"]) / r["loop_s"]),
        "tensor.gemm_gflop": med(lambda r: r["gemm_flops"] / 1e9),
        "tensor.train_gflops_per_s": med(
            lambda r: r["train_flops"] / r["train_wall_s"] / 1e9),
        "tensor.eval_gflops_per_s": med(
            lambda r: r["eval_flops"] / r["final_eval_s"] / 1e9),
        "tensor.scratch_peak_bytes": med(lambda r: r["scratch_peak_bytes"]),
        "tensor.scratch_chunk_allocs": med(
            lambda r: r["scratch_chunk_allocs"]),
        "nn.conv2d_fwd_gflops_per_s": med(lambda r: op_rate(r, "conv2d_fwd")),
        "nn.conv2d_bwd_gflops_per_s": med(lambda r: op_rate(r, "conv2d_bwd")),
        "nn.linear_fwd_gflops_per_s": med(lambda r: op_rate(r, "linear_fwd")),
        "nn.attention_fwd_gflops_per_s": med(
            lambda r: op_rate(r, "attention_fwd")),
        "obs.artifact_bytes": med(lambda r: r["artifact_bytes"]),
        "bench.trace_overhead_share": (
            statistics.median(rounds_per_s(r) for r in untraced) /
            statistics.median(rounds_per_s(r) for r in traced) - 1),
    }
    assert metrics.keys() == PER_LAYER.keys()
    return metrics


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="smoke-test sizes (checks agreement only)")
    args = p.parse_args(argv)

    try:
        build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        log(f"perfbench: build failed: {e}")
        return 2

    deadline = time.monotonic() + args.seconds
    untraced, traced = [], []
    attempted = failed = 0
    fingerprint = None
    while True:
        trace = bool(args.trace) and len(traced) < len(untraced)
        rec, err = run_once(args.workload, args.seed, trace, args.tiny,
                            attempted)
        attempted += 1
        if err is None:
            err = check(rec, args.seed, args.tiny, fingerprint)
        if err is not None:
            failed += 1
            log(f"repetition {attempted} failed: {err}")
        else:
            fingerprint = rec["fingerprint"]
            (traced if trace else untraced).append(rec)
        enough = len(untraced) >= MIN_REPS and (
            not args.trace or len(traced) >= MIN_REPS)
        if time.monotonic() >= deadline and (
                enough or attempted >= 4 * MIN_REPS):
            break
    if not enough:
        log("perfbench: too few successful repetitions")
        return 1

    if args.trace:
        metrics = {k: {"value": v, "unit": PER_LAYER[k][0]}
                   for k, v in per_layer(traced, untraced).items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]}
                   for k, v in end_to_end(untraced).items()}
    print(f"{args.workload} seed {args.seed}: fingerprint {fingerprint}, "
          f"final accuracy {untraced[0]['final_accuracy']}, mean client "
          f"accuracy {untraced[0]['mean_client_accuracy']:.4f}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
