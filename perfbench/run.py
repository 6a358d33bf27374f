"""The slopecert benchmark: end-to-end certification metrics per workload,
and per-layer metrics from a separate traced run.

    python3 perfbench/run.py --workload small-slopes --seed 1 --seconds 35 --trace 0

A run is a closed loop with one caller. It starts passes over the workload's
slopes, each in a fresh interpreter (see worker.py), until ``--seconds``
have gone by, at least ``MIN_PASSES`` passes are done and their number is
even. Pass k certifies the slopes in the order the seed and k fix.

With ``--trace 0`` it reports the end-to-end metrics named in
BENCHMARK.json. With ``--trace 1`` each untraced pass is followed by a
traced pass over the same order, and it reports the per-layer metrics: self
time per layer (median over passes), exact work counts (first pass) and the
tracing overhead. Every certificate is checked against the committed
digests, and a traced pass must produce the same certificates as its
untraced twin.

The report goes to stdout, ending with one JSON line
{"correct", "attempted", "failed", "metrics"}; the full result, with run
metadata and every failure, goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

from workloads import DIGESTS_PATH, MIN_PASSES, WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

# A run must end within 180 s; no worker may push it past this.
RUN_DEADLINE_S = 170.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def run_worker(workload: Workload, seed: int, pass_index: int, trace: bool, deadline: float,
               spans_path: Path = None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload.name,
           "--seed", str(seed), "--pass", str(pass_index), "--trace", str(int(trace))]
    if spans_path is not None:
        cmd += ["--spans", str(spans_path)]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        raise BenchError(f"pass {pass_index} did not finish within the {RUN_DEADLINE_S} s deadline")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"pass {pass_index} exited with code {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready_monotonic"] - spawned
    return result


def percentile(sorted_values: List[float], pct: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, -(-len(sorted_values) * pct // 100))
    return sorted_values[int(rank) - 1]


def slope_latencies(passes: List[dict]) -> Dict[str, float]:
    """Each slope's median operation time at nominal speed over the run's
    passes, in seconds."""
    times: Dict[str, List[float]] = {}
    for p in passes:
        for op in p["ops"]:
            times.setdefault(op["slope"], []).append(op["norm_s"])
    return {slope: statistics.median(ts) for slope, ts in times.items()}


def end_to_end(workload: Workload, passes: List[dict]) -> Dict[str, float]:
    """All times are at nominal machine speed (see speed.py). Throughput is
    certified operations over the summed time of all operations; latency
    comes from each slope's median operation time; set-up time and memory
    are medians over passes.

    Other tenants of the host slow the processor by up to 1.7 times, in
    spells from a tenth of a second to minutes, so raw times, and even the
    fastest of many tries, change from run to run by that much. Each time
    is therefore divided by the slowdown that reference probes taken next
    to it read."""
    ops = [op for p in passes for op in p["ops"]]
    certified = sum(op["status"] != "failed" for op in ops)
    per_slope = slope_latencies(passes)
    latencies = sorted(t * 1000 for t in per_slope.values())

    def per_pass(stat):
        return statistics.median(stat(p) for p in passes)

    return {
        "certified_per_s": certified / sum(op["norm_s"] for op in ops),
        "latency_p50_ms": statistics.median(latencies),
        "latency_tail_ms": percentile(latencies, workload.tail_percentile),
        "certified_frac": certified / len(ops),
        "direct_coverage": per_pass(lambda p: sum(op.get("direct", False) for op in p["ops"])),
        "peak_rss_mb": per_pass(lambda p: p["peak_rss_mb"]),
        "setup_s": per_pass(lambda p: p["setup_s"] / p["setup_slowdown"]),
    }


def wall_clock(passes: List[dict]) -> str:
    """Throughput and median latency of the raw operations and the median
    slowdown the probes read, for reference."""
    ops = [op for p in passes for op in p["ops"]]
    certified = sum(op["status"] != "failed" for op in ops)
    return (f"wall clock: {certified / sum(op['s'] for op in ops)} slopes/s, "
            f"median operation {statistics.median(op['s'] for op in ops) * 1000} ms over {len(ops)} operations, "
            f"machine {statistics.median(op['s'] / op['norm_s'] for op in ops)} times slower than nominal")


def per_layer(untraced: List[dict], traced: List[dict]) -> Dict[str, float]:
    """Times: median over traced passes. Counts: the first traced pass, whose
    slope order a seed fixes, so they repeat exactly. Overhead: the summed
    median operation per slope at nominal speed, traced minus untraced."""
    out = {}
    for name, first in traced[0]["layers"].items():
        values = [t["layers"][name] for t in traced]
        out[name] = statistics.median(values) if name.endswith("_s") else first
    out["trace.overhead_s"] = sum(slope_latencies(traced).values()) - sum(slope_latencies(untraced).values())
    return out


def metadata(workload: Workload, seed: int, seconds: float, passes: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "cpu": cpu or "unknown",
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "gamma_budget": workload.gamma_budget,
        "passes": passes,
        "tail_percentile": workload.tail_percentile,
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def failures(passes: List[dict]) -> Dict[str, dict]:
    """Failed operations grouped by slope."""
    out: Dict[str, dict] = {}
    for p in passes:
        for op in p["ops"]:
            if op["status"] == "failed":
                entry = out.setdefault(op["slope"], {"error": op["error"], "message": op["message"], "seconds": []})
                entry["seconds"].append(op["s"])
    return out


def digest_disagreements(untraced: List[dict], traced: List[dict]) -> List[str]:
    seen = {op["slope"]: op.get("digest") for p in untraced for op in p["ops"]}
    return sorted({op["slope"] for p in traced for op in p["ops"] if op.get("digest") != seen.get(op["slope"])})


def collect_passes(workload: Workload, seed: int, seconds: float, trace: bool, spans_path: Path):
    """Untraced passes (each followed by a traced twin when ``trace``) until
    ``seconds`` have gone by and an even number of at least MIN_PASSES are
    done."""
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    untraced: List[dict] = []
    traced: List[dict] = []
    longest = 0.0
    while len(untraced) < MIN_PASSES or time.monotonic() - start < seconds or len(untraced) % 2:
        began = time.monotonic()
        if began + 1.5 * longest > deadline:
            break  # another pass would likely overrun the deadline
        k = len(untraced)
        untraced.append(run_worker(workload, seed, k, False, deadline))
        if trace:
            traced.append(run_worker(workload, seed, k, True, deadline, spans_path if k == 0 else None))
        longest = max(longest, time.monotonic() - began)
    return untraced, traced


def print_checks(workload: Workload, untraced: List[dict], failed: Dict[str, dict],
                 unchecked: List[str], disagree: List[str], n_ops: int) -> None:
    n = sum(len(p["ops"]) for p in untraced)
    n_failed = sum(op["status"] == "failed" for p in untraced for op in p["ops"])
    print(f"failed_frac = {n_failed / n} ({n_failed} of {n} ops over {len(untraced)} passes "
          f"of {len(workload.slopes)} slopes)")
    print(f"latencies are each slope's median of {len(untraced)} passes at nominal speed; "
          f"latency_tail_ms is p{workload.tail_percentile} of {len(workload.slopes)} slopes")
    print(wall_clock(untraced))
    for slope, f in sorted(failed.items()):
        print(f"FAIL {slope}: {f['error']} in {len(f['seconds'])} op(s), "
              f"median {statistics.median(f['seconds']):.3f} s: {f['message']}")
    if unchecked:
        print(f"unchecked (certified, no committed digest): {' '.join(unchecked)}")
    if disagree:
        print(f"traced certificates differ from untraced for: {' '.join(disagree)}")
    n_failed_all = sum(len(f["seconds"]) for f in failed.values())
    print(f"digests: {n_ops - n_failed_all - len(unchecked)} of {n_ops} ops match the committed certificates")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="slopecert benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    missing = [p for p in (ROOT / "src" / "slopecert" / "__init__.py", BENCHMARK_JSON, DIGESTS_PATH) if not p.exists()]
    if missing:
        print("benchmark cannot run, missing: " + ", ".join(map(str, missing)), file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK_JSON.read_text())
    workload = WORKLOADS[args.workload]
    RESULTS.mkdir(exist_ok=True)
    spans_path = RESULTS / f"{workload.name}-seed{args.seed}-spans.json"
    try:
        untraced, traced = collect_passes(workload, args.seed, args.seconds, bool(args.trace), spans_path)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    meta = metadata(workload, args.seed, args.seconds, len(untraced))
    e2e = end_to_end(workload, untraced)
    ops = [op for p in untraced + traced for op in p["ops"]]
    failed = failures(untraced + traced)
    mismatches = [s for s, f in failed.items() if f["error"] == "DigestMismatch"]
    disagree = digest_disagreements(untraced, traced)
    unchecked = sorted({op["slope"] for op in ops if op["status"] == "unchecked"})

    print("meta: " + ", ".join(f"{k} {v}" for k, v in meta.items()))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for m in spec["end_to_end"]:
        print(f"{m['name']} = {e2e[m['name']]} {m['unit']}")
    print_checks(workload, untraced, failed, unchecked, disagree, len(ops))
    layers = {}
    if args.trace:
        layers = per_layer(untraced, traced)
        for name, value in layers.items():
            print(f"{name} = {value} {units.get(name, 's' if name.endswith('_s') else 'count')}")
        print(f"spans of the first traced pass: {spans_path.relative_to(ROOT)}")
    values = layers if args.trace else e2e
    result = {
        "correct": not mismatches and not disagree,
        "attempted": len(ops),
        "failed": sum(op["status"] == "failed" for op in ops),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in spec["per_layer" if args.trace else "end_to_end"]},
    }
    passes = [{"loop_s": p["loop_s"], "setup_s": p["setup_s"], "setup_slowdown": p["setup_slowdown"],
               "peak_rss_mb": p["peak_rss_mb"],
               "p50_ms": statistics.median(op["s"] for op in p["ops"]) * 1000} for p in untraced]
    out_path = RESULTS / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps({**result, "meta": meta, "end_to_end": e2e, "per_layer": layers,
                                    "failures": failed, "unchecked": unchecked, "passes": passes,
                                    "slope_ms": {k: v * 1000 for k, v in slope_latencies(untraced).items()}},
                                   indent=2) + "\n")
    print(f"full result: {out_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
