"""One benchmark pass over a workload's slopes, in a fresh interpreter.

A fresh interpreter per pass makes the module-level memos of
``slopecert.homfly`` start cold, as they do for a ``slopecert batch`` call.
Each operation is one ``certify_slope(p, q, gamma_budget=...)`` call
followed by ``Certificate.to_json()``, the per-slope work of
``batch --json-dir``. Every exception, timeout and digest mismatch is
recorded against its slope; none stops the pass.

Usage (normally started by run.py):
    python3 perfbench/worker.py --workload NAME --seed N --pass K --trace 0|1 [--spans PATH]

Prints one JSON object: per-operation records, the pass's loop time, the
monotonic clock reading just before the first operation (for set-up time),
the peak RSS and, when traced, the per-layer metrics. Each operation's
time is given twice: as measured, and at nominal machine speed, as the
reference probes between operations read it (see speed.py).
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

import speed
from tracer import CERTIFY_SPAN, TO_JSON_SPAN, Tracer
from workloads import WORKLOADS, certificate_digest, digest_key, load_digests, pass_order

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Far above the slowest operation at the time the benchmark was written
# (about 2 s for 8/3 at gamma budget 80, 6 s for a SquareSearchError).
OP_TIMEOUT_S = 60.0

REASON_DIRECT = "direct-gamma-non-unit"


class OpTimeout(Exception):
    """An operation ran past the per-operation timeout."""


def import_slopecert():
    """Import slopecert from this checkout's ``src``, never an installed copy."""
    sys.path.insert(0, str(SRC))
    import slopecert

    if Path(slopecert.__file__).resolve().parent != SRC / "slopecert":
        raise ImportError(f"imported slopecert from {slopecert.__file__}, not from {SRC}")
    return slopecert


def run_pass(
    certify_slope: Callable,
    slopes: List[tuple],
    gamma_budget: int,
    digests: Dict[str, str],
    tracer: Optional[Tracer] = None,
    op_timeout_s: float = OP_TIMEOUT_S,
) -> dict:
    """Certify each slope in order; return one record per operation.

    A record holds the operation's time as measured (``s``) and at nominal
    machine speed (``norm_s``). Its status is ``ok`` (digest matches),
    ``unchecked`` (certified, no committed digest) or ``failed`` (raised,
    timed out, or digest mismatch). Must run in the main thread, which
    receives SIGALRM.
    """

    def on_alarm(signum, frame):
        raise OpTimeout(f"operation exceeded {op_timeout_s} s")

    records = []
    intervals = []
    previous = signal.signal(signal.SIGALRM, on_alarm)
    try:
        loop_start = time.perf_counter()
        probes = [speed.probe() for _ in range(speed.PROBES_EACH_SIDE)]
        for p, q in slopes:
            slope = digest_key(p, q)
            if time.perf_counter() - probes[-1][0] >= speed.PROBE_EVERY_S:
                probes.append(speed.probe())
            start = time.perf_counter()
            try:
                signal.setitimer(signal.ITIMER_REAL, op_timeout_s)
                try:
                    if tracer is None:
                        cert = certify_slope(p, q, gamma_budget=gamma_budget)
                        text = cert.to_json()
                    else:
                        cert = tracer.call(CERTIFY_SPAN, certify_slope, (p, q), {"gamma_budget": gamma_budget})
                        text = tracer.call(TO_JSON_SPAN, cert.to_json)
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
            except Exception as exc:
                end = time.perf_counter()
                elapsed = end - start
                intervals.append((start, end))
                records.append({"slope": slope, "s": elapsed, "status": "failed",
                                "error": type(exc).__name__, "message": str(exc)[:400]})
                continue
            end = time.perf_counter()
            elapsed = end - start
            intervals.append((start, end))
            digest = certificate_digest(text)
            expected = digests.get(slope)
            record = {"slope": slope, "s": elapsed, "digest": digest,
                      "direct": cert.diff_nonzero_reason == REASON_DIRECT}
            if expected is None:
                record["status"] = "unchecked"
            elif expected == digest:
                record["status"] = "ok"
            else:
                record.update(status="failed", error="DigestMismatch",
                              message=f"certificate sha256 {digest} != committed {expected}")
            records.append(record)
        probes += [speed.probe() for _ in range(speed.PROBES_EACH_SIDE)]
        loop_s = time.perf_counter() - loop_start
    finally:
        signal.signal(signal.SIGALRM, previous)
    for record, (start, end) in zip(records, intervals):
        record["norm_s"] = speed.normalize(probes, start, end)
    return {"ops": records, "loop_s": loop_s, "probes": len(probes),
            "setup_slowdown": speed.slowdown(probes, loop_start, loop_start)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pass", dest="pass_index", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="write the traced pass's spans to this JSON file")
    args = ap.parse_args(argv)

    slopecert = import_slopecert()
    workload = WORKLOADS[args.workload]
    slopes = pass_order(workload, args.seed, args.pass_index)
    digests = load_digests(workload.gamma_budget)
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    ready = time.monotonic()
    try:
        result = run_pass(slopecert.certify_slope, slopes, workload.gamma_budget, digests, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    result["ready_monotonic"] = ready
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        result["spans"] = len(tracer.spans)
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
