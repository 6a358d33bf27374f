"""Self-test of the benchmark harness on a few tiny slopes.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import speed
from tracer import Tracer
from worker import import_slopecert, run_pass
from workloads import WORKLOADS, load_digests, pass_order

ROOT = Path(__file__).resolve().parent.parent
TINY = [(2, 1), (3, 1), (5, 2)]

slopecert = import_slopecert()


def _statuses(result):
    return [op["status"] for op in result["ops"]]


def test_traced_and_untraced_passes_match_committed_digests():
    digests = load_digests(16)
    tracer = Tracer()
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, *_ in tracer.targets()]

    untraced = run_pass(slopecert.certify_slope, TINY, 16, digests)
    tracer.install()
    try:
        traced = run_pass(slopecert.certify_slope, TINY, 16, digests, tracer)
    finally:
        tracer.uninstall()

    assert _statuses(untraced) == _statuses(traced) == ["ok"] * len(TINY)
    assert [op["digest"] for op in untraced["ops"]] == [op["digest"] for op in traced["ops"]]
    assert [op["digest"] for op in untraced["ops"]] == [digests[f"{p}/{q}"] for p, q in TINY]
    for owner, attr, original in originals:
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr} was not restored"

    layers = tracer.layer_metrics()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["per_layer"]} - {"trace.overhead_s"} <= set(layers)
    assert layers["homfly.gamma_positive_calls"] == sum(op["direct"] for op in traced["ops"]) > 0
    assert layers["surgery.candidates"] >= len(TINY)
    assert layers["skein_tree.tree_nodes"] > 0 and layers["poly.laurent_mul_term_pairs"] > 0


def test_times_are_scaled_by_the_nearest_probes():
    # probes at t = 1, 2 (before) and 4, 5, 9 (after); the far one is ignored
    probes = [(1.0, 2e-3), (2.0, 2e-3), (4.0, 4e-3), (5.0, 4e-3), (9.0, 1.0)]
    slowdown = 3e-3 / speed.NOMINAL_PROBE_S
    assert speed.slowdown(probes, 2.5, 3.5) == pytest.approx(slowdown)
    assert speed.normalize(probes, 2.5, 3.5) == pytest.approx(1.0 / slowdown)
    mid, duration = speed.probe()
    assert duration > 0


def test_passes_report_normalized_times():
    result = run_pass(slopecert.certify_slope, TINY, 16, load_digests(16))
    assert result["probes"] >= 2 * speed.PROBES_EACH_SIDE and result["setup_slowdown"] > 0
    assert all(op["norm_s"] > 0 for op in result["ops"])


def test_failures_are_recorded_per_slope():
    digests = dict(load_digests(16))
    digests["3/1"] = "0" * 64
    result = run_pass(slopecert.certify_slope, [(2, 1), (3, 1), (4, 2)], 16, digests)
    ok, mismatch, bad_slope = result["ops"]
    assert ok["status"] == "ok"
    assert (mismatch["slope"], mismatch["status"], mismatch["error"]) == ("3/1", "failed", "DigestMismatch")
    assert (bad_slope["status"], bad_slope["error"]) == ("failed", "ValueError")
    assert bad_slope["s"] >= 0


def test_an_operation_past_the_timeout_fails():
    # 8/3 takes seconds at budget 80; a 10 ms timeout must cut it off
    result = run_pass(slopecert.certify_slope, [(8, 3)], 80, {}, op_timeout_s=0.01)
    (op,) = result["ops"]
    assert (op["status"], op["error"]) == ("failed", "OpTimeout")


def test_certified_slope_without_digest_is_unchecked():
    result = run_pass(slopecert.certify_slope, [(2, 1)], 16, {})
    assert _statuses(result) == ["unchecked"]


def test_paired_passes_run_one_order_both_ways():
    workload = WORKLOADS["direct-route"]
    first, second, third = (pass_order(workload, 7, k) for k in range(3))
    assert second == first[::-1] and third != first
    assert sorted(first) == sorted(workload.slopes)


def test_workload_sizes():
    assert len(WORKLOADS["small-slopes"].slopes) == 597
    assert len(WORKLOADS["wide-slopes"].slopes) == 288
    assert len(WORKLOADS["direct-route"].slopes) == 24
    assert len(WORKLOADS["direct-grid"].slopes) == 28


def test_run_without_program_exits_nonzero_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small-slopes", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
