"""The mutation gate: every mutant in ``MUTANTS`` must make at least one of
its named tests fail.

Run it from anywhere, with pytest and hypothesis installed:

    python tools/mutants.py

A mutant is (file under src/slopecert, old text, new text, test ids). For
each, the script checks that the old text occurs exactly once in the file,
copies src/ to a temporary directory, replaces the old text there and runs
only the named tests against that copy. First it runs every named test
against an unchanged copy, which must pass, so that no mutant is counted as
killed by a test that fails anyway. It exits 1 if a named test fails on the
unchanged copy, if an old text is not found exactly once, or if a mutant
survives. A surviving mutant is a missing test to add, never an entry to
delete.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

REWRITES = "tests/test_homfly.py::TestRewrites::"
DESCENT = REWRITES + "test_descent_conjugates_are_conjugates"
MEMO_SIZE = "tests/test_homfly.py::TestWorkIsPinned::test_cold_gamma_memo_size"
SMALL_WORDS = "tests/test_homfly.py::TestGammaPositive::test_exhaustive_small_words"
LINKING = "tests/test_skein_tree.py::TestExpansion::test_two_cable_linking_number"
SHARED_DAG = "tests/test_skein_tree.py::TestSharing::test_shared_dag_equals_unshared_reference"
CHECKS = "tests/test_certify.py::TestCertifySlope::"

MUTANTS = [
    # the three rules of the fast engine's _gamma_node
    ("homfly.py", "k2 = (yield n2, word2) if len(word2) >= n2 else (1,)", "k2 = (yield n2, word2) if len(word2) >= n2 else (1, 1)", [SMALL_WORDS]),
    ("homfly.py", "return product if r is None else", "return _plus(product, product) if r is None else", [SMALL_WORDS]),
    ("homfly.py", "_plus(r, _plus(product, (0,) + product))", "_plus(r, _plus(product, product))", [SMALL_WORDS]),
    # the descent walk of the square search
    ("homfly.py", "if pos[g - 1] > pos[g]:", "if pos[g - 1] < pos[g]:", [DESCENT]),
    ("homfly.py", "for step in (1, -1):", "for step in (-1, 1):", [DESCENT]),
    ("homfly.py", "        for g in range(1, n):", "        for g in range(n - 1, 0, -1):", [MEMO_SIZE]),
    ("homfly.py", "    arr[g - 1], arr[g] = arr[g], arr[g - 1]\n", "", [DESCENT, REWRITES + "test_window_search_matches_every_rotation"]),
    ("homfly.py", "walk.append(conjugate)", "pass", [REWRITES + "test_find_square_through_a_right_descent"]),
    # the skein trees, the closed-form templates and the dual gluing
    ("skein_tree.py", "q * r - m", "q * r + m", [LINKING]),
    # each edge's weight, applied as a shift by a power of -a
    ("skein_tree.py", "lk - 1", "lk", [LINKING, SHARED_DAG]),
    ("skein_tree.py", "left.value + right.value, 1)", "left.value + right.value, -1)", [LINKING, SHARED_DAG]),
    ("skein_tree.py", ", fold=True)", ")", [LINKING, SHARED_DAG]),
    # no weight of a production slope cancels a term, so only the shift's own test sees a zero kept
    ("skein_tree.py", "for e, c in out.items() if c}", "for e, c in out.items()}", ["tests/test_skein_tree.py::TestWeights::test_shift_is_the_product_by_a_power_of_minus_a"]),
    # production slopes shift by even powers only, so the free (q, r, t) tests kill this one
    ("skein_tree.py", "sign = -1 if k % 2 else 1", "sign = 1", ["tests/test_skein_tree.py::TestClosedForms::test_identities_hold_for_every_tuple"]),
    ("skein_tree.py", "_KB = _template(-ALPHA,", "_KB = _template(ALPHA,", ["tests/test_skein_tree.py::TestClosedForms::test_tree_equals_closed_form_for_production_params"]),
    # the per-slope checks of certify_slope
    ("certify.py", "_check(closure_components(w) == 1,", "_check(True or closure_components(w) == 1,", [CHECKS + "test_a_closure_that_is_not_a_knot_raises"]),
    ("certify.py", "_check(not gamma_cr.is_unit(),", "_check(True or not gamma_cr.is_unit(),", [CHECKS + "test_a_failed_check_raises"]),
    ("certify.py", "_check(gamma_cr.evaluate(-1) == 1,", "_check(True or gamma_cr.evaluate(-1) == 1,", [CHECKS + "test_a_gamma_off_one_at_minus_one_raises"]),
    ("certify.py", "all(c >= 0 for c in", "True or all(c >= 0 for c in", [CHECKS + "test_a_negative_normalized_coefficient_raises"]),
    ("certify.py", "zeroth_gamma(homfly_oracle(w)) == gamma_cr,", "True or zeroth_gamma(homfly_oracle(w)) == gamma_cr,", [CHECKS + "test_an_oracle_disagreement_raises"]),
    ("surgery.py", "GluingMatrix(s * (1 - q * r), q * r * r, -q, p)", "GluingMatrix(p, q * r * r, -q, s * (1 - q * r))", ["tests/test_surgery.py::TestDualGluing::test_matches_correction_times_inverse"]),
]


def pytest(src: Path, tests: list) -> subprocess.CompletedProcess:
    """The named tests run against the package in ``src``."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True)


def fresh_copy(tmp: Path) -> Path:
    src = tmp / "src"
    shutil.rmtree(src, ignore_errors=True)
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return src


def main() -> int:
    problems = []
    with tempfile.TemporaryDirectory() as tmp:
        src = fresh_copy(Path(tmp))
        where = subprocess.run(
            [sys.executable, "-c", "import slopecert; print(slopecert.__file__)"],
            cwd=ROOT, env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
        ).stdout.strip()
        if not where.startswith(str(src)):
            print(f"the tests would import slopecert from {where or 'nowhere'}, not from the copy")
            return 1
        named = sorted({test for *_, tests in MUTANTS for test in tests})
        done = pytest(src, named)
        if done.returncode != 0:
            print(f"the named tests fail on the unchanged source:\n{done.stdout[-2000:]}")
            return 1
        for name, old, new, tests in MUTANTS:
            label = f"{name}: {old.strip()!r} -> {new.strip()!r}"
            text = (ROOT / "src" / "slopecert" / name).read_text(encoding="utf-8")
            if text.count(old) != 1:
                problems.append(f"{label}: the old text occurs {text.count(old)} times, not once")
                continue
            src = fresh_copy(Path(tmp))
            (src / "slopecert" / name).write_text(text.replace(old, new), encoding="utf-8")
            done = pytest(src, tests)
            if done.returncode == 1:  # some test failed: the mutant is killed
                print(f"killed   {label}")
            elif done.returncode == 0:
                problems.append(f"{label}: survived {', '.join(tests)}")
            else:
                problems.append(f"{label}: pytest exited {done.returncode}:\n{done.stdout[-2000:]}{done.stderr[-2000:]}")
    for problem in problems:
        print(f"FAILED   {problem}")
    print(f"{len(MUTANTS) - len(problems)} of {len(MUTANTS)} mutants killed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
