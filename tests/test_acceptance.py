"""Acceptance criteria: every identity at its stated size, exact equality.

Each criterion prints one pass/fail line (visible under pytest -s / -rA) and
enforces its runtime bound.  All randomness is seeded, all comparisons are
exact; there are no tolerances to tune.
"""

import random
import subprocess
import sys
import time

from pathtiles import lozenge, partitions, verify


def _run_criterion(number, description, bound_seconds, fn):
    start = time.perf_counter()
    ok, detail = fn()
    elapsed = time.perf_counter() - start
    status = "PASS" if ok and elapsed < bound_seconds else "FAIL"
    print(f"criterion {number:2d} [{status}] {description} ({elapsed:.2f}s < {bound_seconds:.0f}s) {detail}")
    assert ok, f"criterion {number}: {detail}"
    assert elapsed < bound_seconds, f"criterion {number} exceeded {bound_seconds}s ({elapsed:.2f}s)"


def _records_ok(records):
    bad = [r for r in records if not r.passed]
    if bad:
        return False, "; ".join(f"{r.name}: {r.detail}" for r in bad)
    return True, f"{len(records)} check groups"


def test_criterion_1_minor_sum_identities():
    rng = random.Random(101)
    _run_criterion(
        1,
        "minor sums: direct == pfaffian route, squares == determinants (200 matrices)",
        10.0,
        lambda: _records_ok(verify.suite_sigma(rng, trials=200, skew_trials=0)[:1]),
    )


def test_criterion_2_pfaffian_squares():
    rng = random.Random(102)
    _run_criterion(
        2,
        "pfaffian squared == determinant, both implementations agree (100 matrices)",
        10.0,
        lambda: _records_ok(verify.suite_sigma(rng, trials=0, skew_trials=100)[1:2]),
    )


def test_criterion_3_squared_signed_sums():
    rng = random.Random(103)
    _run_criterion(
        3,
        "squared signed sums == both sandwich determinants on grid specs",
        60.0,
        lambda: _records_ok(verify.suite_reflection(rng, det_instances=16, principle_instances=0)[:1]),
    )


def test_criterion_4_reflection_principle():
    rng = random.Random(104)
    _run_criterion(
        4,
        "reflection principle on >= 20 mirrored-graph instances",
        120.0,
        lambda: _records_ok(verify.suite_reflection(rng, det_instances=0, principle_instances=20)[1:2]),
    )


def test_criterion_5_free_boundary_square_identity():
    rng = random.Random(105)
    _run_criterion(
        5,
        "free-boundary square identity, four routes, all shapes/removals (m<=2)",
        300.0,
        lambda: _records_ok(verify.suite_tilings(rng, max_part=4, max_parts=3, max_m=2)[:1]),
    )


def test_criterion_6_staircase_products():
    def run():
        ok, detail = _records_ok(verify.suite_tilings(random.Random(106))[1:2])
        if not ok:
            return ok, detail
        if lozenge.double_staircase_tiling_product(1, 1, 1) != lozenge.mirrored_tiling_gf_formula(1, (2,)):
            return False, "known instance (1,1,1) != 9/2"
        return True, detail + "; (1,1,1) -> 9/2"

    _run_criterion(6, "double-staircase products match determinant formulas", 60.0, run)


def test_criterion_7_hexagon_factorization():
    def run():
        cases = [
            (lozenge.holed_hexagon, (1, 2, ())),
            (lozenge.holed_hexagon, (1, 2, (1,))),
            (lozenge.holed_hexagon, (1, 3, ())),
            (lozenge.holed_hexagon, (1, 3, (1,))),
            (lozenge.punctured_hexagon, (1, 2, 1, ())),
        ]
        for build, args in cases:
            if not lozenge.check_hexagon_factorization(build(*args)):
                return False, f"{build.__name__}{args}"
        return True, f"{len(cases)} hexagon instances"

    _run_criterion(7, "centrally symmetric counts factor as squares", 120.0, run)


def test_criterion_8_qt_generating_functions():
    def run():
        records = verify.suite_spp(random.Random(108), max_part=4, max_parts=3, max_m=3)[:2]
        ok, detail = _records_ok(records)
        if not ok:
            return ok, detail
        from pathtiles.ring import t

        if partitions.qt_gf_determinant(1, (1,)) != (1 + t) ** 2:
            return False, "known instance (m=1, shape=(1,)) != (1+t)^2"
        return True, detail

    _run_criterion(8, "(q,t) determinants == squared enumerations, both specializations", 120.0, run)


def test_criterion_9_lattice_closed_form():
    rng = random.Random(109)
    _run_criterion(
        9,
        "weighted-lattice closed form == path DP (0..5) and recurrence",
        5.0,
        lambda: _records_ok(verify.suite_spp(rng, max_part=1, max_parts=1, max_m=0, lattice_range=5)[3:4]),
    )


def test_criterion_10_deterministic_reports():
    def run():
        cmd = [sys.executable, "-m", "pathtiles.cli", "verify", "--suite", "all", "--seed", "1"]
        first = subprocess.run(cmd, capture_output=True, timeout=300)
        second = subprocess.run(cmd, capture_output=True, timeout=300)
        if first.returncode != 0 or second.returncode != 0:
            return False, f"exit codes {first.returncode}, {second.returncode}"
        if first.stdout != second.stdout:
            return False, "reports differ between runs"
        return True, f"{len(first.stdout)} identical report bytes"

    _run_criterion(10, "verify --suite all --seed 1 is byte-identical across runs", 300.0, run)
