"""Acceptance gate: one test per criterion, exact arithmetic throughout.

Each test prints a PASS/FAIL line with its wall time (run pytest with -s to
see them inline; the same checks back the CLI verb `extmukai verify all`).
Stated runtime targets are asserted where the criteria fix them.
"""

import time

import pytest

from extmukai.verification import (
    DEFAULT_SEED,
    all_passed,
    crit01_sqrt_todd_linearisation,
    crit02_integral_and_exp,
    crit03_lefschetz_expansion,
    crit04_pairing_factorials,
    crit05_catalog,
    crit06_lambda_invariance,
    crit07_counterexample_lattice,
    crit08_eichler_transport,
    crit09_isotropy,
    crit10_moduli_box,
    crit11_rank_predicates,
    crit12_poincare,
)


def run(number, title, criterion, *args):
    """Run one criterion, print its PASS/FAIL line with the wall time and
    the failed checks; returns (all passed, elapsed seconds)."""
    t0 = time.time()
    checks = criterion(*args)
    elapsed = time.time() - t0
    ok = all_passed(checks)
    status = "PASS" if ok else "FAIL"
    print("[%s] criterion %02d: %s (%.1fs)" % (status, number, title, elapsed))
    for c in checks:
        if not c["pass"]:
            print("    FAILED check: %s -- %s" % (c["name"], c["detail"]))
    return ok, elapsed


def test_criterion_01_sqrt_todd_linearisation():
    ok, elapsed = run(
        1, "sqrt-Todd linearisation pairings", crit01_sqrt_todd_linearisation, DEFAULT_SEED
    )
    assert ok
    assert elapsed < 60, "runtime target"


def test_criterion_02_integral_and_exp():
    ok, _ = run(
        2, "integral of sqrt-Todd and exponential identity", crit02_integral_and_exp, DEFAULT_SEED
    )
    assert ok


def test_criterion_03_lefschetz_expansion():
    ok, _ = run(
        3, "Lefschetz power expansion coefficients (j <= 8)", crit03_lefschetz_expansion,
        DEFAULT_SEED,
    )
    assert ok


def test_criterion_04_pairing_factorials():
    ok, _ = run(4, "pairing factorial identity (n <= 6)", crit04_pairing_factorials)
    assert ok


def test_criterion_05_catalog():
    ok, _ = run(5, "catalog actions and dn-transfer", crit05_catalog, DEFAULT_SEED)
    assert ok


def test_criterion_06_lambda_invariance():
    ok, _ = run(
        6, "lattice invariance of random plus-group generators", crit06_lambda_invariance,
        DEFAULT_SEED,
    )
    assert ok


def test_criterion_07_counterexample():
    ok, _ = run(7, "n = 10 third-of-delta counterexample lattice", crit07_counterexample_lattice)
    assert ok


def test_criterion_08_transport():
    ok, _ = run(
        8, "Eichler transport words (50 + 10 pairs)", crit08_eichler_transport, DEFAULT_SEED
    )
    assert ok


def test_criterion_09_isotropy():
    ok, _ = run(9, "isotropy suite", crit09_isotropy, DEFAULT_SEED)
    assert ok


def test_criterion_10_moduli_box():
    ok, elapsed = run(10, "exhaustive moduli box", crit10_moduli_box)
    assert ok
    assert elapsed < 30, "runtime target"


def test_criterion_11_rank_predicates():
    ok, _ = run(
        11, "rank predicates against brute force (|r| <= 10^6)", crit11_rank_predicates
    )
    assert ok


def test_criterion_12_poincare():
    ok, _ = run(12, "Poincare hyperbolic-plane exchange (g = 2..6)", crit12_poincare)
    assert ok
