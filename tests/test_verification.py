"""The acceptance criteria can fail: each one, run on small arguments with
one kernel it calls replaced by a wrong one, reports a failed check, and
where the first failure is known its detail is that failure."""

import re
from fractions import Fraction as Q

import pytest

from extmukai import verification as V
from extmukai.lattice import NotFound


def failed(checks):
    return [c for c in checks if not c["pass"]]


def shifted(monkeypatch, name, wrap):
    """Replace the kernel `name` of the verification module by wrap(original)."""
    monkeypatch.setattr(V, name, wrap(getattr(V, name)))


def test_crit01_fails_on_a_wrong_pairing(monkeypatch):
    shifted(monkeypatch, "pair_with_sh", lambda f: lambda *a: f(*a) + Q(1, 7))
    checks = V.crit01_sqrt_todd_linearisation(ns=(2,))
    assert len(failed(checks)) == len(checks) == 3
    assert all(c["detail"].startswith("n=2 i=0 got ") for c in checks)


def test_crit02_fails_on_a_wrong_pairing(monkeypatch):
    shifted(monkeypatch, "pair_with_sh", lambda f: lambda *a: f(*a) + Q(1, 7))
    checks = V.crit02_integral_and_exp()
    assert len(failed(checks)) == len(checks) == 12
    # the first failure is the integral, before any sampled q
    assert all(c["detail"].startswith("integral got ") for c in checks)


def test_crit03_fails_on_a_wrong_coefficient(monkeypatch):
    shifted(monkeypatch, "lefschetz_power_coefficient", lambda f: lambda j, k: f(j, k) + 1)
    checks = V.crit03_lefschetz_expansion()
    assert len(failed(checks)) == len(checks) == 3
    assert all(c["detail"].startswith("j=0 k=0 got ") for c in checks)


def test_crit04_reports_the_first_failure(monkeypatch):
    shifted(monkeypatch, "pairing_bn", lambda f: lambda x, y: f(x, y) + 1)
    checks = V.crit04_pairing_factorials()
    assert [c["detail"] for c in checks] == [
        "n=2 i=0 got 3 want 2",
        "n=2 i=0 got 7 want 6",
        "n=2 i=0 got 8 want 7",
    ]
    assert not any(c["pass"] for c in checks)


def test_crit05_fails_when_the_catalog_leaves_lambda(monkeypatch):
    monkeypatch.setattr(V, "preserves_lattice", lambda g, lat: False)
    checks = V.crit05_catalog()
    assert checks[0]["name"] == "catalog shift n=2 isometry+preserves"
    assert not checks[0]["pass"]


def test_crit05_dn_fails_on_a_sign_flipped_transfer(monkeypatch):
    shifted(
        monkeypatch,
        "dn_transfer",
        lambda f: lambda space, g: V.minus_identity(space).compose(f(space, g)),
    )
    checks = V.crit05_dn()
    assert not any(c["pass"] for c in checks)
    assert checks[0]["detail"] == "homomorphism failed"


def test_crit06_fails_on_spinor_norm(monkeypatch):
    monkeypatch.setattr(V, "spinor_norm", lambda g: -1)
    checks = V.crit06_lambda_invariance(generators_total=6)
    assert len(failed(checks)) == len(checks) == 3
    assert all(re.fullmatch(r"\S+ #0 has spinor norm -1", c["detail"]) for c in checks)


def test_crit07_fails_when_lambda_is_preserved(monkeypatch):
    monkeypatch.setattr(V, "preserves_lattice", lambda g, lat: True)
    checks = V.crit07_counterexample_lattice()
    assert [c["pass"] for c in checks] == [True, False]


def test_crit08_fails_when_transport_finds_nothing(monkeypatch):
    monkeypatch.setattr(V, "eichler_transport", lambda L, v, w: NotFound("none"))
    checks = V.crit08_eichler_transport()
    assert [c["detail"] for c in checks] == [
        "pair 0: NotFound('none')",
        "mode square gave NotFound('none')",
    ]
    assert not any(c["pass"] for c in checks)


def test_crit09_fails_on_a_wrong_laplacian(monkeypatch):
    monkeypatch.setattr(V, "laplacian", lambda x: x)
    checks = V.crit09_isotropy()
    assert len(failed(checks)) == len(checks) == 3
    assert all(c["detail"] == "Delta(lambda^n) != 0" for c in checks)


def test_crit10_fails_on_the_disc_lemma_and_counts_up_to_it(monkeypatch):
    monkeypatch.setattr(V, "disc_lemma_check", lambda lat, v: {"all": False})
    checks = V.crit10_moduli_box()
    assert len(failed(checks)) == len(checks) == 3
    for c in checks:
        assert c["detail"].startswith("disc lemma fails at ")
        # the check name counts the disc checks made up to the first failure
        assert c["name"].endswith(", 1 disc checks)")


def test_crit11_fails_on_a_shifted_core(monkeypatch):
    shifted(monkeypatch, "kx_rank_core", lambda f: lambda r, n, c_x: f(r + 1, n, c_x))
    checks = {c["name"].split(" (")[0]: c for c in V.crit11_rank_predicates(bound=1000)}
    # with n = 1 every integer is a rank, so the shift goes unseen there
    assert checks["rank predicate n=1 c_X=1"]["pass"]
    assert checks["rank predicate n=2 c_X=1"]["detail"] == "disagreement at r=-1"


def test_crit12_fails_on_a_failed_poincare_check(monkeypatch):
    monkeypatch.setattr(
        V, "poincare_checks", lambda genus: [{"name": "exchange", "pass": False, "detail": ""}]
    )
    checks = V.crit12_poincare()
    assert len(failed(checks)) == len(checks) == 5
    assert all(c["detail"] == "exchange" for c in checks)


@pytest.mark.parametrize("failures, want", [
    ((), {"name": "c", "pass": True, "detail": ""}),
    (("first", "second"), {"name": "c", "pass": False, "detail": "first"}),
])
def test_first_failure_reads_one_detail(failures, want):
    seen = []

    def gen():
        for detail in failures:
            seen.append(detail)
            yield detail

    assert V._first_failure("c", gen()) == want
    assert seen == list(failures[:1])
