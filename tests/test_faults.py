"""Fault injection: break one derivation route at a time and watch the checks fail.

Each fault is monkeypatched into a single module binding.  Sequential sweeps
see it directly; the children of a pooled sweep see it because they are
forked from the patched process.
"""

import os

import pytest

from milnor_mu import bundles, cli, quotient, verify
from milnor_mu.bundles import DiskBundleInvariants

WINDOW = (-200, 200)
ADMISSIBLE_IN_WINDOW = sum(
    1 for h in range(WINDOW[0], WINDOW[1] + 1) if h * (h - 1) % 56 == 0
)

fork_only = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="a pooled sweep forks its children only where os.fork exists"
)
WORKERS = [None, pytest.param(2, marks=fork_only)]


def closed_form_off_by_one(monkeypatch, only_h=None):
    real = quotient._closed_form_scaled

    def faulty(h):
        lo, hi = real(h)
        if only_h is not None and h != only_h:
            return lo, hi
        return tuple(sorted(((lo + 1) % 1792, (hi + 1) % 1792)))

    monkeypatch.setattr(quotient, "_closed_form_scaled", faulty)


def shifted_p1_squared(monkeypatch, module=quotient):
    real = module.disk_bundle_invariants

    def faulty(bundle):
        disk = real(bundle)
        return DiskBundleInvariants(disk.p1_squared + 1)

    monkeypatch.setattr(module, "disk_bundle_invariants", faulty)


def oracle_says_sum_14m2(monkeypatch):
    # the sweep's own oracle, at its scale 224: {15/32, 17/32}
    monkeypatch.setattr(verify, "_direct_mu_pair", lambda h: (105, 119))


def oracle_off_on_odd_h(monkeypatch):
    # {15/32, 17/32} on odd h only: two value sets in a sweep, half its rows failing
    real = verify._direct_mu_pair
    monkeypatch.setattr(verify, "_direct_mu_pair", lambda h: (105, 119) if h % 2 else real(h))


def oracle_off_in_one_k_of_four(monkeypatch):
    # {15/32, 17/32} where h = 56k + r has k = 3 mod 4: a fault that changes
    # within one period (224) of h, so check_case must test all four k
    real = verify._direct_mu_pair
    monkeypatch.setattr(verify, "_direct_mu_pair",
                        lambda h: (105, 119) if h // 56 % 4 == 3 else real(h))


def target_says_sum_14m2(monkeypatch):
    monkeypatch.setattr(verify, "_TARGET", quotient.MU_RP7_SUM_14M2)


def rp7_pair_forgotten(monkeypatch):
    monkeypatch.setattr(quotient, "_RP7_SCALED", (0, 0))


# fault -> verdict the failed rows must carry
FAULTS = {
    "closed_form": (closed_form_off_by_one, "derivation_mismatch"),
    "assembly_input": (shifted_p1_squared, "derivation_mismatch"),
    "oracle": (oracle_says_sum_14m2, "RP7"),
    "target": (target_says_sum_14m2, "RP7"),
    "dichotomy": (rp7_pair_forgotten, "dichotomy_violation"),
}


@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_every_row_fails_and_the_sweep_completes(monkeypatch, fault, workers):
    inject, verdict = FAULTS[fault]
    inject(monkeypatch)
    rows = verify.verify_range(*WINDOW, workers=workers)
    assert len(rows) == ADMISSIBLE_IN_WINDOW
    assert not any(r.passed for r in rows)
    assert {r.verdict for r in rows} == {verdict}


@fork_only
@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_pooled_rows_equal_sequential_rows(monkeypatch, fault):
    FAULTS[fault][0](monkeypatch)
    assert verify.verify_range(*WINDOW, workers=2) == verify.verify_range(*WINDOW)


@pytest.mark.parametrize("workers", WORKERS)
def test_off_target_oracle_set_reaches_the_rows(monkeypatch, workers):
    oracle_says_sum_14m2(monkeypatch)
    rows = verify.verify_range(*WINDOW, workers=workers)
    assert {r.mu_set for r in rows} == {quotient.MU_RP7_SUM_14M2}
    assert len({id(r.mu_set) for r in rows}) == 1


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_worker_rows_stay_plain_ints(monkeypatch, fault):
    FAULTS[fault][0](monkeypatch)
    for h, verdict, passed, mu in verify._verify_chunk(WINDOW):
        assert (type(h), type(verdict), passed) == (int, str, False)
        a, b = mu
        assert type(a) is type(b) is int and 0 <= a < b < 224


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_cli_verify_exits_2(monkeypatch, capsys, fault):
    FAULTS[fault][0](monkeypatch)
    code = cli.main(["verify", "--h-range", "%d..%d" % WINDOW, "--format", "csv"])
    err = capsys.readouterr().err
    assert code == 2
    assert f"failed {ADMISSIBLE_IN_WINDOW}" in err


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_cli_cases_fails_only_under_the_oracle_and_target_faults(monkeypatch, capsys, fault):
    # cases decides its check (c) with the sweep's oracle and target; it never
    # calls the kernel, so the kernel faults leave it passing
    FAULTS[fault][0](monkeypatch)
    code = cli.main(["cases", "--k-range", "-300..300", "--format", "csv"])
    capsys.readouterr()
    assert code == (2 if fault in ("oracle", "target") else 0)


def test_cli_cases_fails_under_an_oracle_fault_in_one_k_of_four(monkeypatch, capsys):
    oracle_off_in_one_k_of_four(monkeypatch)
    code = cli.main(["cases", "--k-range", "-300..300", "--format", "csv"])
    capsys.readouterr()
    assert code == 2


@pytest.mark.parametrize("workers", WORKERS)
def test_fault_at_one_h_fails_only_that_row(monkeypatch, workers):
    closed_form_off_by_one(monkeypatch, only_h=8)
    rows = verify.verify_range(*WINDOW, workers=workers)
    assert len(rows) == ADMISSIBLE_IN_WINDOW
    failed = [(r.h, r.verdict) for r in rows if not r.passed]
    assert failed == [(8, "derivation_mismatch")]


def test_quotient_derivation_mismatch_exits_2(monkeypatch, capsys):
    closed_form_off_by_one(monkeypatch)
    code = cli.main(["quotient", "--h", "8", "--format", "json"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and "closed form" in err


def test_invariants_derivation_mismatch_exits_2(monkeypatch, capsys):
    shifted_p1_squared(monkeypatch, module=bundles)
    code = cli.main(["invariants", "--h", "8", "--format", "json"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and "closed form" in err
