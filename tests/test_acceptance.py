"""Acceptance gate: the ten headline properties, one test each.

Each test runs its criterion's suite from ``lstep.checks.SUITES``
through ``run_suite``, which prints the PASS/FAIL line that
``lstep check --suite <name>`` prints (visible with ``pytest -s``), and
asserts that the check passed within the criterion's runtime budget.
Every threshold lives in the check's ``passed``, so the CLI ``check``
command and this gate can never drift apart.
"""
import pytest

from lstep.checks import run_suite


def _gate(suite: str, budget: float | None = None) -> dict:
    """The report of ``suite``'s one check, asserted passed within
    ``budget`` seconds."""
    ok, (rep,) = run_suite(suite, seed=0)
    keys = list(rep)
    assert keys[:2] == ["name", "passed"] and keys[-1] == "seconds", keys
    assert ok, rep
    if budget is not None:
        assert rep["seconds"] < budget, rep["seconds"]
    return rep


def test_criterion_01_gradient_correctness():
    _gate("gradients", budget=10.0)


def test_criterion_02_fourier_kernel():
    _gate("fourier", budget=5.0)


def test_criterion_03_eigensolver():
    _gate("eigen", budget=10.0)


def test_criterion_04_metric_oracles():
    _gate("metrics")


def test_criterion_05_pass_through_fixed_point():
    _gate("pass_through")


def test_criterion_06_drift_bound():
    _gate("bound", budget=120.0)


def test_criterion_07_synthetic_learnability():
    _gate("synthetic", budget=600.0)


def test_criterion_08_linear_scaling():
    _gate("scaling")


def test_criterion_09_loss_sanity():
    _gate("losses")


def test_criterion_10_uci_optional():
    rep = _gate("uci")
    if rep["skipped"]:
        assert list(rep) == ["name", "passed", "skipped", "reason", "seconds"]
        pytest.skip("uci dataset not present")
