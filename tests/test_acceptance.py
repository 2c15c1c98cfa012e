"""Acceptance gate: the ten headline properties, one test each.

Every test prints one PASS/FAIL line (visible with ``pytest -s``) and
asserts the same condition, including the stated runtime budget. The
property implementations live in ``lstep.checks`` so the CLI ``check``
command and this gate can never drift apart.
"""
import numpy as np
import pytest

from lstep.checks import (
    check_bound,
    check_eigen,
    check_fourier,
    check_gradients,
    check_losses,
    check_metrics,
    check_pass_through,
    check_scaling,
    check_synthetic,
    check_uci,
)


def _verdict(num: int, rep: dict, detail: str) -> str:
    keys = list(rep)
    assert keys[:2] == ["name", "passed"] and keys[-1] == "seconds", keys
    line = (
        f"{'PASS' if rep['passed'] else 'FAIL'} criterion {num} "
        f"({rep['name']}): {detail} [{rep['seconds']:.1f}s]"
    )
    print(line)
    return line


def test_criterion_01_gradient_correctness():
    rep = check_gradients(seed=0)
    line = _verdict(
        1,
        rep,
        f"max_rel_err={rep['max_rel_err']:.3g} < 1e-4 over "
        f"{rep['num_elements']} elements (worst {rep['worst_parameter']})",
    )
    assert rep["passed"], line
    assert rep["max_rel_err"] < 1e-4
    assert rep["seconds"] < 10.0


def test_criterion_02_fourier_kernel():
    rep = check_fourier(seed=0)
    line = _verdict(
        2,
        rep,
        f"{rep['roundtrips']} roundtrips, max={rep['max_roundtrip_err']:.3g} < 1e-9, "
        f"oracle max={rep['max_oracle_err']:.3g} < 1e-10, "
        f"kernel max={rep['max_kernel_oracle_err']:.3g} < 1e-9, "
        f"kernel grad max={rep['max_kernel_grad_err']:.3g} < 1e-4",
    )
    assert rep["passed"], line
    assert rep["roundtrips"] == 100
    assert rep["max_roundtrip_err"] < 1e-9
    assert rep["max_oracle_err"] < 1e-10
    assert rep["max_kernel_oracle_err"] < 1e-9
    assert rep["max_kernel_grad_err"] < 1e-4
    assert rep["seconds"] < 5.0


def test_criterion_03_eigensolver():
    rep = check_eigen(seed=0)
    lo, hi = rep["laplacian_eigenvalue_range"]
    line = _verdict(
        3,
        rep,
        f"residual={rep['max_residual']:.3g} < 1e-8, "
        f"orthonormality={rep['max_orthonormality_err']:.3g} < 1e-8, "
        f"laplacian spectrum in [{lo:.3g}, {hi:.6g}]",
    )
    assert rep["passed"], line
    assert rep["max_residual"] < 1e-8
    assert rep["max_orthonormality_err"] < 1e-8
    assert rep["ascending"] and rep["sign_convention"]
    assert lo >= -1e-9 and hi <= 2.0 + 1e-9
    assert rep["seconds"] < 10.0


def test_criterion_04_metric_oracles():
    rep = check_metrics(seed=0)
    line = _verdict(
        4,
        rep,
        f"{rep['oracle_instances']} instances exact={rep['oracle_exact']}, "
        f"untrained auc={rep['untrained_auc']:.3f} in 0.5 +- 0.1 "
        f"({rep['untrained_auc_samples']} samples)",
    )
    assert rep["passed"], line
    assert rep["oracle_exact"]
    assert abs(rep["untrained_auc"] - 0.5) <= 0.1


def test_criterion_05_pass_through_fixed_point():
    rep = check_pass_through()
    line = _verdict(
        5, rep, f"{rep['steps']} steps, max_step_diff={rep['max_step_diff']!r} == 0.0"
    )
    assert rep["passed"], line
    assert rep["max_step_diff"] == 0.0


def test_criterion_06_drift_bound():
    rep = check_bound(seed=0)
    line = _verdict(
        6,
        rep,
        f"max_step_diff={rep['max_step_diff']:.4g} <= bound={rep['bound']:.4g} "
        f"(node {rep['node']})",
    )
    assert rep["passed"], line
    assert rep["max_step_diff"] <= rep["bound"]
    assert len(rep["trace"]) == 50  # both sides plus the trace are emitted
    assert rep["seconds"] < 120.0


def test_criterion_07_synthetic_learnability():
    rep = check_synthetic(seed=0)
    line = _verdict(
        7,
        rep,
        f"transductive ap={rep['transductive_ap']:.4f} auc={rep['transductive_auc']:.4f} "
        f">= 0.95, inductive ap={rep['inductive_ap']:.4f} >= 0.85, "
        f"{rep['epochs_run']} epochs",
    )
    assert rep["passed"], line
    assert rep["transductive_ap"] >= 0.95
    assert rep["transductive_auc"] >= 0.95
    assert rep["inductive_ap"] >= 0.85
    assert rep["epochs_run"] <= 100
    assert rep["new_nodes"] == [16, 17, 18, 19]
    assert rep["seconds"] < 600.0


def test_criterion_08_linear_scaling():
    rep = check_scaling(seed=0)
    line = _verdict(
        8,
        rep,
        f"batch seconds {rep['batch_seconds_500'] * 1e3:.1f}ms -> "
        f"{rep['batch_seconds_1000'] * 1e3:.1f}ms, ratio={rep['ratio']:.2f} <= 2.5",
    )
    assert rep["passed"], line
    assert rep["ratio"] <= 2.5


def test_criterion_09_loss_sanity():
    rep = check_losses(seed=0)
    line = _verdict(
        9,
        rep,
        f"ln2_err={rep['ln2_err']:.3g} < 1e-12, identical pairs={rep['identical_pair_loss']!r}, "
        f"linearity_err={rep['linearity_err']:.3g} < 1e-12",
    )
    assert rep["passed"], line
    assert rep["ln2_err"] < 1e-12
    assert rep["identical_pair_loss"] == 0.0
    assert rep["linearity_err"] < 1e-12


def test_criterion_10_uci_optional():
    rep = check_uci(seed=0)
    if rep.get("skipped"):
        assert list(rep) == ["name", "passed", "skipped", "reason", "seconds"]
        print("SKIP criterion 10 (uci): dataset not present")
        pytest.skip("uci dataset not present")
    line = _verdict(
        10,
        rep,
        f"transductive ap={rep['transductive_ap']:.4f} >= 0.90 "
        f"in {rep['epochs_run']} epochs",
    )
    assert rep["passed"], line
    assert rep["transductive_ap"] >= 0.90
