"""Property check suites runnable from the CLI and the acceptance tests.

Each check returns a plain dict that starts with ``name`` and
``passed`` and ends with ``seconds``: the check's body returns
``passed`` and its figures, and one wrapper, ``_check``, names the
report after the function (``check_bound`` -> ``bound``) and times the
call. ``run_suite`` prints one PASS/FAIL line per check and reports
overall success. The expensive learnability and scaling checks
live here too so every acceptance property has exactly one
implementation.
"""
from __future__ import annotations

import cmath
import functools
import os
import time
from pathlib import Path

import numpy as np

from .autodiff import GradientTape, Tensor, backward, elementwise_mul, sum_all
from .config import RunConfig, parse_config
from .eigen import symmetric_eig
from .events import EventStream, chronological_split
from .fourier import dft, filter_kernel, idft
from .losses import loss_lp, loss_pe, total_loss
from .lpe import PositionalStore, theorem1_check
from .metrics import average_precision, roc_auc
from .model import ModelDims, init_model_params
from .peinit import InitialPE, normalized_laplacian, zero_pe
from .sampling import NegativeSampler
from .synthetic import make_periodic_stream, make_random_stream, make_static_stream
from .training import (
    _Cell,
    _batch_forward,
    _batch_loss,
    _run_segment,
    build_initial_pe,
    collect_pe_trace,
    evaluate,
    evaluate_cells,
    train,
)

__all__ = [
    "check_gradients",
    "check_fourier",
    "check_eigen",
    "check_metrics",
    "check_pass_through",
    "check_bound",
    "check_synthetic",
    "check_scaling",
    "tape_nodes_per_batch",
    "check_losses",
    "check_uci",
    "SUITES",
    "run_suite",
]


def _check(fn):
    """Wrap a check so its report is ``{name, **report, seconds}``."""
    name = fn.__name__.removeprefix("check_")

    @functools.wraps(fn)
    def run(*args, **kwargs) -> dict:
        t0 = time.monotonic()
        report = fn(*args, **kwargs)
        return {"name": name, **report, "seconds": time.monotonic() - t0}

    return run


def _fd_check(build, tensors: dict[str, Tensor]) -> tuple[float, str, int]:
    """Worst relative error of the tape gradients of the scalar ``build()``
    against central differences, its element, and the element count."""
    with GradientTape() as tape:
        loss = build()
    grads = backward(tape, loss, tensors)
    max_rel, worst, count = 0.0, "", 0
    for name, tensor in tensors.items():
        flat = tensor.data.ravel()
        for i in range(flat.size):
            count += 1
            keep = flat[i]
            h = 1e-6 * max(1.0, abs(keep))
            flat[i] = keep + h
            up = float(build().data)
            flat[i] = keep - h
            dn = float(build().data)
            flat[i] = keep
            fd = (up - dn) / (2.0 * h)
            an = float(grads[name].ravel()[i])
            rel = abs(an - fd) / max(abs(an), abs(fd), 1e-6)
            if rel > max_rel:
                max_rel, worst = rel, f"{name}[{i}]"
    return max_rel, worst, count


@_check
def check_gradients(seed: int = 0) -> dict:
    """Finite-difference check of the full batch loss on a tiny model.

    Covers every learnable tensor, both filter parts included; the filter
    is pushed off identity so the frequency chain always runs.
    """
    rng = np.random.default_rng(seed)
    cfg = parse_config(
        "d_t = 4\nd_n = 4\nd_e = 4\nd_p = 4\nhistory_len = 3\n"
        "t_gap = 6.0\nrecent_k = 2\nbatch_size = 2\n"
    )
    num_nodes, num_events = 6, 16
    src = rng.integers(0, num_nodes, size=num_events)
    dst = (src + 1 + rng.integers(0, num_nodes - 1, size=num_events)) % num_nodes
    stream = EventStream(
        src,
        dst,
        np.arange(1.0, num_events + 1.0),
        edge_features=rng.normal(size=(num_events, 4)),
        node_features=rng.normal(size=(num_nodes, 4)),
        num_nodes=num_nodes,
    )
    split = chronological_split(stream)
    params = init_model_params(ModelDims.from_config(cfg), seed=seed)
    params.tensors["filter_real"].data += 0.2 * rng.normal(size=(4, 3))
    params.tensors["filter_imag"].data += 0.2 * rng.normal(size=(4, 3))

    # the hand commit below is one more than the reset and the batches
    # make, so every ring gets one slot more than its events need
    store = PositionalStore(stream.interaction_counts() + 1, cfg.d_p, cfg.history_len)
    store.reset(
        InitialPE(
            rng.normal(size=(num_nodes, cfg.d_p)),
            "random",
            np.arange(num_nodes),
        )
    )
    store.commit(np.arange(num_nodes), rng.normal(size=(num_nodes, cfg.d_p)))

    batch = np.array([10, 11])
    neg = NegativeSampler(stream, split, "random", seed).sample(batch)

    def build():
        fwd = _batch_forward(stream, store, params, cfg, batch, [(batch, neg)])
        return _batch_loss(fwd, stream, batch, neg)

    max_rel, worst, count = _fd_check(build, params.tensors)
    return {
        "passed": bool(max_rel < 1e-4),
        "max_rel_err": max_rel,
        "tolerance": 1e-4,
        "worst_parameter": worst,
        "num_elements": count,
    }


def _oracle_dft_matrix(length: int) -> np.ndarray:
    """W[j-1, k-1] = exp(-2 pi i j k / L), one complex exponential per entry."""
    return np.array(
        [
            [cmath.exp(-2j * cmath.pi * j * k / length) for k in range(1, length + 1)]
            for j in range(1, length + 1)
        ]
    )


@_check
def check_fourier(seed: int = 0) -> dict:
    """100 random roundtrips, loop-oracle agreement per length, and the
    filter kernel against the O(L^2) DFT -> filter -> IDFT -> pool chain,
    with its gradients against finite differences."""
    rng = np.random.default_rng(seed)
    lengths = (1, 2, 3, 8, 16, 100)
    worst_round = worst_oracle = worst_kernel = worst_grad = 0.0
    for i in range(100):
        h = rng.normal(size=(4, lengths[i % len(lengths)]))
        worst_round = max(worst_round, float(np.max(np.abs(idft(dft(h)) - h))))
    for length in lengths:
        w = _oracle_dft_matrix(length)
        h = rng.normal(size=(2, length))
        worst_oracle = max(worst_oracle, float(np.max(np.abs(dft(h) - h @ w.T))))
        parts = {
            "f_re": Tensor(rng.normal(size=(2, length)), learnable=True),
            "f_im": Tensor(rng.normal(size=(2, length)), learnable=True),
            "pool": Tensor(rng.normal(size=(length, 1)), learnable=True),
        }
        # pooled idft(F * dft(h)) is pool^T W^-1 diag(F) W h, row by row
        filt = parts["f_re"].data + 1j * parts["f_im"].data
        pool_t = parts["pool"].data.T
        want = np.stack([(pool_t @ (np.conj(w) / length * f) @ w).real[0] for f in filt])
        got = filter_kernel(**parts).data
        worst_kernel = max(worst_kernel, float(np.max(np.abs(got - want))))
        probe = Tensor(rng.normal(size=(2, length)))
        grad_err, _, _ = _fd_check(
            lambda: sum_all(elementwise_mul(filter_kernel(**parts), probe)), parts
        )
        worst_grad = max(worst_grad, grad_err)
    return {
        "passed": bool(
            worst_round < 1e-9 and worst_oracle < 1e-10 and worst_kernel < 1e-9 and worst_grad < 1e-4
        ),
        "roundtrips": 100,
        "max_roundtrip_err": worst_round,
        "roundtrip_tolerance": 1e-9,
        "max_oracle_err": worst_oracle,
        "oracle_tolerance": 1e-10,
        "max_kernel_oracle_err": worst_kernel,
        "kernel_oracle_tolerance": 1e-9,
        "max_kernel_grad_err": worst_grad,
        "kernel_grad_tolerance": 1e-4,
    }


@_check
def check_eigen(seed: int = 0) -> dict:
    """Residuals and conventions on random matrices; Laplacian spectra ranges."""
    rng = np.random.default_rng(seed)
    worst_resid = 0.0
    worst_ortho = 0.0
    ordered = True
    signs = True
    for _ in range(50):
        n = int(rng.integers(1, 21))
        a = rng.normal(size=(n, n))
        m = (a + a.T) / 2.0
        w, v = symmetric_eig(m)
        scale = max(float(np.max(np.abs(m))), 1.0)
        worst_resid = max(worst_resid, float(np.max(np.abs(m @ v - v * w))) / scale)
        worst_ortho = max(worst_ortho, float(np.max(np.abs(v.T @ v - np.eye(n)))))
        if np.any(np.diff(w) < -1e-12 * scale):
            ordered = False
        for j in range(n):
            if v[int(np.argmax(np.abs(v[:, j]))), j] < 0.0:
                signs = False
    lo, hi = np.inf, -np.inf
    for _ in range(30):
        n = int(rng.integers(2, 26))
        a = (rng.random((n, n)) < 0.3).astype(float)
        a = np.triu(a, 1)
        w, _ = symmetric_eig(normalized_laplacian(a + a.T))
        lo = min(lo, float(w.min()))
        hi = max(hi, float(w.max()))
    in_range = bool(lo >= -1e-9 and hi <= 2.0 + 1e-9)
    return {
        "passed": bool(
            worst_resid < 1e-8 and worst_ortho < 1e-8 and ordered and signs and in_range
        ),
        "max_residual": worst_resid,
        "max_orthonormality_err": worst_ortho,
        "ascending": ordered,
        "sign_convention": signs,
        "laplacian_eigenvalue_range": [lo, hi],
    }


@_check
def check_metrics(seed: int = 0) -> dict:
    """Exact oracle equality on 200 small instances; untrained-model AUC."""
    rng = np.random.default_rng(seed)
    exact = True
    for _ in range(200):
        n = int(rng.integers(2, 11))
        labels = rng.integers(0, 2, size=n)
        if labels.sum() == 0:
            labels[int(rng.integers(0, n))] = 1
        if labels.sum() == n:
            labels[int(rng.integers(0, n))] = 0
        scores = np.round(rng.random(n), 1)

        order = np.argsort(-scores, kind="stable")
        hits, total = 0, 0.0
        for rank, idx in enumerate(order, start=1):
            if labels[idx] == 1:
                hits += 1
                total += hits / rank
        ap_ref = total / int(labels.sum())

        pos = scores[labels == 1]
        negs = scores[labels == 0]
        wins = sum(1 for p in pos for q in negs if p > q)
        ties = sum(1 for p in pos for q in negs if p == q)
        auc_ref = (wins + 0.5 * ties) / (len(pos) * len(negs))

        if average_precision(scores, labels) != ap_ref:
            exact = False
        if roc_auc(scores, labels) != auc_ref:
            exact = False

    cfg = parse_config(
        "d_t = 8\nd_n = 8\nd_e = 8\nd_p = 4\nhistory_len = 4\n"
        "t_gap = 20.0\nrecent_k = 3\nbatch_size = 50\n"
    )
    stream = make_random_stream(30, 600, seed=seed)
    split = chronological_split(stream)
    params = init_model_params(ModelDims.from_config(cfg), seed=seed)
    store = PositionalStore(stream.interaction_counts(), cfg.d_p, cfg.history_len)
    store.reset(build_initial_pe(stream, split, cfg))
    cell = _Cell("transductive", NegativeSampler(stream, split, "random", seed))
    _run_segment(stream, store, params, cfg, 0, 250, cells=[cell])
    _, auc, _ = cell.metrics()
    auc_centered = bool(abs(auc - 0.5) <= 0.1)
    return {
        "passed": bool(exact and auc_centered),
        "oracle_instances": 200,
        "oracle_exact": exact,
        "untrained_auc": auc,
        "untrained_auc_samples": 500,
    }


@_check
def check_pass_through() -> dict:
    """Identity filter + last-column pool + zero MLP holds encodings fixed."""
    num_steps = 50
    edges = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]
    cfg = parse_config(
        "d_t = 6\nd_n = 6\nd_e = 6\nd_p = 4\nhistory_len = 6\n"
        "t_gap = 4.0\nrecent_k = 3\nbatch_size = 5\n"
    )
    stream = make_static_stream(edges, num_steps, d_n=6, d_e=6)
    split = chronological_split(stream)
    initial = build_initial_pe(stream, split, cfg)
    params = init_model_params(ModelDims.from_config(cfg), seed=0)
    for name in ("pe_w1", "pe_w2", "pe_w_self"):
        params.tensors[name].data[:] = 0.0
    params.tensors["pe_sum_pool"].data[:] = 0.0
    params.tensors["pe_sum_pool"].data[-1, 0] = 1.0
    nodes = np.arange(stream.num_nodes)
    trace = collect_pe_trace(stream, params, cfg, nodes, initial_pe=initial)
    step = float(np.linalg.norm(np.diff(trace, axis=0), axis=2).max())
    drift = float(np.max(np.abs(trace - initial.table[nodes])))
    worst = max(step, drift)
    return {"passed": bool(worst == 0.0), "steps": num_steps, "max_step_diff": worst}


@_check
def check_bound(seed: int = 0) -> dict:
    """Train on a static 10-node ring, then test the drift bound on every node."""
    edges = [(i, (i + 1) % 10) for i in range(10)]
    stream = make_static_stream(edges, num_steps=50, d_n=6, d_e=6)
    cfg = parse_config(
        "d_t = 8\nd_n = 6\nd_e = 6\nd_p = 6\nhistory_len = 8\n"
        "t_gap = 5.0\nrecent_k = 3\nbatch_size = 10\n"
        f"lr = 0.001\nmax_epochs = 4\npatience = 10\nseed = {seed}\n"
    )
    split = chronological_split(stream)
    result = train(stream, split, cfg)
    traces = collect_pe_trace(
        stream, result.params, cfg, np.arange(stream.num_nodes), initial_pe=result.initial_pe
    )
    tensors = result.params.tensors
    reports = [theorem1_check(traces[:, n], tensors) for n in range(stream.num_nodes)]
    node = max(range(stream.num_nodes), key=lambda n: reports[n].max_step_diff)
    report, trace = reports[node], traces[:, node]
    return {
        "passed": bool(report.satisfied),
        "max_step_diff": report.max_step_diff,
        "bound": report.bound,
        "node": node,
        "trace": trace.tolist(),
    }


SYNTHETIC_RECIPE = (
    "d_t = 16\nd_n = 16\nd_e = 8\nd_p = 16\nhistory_len = 8\n"
    "t_gap = 25.0\nrecent_k = 2\nbatch_size = 25\n"
    "lr = 0.0001\nmax_epochs = 100\npatience = 15\n"
)


@_check
def check_synthetic(seed: int = 0) -> dict:
    """Learnability on the periodic stream: transductive and inductive."""
    stream = make_periodic_stream(
        num_pairs=10, num_events=2000, holdout_pairs=2, d_n=16, d_e=8
    )
    cfg = parse_config(SYNTHETIC_RECIPE + f"seed = {seed}\n")
    split = chronological_split(stream)
    result = train(stream, split, cfg)
    (ap_t, auc_t, _), (ap_i, auc_i, _) = evaluate_cells(
        stream, split, result.params, cfg, [("transductive", "random"), ("inductive", "random")],
        seed, initial_pe=result.initial_pe,
    )
    return {
        "passed": bool(ap_t >= 0.95 and auc_t >= 0.95 and ap_i >= 0.85),
        "transductive_ap": ap_t,
        "transductive_auc": auc_t,
        "inductive_ap": ap_i,
        "inductive_auc": auc_i,
        "epochs_run": result.report.epochs_run,
        "new_nodes": sorted(split.new_nodes),
    }


def _scaling_setup(num_nodes: int, seed: int, batches: int):
    """A random stream of ``batches`` batches with B = n / 5, a fresh
    model and a zero-seeded store."""
    cfg = parse_config(
        "d_t = 8\nd_n = 8\nd_e = 8\nd_p = 6\nhistory_len = 8\n"
        f"t_gap = 10.0\nrecent_k = 5\nbatch_size = {num_nodes // 5}\n"
    )
    stream = make_random_stream(num_nodes, batches * cfg.batch_size, seed=seed)
    split = chronological_split(stream, (0.99, 0.005, 0.005))
    params = init_model_params(ModelDims.from_config(cfg), seed=seed)
    store = PositionalStore(stream.interaction_counts(), cfg.d_p, cfg.history_len)
    store.reset(zero_pe(num_nodes, cfg.d_p))
    return cfg, stream, split, params, store


def _timed_batches(num_nodes: int, seed: int, trials: int):
    """Set up a stream of ``trials + 2`` batches with B = n / 5; returns a
    function that scores and commits batch k (no gradients), timing it."""
    cfg, stream, split, params, store = _scaling_setup(num_nodes, seed, trials + 2)
    b = cfg.batch_size

    def run(k: int) -> float:
        t0 = time.monotonic()
        cell = _Cell("transductive", NegativeSampler(stream, split, "random", seed + k))
        _run_segment(stream, store, params, cfg, k * b, (k + 1) * b, cells=[cell])
        return time.monotonic() - t0

    return run


def tape_nodes_per_batch(num_nodes: int, seed: int = 0) -> int:
    """Tape length of one training batch (forward and loss) on the
    scaling check's set-up; it does not depend on the batch size."""
    cfg, stream, split, params, store = _scaling_setup(num_nodes, seed, 2)
    batch = np.arange(cfg.batch_size, 2 * cfg.batch_size)
    neg = NegativeSampler(stream, split, "random", seed).sample(batch)
    with GradientTape() as tape:
        fwd = _batch_forward(stream, store, params, cfg, batch, [(batch, neg)])
        _batch_loss(fwd, stream, batch, neg)
    return len(tape)


@_check
def check_scaling(seed: int = 0) -> dict:
    """Per-batch forward+commit time ratio for 500 -> 1000 nodes, B ~ n.

    The two sizes' batches alternate, so a change in machine speed during
    the check reaches both medians instead of only one of them. The tape
    length of one training batch at each size is reported beside the
    times: a count that does not flake with machine speed.
    """
    trials = 5
    runs = {n: _timed_batches(n, seed, trials) for n in (500, 1000)}
    times: dict[int, list[float]] = {n: [] for n in runs}
    for k in range(trials + 1):
        for n, run in runs.items():
            seconds = run(k)
            if k > 0:  # each size's first batch warms caches (frequencies)
                times[n].append(seconds)
    small = float(np.median(times[500]))
    large = float(np.median(times[1000]))
    ratio = large / small
    return {
        "passed": bool(ratio <= 2.5),
        "batch_seconds_500": small,
        "batch_seconds_1000": large,
        "ratio": ratio,
        "limit": 2.5,
        "tape_nodes_500": tape_nodes_per_batch(500, seed),
        "tape_nodes_1000": tape_nodes_per_batch(1000, seed),
    }


@_check
def check_losses(seed: int = 0) -> dict:
    """Closed-form loss identities and affine-combination linearity."""
    rng = np.random.default_rng(seed)
    half = Tensor(np.full((4, 1), 0.5))
    ln2_err = abs(float(loss_lp(half, half).data) - float(np.log(2.0)))

    u = Tensor(np.tile(rng.normal(size=5), (3, 1)))
    pe_zero = float(loss_pe((u, u), (u, u)).data)

    # an affine map is pinned by three probes; re-predict random points
    alpha = 0.5
    f00 = float(total_loss(Tensor(np.asarray(0.0)), Tensor(np.asarray(0.0)), alpha).data)
    f10 = float(total_loss(Tensor(np.asarray(1.0)), Tensor(np.asarray(0.0)), alpha).data)
    f01 = float(total_loss(Tensor(np.asarray(0.0)), Tensor(np.asarray(1.0)), alpha).data)
    linear_err = 0.0
    for _ in range(3):
        a, b = rng.normal(size=2)
        got = float(total_loss(Tensor(np.asarray(a)), Tensor(np.asarray(b)), alpha).data)
        want = f00 + a * (f10 - f00) + b * (f01 - f00)
        linear_err = max(linear_err, abs(got - want))
    return {
        "passed": bool(ln2_err < 1e-12 and pe_zero == 0.0 and linear_err < 1e-12),
        "ln2_err": ln2_err,
        "identical_pair_loss": pe_zero,
        "linearity_err": linear_err,
    }


@_check
def check_uci(seed: int = 0) -> dict:
    """Optional full-dataset run from ``$LSTEP_UCI``, ``data/uci.csv`` or
    ``uci.csv``; skipped (not failed) when none exists."""
    candidates = [os.environ.get("LSTEP_UCI", ""), "data/uci.csv", "uci.csv"]
    found = next((c for c in candidates if c and Path(c).exists()), None)
    if found is None:
        return {"passed": True, "skipped": True, "reason": "dataset not present"}
    from .config import apply_preset
    from .events import load_events

    stream = load_events(found, dataset="uci")
    cfg = apply_preset(RunConfig(), "uci")
    cfg = parse_config(f"seed = {seed}\nmax_epochs = 200\n", base=cfg)
    split = chronological_split(stream)
    result = train(stream, split, cfg)
    ap, auc, _ = evaluate(
        stream, split, result.params, cfg, seed=seed, initial_pe=result.initial_pe
    )
    return {
        "passed": bool(ap >= 0.90),
        "skipped": False,
        "transductive_ap": ap,
        "transductive_auc": auc,
        "epochs_run": result.report.epochs_run,
    }


SUITES = {
    "gradients": (check_gradients,),
    "fourier": (check_fourier,),
    "eigen": (check_eigen,),
    "metrics": (check_metrics,),
    "bound": (check_bound,),
}
SUITES["all"] = tuple(f for fns in SUITES.values() for f in fns)


def run_suite(tag: str, seed: int = 0) -> tuple[bool, list[dict]]:
    """Run one named suite, print PASS/FAIL lines, return the reports."""
    if tag not in SUITES:
        raise ValueError(
            f"unknown suite {tag!r}, expected one of {', '.join(sorted(SUITES))}"
        )
    reports = []
    ok = True
    for fn in SUITES[tag]:
        rep = fn(seed=seed)
        reports.append(rep)
        ok = ok and rep["passed"]
        verdict = "PASS" if rep["passed"] else "FAIL"
        detail = ", ".join(
            f"{k}={rep[k]:.3g}" if isinstance(rep[k], float) else f"{k}={rep[k]}"
            for k in rep
            if k not in ("name", "passed", "trace")
        )
        print(f"{verdict} {rep['name']}: {detail}")
    return ok, reports
