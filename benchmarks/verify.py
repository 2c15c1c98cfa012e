"""Correctness checks made apart from the program.

Each check takes what the program returned (or what ``Probe`` saw at a
boundary) plus the benchmark's own copy of the events, recomputes the
expected value with independent code, and returns a list of problems.
An empty list means the check passed.
"""
from __future__ import annotations

import math

import numpy as np
from scipy import stats

from inputs import new_nodes, split_bounds

TOL = 1e-9  # metric and eigen-equation tolerance; an AP off by 1e-6 fails


def check_load(stream, expected) -> list[str]:
    """Dense remap plus stable time sort, and the inversion count."""
    problems = []
    for name in ("src", "dst", "ts"):
        if not np.array_equal(getattr(stream, name), getattr(expected, name)):
            problems.append(f"load_events: {name} differs from the generated events")
    if not np.array_equal(stream.edge_features, expected.features):
        problems.append("load_events: edge features differ from the generated events")
    if stream.num_nodes != expected.num_nodes:
        problems.append(f"load_events: {stream.num_nodes} nodes, expected {expected.num_nodes}")
    if stream.sort_warnings != expected.inversions:
        problems.append(
            f"load_events: sort_warnings {stream.sort_warnings}, "
            f"expected {expected.inversions} inversions"
        )
    return problems


def laplacian(src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Normalized Laplacian of the simple undirected snapshot graph."""
    present = np.unique(np.concatenate([src, dst]))
    pos = np.searchsorted(present, src), np.searchsorted(present, dst)
    a = np.zeros((present.size, present.size))
    keep = pos[0] != pos[1]
    a[pos[0][keep], pos[1][keep]] = 1.0
    a[pos[1][keep], pos[0][keep]] = 1.0
    deg = a.sum(axis=1)
    inv_sqrt = np.zeros_like(deg)
    inv_sqrt[deg > 0] = 1.0 / np.sqrt(deg[deg > 0])
    return present, np.eye(present.size) - inv_sqrt[:, None] * a * inv_sqrt[None, :]


def check_initial_pe(initial, expected, batch_size: int, d_p: int) -> list[str]:
    """Columns solve L v = lambda v for the first batch's snapshot.

    Eigenvectors are compared by residual, eigenvalue and orthonormality,
    since their sign and, for repeated eigenvalues, their basis are not
    unique.
    """
    train_end, _ = split_bounds(expected.ts.size)
    end = min(batch_size, train_end)
    present, lap = laplacian(expected.src[:end], expected.dst[:end])
    problems = []
    if not np.array_equal(np.asarray(initial.present), present):
        return ["initial PE: present nodes differ from the first-batch snapshot"]
    eigvals = np.linalg.eigh(lap)[0]
    take = min(d_p, present.size)
    vecs = initial.table[present, :take]
    residual = np.abs(lap @ vecs - vecs * eigvals[None, :take]).max(initial=0.0)
    if residual > 1e-8:
        problems.append(f"initial PE: eigen-equation residual {residual:.3g}")
    rayleigh = np.einsum("ij,ij->j", vecs, lap @ vecs)
    if np.abs(rayleigh - eigvals[:take]).max(initial=0.0) > 1e-8:
        problems.append("initial PE: Rayleigh quotients differ from the eigenvalues")
    if np.abs(vecs.T @ vecs - np.eye(take)).max(initial=0.0) > 1e-8:
        problems.append("initial PE: columns are not orthonormal")
    rest = np.ones(initial.table.shape[0], dtype=bool)
    rest[present] = False
    if np.any(initial.table[rest] != 0.0) or np.any(initial.table[:, take:] != 0.0):
        problems.append("initial PE: rows outside the snapshot or padded columns are not zero")
    return problems


def check_trained_filter(params) -> list[str]:
    """A trained checkpoint's filter is off the identity, so evaluation
    runs the filter chain instead of its identity shortcut."""
    real, imag = params.tensors["filter_real"].data, params.tensors["filter_imag"].data
    if np.all(real == 1.0) and np.all(imag == 0.0):
        return ["checkpoint: filter is the identity"]
    return []


def average_precision(scores: np.ndarray, labels: np.ndarray) -> float:
    """Cumulative-sum AP over the stable descending ranking."""
    ranked = labels[np.argsort(-scores, kind="stable")]
    precision = np.cumsum(ranked) / np.arange(1, ranked.size + 1)
    return float(precision[ranked == 1].sum() / ranked.sum())


def roc_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Mann-Whitney U from average ranks, so ties count one half."""
    ranks = stats.rankdata(scores)
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    u = ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def check_scores(records) -> list[str]:
    """Recompute every AP / ROC-AUC the program reported."""
    problems = []
    for label, kind, scores, labels, got in records:
        want = average_precision(scores, labels) if kind == "ap" else roc_auc(scores, labels)
        if not abs(want - got) <= TOL:
            problems.append(f"{'/'.join(label)}: {kind} {got!r} != recomputed {want!r}")
    return problems


def check_scored_pairs(records, events, segment: tuple[int, int], setting: str) -> list[str]:
    """Scored pairs are 2 x the qualifying positives, alternating 1, 0."""
    lo, hi = segment
    if setting == "inductive":
        fresh = new_nodes(events.src, events.dst, split_bounds(events.ts.size)[0])
        positives = sum(
            1 for u, v in zip(events.src[lo:hi].tolist(), events.dst[lo:hi].tolist())
            if u in fresh or v in fresh
        )
    else:
        positives = hi - lo
    problems = []
    for label, kind, _, labels, _ in records:
        if labels.size != 2 * positives:
            problems.append(
                f"{'/'.join(label)}: {labels.size} scored pairs for {positives} positives"
            )
        elif not (np.all(labels[0::2] == 1) and np.all(labels[1::2] == 0)):
            problems.append(f"{'/'.join(label)}: labels do not alternate positive, negative")
    return problems


def check_negatives(records, events) -> list[str]:
    """Properties every sampled negative must have.

    Same timestamp as its positive; not a positive at that timestamp
    anywhere in the stream; a historical negative observed strictly
    before t and an inductive one first seen at or after the training
    boundary, unless it is a counted fallback (which keeps the source).
    """
    train_end, _ = split_bounds(events.ts.size)
    src, dst, ts = events.src.tolist(), events.dst.tolist(), events.ts.tolist()
    at_time: dict[float, set] = {}
    first_t: dict[tuple, float] = {}
    first_i: dict[tuple, int] = {}
    for i, (u, v, t) in enumerate(zip(src, dst, ts)):
        at_time.setdefault(t, set()).add((u, v))
        first_t.setdefault((u, v), t)
        first_i.setdefault((u, v), i)
    problems = []
    for label, strategy, batch, sample in records:
        where = f"{'/'.join(label)} {strategy}"
        if not np.array_equal(sample.ts, events.ts[batch]):
            problems.append(f"{where}: negative timestamps differ from their positives")
        outside = 0
        for i, ev in enumerate(batch.tolist()):
            pair = (int(sample.src[i]), int(sample.dst[i]))
            t = ts[ev]
            if pair in at_time[t]:
                problems.append(f"{where}: negative {pair} is a positive at t={t}")
            if strategy == "historical":
                inside = first_t.get(pair, math.inf) < t
            elif strategy == "inductive":
                inside = first_i.get(pair, -1) >= train_end
            else:
                inside = pair[0] == src[ev]
            if not inside:
                outside += 1
                if pair[0] != src[ev]:
                    problems.append(f"{where}: negative {pair} is neither from the pool nor a fallback")
        if outside > sample.fallbacks:
            problems.append(
                f"{where}: {outside} negatives outside the pool, {sample.fallbacks} fallbacks counted"
            )
    return problems


def check_losses(loss_rows, epochs: int, train_end: int, batch_size: int) -> list[str]:
    batches = math.ceil(train_end / batch_size)
    problems = []
    if [(e, b) for e, b, _ in loss_rows] != [(e, b) for e in range(epochs) for b in range(batches)]:
        problems.append(f"losses: {len(loss_rows)} rows, expected {epochs} x {batches} batches")
    if not all(math.isfinite(v) for _, _, v in loss_rows):
        problems.append("losses: a training loss is not finite")
    return problems
