"""Snapshot-graph construction and initial positional encodings."""
import numpy as np
import pytest

from lstep.checks import SYNTHETIC_RECIPE
from lstep.config import parse_config
from lstep.peinit import laplacian_pe, random_walk_pe, snapshot_graph, zero_pe
from lstep.synthetic import make_periodic_stream

R2 = 1.0 / np.sqrt(2.0)


def test_snapshot_collapses_duplicates_and_self_loops():
    src = np.array([0, 1, 0, 2, 3])
    dst = np.array([1, 0, 1, 2, 4])
    edges, present = snapshot_graph(src, dst, num_nodes=6)
    assert edges.tolist() == [[0, 1], [3, 4]]
    # the self-loop edge is dropped but node 2 still counts as present
    assert present.tolist() == [0, 1, 2, 3, 4]


def test_snapshot_validation():
    with pytest.raises(ValueError, match="no events"):
        snapshot_graph(np.array([], dtype=int), np.array([], dtype=int), 3)
    with pytest.raises(ValueError, match="outside"):
        snapshot_graph(np.array([0]), np.array([5]), num_nodes=3)


def test_laplacian_single_edge():
    # K2 normalized Laplacian [[1,-1],[-1,1]] has eigenpairs
    # 0 -> (1,1)/sqrt(2) and 2 -> (1,-1)/sqrt(2)
    pe = laplacian_pe(np.array([0]), np.array([1]), num_nodes=2, d_p=2)
    assert np.allclose(pe.table[0], [R2, R2], atol=1e-12)
    assert np.allclose(pe.table[1], [R2, -R2], atol=1e-12)
    assert pe.method == "laplacian"


def test_laplacian_path_graph_spectrum():
    # P3 normalized Laplacian eigenvalues are exactly {0, 1, 2}
    src = np.array([0, 1])
    dst = np.array([1, 2])
    pe = laplacian_pe(src, dst, num_nodes=3, d_p=3)
    a = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    dis = np.diag(a.sum(1) ** -0.5)
    lap = np.eye(3) - dis @ a @ dis
    for k in range(3):
        v = pe.table[:, k]
        lam = float(v @ lap @ v)
        assert abs(lam - float(k)) < 1e-9
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12


def test_laplacian_absent_nodes_get_zero_rows():
    pe = laplacian_pe(np.array([0]), np.array([1]), num_nodes=5, d_p=2)
    assert not pe.table[2:].any()
    assert pe.present.tolist() == [0, 1]


def test_laplacian_pads_when_snapshot_smaller_than_dp():
    pe = laplacian_pe(np.array([0]), np.array([1]), num_nodes=2, d_p=6)
    assert pe.table.shape == (2, 6)
    assert not pe.table[:, 2:].any()
    assert np.allclose(pe.table[0, :2], [R2, R2], atol=1e-12)


def test_laplacian_isolated_present_node():
    # a self-loop-only node is present but edgeless: 0^(-1/2) treated as 0
    pe = laplacian_pe(np.array([3]), np.array([3]), num_nodes=4, d_p=2)
    assert pe.table[3].tolist() == [1.0, 0.0]
    assert not pe.table[:3].any()


def test_random_walk_two_cycle():
    # on K2 the walk returns only on even steps: (0, 1, 0, 1)
    pe = random_walk_pe(np.array([0]), np.array([1]), num_nodes=2, d_p=4)
    assert np.allclose(pe.table[0], [0.0, 1.0, 0.0, 1.0], atol=1e-12)
    assert np.allclose(pe.table[1], [0.0, 1.0, 0.0, 1.0], atol=1e-12)


def test_random_walk_triangle_return_probability():
    src = np.array([0, 1, 2])
    dst = np.array([1, 2, 0])
    pe = random_walk_pe(src, dst, num_nodes=3, d_p=2)
    # two-step return on a triangle: 2 neighbors x (1/2 out, 1/2 back)
    assert np.allclose(pe.table[:, 0], 0.0, atol=1e-12)
    assert np.allclose(pe.table[:, 1], 0.5, atol=1e-12)


def test_zero_init_has_no_present_nodes():
    pe = zero_pe(4, 3)
    assert pe.table.shape == (4, 3)
    assert not pe.table.any()
    assert pe.present.size == 0


def test_disjoint_edge_snapshot_tells_nodes_apart_only_under_laplacian():
    # the synthetic recipe's first batch: 8 disjoint edges over 16 nodes
    cfg = parse_config(SYNTHETIC_RECIPE)
    stream = make_periodic_stream(num_pairs=10, num_events=2000, holdout_pairs=2,
                                  d_n=cfg.d_n, d_e=cfg.d_e)
    src, dst = stream.src[: cfg.batch_size], stream.dst[: cfg.batch_size]
    edges, present = snapshot_graph(src, dst, stream.num_nodes)
    assert len(edges) == 8 and len(present) == 16
    walk = random_walk_pe(src, dst, stream.num_nodes, cfg.d_p)
    rows = walk.table[walk.present]
    assert walk.present.tolist() == present.tolist()
    assert (rows == rows[0]).all()  # one row shared by every present node
    assert np.linalg.norm(rows[0]) == pytest.approx(np.sqrt(8.0))
    lap = laplacian_pe(src, dst, stream.num_nodes, cfg.d_p)
    rows = lap.table[lap.present]
    assert len(np.unique(rows, axis=0)) == 16
    assert np.allclose(np.linalg.norm(rows, axis=1), 1.0)
    assert zero_pe(stream.num_nodes, cfg.d_p).present.size == 0
