"""Event stream indexing, temporal queries, splitting, and the CSV loader."""
import csv
import math

import numpy as np
import pytest

from lstep.events import (
    PAD_ID,
    EventStream,
    batch_iter,
    chronological_split,
    load_events,
    write_manifest,
)


def _tiny_stream():
    # (0,1)@1  (1,2)@2  (0,2)@3
    return EventStream(
        np.array([0, 1, 0]), np.array([1, 2, 2]), np.array([1.0, 2.0, 3.0])
    )


def _rows(rec):
    """(neighbor, time, event) triples of each query row."""
    return [
        list(zip(n, t, e))
        for n, t, e in zip(
            rec.neighbors.tolist(), rec.times.tolist(), rec.event_ids.tolist()
        )
    ]


def test_neighbor_index_is_bidirectional():
    s = _tiny_stream()
    rec = s.recent_interactions(np.array([1, 2]), 10.0, k=2)
    assert _rows(rec) == [
        [(0, 1.0, 0), (2, 2.0, 1)],
        [(1, 2.0, 1), (0, 3.0, 2)],
    ]


def test_recent_is_strictly_before_query_time():
    s = _tiny_stream()
    rec = s.recent_interactions(np.array([1]), np.array([2.0]), k=2)
    assert _rows(rec) == [[(PAD_ID, 2.0, -1), (0, 1.0, 0)]]
    assert (~rec.pad_mask).sum() == 1


def test_recent_inclusive_admits_query_time():
    s = _tiny_stream()
    rec = s.recent_interactions_inclusive(np.array([1]), 2, k=2)
    assert _rows(rec) == [[(0, 1.0, 0), (2, 2.0, 1)]]
    assert (~rec.pad_mask).sum() == 2


def test_padding_fills_front_with_sentinels():
    s = _tiny_stream()
    rec = s.recent_interactions(np.array([0, 0]), np.array([5.0, 1.0]), k=4)
    assert rec.neighbors.tolist() == [[PAD_ID, PAD_ID, 1, 2], [PAD_ID] * 4]
    assert rec.times.tolist() == [[5.0, 5.0, 1.0, 3.0], [1.0] * 4]
    assert rec.event_ids.tolist() == [[-1, -1, 0, 2], [-1] * 4]
    assert rec.pad_mask.tolist() == [[True, True, False, False], [True] * 4]


def test_window_is_half_open():
    s = _tiny_stream()
    win = s.window_neighbors(np.array([0]), np.array([3.0]), t_gap=2.0)
    # [1.0, 3.0): the event at exactly t - t_gap counts, the one at t does not
    assert win.neighbors.tolist() == [1]
    # one call, three queries: the middle one's window is empty
    win = s.window_neighbors(np.array([0, 0, 2]), np.array([3.5, 3.0, 3.5]), t_gap=1.5)
    assert win.offsets.tolist() == [0, 1, 1, 3]
    assert win.neighbors.tolist() == [2, 1, 0]
    win = s.window_neighbors(np.array([0]), np.array([3.5]), t_gap=3.0)
    assert win.neighbors.tolist() == [1, 2]


def test_keeps_truncation_order_oldest_first():
    src = np.zeros(5, dtype=np.int64)
    dst = np.arange(1, 6)
    s = EventStream(src, dst, np.arange(5, dtype=np.float64))
    rec = s.recent_interactions(np.array([0]), np.array([100.0]), k=3)
    assert rec.neighbors.tolist() == [[3, 4, 5]]


def test_out_of_order_input_is_sorted_and_counted():
    s = EventStream(
        np.array([0, 1, 2]),
        np.array([3, 4, 5]),
        np.array([3.0, 1.0, 2.0]),
        edge_features=np.array([[3.0], [1.0], [2.0]]),
    )
    assert s.ts.tolist() == [1.0, 2.0, 3.0]
    assert s.sort_warnings == 2  # (3,1) and (3,2) were inverted
    assert s.edge_features.ravel().tolist() == [1.0, 2.0, 3.0]
    assert s.src.tolist() == [1, 2, 0]


def test_out_of_order_stream_leaves_the_callers_arrays_alone():
    src, dst, ts = np.array([0, 1, 2]), np.array([3, 4, 5]), np.array([3.0, 1.0, 2.0])
    feats = np.array([[3.0], [1.0], [2.0]])
    EventStream(src, dst, ts, edge_features=feats)
    assert ts.tolist() == [3.0, 1.0, 2.0] and src.tolist() == [0, 1, 2]
    assert feats.ravel().tolist() == [3.0, 1.0, 2.0]


def test_sort_count_and_index_match_loop_references():
    rng = np.random.default_rng(5)
    for n in (2, 3, 17, 64, 101):
        ts = rng.integers(0, 6, size=n).astype(np.float64)  # many ties
        src, dst = rng.integers(0, 9, size=n), rng.integers(0, 9, size=n)
        s = EventStream(src, dst, ts, num_nodes=10)
        assert s.sort_warnings == sum(
            1 for i in range(n) for j in range(i + 1, n) if ts[j] < ts[i]
        )
        rec = s.recent_interactions_inclusive(np.arange(10), n, k=n)
        for node in range(10):
            ends = zip(s.src.tolist(), s.dst.tolist())
            touching = [(i, v if u == node else u) for i, (u, v) in enumerate(ends)
                        if node in (u, v)]
            real = ~rec.pad_mask[node]
            got = list(zip(rec.event_ids[node][real].tolist(),
                           rec.neighbors[node][real].tolist()))
            assert got == touching


def test_tied_timestamps_keep_input_order():
    s = EventStream(np.array([0, 0]), np.array([1, 2]), np.array([5.0, 5.0]))
    assert s.sort_warnings == 0
    rec = s.recent_interactions(np.array([0]), np.array([6.0]), k=2)
    assert rec.neighbors.tolist() == [[1, 2]]


def test_self_loop_indexed_once():
    s = EventStream(np.array([3, 0]), np.array([3, 1]), np.array([1.0, 2.0]))
    rec = s.recent_interactions(np.array([3]), np.array([9.0]), k=3)
    assert (~rec.pad_mask).sum() == 1
    assert rec.neighbors.tolist() == [[PAD_ID, PAD_ID, 3]]


def test_interaction_counts_count_a_self_loop_once():
    s = EventStream(
        np.array([3, 0, 1]), np.array([3, 1, 0]), np.array([1.0, 2.0, 3.0]), num_nodes=5
    )
    assert s.interaction_counts().tolist() == [2, 2, 0, 1, 0]


def test_empty_stream_rejected():
    with pytest.raises(ValueError, match="empty"):
        EventStream(np.array([], dtype=int), np.array([], dtype=int), np.array([]))


def test_negative_ids_rejected():
    with pytest.raises(ValueError, match="negative node id"):
        EventStream(np.array([-1]), np.array([0]), np.array([1.0]))


def test_num_nodes_lower_than_ids_rejected():
    with pytest.raises(ValueError, match="outside"):
        EventStream(np.array([0]), np.array([7]), np.array([1.0]), num_nodes=4)


def test_non_finite_timestamps_rejected():
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="non-finite timestamp .* at event 1"):
            EventStream(np.array([0, 1]), np.array([1, 2]), np.array([1.0, bad]))
    src, dst, ts = np.array([0, 1]), np.array([1, 2]), np.array([1.0, 2.0])
    with pytest.raises(ValueError, match="non-finite edge feature nan at event 0"):
        EventStream(src, dst, ts, edge_features=[[np.nan], [1.0]])
    with pytest.raises(ValueError, match="non-finite node feature -?inf at node 2"):
        feats = np.zeros((3, 2))
        feats[2, 1] = -np.inf
        EventStream(src, dst, ts, node_features=feats)
    with pytest.raises(ValueError, match="non-finite"):
        EventStream(src, dst, ts, edge_features=[[np.nan], [1.0]],
                    node_features=np.full((3, 1), np.inf))


def test_feature_tables_must_be_2d():
    src, dst, ts = [0, 1], [1, 0], [1.0, 2.0]
    with pytest.raises(ValueError, match=r"edge_features must be a 2-D .* shape \(2,\)"):
        EventStream(src, dst, ts, edge_features=np.zeros(2))
    with pytest.raises(ValueError, match=r"node_features must be a 2-D .* shape \(2,\)"):
        EventStream(src, dst, ts, node_features=np.zeros(2))
    with pytest.raises(ValueError, match=r"edge_features .* shape \(2, 1, 1\)"):
        EventStream(src, dst, ts, edge_features=np.zeros((2, 1, 1)))


def test_default_feature_tables_are_zero():
    s = _tiny_stream()
    assert s.node_features.shape == (3, 172)
    assert s.edge_features.shape == (3, 172)
    assert not s.node_features.any()
    assert not s.edge_features.any()


def test_split_boundaries_and_new_nodes():
    src = np.array([0, 0, 1, 1, 2, 4, 5, 0, 6, 7])
    dst = np.array([1, 2, 2, 3, 3, 0, 1, 6, 7, 8])
    s = EventStream(src, dst, np.arange(10, dtype=np.float64))
    split = chronological_split(s)
    assert split.train_end == 7
    assert split.val_end == 8
    assert split.train_range == (0, 7)
    assert split.val_range == (7, 8)
    assert split.test_range == (8, 10)
    # nodes 6, 7, 8 never appear in the first 7 events
    assert split.new_nodes == frozenset({6, 7, 8})


def test_split_ratio_validation():
    s = _tiny_stream()
    with pytest.raises(ValueError, match="sum to 1"):
        chronological_split(s, (0.5, 0.1, 0.1))
    with pytest.raises(ValueError, match="bad split ratios"):
        chronological_split(s, (0.9, -0.1, 0.2))


def test_batch_iter_covers_range_with_ragged_tail():
    batches = list(batch_iter(3, 10, 3))
    assert [k for k, _ in batches] == [0, 1, 2]
    assert [idx.tolist() for _, idx in batches] == [[3, 4, 5], [6, 7, 8], [9]]
    assert list(batch_iter(4, 4, 2)) == []


def test_batch_iter_validation():
    with pytest.raises(ValueError, match="batch size"):
        list(batch_iter(0, 5, 0))
    with pytest.raises(ValueError, match="bad range"):
        list(batch_iter(5, 2, 1))


def test_load_events_basic(tmp_path):
    p = tmp_path / "toy.csv"
    p.write_text("src,dst,timestamp\n10,20,1.0\n20,30,2.0\n10,30,3.5\n")
    s = load_events(p)
    assert s.dataset == "toy"
    assert s.num_nodes == 3
    assert s.src.tolist() == [0, 1, 0]  # ids remapped densely in sorted order
    assert s.dst.tolist() == [1, 2, 2]
    assert s.ts.tolist() == [1.0, 2.0, 3.5]


def test_load_events_with_label_and_features(tmp_path):
    p = tmp_path / "feat.csv"
    p.write_text(
        "src,dst,timestamp,label,f0,f1\n"
        "0,1,1.0,0,0.5,-2.0\n"
        "1,2,2.0,1,1.5,3.0\n"
    )
    s = load_events(p)
    assert s.d_e == 2
    assert s.edge_features.tolist() == [[0.5, -2.0], [1.5, 3.0]]


def test_load_events_feature_column_not_named_label(tmp_path):
    p = tmp_path / "nolabel.csv"
    p.write_text("src,dst,timestamp,f0\n0,1,1.0,9.0\n")
    s = load_events(p)
    assert s.d_e == 1
    assert s.edge_features.tolist() == [[9.0]]


def test_load_events_wide_feature_rows(tmp_path):
    p = tmp_path / "wide.csv"
    header = "src,dst,timestamp," + ",".join(f"f{i}" for i in range(172))
    row = "0,1,1.0," + ",".join(str(float(i)) for i in range(172))
    p.write_text(header + "\n" + row + "\n")
    s = load_events(p)
    assert s.edge_features.shape == (1, 172)
    assert s.edge_features[0, 171] == 171.0


def test_load_events_malformed_row_names_line(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("src,dst,timestamp\n0,1,1.0\n0,oops,2.0\n")
    with pytest.raises(ValueError, match=r"bad\.csv:3"):
        load_events(p)


def test_load_events_non_finite_values_name_line(tmp_path):
    p = tmp_path / "nan.csv"
    p.write_text("src,dst,timestamp\n0,1,1.0\n0,2,nan\n1,2,inf\n")
    with pytest.raises(ValueError, match=r"nan\.csv:3: non-finite timestamp"):
        load_events(p)
    p.write_text("src,dst,timestamp,f0\n0,1,1.0,0.5\n0,2,2.0,-inf\n")
    with pytest.raises(ValueError, match=r"nan\.csv:3: non-finite edge feature"):
        load_events(p)


def test_load_events_field_count_mismatch(tmp_path):
    p = tmp_path / "short.csv"
    p.write_text("src,dst,timestamp\n0,1\n")
    with pytest.raises(ValueError, match="expected 3 fields, got 2"):
        load_events(p)


def test_load_events_empty_file(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("")
    with pytest.raises(ValueError, match="empty event file"):
        load_events(p)
    p.write_text("src,dst,timestamp\n")
    with pytest.raises(ValueError, match="empty event file"):
        load_events(p)


def test_load_events_rejects_ids_outside_int64_or_not_integral(tmp_path):
    p = tmp_path / "ids.csv"
    for bad, reason in (
        ("1e300", "node id 1e+300 is outside int64"),
        ("9223372036854775808", "node id 9.223372036854776e+18 is outside int64"),
        ("3.7", "node id 3.7 is not an integer"),
        ("nan", "cannot convert float NaN to integer"),
        ("-inf", "cannot convert float infinity to integer"),
    ):
        p.write_text(f"src,dst,timestamp\n0,1,1.0\n2,{bad},2.0\n")
        with pytest.raises(ValueError) as exc:
            load_events(p)
        assert str(exc.value) == f"{p}:3: malformed row ({reason})"
    # the int64 ends themselves, and integral floats, are ids
    p.write_text("src,dst,timestamp\n-9223372036854775808,4.0,1.0\n1e3,-0.0,2.0\n")
    s = load_events(p)
    assert s.num_nodes == 4
    assert (s.src.tolist(), s.dst.tolist()) == ([0, 3], [2, 1])


def test_recent_inclusive_bound_cuts_a_tied_block():
    s = EventStream(np.array([0, 1, 0, 1]), np.array([1, 2, 2, 2]),
                    np.array([1.0, 2.0, 2.0, 3.0]))
    rec = s.recent_interactions_inclusive(np.array([0, 2]), 2, k=3)
    assert rec.event_ids.tolist() == [[-1, -1, 0], [-1, -1, 1]]
    assert rec.times.tolist() == [[2.0, 2.0, 1.0], [2.0, 2.0, 2.0]]
    rec = s.recent_interactions_inclusive(np.array([0, 2]), 3, k=3)
    assert rec.event_ids.tolist() == [[-1, 0, 2], [-1, 1, 2]]
    for bad in (0, 5):
        with pytest.raises(ValueError, match="event bound"):
            s.recent_interactions_inclusive(np.array([0]), bad, k=1)


def _reference_load(path, d_e=172):
    """The per-row loader that ``load_events`` replaced: ``csv.reader``
    and ``float()`` on every field. Kept here as the oracle."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty event file") from None
        has_label = len(header) > 3 and header[3].strip().lower() in {"label", "state_label"}
        feat_start = 4 if has_label else 3
        n_feat = len(header) - feat_start
        src, dst, ts, feats = [], [], [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(
                    f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}"
                )
            try:
                src.append(int(float(row[0])))
                dst.append(int(float(row[1])))
                t = float(row[2])
                feat = [float(x) for x in row[feat_start:]]
            except (ValueError, OverflowError) as exc:
                raise ValueError(f"{path}:{lineno}: malformed row ({exc})") from None
            if not math.isfinite(t):
                raise ValueError(f"{path}:{lineno}: non-finite timestamp {t}")
            if not all(map(math.isfinite, feat)):
                raise ValueError(f"{path}:{lineno}: non-finite edge feature")
            ts.append(t)
            if n_feat:
                feats.append(feat)
    if not src:
        raise ValueError(f"{path}: empty event file")
    _, dense = np.unique(np.asarray(src + dst, dtype=np.int64), return_inverse=True)
    src_a, dst_a = np.split(dense.astype(np.int64), 2)
    edge_features = np.asarray(feats, dtype=np.float64) if n_feat else None
    return EventStream(src_a, dst_a, np.asarray(ts), edge_features=edge_features, d_e=d_e)


def _oracle_csv(rng, n, n_feat, label=False):
    """Header and rows with sparse negative ids, ties and rows out of
    order; features drawn to need all 17 significant digits."""
    ids = np.sort(rng.choice(10**9, size=40, replace=False)) - 5 * 10**8
    ts = np.round(rng.uniform(0.0, 50.0, size=n), 1)
    ts[::7] = ts[0]
    header = ["user", "item", "timestamp"] + (["state_label"] if label else [])
    header += [f"f{j}" for j in range(n_feat)]
    rows = []
    for i in range(n):
        row = [str(rng.choice(ids)), f"{rng.choice(ids)}.0", repr(float(ts[i]))]
        if label:
            row.append(rng.choice(["0", "1", "# not a comment", "text, quoted"]))
        row += [repr(x) for x in rng.normal(scale=10.0, size=n_feat).tolist()]
        rows.append(row)
    return header, rows


def _assert_same_stream(a, b):
    for name in ("src", "dst", "ts", "edge_features"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert a.num_nodes == b.num_nodes
    assert a.sort_warnings == b.sort_warnings > 0


@pytest.mark.parametrize(
    "n_feat, label, newline, blank_every, final_newline, quote",
    [
        (0, False, "\n", 0, True, csv.QUOTE_MINIMAL),
        (3, True, "\r\n", 5, True, csv.QUOTE_MINIMAL),
        (2, False, "\n", 3, False, csv.QUOTE_ALL),
        (172, True, "\r\n", 0, False, csv.QUOTE_ALL),
    ],
)
def test_load_events_matches_per_row_reference(
    tmp_path, n_feat, label, newline, blank_every, final_newline, quote
):
    rng = np.random.default_rng(n_feat)
    header, rows = _oracle_csv(rng, 60, n_feat, label)
    path = tmp_path / "oracle.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator=newline, quoting=quote)
        writer.writerow(header)
        for i, row in enumerate(rows):
            if blank_every and i % blank_every == blank_every - 1:
                fh.write(newline)
            writer.writerow(row)
    if not final_newline:
        path.write_bytes(path.read_bytes().rstrip(b"\r\n"))
    _assert_same_stream(load_events(path, d_e=max(n_feat, 1)),
                        _reference_load(path, d_e=max(n_feat, 1)))


@pytest.mark.parametrize(
    "text",
    [
        "src,dst,timestamp,f0\n1,2,1.0,0.5\n\n\n3,4\n",  # short row after blank lines
        "src,dst,timestamp,f0\n1,2,1.0,0.5\n3,4,2.0,0.x5\n",  # bad token
        "src,dst,timestamp,f0\r\n1,2,1.0,0.5\r\n\r\n3,4,nan,0.5\r\n",  # nan timestamp
        "src,dst,timestamp,label,f0\n1,2,1.0,a,0.5\n3,4,2.0,#,-inf\n",  # -inf feature
        "src,dst,timestamp,label\n1,2,1.0,x\n3,4,2.0,y,z\n",  # long row beside a label
        # a quoted line break and a blank record before a nan feature
        'src,dst,timestamp,label,f0\n1,2,1.0,"x\n\ny",0.5\n\n3,4,2.0,z,nan\n',
        "src,dst,timestamp\n1,2,1.0\n   \n",  # a line of spaces is a record
        "src,dst,timestamp\n",  # header only
        "src,dst,timestamp\n\n\n",  # header and blank lines
    ],
)
def test_load_events_errors_match_per_row_reference(tmp_path, text):
    path = tmp_path / "bad.csv"
    path.write_text(text, newline="")
    with pytest.raises(ValueError) as want:
        _reference_load(path)
    with pytest.raises(ValueError) as got:
        load_events(path)
    assert str(got.value) == str(want.value)


def test_load_events_rejects_digit_separators(tmp_path):
    # Python's float takes "1_0"; numpy's grammar, which the loader
    # follows, does not
    path = tmp_path / "sep.csv"
    path.write_text("src,dst,timestamp\n1,2,1.0\n1_0,2,2.0\n")
    assert _reference_load(path).num_nodes == 3
    with pytest.raises(ValueError) as exc:
        load_events(path)
    assert str(exc.value) == f"{path}:3: malformed row (could not convert string to float: '1_0')"


def test_manifest_round_trip(tmp_path):
    s = _tiny_stream()
    p = tmp_path / "toy.manifest"
    write_manifest(p, s)
    assert p.read_text().splitlines() == [
        "dataset = unnamed",
        "num_nodes = 3",
        "num_events = 3",
        "d_n = 172",
        "d_e = 172",
        "sort_warnings = 0",
    ]
