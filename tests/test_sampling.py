"""Negative sampling strategies and their exclusion invariant."""
import numpy as np
import pytest

from lstep.events import EventStream, chronological_split
from lstep.sampling import _MAX_TRIES, STRATEGIES, NegativeSampler, Sample


def _stream():
    rng = np.random.default_rng(81)
    n_ev = 40
    src = rng.integers(0, 10, size=n_ev)
    dst = (src + 1 + rng.integers(0, 9, size=n_ev)) % 10
    return EventStream(src, dst, np.arange(1.0, n_ev + 1.0))


def test_random_keeps_source_and_shares_timestamp():
    s = _stream()
    split = chronological_split(s)
    idx = np.arange(0, 8)
    neg = NegativeSampler(s, split, "random", seed=3).sample(idx)
    assert isinstance(neg, Sample)
    assert np.array_equal(neg.src, s.src[idx])
    assert np.array_equal(neg.ts, s.ts[idx])
    assert neg.strategy == "random"


def test_negatives_never_collide_with_batch_positives():
    s = _stream()
    split = chronological_split(s)
    for strategy in ("random", "historical", "inductive"):
        for seed in range(20):
            sampler = NegativeSampler(s, split, strategy, seed=seed)
            for lo in range(0, split.train_end, 5):
                idx = np.arange(lo, min(lo + 5, split.train_end))
                neg = sampler.sample(idx)
                positives = {
                    (int(u), int(v), float(t))
                    for u, v, t in zip(s.src[idx], s.dst[idx], s.ts[idx])
                }
                for u, v, t in zip(neg.src, neg.dst, neg.ts):
                    assert (int(u), int(v), float(t)) not in positives


def test_historical_pool_only_holds_past_pairs():
    s = _stream()
    split = chronological_split(s)
    sampler = NegativeSampler(s, split, "historical", seed=5)
    idx = np.arange(10, 16)
    neg = sampler.sample(idx)
    assert neg.fallbacks == 0
    # the pool for the last positive (t = 16) spans events with ts < 16
    past = {(int(u), int(v)) for u, v in zip(s.src[:15], s.dst[:15])}
    for u, v in zip(neg.src, neg.dst):
        assert (int(u), int(v)) in past


def test_historical_empty_pool_falls_back_to_random():
    s = _stream()
    split = chronological_split(s)
    sampler = NegativeSampler(s, split, "historical", seed=7)
    neg = sampler.sample(np.array([0]))  # nothing strictly earlier exists
    assert neg.fallbacks == 1
    assert neg.strategy == "historical"
    assert (int(neg.src[0]), int(neg.dst[0])) != (int(s.src[0]), int(s.dst[0]))


def test_inductive_pool_is_post_boundary_pairs():
    s = _stream()
    split = chronological_split(s)
    allowed = {
        (int(u), int(v))
        for u, v in zip(s.src[split.train_end :], s.dst[split.train_end :])
    }
    sampler = NegativeSampler(s, split, "inductive", seed=9)
    neg = sampler.sample(np.arange(split.val_end, s.num_events))
    assert neg.fallbacks == 0
    for u, v in zip(neg.src, neg.dst):
        assert (int(u), int(v)) in allowed


def test_same_seed_reproduces_draws():
    s = _stream()
    split = chronological_split(s)
    batch = np.arange(5, 15)
    a = NegativeSampler(s, split, "random", seed=11).sample(batch)
    b = NegativeSampler(s, split, "random", seed=11).sample(batch)
    assert np.array_equal(a.dst, b.dst)
    c = NegativeSampler(s, split, "random", seed=12).sample(batch)
    assert not np.array_equal(a.dst, c.dst)


def test_two_node_graph_forces_untied_destination():
    # with nodes {0, 1} and positive (0, 1), the only admissible negative
    # destination for source 0 is 0 itself
    s = EventStream(np.array([0, 0]), np.array([1, 1]), np.array([1.0, 2.0]))
    split = chronological_split(s, (0.5, 0.25, 0.25))
    neg = NegativeSampler(s, split, "random", seed=0).sample(np.array([0]))
    assert neg.src[0] == 0 and neg.dst[0] == 0


def test_unknown_strategy_rejected():
    s = _stream()
    split = chronological_split(s)
    with pytest.raises(ValueError, match="unknown strategy"):
        NegativeSampler(s, split, "uniform")


def test_empty_batch_rejected():
    s = _stream()
    split = chronological_split(s)
    sampler = NegativeSampler(s, split, "random")
    with pytest.raises(ValueError, match="empty batch"):
        sampler.sample(np.array([], dtype=int))


def _assert_no_tied_positive(s, split, batch_size):
    """Sample every batch with every strategy; no negative may equal a
    positive anywhere in the stream at the same timestamp."""
    positives = {(int(u), int(v), float(t)) for u, v, t in zip(s.src, s.dst, s.ts)}
    for strategy in STRATEGIES:
        for seed in range(20):
            sampler = NegativeSampler(s, split, strategy, seed=seed)
            for lo in range(0, s.num_events, batch_size):
                neg = sampler.sample(np.arange(lo, min(lo + batch_size, s.num_events)))
                for u, v, t in zip(neg.src, neg.dst, neg.ts):
                    assert (int(u), int(v), float(t)) not in positives, strategy


def test_negatives_avoid_positives_tied_in_other_batches():
    # node 0 -> 1, 2, 3 twice over at t = 1: batch [0, 1] must not draw (0, 3)
    s = EventStream(np.zeros(6, dtype=int), np.array([1, 2, 3, 1, 2, 3]), np.ones(6))
    _assert_no_tied_positive(s, chronological_split(s), batch_size=2)
    # non-empty historical and inductive pools whose pairs recur in a
    # later batch at the same timestamp
    src = np.array([0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 2])
    dst = np.array([1, 2, 3, 4, 1, 2, 4, 5, 3, 4, 5])
    ts = np.array([1.0, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3])
    s = EventStream(src, dst, ts)
    _assert_no_tied_positive(s, chronological_split(s, (0.3, 0.35, 0.35)), batch_size=2)


def test_two_node_stream_never_draws_a_tied_positive():
    s = EventStream(np.array([0, 1, 0, 1, 0, 1]), np.array([1, 0, 1, 0, 1, 1]),
                    np.array([1.0, 1, 2, 2, 3, 3]))
    _assert_no_tied_positive(s, chronological_split(s, (0.5, 0.25, 0.25)), batch_size=1)


def test_all_duplicate_stream_never_draws_the_positive():
    s = EventStream(np.zeros(8, dtype=int), np.ones(8, dtype=int), np.ones(8))
    _assert_no_tied_positive(s, chronological_split(s), batch_size=3)


class _CountedRng:
    """A generator that keeps every integer it draws."""

    def __init__(self, rng):
        self.rng, self.drawn = rng, []

    def integers(self, *args, **kwargs):
        value = self.rng.integers(*args, **kwargs)
        self.drawn.append(int(value))
        return value


def test_random_draw_sweeps_after_max_tries_and_then_gives_up():
    # node 0 meets every other node at t = 1, so (0, 0) is its only
    # admissible negative: a 1-in-1001 draw
    n = 1001
    s = EventStream(np.zeros(n - 1, dtype=int), np.arange(1, n), np.ones(n - 1))
    sampler = NegativeSampler(s, chronological_split(s), "random", seed=0)
    sampler.rng = _CountedRng(sampler.rng)
    neg = sampler.sample(np.array([0]))
    assert neg.dst.tolist() == [0]
    # every draw was rejected, then one draw picked where the sweep starts
    assert len(sampler.rng.drawn) == _MAX_TRIES + 1
    assert 0 not in sampler.rng.drawn[:-1]
    # with a self-loop at t = 1 too, nothing is admissible
    s = EventStream(np.zeros(3, dtype=int), np.array([1, 2, 0]), np.ones(3))
    sampler = NegativeSampler(s, chronological_split(s), "random", seed=0)
    message = r"^no admissible negative destination for node 0 at t=1\.0$"
    with pytest.raises(RuntimeError, match=message):
        sampler.sample(np.array([1]))


# (strategy, seed) -> negative src, negative dst and the fallbacks of each
# batch of 4, recorded from the sampler that kept pairs as (u, v) tuples:
# naming a pair by its key must not move a single draw
_PINNED = {
    ("random", 0): ([0, 1, 2, 0, 3, 1, 2, 4, 0, 3, 4, 4, 3, 4],
                    [4, 3, 2, 1, 1, 0, 4, 3, 2, 3, 4, 3, 3, 4], [0, 0, 0, 0]),
    ("random", 1): ([0, 1, 2, 0, 3, 1, 2, 4, 0, 3, 4, 4, 3, 4],
                    [2, 3, 4, 0, 0, 4, 4, 4, 2, 1, 4, 3, 2, 0], [0, 0, 0, 0]),
    ("historical", 0): ([0, 1, 2, 0, 0, 0, 0, 0, 1, 4, 1, 1, 2, 0],
                        [4, 3, 2, 1, 1, 1, 1, 1, 2, 1, 3, 3, 0, 4], [3, 0, 0, 0]),
    ("historical", 1): ([0, 1, 2, 0, 0, 3, 3, 1, 2, 4, 0, 0, 2, 3],
                        [2, 3, 4, 1, 1, 4, 4, 2, 3, 1, 2, 2, 3, 4], [3, 0, 0, 0]),
    ("inductive", 0): ([4, 4, 4, 3, 3, 3, 3, 3, 3, 3, 4, 4, 3, 4],
                       [2, 2, 2, 0, 0, 0, 0, 0, 0, 2, 0, 0, 3, 4], [0, 0, 3, 2]),
    ("inductive", 1): ([3, 4, 4, 4, 3, 3, 4, 4, 3, 3, 4, 4, 3, 4],
                       [0, 2, 2, 2, 0, 0, 2, 2, 0, 2, 3, 4, 2, 4], [0, 0, 3, 2]),
}


@pytest.mark.parametrize("strategy, seed", list(_PINNED))
def test_draws_match_the_pinned_negatives(strategy, seed):
    # tied timestamps; the historical pool is empty at t = 1, and the
    # inductive pool's two pairs, (3, 0) and (4, 2), recur tied at t = 6
    src = np.array([0, 1, 2, 0, 3, 1, 2, 4, 0, 3, 4, 4, 3, 4])
    dst = np.array([1, 2, 3, 2, 4, 3, 0, 1, 4, 0, 2, 2, 0, 1])
    ts = np.array([1.0, 1, 1, 2, 2, 3, 3, 3, 4, 5, 5, 6, 6, 6])
    s = EventStream(src, dst, ts)
    sampler = NegativeSampler(s, chronological_split(s), strategy, seed)
    got = [sampler.sample(np.arange(lo, min(lo + 4, s.num_events))) for lo in range(0, 14, 4)]
    want_src, want_dst, want_fallbacks = _PINNED[strategy, seed]
    assert np.concatenate([g.src for g in got]).tolist() == want_src
    assert np.concatenate([g.dst for g in got]).tolist() == want_dst
    assert [g.fallbacks for g in got] == want_fallbacks
