"""Bit-exact equivalence of the vectorized ``exact_counts`` paths
against the per-record ``get_partition`` loop.

``exact_counts`` must produce (a) the identical per-reducer counts and
(b) the identical PRNG state afterwards, for every pattern, reducer
count (powers of two take no rejection draws; others do) and pair count
(including refill-boundary sizes).
"""

import pathlib
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import partitioners
from repro.core.matrix import (
    EXACT_LIMIT,
    clear_matrix_cache,
    compute_shuffle_matrix,
)
from repro.core.partitioners import make_partitioner

PATTERNS = ("avg", "rand", "skew", "zipf", "skew-split")


def _loop_counts(partitioner, n_pairs):
    counts = [0] * partitioner.num_reduces
    for _ in range(n_pairs):
        counts[partitioner.get_partition(None, None)] += 1
    return counts


def _state(partitioner):
    rng = getattr(partitioner, "_rng", None)
    pieces = [rng.getstate() if rng is not None else None,
              getattr(partitioner, "_next", None),
              getattr(partitioner, "_spread", None)]
    return pieces


@pytest.mark.parametrize("pattern", PATTERNS)
@pytest.mark.parametrize("num_reduces", [1, 2, 3, 8, 9, 12, 16, 31])
def test_counts_and_state_match_loop(pattern, num_reduces):
    n_pairs = 5_000
    fast = make_partitioner(pattern, num_reduces, seed=20140901)
    slow = make_partitioner(pattern, num_reduces, seed=20140901)
    got = fast.exact_counts(n_pairs)
    want = _loop_counts(slow, n_pairs)
    assert got.tolist() == want
    assert _state(fast) == _state(slow)
    # The next draws must also agree (state really is in sync).
    assert fast.get_partition(None, None) == slow.get_partition(None, None)


@given(
    pattern=st.sampled_from(PATTERNS),
    num_reduces=st.integers(1, 24),
    n_pairs=st.integers(0, 2_000),
    seed=st.integers(0, 2**32),
)
@settings(max_examples=150, deadline=None)
def test_counts_match_loop_property(pattern, num_reduces, n_pairs, seed):
    fast = make_partitioner(pattern, num_reduces, seed=seed)
    slow = make_partitioner(pattern, num_reduces, seed=seed)
    assert fast.exact_counts(n_pairs).tolist() == _loop_counts(slow, n_pairs)
    assert _state(fast) == _state(slow)


@pytest.mark.parametrize("pattern", ("rand", "skew"))
def test_sequential_calls_continue_the_stream(pattern):
    """Two exact_counts calls == one loop over the combined pairs."""
    fast = make_partitioner(pattern, 16, seed=7)
    slow = make_partitioner(pattern, 16, seed=7)
    total = fast.exact_counts(1_000) + fast.exact_counts(2_000)
    assert total.tolist() == _loop_counts(slow, 3_000)


def test_refill_boundaries_rand():
    """Pair counts straddling the internal chunk sizes."""
    for n_pairs in (4095, 4096, 4097, 8192, 20_000):
        fast = make_partitioner("rand", 9, seed=3)  # 9 -> rejection path
        slow = make_partitioner("rand", 9, seed=3)
        assert fast.exact_counts(n_pairs).tolist() == \
            _loop_counts(slow, n_pairs)


def test_avg_continues_round_robin_pointer():
    fast = make_partitioner("avg", 8)
    slow = make_partitioner("avg", 8)
    for chunk in (3, 13, 70):
        assert fast.exact_counts(chunk).tolist() == _loop_counts(slow, chunk)
    assert fast._next == slow._next


#: Pairs per map of the Fig. 2(c) 4 GB point (the largest exact row).
FIG2C_ROW = 240_848


def _assert_skew_matches_loop(num_reduces, n_pairs, seed):
    fast = make_partitioner("skew", num_reduces, seed=seed)
    slow = make_partitioner("skew", num_reduces, seed=seed)
    assert fast.exact_counts(n_pairs).tolist() == \
        _loop_counts(slow, n_pairs)
    assert _state(fast) == _state(slow)


class TestSkewOrbitReplay:
    """The vectorized MR-SKEW replay against the ``get_partition`` loop:
    full-size rows, chain-boundary sizes, and both of its rare paths
    (the per-pair fallback and the buffer redraw), forced."""

    @pytest.mark.parametrize("seed", [20140901, 7])
    @pytest.mark.parametrize("num_reduces", [1, 3, 8])
    @pytest.mark.parametrize("n_pairs", [FIG2C_ROW, EXACT_LIMIT])
    def test_full_size_rows(self, n_pairs, num_reduces, seed):
        _assert_skew_matches_loop(num_reduces, n_pairs, seed)

    @pytest.mark.parametrize("num_reduces", [1, 8, 17])
    def test_sizes_at_the_chain_boundaries(self, num_reduces):
        stride = partitioners._CHAIN_STRIDE
        # A chain runs at most `span` steps; each owns `stride` words.
        span = (stride + partitioners._MERGE_MARGIN) // 2 + 1
        for n_pairs in (span - 2, span - 1, span, stride - 1, stride,
                        stride + 1):
            _assert_skew_matches_loop(num_reduces, n_pairs, seed=3)

    def test_many_small_chains(self, monkeypatch):
        monkeypatch.setattr(partitioners, "_CHAIN_STRIDE", 64)
        monkeypatch.setattr(partitioners, "_MERGE_MARGIN", 48)
        for n_pairs in (63, 64, 65, 127, 128, 129, 3_000):
            _assert_skew_matches_loop(8, n_pairs, seed=11)

    def test_chains_that_do_not_meet_fall_back_exactly(self, monkeypatch):
        monkeypatch.setattr(partitioners, "_CHAIN_STRIDE", 16)
        monkeypatch.setattr(partitioners, "_MERGE_MARGIN", 1)
        calls = []
        real = partitioners._loop_counts

        def spy(draw, num_reduces, n_pairs):
            calls.append(n_pairs)
            return real(draw, num_reduces, n_pairs)

        monkeypatch.setattr(partitioners, "_loop_counts", spy)
        for num_reduces in (1, 3, 8):
            _assert_skew_matches_loop(num_reduces, 5_000, seed=5)
        assert calls == [5_000, 5_000, 5_000]

    def test_split_skew_fallback_does_not_split_twice(self, monkeypatch):
        monkeypatch.setattr(partitioners, "_CHAIN_STRIDE", 16)
        monkeypatch.setattr(partitioners, "_MERGE_MARGIN", 1)
        fast = make_partitioner("skew-split", 8, seed=5)
        slow = make_partitioner("skew-split", 8, seed=5)
        assert fast.exact_counts(3_000).tolist() == \
            _loop_counts(slow, 3_000)
        assert _state(fast) == _state(slow)

    def test_a_buffer_the_orbit_outruns_is_redrawn(self, monkeypatch):
        monkeypatch.setattr(partitioners, "_SPARE_PER_PAIR", -1.0)
        calls = []
        real = partitioners._pair_orbit

        def spy(*args):
            calls.append(args[1])
            return real(*args)

        monkeypatch.setattr(partitioners, "_pair_orbit", spy)
        _assert_skew_matches_loop(8, 20_000, seed=9)
        assert len(calls) >= 2

    def test_chained_calls_continue_the_stream(self):
        fast = make_partitioner("skew", 3, seed=13)
        slow = make_partitioner("skew", 3, seed=13)
        total = sum(fast.exact_counts(n) for n in (1, 700, 5_000, 623))
        assert total.tolist() == _loop_counts(slow, 6_324)
        assert _state(fast) == _state(slow)


def test_fig2c_matrix_rows_match_the_loop():
    """The shipped Fig. 2(c) 4 GB point: matrix rows == per-map loop."""
    from repro.campaign import load_campaign

    spec = (pathlib.Path(__file__).resolve().parents[2]
            / "benchmarks" / "campaigns" / "fig2.json")
    config = load_campaign(spec, "fig2c").points()[0].config
    assert config.pairs_for_map(0) == FIG2C_ROW
    clear_matrix_cache()
    try:
        records = compute_shuffle_matrix(config).records
    finally:
        clear_matrix_cache()
    for map_id in range(2):
        oracle = make_partitioner(config.pattern, config.num_reduces,
                                  seed=config.seed + map_id)
        assert records[map_id].tolist() == _loop_counts(
            oracle, config.pairs_for_map(map_id))
