import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from juntaleap.setsystem import (
    INFINITY,
    SetSystem,
    cover,
    greedy_closure,
    leap,
    mask_from_coords,
    rel_cover,
    rel_leap,
)
from conftest import brute_cover, brute_leap, brute_leap_sequences, random_system


def system(p, *sets):
    return SetSystem(p, tuple(mask_from_coords(s, p) for s in sets))


class TestInfinity:
    def test_orders_above_integers(self):
        assert INFINITY > 10**9
        assert not INFINITY < 3
        assert INFINITY >= INFINITY
        assert INFINITY <= INFINITY
        assert 5 < INFINITY

    def test_singleton_survives_pickle(self):
        assert pickle.loads(pickle.dumps(INFINITY)) is INFINITY

    def test_not_numeric(self):
        with pytest.raises(TypeError):
            INFINITY + 1


class TestConstruction:
    def test_deduplicates(self):
        s = system(3, [1, 2], [2, 1], [3])
        assert len(s.sets) == 2

    def test_deduplicates_in_first_seen_order_at_scale(self):
        # all 2^12 - 1 masks in a shuffled order, each repeated (also as numpy
        # ints): one copy of each survives, in order of first appearance
        rng = np.random.default_rng(0)
        masks = rng.permutation(np.arange(1, 1 << 12)).tolist()
        sets = masks + [np.int64(m) for m in masks[::-1]] + masks[:100]
        s = SetSystem(12, tuple(sets))
        assert s.sets == tuple(masks)
        assert all(type(m) is int for m in s.sets)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            system(2, [3])

    def test_rejects_large_universe(self):
        with pytest.raises(ValueError):
            SetSystem(33, ())


class TestGreedyClosure:
    def test_y1_chain_k1(self):
        s = system(4, [1], [1, 2], [1, 2, 3], [1, 2, 3, 4])
        assert greedy_closure(s, 1) == 0b1111

    def test_y2_stuck_at_k2(self):
        s = system(4, [1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4])
        assert greedy_closure(s, 2) == 0
        # brute force: no sequence of any length adds a set with <= 2 new coords
        assert brute_leap_sequences(s) == 3

    def test_k_equals_p_reaches_support(self):
        s = system(5, [1, 2], [4, 5])
        assert greedy_closure(s, 5) == s.support

    def test_start_containment(self):
        s = system(4, [1, 2], [2, 3, 4])
        start = mask_from_coords([2], 4)
        closed = greedy_closure(s, 1, start)
        assert closed & start == start

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            greedy_closure(system(2, [1]), 0)


class TestLeapCover:
    def test_y1_values(self):
        s = system(4, [1], [1, 2], [1, 2, 3], [1, 2, 3, 4])
        assert leap(s) == 1
        assert cover(s) == 4

    def test_y2_values(self):
        s = system(4, [1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4])
        assert leap(s) == 3
        assert cover(s) == 3

    def test_missing_support_is_infinite(self):
        s = system(3, [1, 2])
        assert leap(s) is INFINITY
        assert cover(s) is INFINITY

    def test_all_singletons(self):
        s = system(4, [1], [2], [3], [4])
        assert leap(s) == 1
        assert cover(s) == 1


class TestRelative:
    def test_single_pair(self):
        s = system(3, [1, 2])
        assert rel_leap(s) == 2
        assert rel_cover(s) == 2

    def test_chain_fragment(self):
        s = system(5, [1], [1, 2])
        assert rel_leap(s) == 1
        assert rel_cover(s) == 2
        # brute force over orderings agrees
        assert brute_leap(s, target=s.support) == 1

    def test_equals_absolute_on_full_support(self):
        s = system(4, [1], [1, 2], [1, 2, 3], [1, 2, 3, 4])
        assert rel_leap(s) == leap(s)
        assert rel_cover(s) == cover(s)

    def test_empty_support_errors(self):
        s = SetSystem(3, (0,))
        with pytest.raises(ValueError):
            rel_leap(s)
        with pytest.raises(ValueError):
            rel_cover(s)


@st.composite
def set_systems(draw, max_p=5, max_sets=6):
    p = draw(st.integers(1, max_p))
    n = draw(st.integers(1, max_sets))
    masks = draw(st.lists(st.integers(0, (1 << p) - 1), min_size=n, max_size=n))
    return SetSystem(p, tuple(masks))


class TestProperties:
    @given(set_systems())
    @settings(max_examples=200, deadline=None)
    def test_leap_le_cover(self, s):
        lp, cv = leap(s), cover(s)
        if lp is not INFINITY and cv is not INFINITY:
            assert lp <= cv

    @given(set_systems())
    @settings(max_examples=200, deadline=None)
    def test_union_closure_invariance(self, s):
        if len(s.sets) < 2:
            return
        merged = SetSystem(s.p, s.sets + (s.sets[0] | s.sets[1],))
        assert leap(merged) == leap(s)
        assert cover(merged) == cover(s)

    @given(set_systems())
    @settings(max_examples=200, deadline=None)
    def test_greedy_matches_brute_force(self, s):
        expected = brute_leap(s)
        got = leap(s)
        if expected is None:
            assert got is INFINITY
        else:
            assert got == expected

    @given(set_systems(max_p=4, max_sets=4))
    @settings(max_examples=60, deadline=None)
    def test_sequence_enumeration_agrees(self, s):
        expected = brute_leap_sequences(s)
        got = leap(s)
        if expected is None:
            assert got is INFINITY
        else:
            assert got == expected

    @given(set_systems())
    @settings(max_examples=200, deadline=None)
    def test_cover_matches_brute_force(self, s):
        expected = brute_cover(s)
        got = cover(s)
        if expected is None:
            assert got is INFINITY
        else:
            assert got == expected

    def test_thousand_random_systems(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            s = random_system(rng)
            expected = brute_leap(s)
            got = leap(s)
            assert (got is INFINITY) == (expected is None)
            if expected is not None:
                assert got == expected
