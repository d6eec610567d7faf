"""The array ranking vs the SortedStack reference.

PPS's python emission drains a bounded :class:`SortedStack`; the array
backends rank the same pairs with :func:`rank_pairs` and read a prefix.
Both must agree on every prefix, ties included.
"""

from __future__ import annotations

import random

import pytest

np = pytest.importorskip("numpy")

from repro.core.comparisons import Comparison, SortedStack  # noqa: E402
from repro.engine.topk import rank_pairs  # noqa: E402


def reference_topk(i, j, w, k):
    stack = SortedStack()
    for pi, pj, pw in zip(i, j, w, strict=True):
        stack.push(Comparison(pi, pj, pw))
        if len(stack) > k:
            stack.pop()
    return stack.drain_descending()


def ranked(i, j, w):
    """``rank_pairs`` over the pairs put in key order, as it requires."""
    ia, ja, wa = (np.array(i), np.array(j), np.array(w, dtype=np.float64))
    keyed = np.lexsort((ja, ia))
    ri, rj, rw = rank_pairs(ia[keyed], ja[keyed], wa[keyed])
    return list(zip(ri.tolist(), rj.tolist(), rw.tolist(), strict=True))


@pytest.mark.parametrize("k", (1, 3, 7, 50, 500))
@pytest.mark.parametrize("seed", (0, 1, 2))
def test_top_k_matches_sorted_stack(k, seed):
    rng = random.Random(seed)
    m = 200
    i = [rng.randrange(50) for _ in range(m)]
    j = [value + 1 + rng.randrange(50) for value in i]
    # Coarse weights force plenty of boundary ties.
    w = [rng.randrange(8) / 4.0 for _ in range(m)]

    got = ranked(i, j, w)[:k]
    want = [(c.i, c.j, c.weight) for c in reference_topk(i, j, w, k)]
    assert got == want


def test_sort_pairs_descending_total_order():
    ranking = ranked([1, 0, 0, 2], [5, 9, 2, 3], [1.0, 1.0, 1.0, 2.0])
    assert [(i, j) for i, j, _ in ranking] == [(2, 3), (0, 2), (0, 9), (1, 5)]


def test_top_k_zero_and_overlong():
    assert ranked([], [], []) == []
    assert ranked([0, 1], [2, 3], [0.5, 1.5])[:10] == [(1, 3, 1.5), (0, 2, 0.5)]
