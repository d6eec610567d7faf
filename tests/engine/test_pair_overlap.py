"""Generated differential test of the cascade's batch kernel.

:func:`repro.engine.matching.pair_overlap` answers normalized equality
and Jaccard for a batch of profile pairs with one sort of a composite
``pair * V + token`` key; the reference answers each pair with Python
``set`` algebra.  Hypothesis builds small token-row CSRs over an
eight-token vocabulary - so that empty rows, identical rows and rows
that share nothing all occur - and batches in which a profile meets
itself and the same pair comes twice; the two must agree exactly
(``jaccard`` as a float, not approximately), and the kernel over any cut
of the batch must concatenate to the kernel over the whole batch, which
is what lets a fan-out run it a range at a time.
"""

from __future__ import annotations

import pytest

np = pytest.importorskip("numpy")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.engine.matching import pair_overlap  # noqa: E402

VOCABULARY = 8


@st.composite
def rows_and_batch(draw):
    rows = draw(
        st.lists(
            st.frozensets(st.integers(0, VOCABULARY - 1)), min_size=1, max_size=8
        )
    )
    profile = st.integers(0, len(rows) - 1)
    pairs = draw(st.lists(st.tuples(profile, profile), max_size=12))
    # The same pair twice in one batch, and a profile against itself.
    pairs += draw(st.lists(st.sampled_from(pairs), max_size=3)) if pairs else []
    pairs += [(p, p) for p in draw(st.lists(profile, max_size=2))]
    return rows, pairs


def payload_of(rows: list[frozenset[int]]) -> dict:
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(row) for row in rows], out=indptr[1:])
    tokens = np.array(
        [token for row in rows for token in sorted(row)], dtype=np.int64
    )
    return {"indptr": indptr, "tokens": tokens, "vocabulary": VOCABULARY}


def shard_of(pairs: list[tuple[int, int]]) -> tuple[np.ndarray, np.ndarray]:
    return (
        np.array([i for i, _ in pairs], dtype=np.int64),
        np.array([j for _, j in pairs], dtype=np.int64),
    )


@given(rows_and_batch())
@settings(max_examples=200, deadline=None)
def test_equals_set_algebra(case):
    rows, pairs = case
    equal, jaccard = pair_overlap(payload_of(rows), shard_of(pairs))
    assert equal.dtype == bool and jaccard.dtype == np.float64
    expected_jaccard = [
        len(rows[i] & rows[j]) / len(rows[i] | rows[j])
        if rows[i] | rows[j]
        else 1.0
        for i, j in pairs
    ]
    assert equal.tolist() == [rows[i] == rows[j] for i, j in pairs]
    assert jaccard.tolist() == expected_jaccard


@given(rows_and_batch(), st.data())
@settings(max_examples=100, deadline=None)
def test_any_cut_concatenates_to_the_whole(case, data):
    rows, pairs = case
    payload = payload_of(rows)
    cut = data.draw(st.integers(0, len(pairs)))
    whole = pair_overlap(payload, shard_of(pairs))
    parts = [
        pair_overlap(payload, shard_of(pairs[:cut])),
        pair_overlap(payload, shard_of(pairs[cut:])),
    ]
    for column in (0, 1):
        joined = np.concatenate([part[column] for part in parts])
        assert joined.tolist() == whole[column].tolist()
