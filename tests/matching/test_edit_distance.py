"""Unit tests for Levenshtein distance and edit similarity, and the
bit-vector kernel against the table it replaced.

``levenshtein`` must return the table's distance for every input,
because the similarity derived from it is part of every decided record
(the e2e benchmark pins the digest of the whole decided stream, rejected
pairs included).  Hypothesis draws texts over a four-letter alphabet
plus one astral code point - small enough that texts share long runs and
a failing case shrinks to something readable - at lengths up to 200, so
the bit vectors cross the 30-bit digit of CPython's ints and the 64-bit
machine word several times.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ERPipeline
from repro.datasets import load_dataset
from repro.engine import HAS_NUMPY
from repro.matching.edit_distance import edit_similarity, levenshtein

from .oracle import levenshtein_table


class TestLevenshtein:
    @pytest.mark.parametrize(
        "a,b,expected",
        [
            ("", "", 0),
            ("a", "", 1),
            ("", "abc", 3),
            ("kitten", "sitting", 3),
            ("flaw", "lawn", 2),
            ("intention", "execution", 5),
            ("same", "same", 0),
            ("ab", "ba", 2),  # no transposition in plain Levenshtein
        ],
    )
    def test_known_distances(self, a, b, expected):
        assert levenshtein(a, b) == expected

    def test_symmetry(self):
        assert levenshtein("abcdef", "azced") == levenshtein("azced", "abcdef")

    def test_prefix_suffix_stripping_preserves_result(self):
        # Shared prefix 'pro' and suffix 'ing' are stripped internally.
        assert levenshtein("programming", "processing") == 5

    def test_max_distance_cutoff(self):
        assert levenshtein("aaaa", "bbbb", max_distance=2) == 3
        assert levenshtein("aaaa", "aaab", max_distance=2) == 1

    def test_max_distance_length_gap_shortcut(self):
        assert levenshtein("a", "abcdefgh", max_distance=3) == 4

    def test_max_distance_exact_bound(self):
        assert levenshtein("kitten", "sitting", max_distance=3) == 3


class TestEditSimilarity:
    def test_identical(self):
        assert edit_similarity("abc", "abc") == 1.0

    def test_disjoint(self):
        assert edit_similarity("aaa", "bbb") == 0.0

    def test_empty_pair(self):
        assert edit_similarity("", "") == 1.0

    def test_normalization(self):
        # distance 1 over max length 4.
        assert edit_similarity("abcd", "abed") == pytest.approx(0.75)

    def test_bounds(self):
        assert 0.0 <= edit_similarity("carl white", "karl white") <= 1.0


class TestNegativeBound:
    @pytest.mark.parametrize("bound", [-1, -5])
    def test_negative_max_distance_is_refused(self, bound):
        # "a" vs "b" used to answer 0 - the value that means identical.
        with pytest.raises(ValueError, match="max_distance must be >= 0"):
            levenshtein("a", "b", max_distance=bound)
        with pytest.raises(ValueError, match="max_distance must be >= 0"):
            levenshtein("same", "same", max_distance=bound)

    @pytest.mark.parametrize(
        "a,b,expected", [("abc", "abc", 0), ("abc", "abd", 1), ("abc", "xyz", 1)]
    )
    def test_zero_still_means_equal_or_one(self, a, b, expected):
        assert levenshtein(a, b, max_distance=0) == expected


ALPHABET = "abcd\U0001f600"
MAX_LENGTH = 200
#: Lengths on either side of a 30-bit digit, a 64-bit word and their
#: multiples, drawn as often as all other lengths together.
BOUNDARIES = (0, 1, 29, 30, 31, 59, 60, 61, 63, 64, 65, 127, 128, 129, 200)


def texts(alphabet: str = ALPHABET) -> st.SearchStrategy[str]:
    lengths = st.sampled_from(BOUNDARIES) | st.integers(0, MAX_LENGTH)
    return lengths.flatmap(
        lambda n: st.text(alphabet=alphabet, min_size=n, max_size=n)
    )


@st.composite
def edited_copies(draw) -> tuple[str, str]:
    """A text and a copy a few edits away: long shared prefix and suffix."""
    a = draw(texts())
    b = list(a)
    for _ in range(draw(st.integers(0, 6))):
        position = draw(st.integers(0, len(b)))
        if b and position < len(b) and draw(st.booleans()):
            del b[position]
        else:
            b.insert(position, draw(st.sampled_from(ALPHABET)))
    return a, "".join(b)


text_pairs = st.one_of(
    st.tuples(texts(), texts()),
    edited_copies(),
    st.tuples(texts("ab"), texts("cd\U0001f600")),  # nothing in common
)


class TestKernelEqualsTable:
    @given(text_pairs)
    @settings(max_examples=300, deadline=None)
    def test_exact_distance(self, pair):
        a, b = pair
        assert levenshtein(a, b) == levenshtein_table(a, b)
        assert levenshtein(b, a) == levenshtein_table(a, b)

    @given(text_pairs, st.data())
    @settings(max_examples=300, deadline=None)
    def test_max_distance_contract(self, pair, data):
        """Exact at or under the bound, ``bound + 1`` above it."""
        a, b = pair
        bound = data.draw(st.integers(0, max(len(a), len(b)) + 2))
        exact = levenshtein_table(a, b)
        expected = exact if exact <= bound else bound + 1
        assert levenshtein(a, b, max_distance=bound) == expected
        assert levenshtein_table(a, b, max_distance=bound) == expected


BACKENDS = ["python"] + (["numpy"] if HAS_NUMPY else [])


@pytest.mark.parametrize("backend", BACKENDS)
def test_decided_stream_is_the_tables(backend, monkeypatch):
    """Every decided record - similarity included - is what the table
    produced, on the paths that reach the tier through the cascade."""
    store = load_dataset("cddb", scale=0.1).store

    def decided() -> list[tuple]:
        resolver = (
            ERPipeline()
            .method("PPS")
            .match()
            .backend(backend)
            .budget(comparisons=1500)
            .fit(store)
        )
        rows = [
            (r.comparison.pair, r.decision, r.tier, r.similarity)
            for r in resolver.resolve_stream(decide=True)
        ]
        resolver.close()
        return rows

    kernel = decided()
    monkeypatch.setattr(
        "repro.matching.edit_distance.levenshtein", levenshtein_table
    )
    table = decided()
    assert kernel == table
    assert sum(tier == "edit-distance" for _, _, tier, _ in kernel) >= 30
