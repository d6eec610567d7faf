"""Unit tests for the attribute-value tokenizer."""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.profiles import EntityProfile
from repro.core.tokenization import (
    distinct_profile_tokens,
    profile_tokens,
    suffixes,
    token_stream,
    tokens,
)


class TestTokenizer:
    def test_splits_on_non_alphanumerics(self):
        assert tokens("carl-white, NY!") == ["carl", "white", "ny"]

    def test_uri_decomposition(self):
        """URIs break into prefix and local-name tokens (Section 7.2)."""
        expected = ["http", "dbpedia", "org", "resource", "berlin"]
        assert tokens("http://dbpedia.org/resource/Berlin") == expected

    def test_short_and_numeric_tokens_are_kept(self):
        assert tokens("route 66 a") == ["route", "66", "a"]

    def test_profile_tokens_spans_all_values(self):
        profile = EntityProfile(0, [("a", "x y"), ("b", "y z")])
        assert profile_tokens(profile) == ["x", "y", "y", "z"]

    def test_distinct_profile_tokens_order_preserving(self):
        profile = EntityProfile(0, [("a", "x y"), ("b", "y z x")])
        assert distinct_profile_tokens(profile) == ["x", "y", "z"]

    def test_empty_value(self):
        assert tokens("") == []
        assert tokens("...") == []

    @given(
        st.one_of(
            st.text(),
            st.text(alphabet=st.characters(max_codepoint=127)),
            st.text(alphabet="aZ9 .\u212a\u0130\u0131\u017f\xdf"),
        )
    )
    @settings(max_examples=500, deadline=None)
    def test_equals_the_pattern_lowercased_per_token(self, value):
        """The ASCII fast path (lowercase the value, then split) is exact:
        every ``str`` gives the tokens of the per-token definition."""
        expected = [token.lower() for token in re.findall("[A-Za-z0-9]+", value)]
        assert tokens(value) == expected


class TestTokenStream:
    def test_yields_distinct_tokens_per_profile(self):
        profiles = [
            EntityProfile(0, {"a": "x x y"}),
            EntityProfile(1, {"a": "y"}),
        ]
        stream = list(token_stream(profiles))
        assert stream == [("x", 0), ("y", 0), ("y", 1)]


class TestSuffixes:
    def test_all_suffixes_of_min_length(self):
        assert suffixes("gain", 2) == ["gain", "ain", "in"]

    def test_token_shorter_than_min_yields_nothing(self):
        assert suffixes("ab", 3) == []

    def test_exact_length_token(self):
        assert suffixes("abc", 3) == ["abc"]

    def test_min_length_one(self):
        assert suffixes("ab", 1) == ["ab", "b"]

    def test_invalid_min_length(self):
        with pytest.raises(ValueError):
            suffixes("abc", 0)
