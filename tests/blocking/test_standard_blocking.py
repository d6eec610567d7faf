"""Unit tests for the schema-based blocking keys PSN sorts, and Soundex."""

from __future__ import annotations

import pytest

from repro.blocking.standard_blocking import (
    KeyFunction,
    keyed_profiles,
    soundex,
)
from repro.core.profiles import EntityProfile, ProfileStore


class TestSoundex:
    @pytest.mark.parametrize(
        "word,code",
        [
            ("Robert", "R163"),
            ("Rupert", "R163"),
            ("Ashcraft", "A261"),
            ("Ashcroft", "A261"),
            ("Tymczak", "T522"),
            ("Pfister", "P236"),
            ("Honeyman", "H555"),
            ("jackson", "J250"),
        ],
    )
    def test_classic_examples(self, word, code):
        assert soundex(word) == code

    def test_typo_robustness(self):
        """The property PSN's census key relies on: small typos keep the code."""
        assert soundex("white") == soundex("whitte")

    def test_empty_and_non_alpha(self):
        assert soundex("") == "0000"
        assert soundex("123") == "0000"

    def test_custom_length(self):
        assert len(soundex("washington", length=6)) == 6


class TestKeyFunction:
    def test_attribute(self):
        profile = EntityProfile(0, {"city": " NY "})
        assert KeyFunction.attribute("city")(profile) == "ny"

    def test_prefix_of(self):
        profile = EntityProfile(0, {"name": "Carlos"})
        assert KeyFunction.prefix_of("name", 4)(profile) == "carl"

    def test_soundex_of(self):
        profile = EntityProfile(0, {"surname": "White"})
        assert KeyFunction.soundex_of("surname")(profile) == soundex("white")

    def test_concat(self):
        profile = EntityProfile(0, {"surname": "White", "zip": "10001"})
        key = KeyFunction.concat(
            KeyFunction.soundex_of("surname"), KeyFunction.attribute("zip")
        )
        assert key(profile) == soundex("white") + "10001"

    def test_missing_attribute_gives_empty_component(self):
        profile = EntityProfile(0, {"a": "x"})
        assert KeyFunction.attribute("missing")(profile) == ""


class TestKeyedProfiles:
    def test_skips_empty_keys(self):
        store = ProfileStore.from_attribute_maps([{"a": "x"}, {"b": "y"}])
        pairs = keyed_profiles(store, KeyFunction.attribute("a"))
        assert pairs == [("x", 0)]
