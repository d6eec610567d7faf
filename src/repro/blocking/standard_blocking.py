"""Schema-based blocking keys for the PSN baseline.

The schema-based baseline (PSN) needs one blocking key per profile derived
from selected attributes - e.g. the census configuration from the paper's
footnote 6: "Soundex encoded surnames concatenated to initials and
zipcodes".  This module provides:

* :class:`KeyFunction` - composable schema-based key builders, including a
  Soundex encoder (the classic Russell/odell variant used by record-linkage
  toolkits such as FEBRL, which the paper points to for its keys);
* :func:`keyed_profiles` - the ``(key, profile_id)`` pairs PSN sorts.

The schema-agnostic methods need no keys: their blocks come from Token
Blocking or Suffix Arrays.
"""

from __future__ import annotations

from typing import Callable

from repro.core.profiles import EntityProfile, ProfileStore

_SOUNDEX_CODES = {
    **dict.fromkeys("bfpv", "1"),
    **dict.fromkeys("cgjkqsxz", "2"),
    **dict.fromkeys("dt", "3"),
    **dict.fromkeys("l", "4"),
    **dict.fromkeys("mn", "5"),
    **dict.fromkeys("r", "6"),
}


def soundex(word: str, length: int = 4) -> str:
    """Russell Soundex code of ``word`` (letter + digits, padded with 0).

    Non-alphabetic characters are ignored; an empty input encodes to
    ``"0" * length`` so that keys remain fixed-width.
    """
    letters = [ch for ch in word.lower() if ch.isalpha()]
    if not letters:
        return "0" * length
    first = letters[0]
    encoded = [first.upper()]
    previous = _SOUNDEX_CODES.get(first, "")
    for ch in letters[1:]:
        code = _SOUNDEX_CODES.get(ch, "")
        if code and code != previous:
            encoded.append(code)
        if ch not in "hw":  # h/w do not reset the previous-code rule
            previous = code
        if len(encoded) == length:
            break
    return "".join(encoded).ljust(length, "0")


class KeyFunction:
    """A schema-based blocking key: profile -> string.

    Built from a sequence of extractors so that key definitions read like
    the paper's: ``KeyFunction.concat(soundex_of("surname"),
    prefix_of("name", 2), attribute("zipcode"))``.
    """

    def __init__(self, fn: Callable[[EntityProfile], str], name: str = "key") -> None:
        self._fn = fn
        self.name = name

    def __call__(self, profile: EntityProfile) -> str:
        return self._fn(profile)

    # -- building blocks ---------------------------------------------------

    @staticmethod
    def attribute(name: str) -> "KeyFunction":
        """The (first) value of an attribute, lowercased."""
        return KeyFunction(lambda p: p.value(name).lower().strip(), f"attr:{name}")

    @staticmethod
    def prefix_of(name: str, length: int) -> "KeyFunction":
        """The first ``length`` characters of an attribute value."""
        return KeyFunction(
            lambda p: p.value(name).lower().strip()[:length],
            f"prefix{length}:{name}",
        )

    @staticmethod
    def soundex_of(name: str) -> "KeyFunction":
        """Soundex code of an attribute value."""
        return KeyFunction(lambda p: soundex(p.value(name)), f"soundex:{name}")

    @staticmethod
    def concat(*parts: "KeyFunction") -> "KeyFunction":
        """Concatenation of several key functions."""
        label = "+".join(part.name for part in parts)
        return KeyFunction(lambda p: "".join(part(p) for part in parts), label)


def keyed_profiles(
    store: ProfileStore,
    key_function: Callable[[EntityProfile], str],
) -> list[tuple[str, int]]:
    """(key, profile_id) pairs for schema-based sorted-neighborhood methods.

    Profiles with empty keys are skipped (they would otherwise all sort
    together as one junk run).
    """
    pairs = []
    for profile in store:
        key = key_function(profile)
        if key:
            pairs.append((key, profile.profile_id))
    return pairs
