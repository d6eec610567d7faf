"""Attribute-value tokenization: the schema-agnostic blocking keys.

The schema-agnostic methods of the paper use *attribute value tokens* as
blocking keys (Section 3.2, following Token Blocking [18] and the
schema-agnostic configurations of [7]): every token that appears in any
attribute value of a profile is one of its keys, regardless of which
attribute it came from.

The key is fixed, as in the paper: split on non-alphanumeric characters
and lowercase, keeping tokens of every length and pure numbers.  URIs
therefore decompose into their path segments - e.g.
``http://dbpedia.org/resource/Berlin`` yields ``http``, ``dbpedia``,
``org``, ``resource``, ``berlin`` - which is exactly the behavior the
paper relies on when discussing URI prefixes polluting the Neighbor List
on freebase while the discriminative local names keep the equality
principle alive.  The array engine's sweep
(:func:`repro.engine.substrate.tokenize_range`) reproduces :func:`tokens`
from the values' UTF-8 bytes.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator

from repro.core.profiles import EntityProfile

_TOKEN_PATTERN = re.compile(r"[A-Za-z0-9]+")


def tokens(value: str) -> list[str]:
    """Tokens of a single attribute value, in order of appearance.

    >>> tokens("http://dbpedia.org/resource/Berlin")
    ['http', 'dbpedia', 'org', 'resource', 'berlin']
    """
    if value.isascii():
        # Lowercasing an ASCII value first yields the same tokens (ASCII
        # lower() never moves characters in or out of the pattern's
        # classes) with one str.lower instead of one per token - the hot
        # path of every blocking build.  Non-ASCII values (e.g. Kelvin
        # sign, dotted I) keep the per-token path, whose semantics are
        # the reference.
        return _TOKEN_PATTERN.findall(value.lower())
    return [token.lower() for token in _TOKEN_PATTERN.findall(value)]


def profile_tokens(profile: EntityProfile) -> list[str]:
    """All tokens of all attribute values of a profile (with repeats)."""
    out: list[str] = []
    for _, value in profile.pairs:
        out.extend(tokens(value))
    return out


def distinct_profile_tokens(profile: EntityProfile) -> list[str]:
    """Distinct tokens of a profile, in first-appearance order.

    These are the profile's schema-agnostic blocking keys: each distinct
    token indexes the profile into one block (Token Blocking) and
    contributes one position to the Neighbor List.
    """
    return list(dict.fromkeys(profile_tokens(profile)))


def token_stream(profiles: Iterable[EntityProfile]) -> Iterator[tuple[str, int]]:
    """Yield ``(token, profile_id)`` pairs over distinct per-profile tokens.

    This is the shared front end of Token Blocking and the schema-agnostic
    Neighbor List: both consume the same stream and differ only in whether
    they group by token (blocks) or sort by token (neighbor list).
    """
    for profile in profiles:
        for token in distinct_profile_tokens(profile):
            yield token, profile.profile_id


def suffixes(token: str, min_length: int) -> list[str]:
    """All suffixes of ``token`` with at least ``min_length`` characters.

    Used by Suffix Arrays Blocking (Section 4.2): the token itself is the
    longest suffix; e.g. ``suffixes('gain', 2) == ['gain', 'ain', 'in']``.
    Tokens shorter than ``min_length`` yield nothing.
    """
    if min_length < 1:
        raise ValueError("min_length must be positive")
    return [token[start:] for start in range(0, len(token) - min_length + 1)]
