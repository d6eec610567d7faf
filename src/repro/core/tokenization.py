"""Attribute-value tokenization: the schema-agnostic blocking keys.

The schema-agnostic methods of the paper use *attribute value tokens* as
blocking keys (Section 3.2, following Token Blocking [18] and the
schema-agnostic configurations of [7]): every token that appears in any
attribute value of a profile is one of its keys, regardless of which
attribute it came from.

The tokenizer here is deliberately simple and deterministic: split on
non-alphanumeric characters, lowercase, drop tokens shorter than a minimum
length, and optionally drop pure numbers.  URIs therefore decompose into
their path segments - e.g. ``http://dbpedia.org/resource/Berlin`` yields
``http``, ``dbpedia``, ``org``, ``resource``, ``berlin`` - which is exactly
the behavior the paper relies on when discussing URI prefixes polluting the
Neighbor List on freebase while the discriminative local names keep the
equality principle alive.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.core.profiles import EntityProfile

_TOKEN_PATTERN = re.compile(r"[A-Za-z0-9]+")


@dataclass(frozen=True)
class Tokenizer:
    """Configurable attribute-value tokenizer.

    Parameters
    ----------
    min_length:
        Tokens shorter than this are discarded (default 1: keep all).
    lowercase:
        Normalize case so that 'Tailor' and 'tailor' share a block.
    keep_numeric:
        Whether pure-digit tokens (years, zip codes, ids) are kept.  They
        are often highly discriminative, so the default keeps them.
    """

    min_length: int = 1
    lowercase: bool = True
    keep_numeric: bool = True

    def tokens(self, value: str) -> list[str]:
        """Tokens of a single attribute value, in order of appearance.

        The array engine's sweep (``repro.engine.substrate``) reproduces
        this from the values' UTF-8 bytes, reading only the three
        fields: the pattern's class is ASCII, so its matches are the
        byte runs of that class.
        """
        if self.lowercase and value.isascii():
            # Lowercasing an ASCII value first yields the same tokens
            # (ASCII lower() never moves characters in or out of the
            # pattern's classes) with one str.lower instead of one per
            # token - the hot path of every blocking build.  Non-ASCII
            # values (e.g. Kelvin sign, dotted I) keep the per-token
            # path, whose semantics are the reference.
            raw = _TOKEN_PATTERN.findall(value.lower())
        else:
            raw = _TOKEN_PATTERN.findall(value)
            if self.lowercase:
                raw = [token.lower() for token in raw]
        if self.min_length <= 1 and self.keep_numeric:
            return raw
        min_length = self.min_length
        keep_numeric = self.keep_numeric
        return [
            token
            for token in raw
            if len(token) >= min_length and (keep_numeric or not token.isdigit())
        ]

    def profile_tokens(self, profile: EntityProfile) -> list[str]:
        """All tokens of all attribute values of a profile (with repeats)."""
        out: list[str] = []
        for _, value in profile.pairs:
            out.extend(self.tokens(value))
        return out

    def distinct_profile_tokens(self, profile: EntityProfile) -> list[str]:
        """Distinct tokens of a profile, in first-appearance order.

        These are the profile's schema-agnostic blocking keys: each
        distinct token indexes the profile into one block (Token Blocking)
        and contributes one position to the Neighbor List.
        """
        return list(dict.fromkeys(self.profile_tokens(profile)))


DEFAULT_TOKENIZER = Tokenizer()


def token_stream(
    profiles: Iterable[EntityProfile],
    tokenizer: Tokenizer = DEFAULT_TOKENIZER,
) -> Iterator[tuple[str, int]]:
    """Yield ``(token, profile_id)`` pairs over distinct per-profile tokens.

    This is the shared front end of Token Blocking and the schema-agnostic
    Neighbor List: both consume the same stream and differ only in whether
    they group by token (blocks) or sort by token (neighbor list).
    """
    for profile in profiles:
        for token in tokenizer.distinct_profile_tokens(profile):
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
