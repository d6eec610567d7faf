"""The blocking-substrate contract.

The backend seam itself is :class:`repro.engine.Backend`, the base
class every backend subclasses.  A substrate is the one structure two
unrelated classes serve (the reference and the array front end), so it
is stated here as a :class:`typing.Protocol` the methods are typed
against.

The module is dependency-free by design (no numpy import, no repro
imports outside :mod:`typing`), so it stays importable on every
environment the reference backend supports.
"""

from __future__ import annotations

from typing import Any, Protocol


class BlockingSubstrate(Protocol):
    """Structural type of a backend's blocking front end.

    Built once per resolution session by
    :meth:`repro.engine.Backend.blocking_substrate`; every structure
    below is served from the same cached tokenization sweep, so a
    session never tokenizes the store twice.  ``sweeps`` counts the
    sweeps actually performed - the single-build regression test asserts
    it stays 1.
    """

    sweeps: int
    #: Whether the served structures are the CSR/array versions or the
    #: reference ones; a method accepts only a substrate whose flag
    #: equals its backend's.
    vectorized: bool

    def blocks(self) -> Any:
        """The blocked collection after purging/filtering (workflow order)."""

    def profile_index(self, order: str) -> Any:
        """The profile index over the final blocks in processing ``order``
        (``"schedule"`` for PPS/PBS, ``"alpha"`` for ONLINE)."""

    def neighbor_list(self, tie_order: str, seed: int) -> Any:
        """The schema-agnostic Neighbor List (unpurged, unfiltered)."""


__all__ = ["BlockingSubstrate"]
