"""Incremental / online entity resolution.

The batch pipeline resolves a fixed corpus once; this package makes the
corpus *live*.  Profiles ingested after ``fit()`` are resolved against
everything already indexed, with delta updates to every derived
structure instead of rebuilds:

* :class:`MutableProfileStore` - append-only profile ingestion; it
  holds a read-only probe for the length of the call
  (:mod:`repro.incremental.store`);
* :class:`IncrementalTokenIndex` - the Token Blocking substrate under
  ingestion: postings, block qualification, per-profile block counts,
  all maintained by deltas, and the live statistics the shared
  Meta-blocking weighting schemes read; the one scorer of arrivals and
  probes on every backend (:mod:`repro.incremental.index`);
* :class:`OnlineRanked` - the ``"ONLINE"`` progressive method: global
  best-first ranking, the batch anchor of the parity property
  (:mod:`repro.incremental.online`);
* :class:`IncrementalResolver` - the live session returned by
  ``ERPipeline().incremental().fit(data)``
  (:mod:`repro.incremental.resolver`).

The governing invariant (property-tested per backend and ER type):
ingesting a dataset in any number of chunks emits exactly the pair set
of one batch fit over the union, and a final full re-ranking replays
the batch emission order bit-identically.
"""

from repro.incremental.index import IncrementalTokenIndex
from repro.incremental.online import OnlineRanked
from repro.incremental.resolver import IncrementalResolver
from repro.incremental.store import MutableProfileStore

__all__ = [
    "MutableProfileStore",
    "IncrementalTokenIndex",
    "OnlineRanked",
    "IncrementalResolver",
]
