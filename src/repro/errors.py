"""The shared exception hierarchy of the public API.

One small tree instead of bare ``ValueError``s, so callers (and the
serving layer's HTTP error mapping) can catch by *meaning*:

* :class:`ReproError` - root of everything the library raises on
  purpose; ``except ReproError`` distinguishes "the spec/request was
  wrong" from a genuine bug;
* :class:`ConfigError` - an invalid pipeline/service spec, raised at
  configuration time.  Subclasses :class:`ValueError` so code written
  against the pre-hierarchy API (``except ValueError``) keeps working;
* :class:`BudgetExceeded` - a request was *rejected* by admission
  control (per-request or per-session budget), not queued.  Carries the
  machine-readable ``reason``;
* :class:`SessionClosed` - an operation reached a session after
  ``close()``.  Subclasses :class:`RuntimeError` for the same
  backward-compatibility reason as :class:`ConfigError`.

The hierarchy is deliberately tiny: anything that is not a spec error,
an admission rejection or a use-after-close stays a plain built-in
exception.
"""

from __future__ import annotations


class ReproError(Exception):
    """Root of every deliberate ``repro`` error."""


class ConfigError(ReproError, ValueError):
    """An invalid pipeline or service configuration.

    Raised when a spec is constructed (stage dataclass ``__post_init__``,
    builder stage calls, ``fit``-time cross-checks) - never at first
    probe.  Subclasses :class:`ValueError`: pre-hierarchy callers that
    catch ``ValueError`` observe no behavior change.
    """


class BudgetExceeded(ReproError):
    """A probe/ingest request was rejected by admission control.

    Over-budget work is *refused*, never queued: the caller decides
    whether to retry, shed load or open a fresh session.  ``reason``
    is a short machine-readable token (e.g. ``"queue-full"``,
    ``"session-comparisons"``) the HTTP layer forwards alongside the
    429 status.
    """

    def __init__(self, message: str, reason: str = "budget") -> None:
        super().__init__(message)
        self.reason = reason


class SessionClosed(ReproError, RuntimeError):
    """An operation was attempted on a closed session.

    ``Resolver.close()`` (and the service's session teardown) is
    idempotent; any *other* use of the session afterwards raises this.
    Subclasses :class:`RuntimeError` so legacy ``except RuntimeError``
    handlers keep working.
    """
