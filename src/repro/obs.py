"""Telemetry counters: one thread-safe type, one process-wide instance.

Every count the flow keeps is a name in a :class:`Counters`: the
throughput-engine tiers (``engine.analytic`` ...), the power estimates
(``power.platform``, ``power.application``), the service scheduler's
request outcomes and the platform manager's transitions.  Library code
counts through :func:`inc`, which feeds the process-wide instance
(:func:`counters`, surfaced by ``GET /v1/healthz``) and every
:func:`collect` scope open in the current context (``DesignFlow`` fills
``EffortReport.engine_tiers`` from one).  Schedulers and platform
managers own per-instance :class:`Counters` instead.

Counts made in a worker process reach the parent through the execution
backend alone (:mod:`repro.flow.backend`): each task returns its delta
next to its result and the parent :func:`merge`\\ s it, in the
submitter's context, before the task's future resolves.
"""

from __future__ import annotations

import contextvars
import threading
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, Mapping, Tuple


class Counters:
    """Named monotonic counts; safe to share across threads."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts: Dict[str, int] = {}

    def inc(self, name: str, amount: int = 1) -> None:
        self.merge({name: amount})

    def merge(self, delta: Mapping[str, int]) -> None:
        """Add every count of ``delta`` (e.g. another snapshot)."""
        with self._lock:
            for name, amount in delta.items():
                self._counts[name] = self._counts.get(name, 0) + amount

    def __getitem__(self, name: str) -> int:
        with self._lock:
            return self._counts.get(name, 0)

    def snapshot(
        self, prefix: str = "", names: Iterable[str] = ()
    ) -> Dict[str, int]:
        """Copy of the counts.

        With ``prefix``, only the names ``<prefix>.<rest>``, keyed by
        ``<rest>``.  Every name in ``names`` is present (zero when never
        counted) and comes first, in the given order.
        """
        with self._lock:
            counts = dict(self._counts)
        if prefix:
            head = prefix + "."
            counts = {
                name[len(head):]: count
                for name, count in counts.items()
                if name.startswith(head)
            }
        return {**dict.fromkeys(names, 0), **counts}


_PROCESS = Counters()

_scopes: "contextvars.ContextVar[Tuple[Counters, ...]]" = (
    contextvars.ContextVar("repro_obs_scopes", default=())
)


def counters() -> Counters:
    """The process-wide counters (``GET /v1/healthz`` reads these)."""
    return _PROCESS


def merge(delta: Mapping[str, int]) -> None:
    """Record ``delta`` process-wide and in every open :func:`collect`
    scope, as if it had been counted here."""
    _PROCESS.merge(delta)
    for scope in _scopes.get():
        scope.merge(delta)


def inc(name: str, amount: int = 1) -> None:
    """Count ``name`` process-wide and in every open scope."""
    merge({name: amount})


@contextmanager
def collect() -> Iterator[Counters]:
    """Additionally count into a fresh scoped :class:`Counters`.

    Scopes nest.  Everything counted inside the ``with`` block in this
    context lands in the yielded counters as well as process-wide --
    including work fanned out on an execution backend, whose thread
    workers run in a copy of the submitter's context and whose process
    workers ship their counts back.
    """
    scope = Counters()
    token = _scopes.set(_scopes.get() + (scope,))
    try:
        yield scope
    finally:
        _scopes.reset(token)
