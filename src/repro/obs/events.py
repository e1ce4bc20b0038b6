"""Structured JSON-lines event logging with run IDs and fingerprints.

An *event* is one structured record of something that happened — a
campaign starting, a pipeline compiling a circuit, a solver falling back
to its greedy path.  Events are plain dicts serialized one-per-line
(JSON lines), each carrying:

* ``event`` — a stable dotted name (``campaign.start``,
  ``pipeline.compile``, ``smt.solve``; see ``docs/observability.md``);
* ``ts`` — wall-clock UNIX timestamp;
* ``run_id`` — the enclosing session's run ID, when a sink that has one
  is installed;
* any payload fields the caller attaches (device fingerprints, policy
  names, counts).

The library logs through the module-level :func:`log_event`, which is a
no-op unless a sink is installed — instrumentation therefore costs
nothing when nobody is listening.  :class:`EventLog` is the standard
sink: it buffers events in memory and can stream them to a file as
``events.jsonl`` (see :meth:`EventLog.write`).
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Any, Iterator, List, Optional

from . import jsonl

#: Schema identifier embedded in every event record.
EVENTS_SCHEMA = "repro.obs.events/v1"


class EventLog:
    """An in-memory, thread-safe buffer of structured events.

    ``run_id`` (optional) is stamped onto every event logged through this
    sink — a :class:`~repro.obs.session.Session` installs an EventLog
    carrying its own run ID.
    """

    def __init__(self, run_id: Optional[str] = None):
        self.run_id = run_id
        self.events: List[dict] = []
        self._lock = threading.Lock()

    def log(self, event: str, **fields: Any) -> dict:
        """Record one event; returns the stored record."""
        record = {"event": event, "ts": time.time()}
        if self.run_id is not None:
            record["run_id"] = self.run_id
        record.update(fields)
        with self._lock:
            self.events.append(record)
        return record

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[dict]:
        return iter(list(self.events))

    def of(self, event: str) -> List[dict]:
        """Every recorded event with the given name."""
        with self._lock:
            return [e for e in self.events if e["event"] == event]

    def to_jsonl(self) -> str:
        """The buffer as JSON-lines text (one record per line)."""
        with self._lock:
            return "".join(jsonl.encode(e) for e in self.events).rstrip("\n")

    def write(self, path: str) -> None:
        """Dump the buffer to ``path`` as an ``events.jsonl`` file, atomically."""
        jsonl.rewrite(path, list(self))


def read_events(path: str) -> List[dict]:
    """Parse an ``events.jsonl`` file back into a list of records.

    Damaged lines follow the :mod:`~repro.obs.jsonl` policy: a line that
    is not a JSON object (a writer killed mid-append leaves a torn tail)
    is skipped and counted on the process-wide
    ``obs.events.corrupt_lines`` counter — so a dead writer's file never
    poisons a live reader.
    """
    records, corrupt = jsonl.read(path)
    if corrupt:
        # Local import: this module stays import-free at the top level so
        # any layer can use it without cycles.
        from .registry import get_registry

        get_registry().inc("obs.events.corrupt_lines", corrupt)
    return records


# ----------------------------------------------------------------------
# the process-wide sink
# ----------------------------------------------------------------------
_SINKS: List[EventLog] = []
_SINK_LOCK = threading.Lock()


def install_sink(sink: EventLog) -> None:
    """Start routing :func:`log_event` calls to ``sink`` (stacking is
    allowed; every installed sink receives every event)."""
    with _SINK_LOCK:
        _SINKS.append(sink)


def remove_sink(sink: EventLog) -> None:
    """Stop routing events to ``sink`` (no-op if not installed)."""
    with _SINK_LOCK:
        if sink in _SINKS:
            _SINKS.remove(sink)


@contextmanager
def event_sink(sink: Optional[EventLog] = None) -> Iterator[EventLog]:
    """Install ``sink`` (default: a fresh :class:`EventLog`) for the
    duration of the block."""
    sink = sink if sink is not None else EventLog()
    install_sink(sink)
    try:
        yield sink
    finally:
        remove_sink(sink)


def current_run_id() -> Optional[str]:
    """The run ID of the most recently installed sink that carries one.

    Lets layers outside the session (checkpoints, resilience records) tie
    their artifacts to the enclosing run without threading the session
    object through every call; ``None`` when no run-scoped sink is
    installed.
    """
    with _SINK_LOCK:
        for sink in reversed(_SINKS):
            if sink.run_id is not None:
                return sink.run_id
    return None


def log_event(event: str, **fields: Any) -> None:
    """Log one structured event to every installed sink (no-op if none).

    This is what the instrumented layers call::

        log_event("campaign.start", policy="one_hop",
                  device=device_fingerprint(device))
    """
    if not _SINKS:
        return
    with _SINK_LOCK:
        sinks = list(_SINKS)
    for sink in sinks:
        sink.log(event, **fields)
