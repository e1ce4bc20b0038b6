"""Streaming snapshots: ``repro.obs.snapshot/v1`` documents, live.

A :class:`SnapshotPublisher` samples the process-wide
:class:`~repro.obs.registry.MetricsRegistry` — on a background-thread
interval, and on demand (:meth:`~SnapshotPublisher.publish`, which the
fleet controller calls once per tick) — into versioned snapshot
documents::

    {"schema": "repro.obs.snapshot/v1",
     "seq": 12,                      # per-publisher, monotonically inc.
     "ts": 1754640000.1, "uptime_seconds": 34.2,
     "source": "fleet-soak", "run_id": "...",   # when a session is open
     "series": {"fleet.ticks": 3.0, ...},       # flattened metrics
     "heartbeats": {"characterize[...].task": {...}},
     "alerts": {"firing": [...], "transitions": [...]}}

``series`` is :func:`repro.obs.history.summarize_metrics` over the
sampled snapshot, plus a ``<histogram>.p95`` per histogram (the
deterministic bucket-walk percentile), so alert rules and the ``top``
view read one flat namespace.  Snapshots are *samples of observers*:
building one reads the registry, the heartbeat board, and the alert
engine, and writes nothing any seeded computation consumes.

Each published document is teed to the plane's
:class:`~repro.obs.live.bus.TelemetryBus` (kind ``"snapshot"``),
appended to a :class:`SnapshotWriter` JSONL stream when configured, and
run through the :class:`~repro.obs.live.alerts.AlertEngine`; alert
transitions are emitted as ``obs.alert`` events.

:func:`tail_records` is the corrupt-tolerant live reader behind
``python -m repro.obs tail --follow``: a :mod:`repro.obs.jsonl` scan
that counts skipped garbage on ``obs.events.corrupt_lines``.
"""

from __future__ import annotations

import threading
import time
from typing import Iterator, List, Optional

from .. import jsonl
from ..events import current_run_id, log_event
from ..history import summarize_metrics
from ..profile import histogram_percentile
from ..registry import get_registry
from .alerts import AlertEngine
from .bus import TelemetryBus
from .heartbeat import HeartbeatBoard

#: Schema identifier stamped into every snapshot document.
SNAPSHOT_SCHEMA = "repro.obs.snapshot/v1"


def build_series(metrics: dict) -> dict:
    """The flat series map of one metrics snapshot (plus p95s)."""
    series = summarize_metrics(metrics)
    for name, hist in metrics.get("histograms", {}).items():
        if hist.get("count"):
            series[f"{name}.p95"] = histogram_percentile(hist, 0.95)
    return series


class SnapshotWriter:
    """Append-only JSONL stream of snapshot documents; opening it repairs
    a torn tail left by a killed writer (see :mod:`repro.obs.jsonl`)."""

    def __init__(self, path: str):
        self.path = str(path)
        self._lock = threading.Lock()
        jsonl.repair_tail(self.path)
        jsonl.append(self.path, [])  # create the stream (and directory) now

    def append(self, document: dict) -> None:
        """Write one document as a canonical JSON line and flush."""
        with self._lock:
            jsonl.append(self.path, [document])

    def close(self) -> None:
        """No-op: every :meth:`append` opens and closes the file itself."""

    def __enter__(self) -> "SnapshotWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_snapshots(path: str) -> List[dict]:
    """Every parseable snapshot document in a JSONL stream (tolerant)."""
    return [record for record in tail_records(path)
            if record.get("schema") == SNAPSHOT_SCHEMA]


def tail_records(path: str, *, follow: bool = False, poll: float = 0.2,
                 max_seconds: Optional[float] = None) -> Iterator[dict]:
    """Yield JSON records from a (possibly growing) JSONL file.

    A :func:`repro.obs.jsonl.scan` over ``path``: a torn tail (a writer
    killed mid-append) stays buffered until its newline arrives, and
    whatever is left unterminated when reading stops is yielded if it
    parses.  Lines that fail to parse, or parse to a non-object, are
    skipped and counted on the ``obs.events.corrupt_lines`` counter.
    With ``follow=True`` the iterator polls for growth every ``poll``
    seconds until ``max_seconds`` elapses (forever when None).
    """
    corrupt = 0
    try:
        for record in jsonl.scan(path, follow=follow, poll=poll,
                                 max_seconds=max_seconds):
            if record is None:
                corrupt += 1
            else:
                yield record
    finally:
        if corrupt:
            get_registry().inc("obs.events.corrupt_lines", corrupt)


class SnapshotPublisher:
    """Periodic + on-demand snapshot publication (see module docstring).

    ``interval`` seconds between background samples (0 disables the
    thread; every snapshot is then an explicit :meth:`publish` call).
    The registry is resolved through :func:`get_registry` *at publish
    time*, so snapshots follow ``push_registry`` swaps the way the
    instrumented layers do.
    """

    def __init__(self, *, bus: TelemetryBus,
                 board: Optional[HeartbeatBoard] = None,
                 alerts: Optional[AlertEngine] = None,
                 writer: Optional[SnapshotWriter] = None,
                 interval: float = 0.5, source: str = "live"):
        self.bus = bus
        self.board = board
        self.alerts = alerts
        self.writer = writer
        self.interval = float(interval)
        self.source = source
        self._seq = 0
        self._started_ts = time.time()
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the background sampling thread (no-op when interval<=0)."""
        if self.interval <= 0 or self._thread is not None:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="repro-obs-snapshot", daemon=True,
        )
        self._thread.start()

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self.publish()
            except Exception:
                # A failed sample must never take down the run; the next
                # interval tries again.
                pass

    def stop(self) -> None:
        """Stop the background thread (idempotent; waits briefly)."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    # ------------------------------------------------------------------
    def publish(self) -> dict:
        """Sample, evaluate alerts, write, and fan out one snapshot."""
        with self._lock:
            seq = self._seq
            self._seq += 1
            registry = get_registry()
            now = time.time()
            document = {
                "schema": SNAPSHOT_SCHEMA,
                "seq": seq,
                "ts": now,
                "uptime_seconds": now - self._started_ts,
                "source": self.source,
                "run_id": current_run_id(),
                "series": build_series(registry.snapshot()),
                "heartbeats": (self.board.snapshot()
                               if self.board is not None else {}),
            }
            transitions: List[dict] = []
            if self.alerts is not None:
                transitions = self.alerts.evaluate(document)
                document["alerts"] = {
                    "firing": self.alerts.firing,
                    "transitions": transitions,
                }
            else:
                document["alerts"] = {"firing": [], "transitions": []}
            if self.writer is not None:
                self.writer.append(document)
            self.bus.publish("snapshot", document)
            registry.inc("obs.live.snapshots")
            for transition in transitions:
                registry.inc("obs.live.alerts")
                log_event("obs.alert", **transition)
        return document
