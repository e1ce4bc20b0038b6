"""Append-only run history: the longitudinal store behind run diffing.

The paper's methodology is longitudinal — crosstalk is re-characterized
daily and the interesting claims (Figure 4) are about *stability across
runs* — so the reproduction keeps the same discipline about itself: every
session or benchmark run can append a compact summary record to a
JSON-lines *history store* (schema ``repro.obs.history/v1``), and
:mod:`repro.obs.diff` compares a fresh run against that history to decide
whether anything regressed.

One record per line::

    {"schema": "repro.obs.history/v1", "run_id": "2408c5944464",
     "name": "bench_perf_baseline", "created_at": "…",
     "git": {"sha": "…", "dirty": false}, "workers": 4,
     "series": {"results.workloads.tomography.speedup": 0.99, …},
     "documents": {"scorecard": {…}}}

``series`` is a flat ``name → float`` map — the comparable surface of the
run.  :func:`summarize_manifest`, :func:`summarize_metrics`, and
:func:`summarize_trace` extract it from the standard artefact documents;
``documents`` optionally embeds whole artefacts (a scorecard, say) that
should round-trip through the store.

:class:`RunHistory` is the store: ``append`` adds one record (atomic,
append-only), ``records``/``query``/``last`` read it back (corrupt lines
are skipped, never fatal), and ``compact`` applies retention — keep the
most recent *N* records per run name, rewrite atomically.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Union

from . import jsonl
from .manifest import MANIFEST_SCHEMA
from .registry import METRICS_SCHEMA
from .trace import TRACE_SCHEMA, TRACE_SCHEMA_V1, Trace, read_trace

#: Schema identifier stamped into every history record.
HISTORY_SCHEMA = "repro.obs.history/v1"


def flatten_numeric(doc: Any, prefix: str = "") -> Dict[str, float]:
    """Flatten the numeric leaves of a nested dict into dotted series names.

    Booleans become 0.0/1.0 (they are still comparable run-over-run);
    strings, lists, and ``None`` leaves are dropped.
    """
    out: Dict[str, float] = {}
    if isinstance(doc, dict):
        for key, value in doc.items():
            path = f"{prefix}.{key}" if prefix else str(key)
            out.update(flatten_numeric(value, path))
    elif isinstance(doc, bool):
        if prefix:
            out[prefix] = 1.0 if doc else 0.0
    elif isinstance(doc, (int, float)):
        if prefix:
            out[prefix] = float(doc)
    return out


def summarize_manifest(doc: dict) -> Dict[str, float]:
    """The comparable series of a ``repro.obs.manifest/v1`` document.

    Numeric leaves of ``results`` keep a ``results.`` prefix; ``workers``
    is carried over as-is.
    """
    series = flatten_numeric(doc.get("results", {}), "results")
    if doc.get("workers") is not None:
        series["workers"] = float(doc["workers"])
    return series


def summarize_metrics(doc: dict) -> Dict[str, float]:
    """The comparable series of a ``repro.obs.metrics/v1`` snapshot.

    Counters and gauges map through unchanged; histograms contribute
    ``<name>.count``, ``<name>.sum``, ``<name>.mean``, and ``<name>.max``.
    """
    series: Dict[str, float] = {}
    for name, value in doc.get("counters", {}).items():
        series[name] = float(value)
    for name, value in doc.get("gauges", {}).items():
        series[name] = float(value)
    for name, hist in doc.get("histograms", {}).items():
        count = hist.get("count", 0)
        series[f"{name}.count"] = float(count)
        series[f"{name}.sum"] = float(hist.get("sum", 0.0))
        if count:
            series[f"{name}.mean"] = float(hist["sum"]) / count
        if hist.get("max") is not None:
            series[f"{name}.max"] = float(hist["max"])
    return series


def summarize_trace(trace: Union[Trace, dict]) -> Dict[str, float]:
    """The comparable series of a trace: total plus top-level span times."""
    if isinstance(trace, dict):
        trace = read_trace(trace)
    series = {"trace.total_seconds": trace.total_seconds}
    for span in trace.spans:
        series[f"trace.span.{span.name}.seconds"] = span.seconds
    return series


@dataclass
class RunRecord:
    """One history line: who ran, on which code, and the numbers it left."""

    run_id: str
    name: str
    created_at: Optional[str] = None
    git: Optional[dict] = None
    workers: Optional[int] = None
    series: Dict[str, float] = field(default_factory=dict)
    documents: Dict[str, Any] = field(default_factory=dict)

    @property
    def git_sha(self) -> Optional[str]:
        """The recorded git SHA, or None when the run had no repository."""
        return (self.git or {}).get("sha")

    @property
    def git_dirty(self) -> Optional[bool]:
        """The recorded dirty flag (None when unknown)."""
        return (self.git or {}).get("dirty")

    def to_dict(self) -> dict:
        """The record as a ``repro.obs.history/v1`` JSON object."""
        doc = {
            "schema": HISTORY_SCHEMA,
            "run_id": self.run_id,
            "name": self.name,
            "series": dict(self.series),
        }
        if self.created_at is not None:
            doc["created_at"] = self.created_at
        if self.git is not None:
            doc["git"] = dict(self.git)
        if self.workers is not None:
            doc["workers"] = self.workers
        if self.documents:
            doc["documents"] = dict(self.documents)
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "RunRecord":
        """Rebuild a record from its JSON object form."""
        if doc.get("schema") != HISTORY_SCHEMA:
            raise ValueError(
                f"not a history record (schema={doc.get('schema')!r})"
            )
        return cls(
            run_id=doc["run_id"],
            name=doc["name"],
            created_at=doc.get("created_at"),
            git=doc.get("git"),
            workers=doc.get("workers"),
            series={k: float(v) for k, v in doc.get("series", {}).items()},
            documents=dict(doc.get("documents", {})),
        )

    @classmethod
    def from_artifacts(cls, manifest: Optional[dict] = None,
                       metrics: Optional[dict] = None,
                       trace: Union[None, Trace, dict] = None,
                       extra_series: Optional[Dict[str, float]] = None,
                       documents: Optional[Dict[str, Any]] = None,
                       ) -> "RunRecord":
        """Build one record from a run's standard artefact documents.

        ``manifest`` supplies identity (run id, name, git, workers), the
        ``results.*`` series and ``documents["config"]``; ``metrics`` and
        ``trace`` add their summaries (see :func:`summarize_metrics` /
        :func:`summarize_trace`); ``extra_series`` and ``documents`` are
        merged in last.
        """
        manifest = manifest or {}
        series: Dict[str, float] = {}
        series.update(summarize_manifest(manifest))
        if metrics is not None:
            series.update(summarize_metrics(metrics))
        if trace is not None:
            series.update(summarize_trace(trace))
        if extra_series:
            series.update({k: float(v) for k, v in extra_series.items()})
        documents = dict(documents or {})
        if manifest.get("config"):
            documents.setdefault("config", manifest["config"])
        return cls(
            run_id=manifest.get("run_id", "unknown"),
            name=manifest.get("name", "unnamed"),
            created_at=manifest.get("created_at"),
            git=manifest.get("git"),
            workers=manifest.get("workers"),
            series=series,
            documents=documents,
        )


def load_run_record(source: Union[str, dict]) -> RunRecord:
    """Coerce any run-shaped document into a :class:`RunRecord`.

    Accepts a history record, a run manifest, or a metrics snapshot —
    as a dict, JSON text, or a path.  A path ending in ``.jsonl`` is read
    as a history store and its *last* record is returned.
    """
    if isinstance(source, str) and source.endswith(".jsonl"):
        records = RunHistory(source).records()
        if not records:
            raise ValueError(f"history store {source!r} is empty")
        return records[-1]
    from .trace import _load_document

    doc = _load_document(source)
    schema = doc.get("schema")
    if schema == HISTORY_SCHEMA:
        return RunRecord.from_dict(doc)
    if schema == MANIFEST_SCHEMA:
        return RunRecord.from_artifacts(manifest=doc)
    if schema == METRICS_SCHEMA:
        return RunRecord(run_id=doc.get("run_id", "unknown"),
                         name="metrics", series=summarize_metrics(doc))
    if schema in (TRACE_SCHEMA, TRACE_SCHEMA_V1):
        trace = read_trace(doc)
        return RunRecord(run_id=trace.run_id or "unknown", name=trace.name,
                         series=summarize_trace(trace))
    raise ValueError(f"cannot interpret schema {schema!r} as a run record")


class RunHistory:
    """An append-only JSON-lines store of :class:`RunRecord` lines.

    The store is a plain :mod:`~repro.obs.jsonl` file: appends repair a
    torn tail, then write one line; reads skip and count corrupt or
    foreign lines; :meth:`compact` rewrites the file atomically.
    """

    def __init__(self, path: str):
        self.path = str(path)
        #: Unparseable lines skipped by the most recent :meth:`records` call.
        self.corrupt_lines = 0

    def __len__(self) -> int:
        return len(self.records())

    # ------------------------------------------------------------------
    def append(self, record: RunRecord) -> RunRecord:
        """Append one record (creating the store; repairing a torn tail)."""
        jsonl.repair_tail(self.path)
        jsonl.append(self.path, [record.to_dict()])
        return record

    # ------------------------------------------------------------------
    def records(self) -> List[RunRecord]:
        """Every parseable record, in file (append) order.

        A missing store reads as empty; lines that fail to parse or that
        carry a foreign schema are skipped and counted in
        :attr:`corrupt_lines`.
        """
        self.corrupt_lines = 0
        if not os.path.exists(self.path):
            return []
        docs, self.corrupt_lines = jsonl.read(self.path)
        out: List[RunRecord] = []
        for doc in docs:
            try:
                out.append(RunRecord.from_dict(doc))
            except (ValueError, KeyError, TypeError):
                self.corrupt_lines += 1
        return out

    def query(self, name: Optional[str] = None,
              sha: Optional[str] = None,
              limit: Optional[int] = None) -> List[RunRecord]:
        """Records filtered by run ``name`` and/or git ``sha``.

        ``limit`` keeps only the most recent matches (file order is append
        order, so the tail is the newest).
        """
        matches = [
            r for r in self.records()
            if (name is None or r.name == name)
            and (sha is None or r.git_sha == sha)
        ]
        if limit is not None:
            matches = matches[-limit:]
        return matches

    def last(self, n: int = 1, name: Optional[str] = None) -> List[RunRecord]:
        """The most recent ``n`` records (optionally for one run name)."""
        return self.query(name=name, limit=n)

    def comparable(self, record: RunRecord, n: int) -> List[RunRecord]:
        """The newest ``n`` stored records a gate may diff ``record`` against.

        A baseline must share the record's run name and worker count and,
        when both carry a manifest config (``documents["config"]``), that
        config too: a ``--workers 2 --fast`` run says nothing about a
        ``--workers 4`` one.  Records without a config match on name and
        workers alone.
        """
        config = record.documents.get("config")
        matches = [
            r for r in self.records()
            if r.name == record.name and r.workers == record.workers
            and (config is None
                 or r.documents.get("config") in (None, config))
        ]
        return matches[-n:] if n > 0 else []

    # ------------------------------------------------------------------
    def compact(self, keep_last: int = 50) -> int:
        """Retention: keep the newest ``keep_last`` records per run name.

        Rewrites the store atomically (temp file + rename) and returns the
        number of records dropped.  Corrupt lines are dropped too.
        """
        if keep_last < 1:
            raise ValueError("keep_last must be >= 1")
        records = self.records()
        kept_per_name: Dict[str, int] = {}
        keep: List[RunRecord] = []
        for record in reversed(records):
            count = kept_per_name.get(record.name, 0)
            if count < keep_last:
                kept_per_name[record.name] = count + 1
                keep.append(record)
        keep.reverse()
        dropped = len(records) - len(keep)
        if dropped == 0 and self.corrupt_lines == 0:
            return 0
        jsonl.rewrite(self.path, [record.to_dict() for record in keep])
        return dropped


def format_history_report(history: Union[RunHistory, str],
                          last: int = 10,
                          name: Optional[str] = None) -> str:
    """A one-line-per-run table of the most recent history records."""
    if not isinstance(history, RunHistory):
        history = RunHistory(history)
    records = history.last(last, name=name)
    if not records:
        return f"(history {history.path!r} has no matching records)"
    lines = [f"history {history.path!r}: showing {len(records)} most "
             f"recent record(s)"]
    for record in records:
        sha = (record.git_sha or "?")[:10]
        dirty = "*" if record.git_dirty else ""
        lines.append(
            f"  {record.run_id:>12s}  {record.name:<24s} "
            f"{sha}{dirty:<1s}  {len(record.series):3d} series"
            + (f"  [{', '.join(sorted(record.documents))}]"
               if record.documents else "")
        )
    if history.corrupt_lines:
        lines.append(f"  ({history.corrupt_lines} corrupt line(s) skipped)")
    return "\n".join(lines)
