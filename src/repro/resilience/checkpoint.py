"""JSON-lines checkpoints: stream results out, resume runs bitwise-identically.

A :class:`JsonlCheckpoint` is an append-only file of one-record-per-line
JSON.  The first line is a header (schema ``repro.resilience.checkpoint/v1``)
pinning the **campaign key** — the canonical content hash of everything
that determines the measurements (device fingerprint, day, seed, RB
sizing, policy) — plus the :mod:`repro.obs` run ID that created the file.
Every further line is ``{"key": ..., "value": ...}``: one completed work
unit, written (and flushed) the moment it finishes, so a run killed
mid-campaign loses at most the units still in flight.

Resume semantics:

* loading a checkpoint whose header names a *different* campaign key
  raises :class:`~repro.resilience.errors.CheckpointMismatch` (resuming
  would silently mix two campaigns' data) unless ``on_mismatch="reset"``
  discards the stale file;
* corrupted lines — a flipped bit mid-file — are skipped and counted
  (``resilience.checkpoint.corrupt_lines``), never fatal: a damaged
  checkpoint degrades to re-measuring, not to a crash;
* a **torn tail** — the partial final line of a writer killed
  mid-``append`` — is repaired at open by :func:`repro.obs.jsonl.repair_tail`
  (``resilience.checkpoint.truncations``);
* duplicate keys keep the *last* record (a retried unit may have been
  appended twice).

Because the stored values are plain JSON and Python's ``json`` round-trips
floats exactly, a campaign resumed from a checkpoint reproduces the
uninterrupted report bit for bit.
"""

from __future__ import annotations

import os
from typing import Any, Dict, Iterator, Optional

from repro.obs import jsonl
from repro.obs.registry import get_registry

from repro.resilience.errors import CheckpointMismatch

#: Schema identifier written into every checkpoint header.
CHECKPOINT_SCHEMA = "repro.resilience.checkpoint/v1"


class JsonlCheckpoint:
    """An append-only key/value checkpoint over a JSON-lines file.

    Parameters
    ----------
    path:
        The checkpoint file (created on first :meth:`append`).
    campaign_key:
        Content key of the run this checkpoint belongs to.  When given
        and the file already exists, the header must match.
    run_id:
        The :mod:`repro.obs` run ID stamped into a newly created header.
    on_mismatch:
        ``"raise"`` (default) or ``"reset"`` — what to do when an
        existing header names a different campaign key.
    """

    def __init__(self, path: str, campaign_key: Optional[str] = None,
                 run_id: Optional[str] = None, on_mismatch: str = "raise"):
        if on_mismatch not in ("raise", "reset"):
            raise ValueError("on_mismatch must be 'raise' or 'reset'")
        self.path = str(path)
        self.campaign_key = campaign_key
        self.run_id = run_id
        #: Keys served from the file by :meth:`get` since construction.
        self.hits = 0
        #: Damaged lines skipped while loading.
        self.corrupt_lines = 0
        self._entries: Dict[str, Any] = {}
        self._header_written = False
        self._load(on_mismatch)

    # ------------------------------------------------------------------
    def _load(self, on_mismatch: str) -> None:
        if not os.path.exists(self.path):
            return
        registry = get_registry()
        # Repair a killed writer's torn tail before anything else touches
        # the file, so later appends never concatenate with it.
        tail = jsonl.repair_tail(self.path)
        if tail != jsonl.CLEAN:
            registry.inc("resilience.checkpoint.truncations")
        records, corrupt = jsonl.read(self.path)
        if tail == jsonl.CUT:
            corrupt += 1
        header = records[0] if records else None
        if header is not None and header.get("schema") == CHECKPOINT_SCHEMA:
            stored_key = header.get("campaign_key")
            if (self.campaign_key is not None and stored_key is not None
                    and stored_key != self.campaign_key):
                if on_mismatch == "reset":
                    os.remove(self.path)
                    return
                raise CheckpointMismatch(
                    f"checkpoint {self.path!r} belongs to campaign "
                    f"{stored_key!r}, not {self.campaign_key!r}; pass "
                    f"on_mismatch='reset' to discard it"
                )
            records = records[1:]
            self._header_written = True
        for record in records:
            if "key" in record and "value" in record:
                self._entries[record["key"]] = record["value"]
            else:
                corrupt += 1
        self.corrupt_lines = corrupt
        if corrupt:
            registry.inc("resilience.checkpoint.corrupt_lines", corrupt)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def keys(self) -> Iterator[str]:
        return iter(list(self._entries))

    def get(self, key: str, default: Any = None) -> Any:
        """The stored value for ``key`` (counts as a checkpoint hit)."""
        if key in self._entries:
            self.hits += 1
            get_registry().inc("resilience.checkpoint.hits")
            return self._entries[key]
        get_registry().inc("resilience.checkpoint.misses")
        return default

    def append(self, key: str, value: Any) -> None:
        """Persist one completed unit (fsynced to disk immediately)."""
        self._entries[key] = value
        records = [{"key": key, "value": value}]
        if not self._header_written:
            header = {"schema": CHECKPOINT_SCHEMA}
            if self.campaign_key is not None:
                header["campaign_key"] = self.campaign_key
            if self.run_id is not None:
                header["run_id"] = self.run_id
            records.insert(0, header)
        jsonl.append(self.path, records, fsync=True)
        self._header_written = True
