"""Run-store plumbing shared by the standalone benchmark drivers.

``bench_perf_baseline.py``, ``bench_sched_scale.py`` and
``bench_fleet.py`` each append one :class:`~repro.obs.history.RunRecord`
per run to a history store and can gate the run against earlier ones.
:func:`add_history_arguments` declares their common ``--gate`` /
``--history`` / ``--no-history`` flags and :func:`record_and_gate` does
the append and the gate.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import List

from repro.obs import RunHistory, RunRecord, diff_records, format_diff

DEFAULT_HISTORY = (Path(__file__).resolve().parent / "results"
                   / "history.jsonl")


def add_history_arguments(parser) -> None:
    """Add the ``--gate N``, ``--history PATH`` and ``--no-history`` flags."""
    parser.add_argument("--gate", type=int, default=None, metavar="N",
                        help="diff this run against the last N comparable "
                             "history records (same name, workers and "
                             "config) and exit nonzero on regressions")
    parser.add_argument("--history", type=Path, default=DEFAULT_HISTORY,
                        help=f"history store (default {DEFAULT_HISTORY})")
    parser.add_argument("--no-history", action="store_true",
                        help="do not append this run to the history store")


def warn_if_dirty(record: RunRecord, label: str, tag: str) -> None:
    """Say so when ``record`` came from an uncommitted tree: gating
    against such numbers is unreliable."""
    if record.git_dirty:
        print(f"[{tag}] WARNING: {label} (run {record.run_id}) was "
              "produced on a dirty working tree; regenerate from a clean "
              "tree before trusting the gate", file=sys.stderr)


def record_and_gate(record: RunRecord, args, tag: str) -> List[str]:
    """Append ``record`` unless ``--no-history``; gate it when ``--gate N``.

    The baseline window is :meth:`RunHistory.comparable` over the store
    as it was *before* the append, so a run never gates against itself.
    Prints the diff table and returns one failure line per regressed
    series (empty when not gating).
    """
    history = RunHistory(str(args.history))
    window = history.comparable(record, args.gate) if args.gate else []
    if not args.no_history:
        history.append(record)
        print(f"[{tag}] appended run {record.run_id} to {history.path} "
              f"({len(history)} records)")
    if not args.gate:
        return []
    warn_if_dirty(record, "this run", tag)
    if not window:
        print(f"[{tag}] gate: no prior {record.name!r} records with "
              f"workers={record.workers} and the same config in "
              f"{history.path}; nothing to compare", file=sys.stderr)
        return []
    for prior in window:
        warn_if_dirty(prior, "baseline record", tag)
    diff = diff_records(window, record)
    print(format_diff(diff))
    return [
        f"history gate: {regression.name} regressed "
        f"({regression.baseline!r} -> {regression.candidate!r})"
        for regression in diff.regressions
    ]
