"""JSON-lines files: the one framing and damage policy of every store.

Checkpoints, run history, snapshot streams and event logs all keep one
JSON object per line through this module.  Lines are canonical
``sort_keys`` JSON ending in ``\\n``.  A writer killed mid-append leaves
a *torn tail* (a final line without its newline); :func:`repair_tail`,
run by a writer when it opens the file, cuts it — or re-terminates it
when it parses — so the next record never glues onto torn bytes.
Readers skip damaged lines (not JSON, or not an object) and count them;
an unterminated final line is a record if and only if it parses.  The
module only returns counts: each store picks the counter it feeds.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Iterable, Iterator, List, Optional, Tuple

#: :func:`repair_tail` outcomes: no torn tail, torn tail re-terminated,
#: torn tail cut.
CLEAN, KEPT, CUT = "clean", "kept", "cut"


def encode(record: dict) -> str:
    """One record as its canonical JSON line, newline included."""
    return json.dumps(record, sort_keys=True) + "\n"


def _parse(line: bytes) -> Optional[dict]:
    try:
        record = json.loads(line)
    except ValueError:
        return None
    return record if isinstance(record, dict) else None


def append(path: str, records: Iterable[dict], *,
           fsync: bool = False) -> None:
    """Append ``records`` with one open/write/flush (and ``fsync`` if asked),
    creating the file and its directory."""
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    data = "".join(map(encode, records)).encode("utf-8")
    with open(path, "ab") as handle:
        handle.write(data)
        handle.flush()
        if fsync:
            os.fsync(handle.fileno())


def repair_tail(path: str) -> str:
    """Make ``path`` end on a line boundary; returns CLEAN, KEPT or CUT.

    A file ending in a newline (or empty, or missing) costs a one-byte
    read.  A torn tail is rewritten with its newline when it parses to an
    object and truncated away when not; the repair is fsynced.
    """
    try:
        handle = open(path, "r+b")
    except FileNotFoundError:
        return CLEAN
    with handle:
        size = handle.seek(0, os.SEEK_END)
        if size == 0:
            return CLEAN
        handle.seek(size - 1)
        if handle.read(1) == b"\n":
            return CLEAN
        handle.seek(0)
        data = handle.read()
        keep = data.rfind(b"\n") + 1  # 0 when there is no newline at all
        record = _parse(data[keep:])
        handle.truncate(keep)
        if record is not None:
            handle.seek(keep)
            handle.write(encode(record).encode("utf-8"))
        handle.flush()
        os.fsync(handle.fileno())
    return CUT if record is None else KEPT


def scan(path: str, *, follow: bool = False, poll: float = 0.2,
         max_seconds: Optional[float] = None) -> Iterator[Optional[dict]]:
    """Yield each non-blank line of ``path``: its record, or None if damaged.

    Bytes after the last newline wait for the rest of their line.  With
    ``follow=True`` the file is polled for growth every ``poll`` seconds
    until ``max_seconds`` elapses (forever when None); when reading
    stops, a leftover unterminated line is yielded like any other.
    """
    deadline = (time.monotonic() + max_seconds
                if max_seconds is not None else None)
    buffer = b""
    with open(path, "rb") as handle:
        while True:
            chunk = handle.read()
            if chunk:
                *lines, buffer = (buffer + chunk).split(b"\n")
                yield from (_parse(line) for line in lines if line.strip())
            elif not follow or (deadline is not None
                                and time.monotonic() >= deadline):
                break
            else:
                time.sleep(poll)
    if buffer.strip():
        yield _parse(buffer)


def read(path: str) -> Tuple[List[dict], int]:
    """Every record of ``path`` in file order, and the damaged-line count."""
    lines = list(scan(path))
    records = [record for record in lines if record is not None]
    return records, len(lines) - len(records)


def rewrite(path: str, records: Iterable[dict]) -> None:
    """Replace ``path`` with ``records`` atomically: write and fsync a
    sibling temporary file, then rename it over ``path``."""
    tmp_path = f"{path}.{os.getpid()}.{threading.get_ident()}.tmp"
    try:
        with open(tmp_path, "wb") as handle:
            handle.write("".join(map(encode, records)).encode("utf-8"))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise
