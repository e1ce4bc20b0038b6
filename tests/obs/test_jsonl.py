"""The shared JSON-lines primitive, and killed writers in every store."""

import json
import multiprocessing
import os
import threading
import time

import pytest

from repro.obs import jsonl
from repro.obs.history import RunHistory, RunRecord
from repro.obs.live.snapshot import (
    SNAPSHOT_SCHEMA,
    SnapshotWriter,
    read_snapshots,
)
from repro.resilience import JsonlCheckpoint


@pytest.fixture
def path(tmp_path):
    return str(tmp_path / "store.jsonl")


def _write(path, text):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _text(path):
    with open(path, encoding="utf-8") as handle:
        return handle.read()


class TestEncodeAndAppend:
    def test_encode_is_canonical_and_terminated(self):
        assert jsonl.encode({"b": 1, "a": [2]}) == '{"a": [2], "b": 1}\n'

    def test_append_batches_and_creates_directories(self, tmp_path):
        path = str(tmp_path / "deep" / "er" / "s.jsonl")
        jsonl.append(path, [{"i": 0}, {"i": 1}])
        jsonl.append(path, [{"i": 2}], fsync=True)
        assert jsonl.read(path) == ([{"i": 0}, {"i": 1}, {"i": 2}], 0)

    def test_append_nothing_creates_an_empty_file(self, path):
        jsonl.append(path, [])
        assert _text(path) == ""


class TestRepairTail:
    def test_missing_and_empty_files_are_clean(self, path):
        assert jsonl.repair_tail(path) == jsonl.CLEAN
        assert not os.path.exists(path)
        _write(path, "")
        assert jsonl.repair_tail(path) == jsonl.CLEAN

    def test_clean_tail_is_left_alone(self, path):
        _write(path, '{"a": 1}\n{"a": 2}\n')
        assert jsonl.repair_tail(path) == jsonl.CLEAN
        assert _text(path) == '{"a": 1}\n{"a": 2}\n'

    def test_unparseable_torn_tail_is_cut(self, path):
        _write(path, '{"a": 1}\n{"a": 2, "b')
        assert jsonl.repair_tail(path) == jsonl.CUT
        assert _text(path) == '{"a": 1}\n'

    def test_torn_first_line_is_cut_to_empty(self, path):
        _write(path, '{"a": ')
        assert jsonl.repair_tail(path) == jsonl.CUT
        assert _text(path) == ""

    def test_parseable_unterminated_tail_is_kept(self, path):
        _write(path, '{"a": 1}\n{"b": 2,   "a": 3}')
        assert jsonl.repair_tail(path) == jsonl.KEPT
        assert _text(path) == '{"a": 1}\n{"a": 3, "b": 2}\n'

    def test_non_object_tail_is_cut(self, path):
        _write(path, '{"a": 1}\n[1, 2]')
        assert jsonl.repair_tail(path) == jsonl.CUT
        assert _text(path) == '{"a": 1}\n'

    def test_appends_after_repair_start_on_a_clean_line(self, path):
        _write(path, '{"a": 1}\n{"a": 2, "b')
        jsonl.repair_tail(path)
        jsonl.append(path, [{"a": 3}])
        assert jsonl.read(path) == ([{"a": 1}, {"a": 3}], 0)


class TestRead:
    def test_mid_file_garbage_and_non_objects_are_counted(self, path):
        _write(path, '{"a": 1}\n%% junk %%\n[1, 2]\n"str"\n\n{"a": 2}\n')
        assert jsonl.read(path) == ([{"a": 1}, {"a": 2}], 3)

    def test_invalid_utf8_is_damage_not_an_error(self, path):
        with open(path, "wb") as handle:
            handle.write(b'{"a": 1}\n\xff\xfe{"a"\n{"a": 2}\n')
        assert jsonl.read(path) == ([{"a": 1}, {"a": 2}], 1)

    def test_unterminated_final_line_counts_iff_it_parses(self, path):
        _write(path, '{"a": 1}\n{"a": 2}')
        assert jsonl.read(path) == ([{"a": 1}, {"a": 2}], 0)
        _write(path, '{"a": 1}\n{"a": 2')
        assert jsonl.read(path) == ([{"a": 1}], 1)

    def test_missing_file_raises(self, path):
        with pytest.raises(FileNotFoundError):
            jsonl.read(path)


class TestFollow:
    def test_follow_picks_up_concurrent_appends(self, path):
        jsonl.append(path, [{"i": 0}])

        def _append_later():
            # a line written in two pieces: the reader must wait for the
            # newline instead of counting the first piece as damage
            with open(path, "a", encoding="utf-8") as handle:
                handle.write('{"i": ')
                handle.flush()
            time.sleep(0.05)
            with open(path, "a", encoding="utf-8") as handle:
                handle.write('1}\n')

        timer = threading.Timer(0.05, _append_later)
        timer.start()
        seen = []
        try:
            for record in jsonl.scan(path, follow=True, poll=0.01,
                                     max_seconds=5.0):
                seen.append(record)
                if len(seen) == 2:
                    break
        finally:
            timer.cancel()
            timer.join()
        assert seen == [{"i": 0}, {"i": 1}]

    def test_follow_stops_at_the_deadline(self, path):
        _write(path, '{"i": 0}\n{"i": 1}')
        assert list(jsonl.scan(path, follow=True, poll=0.01,
                               max_seconds=0.05)) == [{"i": 0}, {"i": 1}]


class TestRewrite:
    def test_rewrite_replaces_content_and_leaves_no_temp_file(self, path):
        _write(path, "garbage\n" * 3)
        jsonl.rewrite(path, [{"a": 1}, {"b": 2}])
        assert _text(path) == '{"a": 1}\n{"b": 2}\n'
        assert os.listdir(os.path.dirname(path)) == ["store.jsonl"]

    def test_failed_rewrite_keeps_the_old_file(self, path):
        _write(path, '{"a": 1}\n')

        def _records():
            yield {"a": 2}
            raise RuntimeError("writer died")

        with pytest.raises(RuntimeError):
            jsonl.rewrite(path, _records())
        assert _text(path) == '{"a": 1}\n'
        assert os.listdir(os.path.dirname(path)) == ["store.jsonl"]


# ----------------------------------------------------------------------
# killed writers: every store must survive a writer that dies mid-record
# ----------------------------------------------------------------------
RECORDS = 5


def _snapshot(seq):
    return {"schema": SNAPSHOT_SCHEMA, "seq": seq, "series": {}}


class _CheckpointStore:
    @staticmethod
    def write(path, i):
        JsonlCheckpoint(path, campaign_key="kill").append(f"k{i}", i)

    @staticmethod
    def read(path):
        ckpt = JsonlCheckpoint(path, campaign_key="kill")
        return [ckpt.get(key) for key in ckpt.keys()]


class _HistoryStore:
    @staticmethod
    def write(path, i):
        RunHistory(path).append(RunRecord(run_id=f"r{i}", name="kill",
                                          series={"i": float(i)}))

    @staticmethod
    def read(path):
        return [int(r.series["i"]) for r in RunHistory(path).records()]


class _SnapshotStore:
    @staticmethod
    def write(path, i):
        with SnapshotWriter(path) as writer:
            writer.append(_snapshot(i))

    @staticmethod
    def read(path):
        return [s["seq"] for s in read_snapshots(path)]


STORES = {"checkpoint": _CheckpointStore, "history": _HistoryStore,
          "snapshot": _SnapshotStore}


def _write_then_die(store_name, path):
    """Child process: write RECORDS records, then die mid-record."""
    store = STORES[store_name]
    for i in range(RECORDS):
        store.write(path, i)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"key": "torn", "value": {"partial": ')
        handle.flush()
        os._exit(13)


@pytest.mark.parametrize("store_name", sorted(STORES))
def test_killed_writer_loses_only_the_torn_record(store_name, path):
    process = multiprocessing.Process(target=_write_then_die,
                                      args=(store_name, path))
    process.start()
    process.join(timeout=60)
    assert process.exitcode == 13

    store = STORES[store_name]
    assert store.read(path) == list(range(RECORDS))
    # the survivor appends; the torn bytes must not swallow its record
    store.write(path, RECORDS)
    assert store.read(path) == list(range(RECORDS + 1))
    with open(path, encoding="utf-8") as handle:
        assert all(json.loads(line) for line in handle)
