"""The append-only JSONL log behind the checkpoint and trace writers.

:class:`repro.obs.jsonlog.JsonlLog` promises three things: a session's
first flush replaces whatever is at the path with an atomic snapshot,
every later flush appends only the lines added since, and ``close``
leaves the canonical index-sorted file.  The campaign-level test counts
the bytes a long checkpointed, traced run writes, so a regression to
whole-file rewrites on every flush fails deterministically.
"""

from __future__ import annotations

import json

from repro.core.campaign import CampaignSpec, run_campaign
from repro.obs import jsonlog
from repro.obs.jsonlog import JsonlLog
from repro.obs.tracer import default_trace_path

HEADER = {"format": "test-log", "version": 1}


def _line(index: int, value: str = "a") -> str:
    return json.dumps({"index": index, "value": value}, sort_keys=True)


def _log(path, *indices: int) -> JsonlLog:
    log = JsonlLog(path, HEADER)
    for index in indices:
        log.add(index, {"index": index, "value": "a"})
    return log


def _lines(path) -> list[str]:
    return path.read_text(encoding="utf-8").splitlines()


class TestJsonlLog:
    def test_first_flush_replaces_the_file_with_a_snapshot(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text("left by a killed run\n{\"index\": 9, \"val", encoding="utf-8")
        _log(path, 3, 1).flush()
        assert _lines(path) == [json.dumps(HEADER, sort_keys=True), _line(1), _line(3)]

    def test_later_flushes_append_only_new_lines_sorted_within_the_batch(self, tmp_path):
        path = tmp_path / "log.jsonl"
        log = _log(path, 4, 2)
        log.flush()
        snapshot = path.read_bytes()
        for index in (7, 0, 5):
            log.add(index, {"index": index, "value": "a"})
        log.flush()
        assert path.read_bytes() == snapshot + "".join(
            _line(i) + "\n" for i in (0, 5, 7)
        ).encode()
        log.flush()
        assert len(_lines(path)) == 6

    def test_close_publishes_the_canonical_file(self, tmp_path):
        path = tmp_path / "log.jsonl"
        log = _log(path, 4, 2)
        log.flush()
        log.add(0, {"index": 0, "value": "a"})
        log.flush()
        log.add(2, {"index": 2, "value": "b"})
        log.close()
        assert _lines(path) == [
            json.dumps(HEADER, sort_keys=True), _line(0), _line(2, "b"), _line(4),
        ]

    def test_re_adding_identical_bytes_appends_nothing(self, tmp_path):
        path = tmp_path / "log.jsonl"
        log = _log(path, 0, 1)
        log.flush()
        before = path.read_bytes()
        log.add(1, {"value": "a", "index": 1})
        log.flush()
        assert path.read_bytes() == before

    def test_never_appends_to_a_file_it_did_not_write(self, tmp_path):
        path = tmp_path / "log.jsonl"
        log = _log(path, 0)
        log.flush()
        path.write_text("another writer's file\n", encoding="utf-8")
        log.add(1, {"index": 1, "value": "a"})
        log.flush()
        assert _lines(path) == [json.dumps(HEADER, sort_keys=True), _line(0), _line(1)]
        path.unlink()
        log.add(2, {"index": 2, "value": "a"})
        log.flush()
        assert _lines(path)[0] == json.dumps(HEADER, sort_keys=True)
        assert len(_lines(path)) == 4


def test_checkpoint_and_trace_flushes_write_only_new_trials(tmp_path, monkeypatch):
    # 64 cadence flushes.  Rewriting the whole file on each one writes
    # about 32x the final size; snapshot + appends + one canonical
    # rewrite write at most about 2x.
    written: dict[str, int] = {}

    def counting(write):
        def wrapper(path, text):
            written[str(path)] = written.get(str(path), 0) + len(text.encode("utf-8"))
            return write(path, text)
        return wrapper

    monkeypatch.setattr(jsonlog, "atomic_write_text", counting(jsonlog.atomic_write_text))
    monkeypatch.setattr(jsonlog, "_append_text", counting(jsonlog._append_text))
    spec = CampaignSpec(network="ConvNet", dtype="FLOAT16", n_trials=512, seed=3,
                        trace_mode="all")
    checkpoint = tmp_path / "ck.jsonl"
    result = run_campaign(spec, checkpoint=checkpoint, checkpoint_every=8)
    assert len(result.records) == 512
    for path in (checkpoint, default_trace_path(checkpoint)):
        size = path.stat().st_size
        assert size <= written[str(path)] <= 3 * size, (path.name, written[str(path)], size)
