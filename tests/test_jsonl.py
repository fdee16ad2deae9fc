"""Tests for the shared JSON-lines writer (repro.trace.jsonl).

Two properties: the writer's bytes equal what ``json.dump`` with the
same separators writes, for every value shape the sinks emit; and no
sink or capsule section reaches the pure-Python JSON encoder, so
recording stays on CPython's C encoder.
"""

import io
import json
import json.encoder
import math
import random

import pytest

from repro.trace.jsonl import JsonlWriter
from repro.xray import Capsule, CanonicalRun, record_run

SEPARATORS = (",", ":")

FLOATS = (float("nan"), float("inf"), -float("inf"), 0.0, -0.0, 5e-324,
          2.2250738585072014e-308 / 3, 1.7976931348623157e308, 1e22,
          1e16, 0.1, 1 / 3, -2.5e-7)
INTS = (0, -1, 2 ** 53 + 1, 2 ** 100, -(2 ** 70), True, False)
STRINGS = ("", "plain", "quote\" back\\slash /", "\x00\x01\x1f\x7f\t\n\r",
           "café", "中文", "\U0001f600 emoji", "\u2028\ufeff",
           "\ud800 lone surrogate")


def _random_value(rng, depth):
    choice = rng.randrange(9 if depth < 4 else 6)
    if choice == 0:
        return rng.choice(FLOATS)
    if choice == 1:
        return rng.uniform(-1e6, 1e6) * 10.0 ** rng.randrange(-300, 300)
    if choice == 2:
        return rng.choice(INTS)
    if choice == 3:
        return rng.randrange(-10 ** 30, 10 ** 30)
    if choice == 4:
        return rng.choice(STRINGS) + "".join(
            chr(rng.randrange(0x110000)) for _ in range(rng.randrange(4)))
    if choice == 5:
        return None
    if choice == 6:
        return [_random_value(rng, depth + 1)
                for _ in range(rng.randrange(5))]
    return _random_record(rng, depth + 1)


def _random_record(rng, depth=0):
    record = {}
    for _ in range(rng.randrange(6)):
        key = (rng.randrange(-50, 50) if rng.random() < 0.3
               else rng.choice(STRINGS) + str(rng.randrange(100)))
        record[key] = _random_value(rng, depth)
    return record


def _reference_line(record):
    buffer = io.StringIO()
    json.dump(record, buffer, separators=SEPARATORS)
    return buffer.getvalue() + "\n"


@pytest.mark.parametrize("seed", range(5))
def test_lines_equal_json_dump(seed):
    rng = random.Random(seed)
    records = [_random_record(rng) for _ in range(200)]
    records.append({"nan": math.nan, "inf": [math.inf, -math.inf],
                    "zero": -0.0, 7: {"nested": [1, 2.5, "x"]}})
    buffer = io.StringIO()
    writer = JsonlWriter(buffer)
    for record in records:
        assert writer.write_line(record)
    writer.close()
    assert buffer.getvalue() == "".join(map(_reference_line, records))


@pytest.fixture
def no_python_encoder(monkeypatch):
    """Make every fallback to the pure-Python JSON encoder fail loudly."""
    def refuse(*args, **kwargs):
        raise AssertionError("pure-Python JSON encoder used")
    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    with pytest.raises(AssertionError):
        json.dump({}, io.StringIO())


def test_capsule_recording_stays_on_c_encoder(tmp_path, no_python_encoder):
    # A serving run with every observer attached, degraded so fault
    # journal lines stream too; then a load/save round trip.
    path = tmp_path / "run.capsule"
    capsule = record_run(str(path),
                         CanonicalRun(jobs=3, block_mb=8.0).degraded(1))
    counts = capsule.manifest["counts"]
    for kind in ("span", "link", "journal", "serve", "job", "telemetry",
                 "clarity", "summary"):
        assert counts.get(kind), kind
    resaved = tmp_path / "resaved.capsule"
    Capsule.load(str(path)).save(str(resaved))
    assert resaved.read_bytes() == path.read_bytes()


def test_sinks_stay_on_c_encoder(tmp_path, no_python_encoder):
    from repro.obs.journal import JournalEvent, JsonlJournalSink
    from repro.trace.sink import JsonlSpanSink
    from repro.trace.spans import SPAN_MONOTASK, SpanLink, SpanRecord
    with JsonlSpanSink(str(tmp_path / "spans.jsonl")) as sink:
        sink.span_finished(SpanRecord(
            span_id=1, trace_id="job-0", parent_id=None, kind=SPAN_MONOTASK,
            name="m", start=0.0, end=1.0, attrs={"detail": "x"}))
        sink.link_recorded(SpanLink(from_span_id=1, to_span_id=2,
                                    kind="dag", trace_id="job-0", at=0.5))
    with JsonlJournalSink(str(tmp_path / "journal.jsonl")) as sink:
        sink.write(JournalEvent(t=1.0, severity="info", source="test",
                                kind="k", subject="machine 0"))
    assert sink.written == 1


def test_capsule_bytes_equal_json_dump_per_line(tmp_path):
    # Whole-file check: every recorded line is what json.dump would
    # have written for the same record.
    path = tmp_path / "run.capsule"
    record_run(str(path), CanonicalRun(jobs=2, block_mb=8.0))
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            assert _reference_line(json.loads(line)) == line
