"""repro.obs.events — the crash-safe, append-only study event log.

Where the recorder keeps *aggregates* (spans, counters, histograms), the
event log keeps the *sequence*: every retry, pool rebuild, checkpoint
write, cache quarantine and batch render lands as one JSONL line the
moment it happens. That ordering is exactly what aggregate metrics throw
away — and exactly what debugging a sharded million-user run (or proving
the measurement infrastructure did not perturb the fingerprints it
measured) requires.

Data model
----------
One event is one flat JSON object:

    {"schema": 1, "seq": 12, "kind": "checkpoint.write",
     "t_wall_s": 1754650000.12, "t_mono_s": 3.5041, "pid": 4242, ...}

``schema`` versions the record shape, ``kind`` is drawn from the closed
``EVENT_KINDS`` registry (an unknown kind is a bug, caught at emit *and*
at validation), ``seq`` is the recorder-assigned append index,
``t_mono_s`` is monotonic time relative to the recorder epoch (the same
clock spans use, so traces line up), ``t_wall_s`` is wall time, ``pid``
identifies the emitting process. Everything else is the event's payload.

Crash safety
------------
``EventLog`` appends one line per event and flushes it, so a SIGKILL can
tear at most the final line. Opening a log repairs that torn tail the
way checkpoints are repaired: the fragment is quarantined to
``<path>.corrupt`` and appending resumes on a clean line boundary.
``read_events`` tolerates a torn tail (the events before it are intact)
but reports it, so ``repro.obs.report --check`` can refuse a report
whose sidecar lost events.

Determinism
-----------
Inline runs (workers=0) emit events in plan order, so two identical runs
produce byte-identical logs after ``normalize_events`` strips the
volatile fields (timestamps, pid, measured walls). Pooled runs complete
jobs in scheduler order; ``canonical_events`` additionally drops ``seq``
and sorts by content, giving the order-free form that is byte-identical
at any worker count.

Workers cannot append to the parent's log; their events ride home inside
the metrics dict next to the eFPs (see ``population.study``) and are
merged seq-ordered by the parent — the same boundary-crossing protocol
metrics snapshots use.
"""
from __future__ import annotations

import json
import os
import time

EVENT_SCHEMA = 1

#: the closed registry of event kinds (schema-versioned: extending it is
#: an EVENT_SCHEMA-visible change)
EVENT_KINDS = frozenset({
    # study lifecycle
    "study.start", "study.end",
    "phase.start", "phase.end",
    # render cache
    "cache.miss", "cache.disk_load", "cache.corrupt_quarantine",
    "cache.stale_prune",
    # checkpointing
    "checkpoint.write", "checkpoint.torn_write", "checkpoint.resume",
    "checkpoint.corrupt_quarantine",
    # supervised execution
    "job.failed", "job.retry", "job.bisected", "job.quarantined",
    "pool.rebuild", "pool.inline_fallback",
    # render workers (shipped across the pool boundary)
    "render.batch",
    # sharded studies
    "shard.start", "shard.end", "shard.resume", "shard.quarantine",
    # online matching service (repro.service)
    "service.start", "service.stop",
    "ingest.batch", "ingest.shed",
    "lookup.deadline_miss", "lookup.degraded",
    "breaker.open", "breaker.half_open", "breaker.close",
    "wal.torn_tail", "snapshot.write", "snapshot.corrupt_quarantine",
    "replay.start", "replay.end",
})

#: reserved top-level record fields a payload may not shadow
RESERVED_FIELDS = frozenset({"schema", "seq", "kind", "t_wall_s",
                             "t_mono_s", "pid"})

#: fields stripped by ``normalize_events``: process identity, clocks, and
#: measured durations — everything that legitimately varies between two
#: runs of the same seeded study
VOLATILE_FIELDS = frozenset({"t_wall_s", "t_mono_s", "pid",
                             "wall_s", "delay_s"})


def make_event(kind: str, *, epoch: float = 0.0, **fields) -> dict:
    """Build one event record (no ``seq`` — the recorder assigns that on
    append). ``epoch`` rebases the monotonic stamp; pool workers pass 0
    (their clock is not synchronized with the parent's and is rebased at
    trace-export time instead)."""
    if kind not in EVENT_KINDS:
        raise ValueError(f"unknown event kind {kind!r} "
                         f"(EVENT_SCHEMA {EVENT_SCHEMA} kinds: "
                         f"{sorted(EVENT_KINDS)})")
    if not RESERVED_FIELDS.isdisjoint(fields):
        clash = sorted(RESERVED_FIELDS & set(fields))
        raise ValueError(f"event payload may not shadow reserved "
                         f"field(s) {clash}")
    event = {
        "schema": EVENT_SCHEMA,
        "kind": kind,
        "t_wall_s": time.time(),
        "t_mono_s": time.perf_counter() - epoch,
        "pid": os.getpid(),
    }
    event.update(fields)
    return event


class EventLog:
    """Append-only JSONL sink. One ``write + flush`` per event: after a
    SIGKILL the OS page cache still holds every flushed line, so at most
    the in-flight line is torn — and opening the log quarantines that
    fragment to ``<path>.corrupt`` before appending anything new."""

    def __init__(self, path: str):
        self.path = path
        self.torn_tail_repaired = False
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        self._repair_torn_tail()
        self._fh = open(path, "a", encoding="utf-8")

    def _repair_torn_tail(self) -> None:
        try:
            with open(self.path, "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            return
        if not data:
            return
        # keep the longest prefix of intact JSON lines; everything after
        # it (a line cut mid-write, or bytes with no trailing newline) is
        # the torn tail a crash left behind
        good_end = 0
        start = 0
        while start < len(data):
            newline = data.find(b"\n", start)
            if newline < 0:
                break
            line = data[start:newline]
            try:
                json.loads(line.decode("utf-8"))
            except (ValueError, UnicodeDecodeError):
                break
            good_end = newline + 1
            start = newline + 1
        if good_end == len(data):
            return
        with open(self.path + ".corrupt", "ab") as fh:
            fh.write(data[good_end:])
        with open(self.path, "r+b") as fh:
            fh.truncate(good_end)
        self.torn_tail_repaired = True

    def emit(self, event: dict) -> None:
        self._fh.write(json.dumps(event, sort_keys=True) + "\n")
        self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


def read_events(path: str) -> tuple[list[dict], list[str]]:
    """Parse an event-log file; return ``(events, problems)``.

    A torn final line (no trailing newline, or unparseable last line of a
    file that was being appended when the process died) is *tolerated* —
    the events before it are returned — but reported as a problem so
    validators can decide whether torn is acceptable. Any other
    unparseable line, an unknown ``kind``, or a foreign ``schema`` is a
    hard problem.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    events: list[dict] = []
    problems: list[str] = []
    raw_lines = data.split(b"\n")
    # a file ending in "\n" splits to a trailing empty chunk; drop it
    if raw_lines and raw_lines[-1] == b"":
        raw_lines.pop()
    last = len(raw_lines) - 1
    for i, raw in enumerate(raw_lines):
        torn_candidate = (i == last)
        try:
            event = json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            if torn_candidate:
                problems.append(f"torn tail at line {i + 1} "
                                f"({len(raw)} bytes, unparseable)")
            else:
                problems.append(f"corrupt event at line {i + 1}")
            continue
        if not isinstance(event, dict):
            problems.append(f"event at line {i + 1} is not an object")
            continue
        if event.get("schema") != EVENT_SCHEMA:
            problems.append(f"event at line {i + 1} has schema "
                            f"{event.get('schema')!r} "
                            f"(expected {EVENT_SCHEMA})")
            continue
        if event.get("kind") not in EVENT_KINDS:
            problems.append(f"event at line {i + 1} has unknown kind "
                            f"{event.get('kind')!r}")
            continue
        events.append(event)
    return events, problems


def normalize_events(events: list[dict]) -> list[dict]:
    """Strip the volatile fields (clocks, pid, measured walls), keeping
    ``seq`` and order — the deterministic view of an inline run."""
    return [{k: v for k, v in event.items() if k not in VOLATILE_FIELDS}
            for event in events]


def canonical_events(events: list[dict]) -> list[dict]:
    """Order-free deterministic view: normalized, ``seq`` dropped, sorted
    by content. Two pooled runs of the same seeded study agree on this
    form at any worker count — scheduling only permutes completion
    order, never the set of events."""
    stripped = [{k: v for k, v in event.items()
                 if k not in VOLATILE_FIELDS and k != "seq"}
                for event in events]
    return sorted(stripped,
                  key=lambda e: (e.get("kind", ""),
                                 json.dumps(e, sort_keys=True)))
