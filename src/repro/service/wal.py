"""Service durability: append-only WAL + atomic snapshots.

The write-ahead discipline is the classic one: a visit is appended to
the WAL and fsync'd *before* it mutates identity state or is acked, so
every acked visit survives a SIGKILL. Recovery loads the latest intact
snapshot (an atomic, dir-fsync'd whole-state document stamped with the
WAL byte offset it covers) and replays the WAL from that offset through
the same ``ServiceState.apply`` path live ingest uses — one code path,
so a replayed state is byte-identical to an uninterrupted run's by
construction.

Crash anatomy this layer absorbs:

* **Torn WAL tail** — a kill mid-append leaves a partial final line.
  Readers tolerate it (the records before it are intact) and report it;
  re-opening for append quarantines the fragment to ``<path>.corrupt``
  and resumes on a clean line boundary. The un-acked visit is simply
  re-sent by the client (visit ids deduplicate).
* **Torn snapshot** — a kill mid-snapshot (simulated by the
  ``crashed_snapshot`` fault; impossible through the atomic writer) is
  quarantined on load and recovery falls back to replaying the whole
  WAL from offset 0 — the WAL is never truncated, so the fallback is
  always complete.

WAL records are JSON with ``ensure_ascii`` (pure ASCII bytes), so
character offsets equal byte offsets — the snapshot's ``wal_offset``
can be compared against byte positions without decoding.
"""
from __future__ import annotations

import json
import os

from ..io import atomic_write_text, fsync_dir
from ..resilience import faults
from .errors import ServiceCrashed

WAL_NAME = "wal.jsonl"
SNAPSHOT_NAME = "snapshot.json"

SNAPSHOT_KIND = "repro.service.snapshot"
SNAPSHOT_FORMAT = 1


def _scan_lines(data: bytes):
    """Split ``data`` into parsed JSON records plus the torn tail.

    Returns ``(records, good_end, problems)``: ``good_end`` is the byte
    offset just past the last intact line. A final line that fails to
    parse (or trailing bytes with no newline) is the torn tail a crash
    left — reported, not fatal; an unparseable line *before* the end is
    a hard problem (the file was corrupted, not just torn).
    """
    records: list[dict] = []
    problems: list[str] = []
    good_end = 0
    start = 0
    while start < len(data):
        newline = data.find(b"\n", start)
        if newline < 0:
            problems.append(f"torn tail: {len(data) - start} bytes with no "
                            "newline")
            break
        line = data[start:newline]
        try:
            record = json.loads(line.decode("utf-8"))
            if not isinstance(record, dict):
                raise ValueError("not an object")
        except (ValueError, UnicodeDecodeError):
            if data.find(b"\n", newline + 1) < 0 and newline + 1 >= len(data):
                problems.append(f"torn tail: unparseable final line "
                                f"({len(line)} bytes)")
            else:
                problems.append(f"corrupt record at byte {start}")
            break
        records.append(record)
        good_end = newline + 1
        start = newline + 1
    return records, good_end, problems


def read_wal(path: str, offset: int = 0):
    """Parse WAL records starting at byte ``offset``.

    Returns ``(records, torn_tail, problems)``; a missing file is an
    empty log. ``torn_tail`` is True when the file ends in a partial
    record (tolerated — its visit was never acked)."""
    try:
        with open(path, "rb") as fh:
            fh.seek(offset)
            data = fh.read()
    except FileNotFoundError:
        return [], False, []
    records, good_end, problems = _scan_lines(data)
    return records, good_end < len(data), problems


class WriteAheadLog:
    """Append-only fsync'd visit log with group commit.

    ``append`` writes and flushes; ``sync`` is the one fsync, issued by
    the engine once per consumer batch before any of the batch's visits
    is acked — so an *acked* visit is always durable, and a batch of N
    visits costs one fsync, not N.
    """

    def __init__(self, path: str):
        self.path = path
        self.torn_tail_repaired = False
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        self._repair_torn_tail()
        existed = os.path.exists(path)
        self._fh = open(path, "a", encoding="utf-8")
        if not existed:
            # make the log's *existence* durable, not just its bytes
            fsync_dir(directory or ".")
        self.offset = os.path.getsize(path)
        self._unsynced = 0

    def _repair_torn_tail(self) -> None:
        """Quarantine any partial final record a crash left, so appends
        resume on a clean line boundary (same repair the event log does)."""
        try:
            with open(self.path, "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            return
        _, good_end, _ = _scan_lines(data)
        if good_end == len(data):
            return
        with open(self.path + ".corrupt", "ab") as fh:
            fh.write(data[good_end:])
        with open(self.path, "r+b") as fh:
            fh.truncate(good_end)
            fh.flush()
            os.fsync(fh.fileno())
        self.torn_tail_repaired = True

    def append(self, record: dict) -> None:
        """Append one record (ASCII JSON line). May raise
        ``ServiceCrashed`` under an injected ``torn_wal`` fault — the
        fragment is already on disk, exactly as a SIGKILL would leave."""
        line = json.dumps(record, sort_keys=True) + "\n"
        if faults.torn_wal(self._fh, line):
            self._fh.close()
            raise ServiceCrashed("injected torn WAL append")
        self._fh.write(line)
        self._fh.flush()
        self.offset += len(line)  # ensure_ascii JSON: chars == bytes
        self._unsynced += 1

    def sync(self) -> None:
        """fsync pending appends — the commit point acks wait behind."""
        if self._unsynced:
            self._fh.flush()
            os.fsync(self._fh.fileno())
            self._unsynced = 0

    def close(self) -> None:
        if self._fh is not None and not self._fh.closed:
            self.sync()
            self._fh.close()


class SnapshotStore:
    """The periodic whole-state snapshot bounding replay work."""

    def __init__(self, path: str):
        self.path = path

    def write(self, state: dict, wal_offset: int) -> bool:
        """Atomically persist ``state`` as covering the WAL up to
        ``wal_offset``; False when an injected ``crashed_snapshot``
        fault left a torn file instead (recovery will quarantine it and
        fall back to a full WAL replay)."""
        payload = {"kind": SNAPSHOT_KIND, "format": SNAPSHOT_FORMAT,
                   "wal_offset": int(wal_offset), "state": state}
        text = json.dumps(payload, sort_keys=True) + "\n"
        if faults.crashed_snapshot(self.path, text):
            return False
        atomic_write_text(self.path, text)
        return True

    def load(self):
        """Returns ``(state, wal_offset, problem)``.

        Missing snapshot: ``(None, 0, None)`` — replay everything. An
        unreadable/torn/malformed snapshot is quarantined to
        ``<path>.corrupt`` and reported: ``(None, 0, reason)`` — replay
        everything; the WAL is complete, so nothing is lost."""
        try:
            with open(self.path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except FileNotFoundError:
            return None, 0, None
        except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
            self.quarantine()
            return None, 0, f"unreadable snapshot ({exc.__class__.__name__})"
        if not isinstance(payload, dict) \
                or payload.get("kind") != SNAPSHOT_KIND \
                or payload.get("format") != SNAPSHOT_FORMAT \
                or not isinstance(payload.get("state"), dict) \
                or not isinstance(payload.get("wal_offset"), int):
            self.quarantine()
            return None, 0, "malformed snapshot structure"
        return payload["state"], payload["wal_offset"], None

    def quarantine(self) -> None:
        try:
            os.replace(self.path, self.path + ".corrupt")
        except OSError:
            pass  # best-effort; the load already failed safely
