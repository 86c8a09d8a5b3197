"""Service durability: WAL torn-tail repair, snapshot quarantine, group
commit (one fsync per consumer batch), and the kill-replay determinism
pins — a service killed mid-ingest at three
different offsets (mid-WAL-record, pre-snapshot-commit, post-snapshot)
replays + re-ingests to byte-identical identity state, including one
real ``SIGKILL`` delivered to the CLI."""
import asyncio
import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro import FaultPlan, Recorder, run_study
from repro.resilience import Fault
from repro.resilience.faults import ENV_VAR, SNAPSHOT_KEY, WAL_KEY
from repro.service import (FingerprintService, ServiceConfig, ServiceCrashed,
                           SnapshotStore, WriteAheadLog, read_wal,
                           visits_from_dataset)

STUDY = dict(user_count=10, iterations=5, vectors=("dc", "fft"), seed=23)


@pytest.fixture(autouse=True)
def _no_leaked_fault_plan(monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)


@pytest.fixture(scope="module")
def visits():
    dataset = run_study(workers=0, **STUDY)
    return visits_from_dataset(dataset, seed=5, spoof_fraction=0.2,
                               bot_fraction=0.1)


def _run(service, stream, *, expect_crash=False):
    """Drive ``stream`` through ``service`` on a fresh event loop;
    returns the visits ingested before an (expected) injected crash."""
    async def go():
        await service.start()
        done = 0
        try:
            for visit in stream:
                await service.ingest(visit)
                done += 1
        except ServiceCrashed:
            if not expect_crash:
                raise
        await service.stop()
        return done
    return asyncio.run(go())


def _reference_bytes(visits, tmp_path, **config):
    service = FingerprintService(str(tmp_path / "ref"), STUDY["vectors"],
                                 config=ServiceConfig(**config))
    _run(service, visits)
    return service.state_bytes()


class TestWriteAheadLog:
    def test_append_read_roundtrip_and_offsets(self, tmp_path):
        path = str(tmp_path / "wal.jsonl")
        wal = WriteAheadLog(path)
        records = [{"visit_id": f"v{i}", "n": i} for i in range(5)]
        for record in records:
            wal.append(record)
        assert wal.offset == os.path.getsize(path)
        wal.close()
        loaded, torn, problems = read_wal(path)
        assert loaded == records
        assert not torn and problems == []

    def test_read_from_offset_skips_snapshotted_prefix(self, tmp_path):
        path = str(tmp_path / "wal.jsonl")
        wal = WriteAheadLog(path)
        wal.append({"visit_id": "a"})
        midpoint = wal.offset
        wal.append({"visit_id": "b"})
        wal.close()
        loaded, _, _ = read_wal(path, midpoint)
        assert [r["visit_id"] for r in loaded] == ["b"]

    def test_torn_tail_tolerated_by_reader_and_repaired_on_open(
            self, tmp_path):
        path = str(tmp_path / "wal.jsonl")
        wal = WriteAheadLog(path)
        wal.append({"visit_id": "a"})
        wal.close()
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"visit_id": "b", "tor')  # the kill lands here
        loaded, torn, problems = read_wal(path)
        assert [r["visit_id"] for r in loaded] == ["a"]
        assert torn and problems
        reopened = WriteAheadLog(path)
        assert reopened.torn_tail_repaired
        reopened.append({"visit_id": "c"})
        reopened.close()
        loaded, torn, _ = read_wal(path)
        assert [r["visit_id"] for r in loaded] == ["a", "c"]
        assert not torn
        assert "tor" in open(path + ".corrupt").read()

    def test_corrupt_mid_file_record_is_a_hard_problem(self, tmp_path):
        path = str(tmp_path / "wal.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"visit_id": "a"}\ngarbage\n{"visit_id": "b"}\n')
        loaded, torn, problems = read_wal(path)
        assert [r["visit_id"] for r in loaded] == ["a"]
        assert any("corrupt" in p for p in problems)


class TestGroupCommit:
    CLIENTS = 32

    @staticmethod
    def _count_fsyncs(monkeypatch):
        fsynced = []
        real_fsync = os.fsync

        def counting_fsync(fd):
            fsynced.append(fd)
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", counting_fsync)
        return fsynced

    def test_append_flushes_and_sync_fsyncs_once(self, tmp_path,
                                                 monkeypatch):
        """append puts the bytes in the file without an fsync; sync is
        one fsync for everything pending, and a no-op when nothing is."""
        path = str(tmp_path / "wal.jsonl")
        wal = WriteAheadLog(path)
        fsynced = self._count_fsyncs(monkeypatch)
        for i in range(3):
            wal.append({"visit_id": f"v{i}"})
        assert os.path.getsize(path) == wal.offset
        assert fsynced == []
        wal.sync()
        assert fsynced == [wal._fh.fileno()]
        wal.sync()
        assert len(fsynced) == 1
        wal.close()

    def test_close_commits_pending_appends(self, tmp_path, monkeypatch):
        path = str(tmp_path / "wal.jsonl")
        wal = WriteAheadLog(path)
        wal.append({"visit_id": "a"})
        fd = wal._fh.fileno()
        fsynced = self._count_fsyncs(monkeypatch)
        wal.close()
        assert fsynced == [fd]
        loaded, torn, problems = read_wal(path)
        assert [r["visit_id"] for r in loaded] == ["a"]
        assert not torn and problems == []

    def test_one_wal_fsync_per_commit_batch(self, tmp_path, monkeypatch):
        """Concurrent clients fill the consumer's batches; each batch is
        appended, fsync'd once, then acked. A per-record fsync would cost
        one fsync per visit instead."""
        dataset = run_study(workers=0, user_count=60, iterations=5,
                            vectors=STUDY["vectors"], seed=STUDY["seed"])
        stream = visits_from_dataset(dataset, seed=5)
        recorder = Recorder()
        service = FingerprintService(
            str(tmp_path / "svc"), STUDY["vectors"],
            config=ServiceConfig(queue_limit=len(stream)), recorder=recorder)
        fsynced = self._count_fsyncs(monkeypatch)

        async def client(share):
            for visit in share:
                await service.ingest(visit)

        async def go():
            await service.start()
            wal_fd = service.wal._fh.fileno()
            await asyncio.gather(*(client(stream[i::self.CLIENTS])
                                   for i in range(self.CLIENTS)))
            # counted while the WAL is still open, so its fd is unambiguous
            wal_fsyncs = fsynced.count(wal_fd)
            await service.stop()
            return wal_fsyncs

        wal_fsyncs = asyncio.run(go())
        batches = [e["size"] for e in recorder.events
                   if e["kind"] == "ingest.batch"]
        assert sum(batches) == service.counts["ingested"] == len(stream)
        assert wal_fsyncs == len(batches)
        assert len(batches) <= len(stream) // 8  # commits really grouped


class TestSnapshotStore:
    def test_roundtrip(self, tmp_path):
        store = SnapshotStore(str(tmp_path / "snap.json"))
        assert store.write({"x": 1}, 42)
        state, offset, problem = store.load()
        assert (state, offset, problem) == ({"x": 1}, 42, None)

    def test_missing_snapshot_means_full_replay(self, tmp_path):
        store = SnapshotStore(str(tmp_path / "snap.json"))
        assert store.load() == (None, 0, None)

    def test_torn_snapshot_is_quarantined(self, tmp_path):
        path = tmp_path / "snap.json"
        store = SnapshotStore(str(path))
        store.write({"x": 1}, 10)
        path.write_text(path.read_text()[:17])  # tear it
        state, offset, problem = store.load()
        assert state is None and offset == 0 and "unreadable" in problem
        assert not path.exists()
        assert (tmp_path / "snap.json.corrupt").exists()

    def test_foreign_payload_is_quarantined(self, tmp_path):
        path = tmp_path / "snap.json"
        path.write_text(json.dumps({"kind": "something.else"}))
        state, offset, problem = SnapshotStore(str(path)).load()
        assert state is None and "malformed" in problem
        assert (tmp_path / "snap.json.corrupt").exists()


class TestKillReplayDeterminism:
    """The three crash offsets, each replayed to byte-identical state."""

    def test_kill_mid_wal_record(self, visits, tmp_path, monkeypatch):
        """Offset 1 — injected ``torn_wal`` fault kills the service mid-
        append; the rerun repairs the tail, replays, re-ingests (dedup)
        and matches the uninterrupted run byte-for-byte."""
        reference = _reference_bytes(visits, tmp_path, snapshot_every=16)
        plan = FaultPlan(seed=1, faults=(
            Fault(kind="torn_wal", keys=(WAL_KEY,), times=1),))
        monkeypatch.setenv(ENV_VAR, plan.save(str(tmp_path / "plan.json")))
        victim_dir = str(tmp_path / "victim")
        victim = FingerprintService(victim_dir, STUDY["vectors"],
                                    config=ServiceConfig(snapshot_every=16))
        done = _run(victim, visits, expect_crash=True)
        assert done < len(visits)  # it really died mid-stream
        assert victim.crashed is not None
        monkeypatch.delenv(ENV_VAR)

        revived = FingerprintService(victim_dir, STUDY["vectors"],
                                     config=ServiceConfig(snapshot_every=16))
        _run(revived, visits)  # re-send everything; visit ids dedup
        assert revived.wal.torn_tail_repaired
        assert revived.state_bytes() == reference
        assert os.path.exists(os.path.join(victim_dir, "wal.jsonl.corrupt"))

    def test_kill_pre_snapshot_commit(self, visits, tmp_path, monkeypatch):
        """Offset 2 — every snapshot write is torn (``crashed_snapshot``
        with ``times=None``), so the directory holds a torn snapshot +
        a complete WAL. Recovery quarantines the snapshot and falls back
        to a full WAL replay — byte-identical."""
        reference = _reference_bytes(visits, tmp_path, snapshot_every=16)
        plan = FaultPlan(seed=2, faults=(
            Fault(kind="crashed_snapshot", keys=(SNAPSHOT_KEY,),
                  times=None),))
        monkeypatch.setenv(ENV_VAR, plan.save(str(tmp_path / "plan.json")))
        victim_dir = str(tmp_path / "victim2")
        victim = FingerprintService(victim_dir, STUDY["vectors"],
                                    config=ServiceConfig(snapshot_every=16))
        _run(victim, visits)
        assert victim.counts["snapshot_torn"] > 0
        assert victim.counts["snapshot_writes"] == 0
        monkeypatch.delenv(ENV_VAR)

        revived = FingerprintService(victim_dir, STUDY["vectors"])
        info = revived.recover()
        assert info["snapshot_problem"] is not None
        assert not info["resumed_from_snapshot"]
        assert info["replayed"] == len(visits)
        assert revived.state_bytes() == reference
        assert os.path.exists(os.path.join(victim_dir,
                                           "snapshot.json.corrupt"))

    def test_kill_post_snapshot_with_wal_tail(self, visits, tmp_path,
                                              monkeypatch):
        """Offset 3 — a good snapshot exists, the WAL runs past it, and
        the kill tears the final record. Recovery resumes *from the
        snapshot* (not offset 0), replays only the tail, and the rerun
        matches byte-for-byte."""
        reference = _reference_bytes(visits, tmp_path, snapshot_every=8)
        victim_dir = str(tmp_path / "victim3")
        victim = FingerprintService(victim_dir, STUDY["vectors"],
                                    config=ServiceConfig(snapshot_every=8))
        # phase 1: ingest fault-free past a snapshot boundary…
        first = visits[:20]

        async def go():
            await victim.start()
            for visit in first:
                await victim.ingest(visit)
            assert victim.counts["snapshot_writes"] >= 1
            # …then arm the torn-WAL fault and keep ingesting until dead
            plan = FaultPlan(seed=3, faults=(
                Fault(kind="torn_wal", keys=(WAL_KEY,), times=1),))
            monkeypatch.setenv(ENV_VAR,
                               plan.save(str(tmp_path / "plan3.json")))
            with pytest.raises(ServiceCrashed):
                for visit in visits[20:]:
                    await victim.ingest(visit)
            await victim.stop()
        asyncio.run(go())
        monkeypatch.delenv(ENV_VAR)

        revived = FingerprintService(victim_dir, STUDY["vectors"],
                                     config=ServiceConfig(snapshot_every=8))
        _run(revived, visits)
        assert revived.recovery["resumed_from_snapshot"]
        assert revived.recovery["wal_offset"] > 0
        assert revived.recovery["replayed"] < len(visits)
        assert revived.state_bytes() == reference


class TestRealSigkill:
    def test_sigkilled_cli_rerun_matches_uninterrupted_run(self, tmp_path):
        """The CI chaos scenario, end to end: SIGKILL the CLI mid-ingest
        (a real process, a real kill), rerun the same command, and the
        final state bytes equal an uninterrupted run's in a fresh
        directory."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..",
                                         "src") + os.pathsep \
            + env.get("PYTHONPATH", "")
        env.pop(ENV_VAR, None)

        def cli(directory, state_out, *extra):
            return [sys.executable, "-m", "repro.service",
                    "--dir", directory, "--users", "8", "--iterations", "4",
                    "--vectors", "dc", "--seed", "9", "--spoof", "0.2",
                    "--state-out", state_out, "--snapshot-every", "10",
                    *extra]

        clean_state = str(tmp_path / "clean-state.json")
        subprocess.run(cli(str(tmp_path / "clean"), clean_state),
                       env=env, check=True, capture_output=True, timeout=120)

        victim_dir = str(tmp_path / "victim")
        victim_state = str(tmp_path / "victim-state.json")
        proc = subprocess.Popen(
            cli(victim_dir, victim_state, "--pace", "0.05"),
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        wal = os.path.join(victim_dir, "wal.jsonl")
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:  # wait for some durable ingests
            if os.path.exists(wal) and os.path.getsize(wal) > 200:
                break
            time.sleep(0.02)
        else:
            proc.kill()
            pytest.fail("victim never started writing its WAL")
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)
        assert not os.path.exists(victim_state)  # it died before finishing

        rerun = subprocess.run(cli(victim_dir, victim_state),
                               env=env, check=True, capture_output=True,
                               timeout=120)
        summary = json.loads(rerun.stdout)
        assert summary["counts"]["duplicates"] > 0  # it really resumed
        with open(clean_state, "rb") as a, open(victim_state, "rb") as b:
            assert a.read() == b.read()
