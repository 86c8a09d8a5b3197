"""The service's robustness envelope: typed load shedding under
backpressure, monotonic deadlines, circuit-breaker degradation serving
stale-snapshot answers, front-door validation, and the satellite pin
that wall-clock steps can never fire deadlines early."""
import asyncio
import glob
import os
import time

import pytest

from repro import FaultPlan, Recorder, run_study
from repro.resilience import Fault
from repro.resilience.faults import ENV_VAR
from repro.service import (SHED_DEADLINE, SHED_QUEUE_FULL, SHED_STOPPING,
                           CircuitBreaker, FingerprintService, IngestAccepted,
                           IngestShed, MalformedVisitError, ServiceConfig,
                           ServiceStopped, UnknownVectorError, Visit,
                           visits_from_dataset)

STUDY = dict(user_count=8, iterations=4, vectors=("dc",), seed=31)


@pytest.fixture(autouse=True)
def _no_leaked_fault_plan(monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)


@pytest.fixture(scope="module")
def visits():
    dataset = run_study(workers=0, **STUDY)
    return visits_from_dataset(dataset, seed=5)


class FakeClock:
    """A controllable monotonic clock: advances by ``step`` per call,
    plus whatever the test adds to ``t`` directly."""

    def __init__(self, step=0.0):
        self.t = 0.0
        self.step = step

    def __call__(self):
        self.t += self.step
        return self.t


def _visit(visit_id="v1", user="u1", vector="dc", efp="a" * 32, **over):
    base = dict(visit_id=visit_id, user=user, os="linux", browser="chrome",
                efps={vector: efp})
    base.update(over)
    return base


class TestFrontDoorValidation:
    def _service(self, tmp_path):
        return FingerprintService(str(tmp_path / "svc"), ("dc",))

    @pytest.mark.parametrize("field", ["visit_id", "user", "os", "browser"])
    def test_missing_or_empty_field_named(self, tmp_path, field):
        service = self._service(tmp_path)
        with pytest.raises(MalformedVisitError) as err:
            service._validate(_visit(**{field: ""}))
        assert err.value.field == field

    def test_unknown_vector_reuses_registry_error(self, tmp_path):
        """The service front door and ``run_study`` speak the same typed
        error for the same mistake."""
        service = self._service(tmp_path)
        with pytest.raises(UnknownVectorError):
            service._validate(_visit(efps={"no-such-vector": "a" * 32}))

    def test_registered_but_unserved_vector_is_malformed(self, tmp_path):
        service = self._service(tmp_path)
        with pytest.raises(MalformedVisitError) as err:
            service._validate(_visit(efps={"fft": "a" * 32}))
        assert err.value.field == "efps"

    @pytest.mark.parametrize("bad", ["", "xyz", "A" * 32, "a" * 31, 7, None])
    def test_non_hex_efp_rejected(self, tmp_path, bad):
        service = self._service(tmp_path)
        with pytest.raises(MalformedVisitError) as err:
            service._validate(_visit(efps={"dc": bad}))
        assert "hex" in err.value.reason

    def test_empty_efps_rejected(self, tmp_path):
        service = self._service(tmp_path)
        with pytest.raises(MalformedVisitError):
            service._validate(_visit(efps={}))

    def test_unknown_service_vector_rejected_at_construction(self, tmp_path):
        with pytest.raises(UnknownVectorError):
            FingerprintService(str(tmp_path / "svc"), ("dc", "bogus"))

    def test_requests_before_start_and_after_stop_raise(self, tmp_path):
        service = self._service(tmp_path)

        async def go():
            with pytest.raises(ServiceStopped):
                await service.ingest(_visit())
            with pytest.raises(ServiceStopped):
                await service.lookup("u1")
            await service.start()
            await service.stop()
            with pytest.raises(ServiceStopped):
                await service.ingest(_visit())
        asyncio.run(go())


class TestIngestAndDetection:
    def test_stream_ingest_answers_and_detects(self, tmp_path):
        dataset = run_study(workers=0, **STUDY)
        stream = visits_from_dataset(dataset, seed=2, spoof_fraction=0.3,
                                     bot_fraction=0.2)
        service = FingerprintService(str(tmp_path / "svc"), STUDY["vectors"])

        async def go():
            await service.start()
            results = [await service.ingest(v) for v in stream]
            await service.stop()
            return results
        results = asyncio.run(go())
        assert all(isinstance(r, IngestAccepted) for r in results)
        assert all(r.identities and r.anonymity_sets for r in results)
        detections = [d for r in results for d in r.detections]
        assert "spoof_inconsistency" in detections
        assert "bot_signature" in detections
        assert service.state.detections["spoof_inconsistency"] > 0
        assert service.state.detections["bot_signature"] > 0

    def test_duplicate_visit_acks_without_reapplying(self, tmp_path, visits):
        service = FingerprintService(str(tmp_path / "svc"), STUDY["vectors"])

        async def go():
            await service.start()
            first = await service.ingest(visits[0])
            applied = service.state.applied
            again = await service.ingest(visits[0])
            await service.stop()
            return first, again, applied
        first, again, applied = asyncio.run(go())
        assert not first.duplicate and again.duplicate
        assert again.identities == first.identities
        assert service.state.applied == applied == 1
        assert service.counts["duplicates"] == 1

    def test_lookup_answers_identity_and_anonymity(self, tmp_path, visits):
        service = FingerprintService(str(tmp_path / "svc"), STUDY["vectors"])

        async def go():
            await service.start()
            for visit in visits:
                await service.ingest(visit)
            hit = await service.lookup(visits[0].user)
            miss = await service.lookup("never-seen")
            await service.stop()
            return hit, miss
        hit, miss = asyncio.run(go())
        assert hit.found and not hit.degraded
        assert hit.identities["dc"] \
            == service.state.collators["dc"].identity(visits[0].user)
        assert hit.anonymity_sets["dc"] >= 1
        assert not miss.found


class TestBackpressure:
    def test_queue_full_sheds_typed_at_front_door(self, tmp_path, visits,
                                                  monkeypatch):
        """With the consumer stalled and a 2-slot queue, the overflow
        visit is refused synchronously with ``queue_full`` — typed,
        unlogged, never silently dropped."""
        monkeypatch.setattr("repro.resilience.faults.slow_consumer",
                            lambda: 0.2)
        service = FingerprintService(
            str(tmp_path / "svc"), STUDY["vectors"],
            config=ServiceConfig(queue_limit=2, batch_max=1))

        async def go():
            await service.start()
            # the four tasks run in creation order on the next loop tick:
            # the first two fill the 2-slot queue, the last two find it
            # full before the (stalled) consumer frees anything
            tasks = [asyncio.create_task(service.ingest(v))
                     for v in visits[:4]]
            results = await asyncio.gather(*tasks)
            await service.stop()
            return results
        results = asyncio.run(go())
        assert [isinstance(r, IngestAccepted) for r in results] \
            == [True, True, False, False]
        assert all(r.reason == SHED_QUEUE_FULL for r in results[2:])
        assert service.counts["shed_queue_full"] == 2
        # the shed visits never reached the WAL
        assert visits[2].visit_id not in service.state.seen
        assert visits[3].visit_id not in service.state.seen

    def test_expired_queue_entries_shed_with_deadline_reason(self, tmp_path,
                                                             visits,
                                                             monkeypatch):
        """A visit whose monotonic deadline passes while it waits in the
        queue is answered ``deadline_exceeded`` and is neither logged
        nor applied."""
        monkeypatch.setattr("repro.resilience.faults.slow_consumer",
                            lambda: 0.05)
        clock = FakeClock()
        service = FingerprintService(
            str(tmp_path / "svc"), STUDY["vectors"],
            config=ServiceConfig(batch_max=8, ingest_deadline_s=2.0),
            clock=clock)

        async def go():
            await service.start()
            task = asyncio.create_task(service.ingest(visits[0]))
            await asyncio.sleep(0)       # enqueued; consumer stalling
            clock.t += 10.0              # its deadline sails past
            result = await task
            await service.stop()
            return result
        result = asyncio.run(go())
        assert isinstance(result, IngestShed)
        assert result.reason == SHED_DEADLINE
        assert service.counts["shed_deadline"] == 1
        assert service.state.applied == 0

    def test_ingest_during_stop_sheds_stopping(self, tmp_path, visits,
                                               monkeypatch):
        monkeypatch.setattr("repro.resilience.faults.slow_consumer",
                            lambda: 0.1)
        service = FingerprintService(str(tmp_path / "svc"), STUDY["vectors"])

        async def go():
            await service.start()
            await service.ingest(visits[0])
            stopper = asyncio.create_task(service.stop())
            await asyncio.sleep(0.02)  # stop() is draining the sentinel
            late = await service.ingest(visits[1])
            await stopper
            return late
        late = asyncio.run(go())
        assert isinstance(late, IngestShed)
        assert late.reason == SHED_STOPPING

    def test_slow_consumer_fault_plan_drives_backpressure(self, tmp_path,
                                                          visits,
                                                          monkeypatch):
        """The same $REPRO_FAULTS plan machinery the render pipeline uses
        stalls the service consumer (seed-deterministic, ledger-counted)."""
        plan = FaultPlan(seed=4, faults=(
            Fault(kind="slow_consumer", keys=("consumer",), times=2,
                  seconds=0.05),))
        monkeypatch.setenv(ENV_VAR, plan.save(str(tmp_path / "plan.json")))
        service = FingerprintService(str(tmp_path / "svc"), STUDY["vectors"])

        async def go():
            await service.start()
            t0 = time.monotonic()
            for visit in visits[:3]:
                await service.ingest(visit)
            stalled = time.monotonic() - t0
            await service.stop()
            return stalled
        stalled = asyncio.run(go())
        assert stalled >= 0.05  # the injected stall really happened
        # the ledger capped it at `times` occurrences
        assert len(glob.glob(os.path.join(
            str(tmp_path), "plan.json.ledger", "*"))) == 2


class TestCircuitBreaker:
    def _miss_driven_service(self, tmp_path, clock):
        return FingerprintService(
            str(tmp_path / "svc"), STUDY["vectors"],
            config=ServiceConfig(breaker_window=8, breaker_min_samples=4,
                                 breaker_threshold=0.5,
                                 breaker_cooldown_s=5.0,
                                 snapshot_every=4),
            clock=clock)

    def test_unit_transitions(self):
        clock = FakeClock()
        breaker = CircuitBreaker(window=4, min_samples=2, threshold=0.5,
                                 cooldown_s=10.0, clock=clock)
        assert breaker.allow_live()
        breaker.record(True)
        assert breaker.state == breaker.CLOSED  # below min_samples
        breaker.record(True)
        assert breaker.state == breaker.OPEN and breaker.trips == 1
        assert not breaker.allow_live()         # cooling down
        clock.t += 11.0
        assert breaker.allow_live()             # the half-open probe
        assert breaker.state == breaker.HALF_OPEN
        assert not breaker.allow_live()         # only one probe at a time
        breaker.record(False)
        assert breaker.state == breaker.CLOSED

    def test_probe_miss_reopens(self):
        clock = FakeClock()
        breaker = CircuitBreaker(window=4, min_samples=2, threshold=0.5,
                                 cooldown_s=10.0, clock=clock)
        breaker.record(True)
        breaker.record(True)
        clock.t += 11.0
        assert breaker.allow_live()
        breaker.record(True)                    # the probe missed too
        assert breaker.state == breaker.OPEN and breaker.trips == 2

    def test_sustained_misses_degrade_then_recover(self, tmp_path, visits):
        """The integration arc: slow lookups trip the breaker; open-state
        lookups are served from the last snapshot flagged
        ``degraded=True`` (answered, not errored); after cooldown the
        half-open probe closes it and answers go live again."""
        clock = FakeClock()
        service = self._miss_driven_service(tmp_path, clock)
        user = visits[0].user

        async def go():
            await service.start()
            for visit in visits:
                await service.ingest(visit)
            assert service.counts["snapshot_writes"] >= 1

            clock.step = 1.0  # every live lookup now blows its deadline
            slow = [await service.lookup(user) for _ in range(4)]
            assert all(r.deadline_missed and r.degraded for r in slow)
            assert service.breaker.state == service.breaker.OPEN

            clock.step = 0.0  # latency recovers, but the breaker is open
            degraded = await service.lookup(user)
            assert degraded.degraded and not degraded.deadline_missed
            assert degraded.found
            assert degraded.identities["dc"] \
                == service.state.collators["dc"].identity(user)

            clock.t += 10.0   # cooldown elapses: next lookup is the probe
            probe = await service.lookup(user)
            assert not probe.degraded
            assert service.breaker.state == service.breaker.CLOSED
            live = await service.lookup(user)
            assert not live.degraded
            await service.stop()
        asyncio.run(go())
        assert service.counts["lookup_deadline_misses"] == 4
        assert service.counts["lookups_degraded"] == 1
        assert service.breaker.trips == 1

    def test_degraded_staleness_is_reported(self, tmp_path, visits):
        """Visits applied after the last snapshot show up as
        ``stale_by_visits`` on degraded answers."""
        clock = FakeClock()
        service = FingerprintService(
            str(tmp_path / "svc"), STUDY["vectors"],
            config=ServiceConfig(breaker_min_samples=2, breaker_window=4,
                                 breaker_cooldown_s=100.0,
                                 snapshot_every=10 ** 6),
            clock=clock)

        async def go():
            await service.start()
            for visit in visits[:6]:
                await service.ingest(visit)
            clock.step = 1.0
            for _ in range(2):
                await service.lookup(visits[0].user)
            clock.step = 0.0
            degraded = await service.lookup(visits[0].user)
            await service.stop()
            return degraded
        degraded = asyncio.run(go())
        assert degraded.degraded
        # no snapshot ever written: the stale view is recovery-time (empty
        # dir => zero applied), so staleness equals everything since then
        assert degraded.stale_by_visits == 6
        assert not degraded.found


class TestMonotonicClockDiscipline:
    def test_wall_clock_step_cannot_fire_deadlines_early(self, tmp_path,
                                                         visits,
                                                         monkeypatch):
        """Satellite pin: step the *wall* clock wildly (NTP jump, DST,
        leap smear) during a run — deadlines, the breaker, and shedding
        are all driven by ``time.monotonic`` and must not notice."""
        jump = {"n": 0}
        real_time = time.time

        def stepping_wall_clock():
            jump["n"] += 1
            return real_time() + (10 ** 6 if jump["n"] % 2 else -(10 ** 6))
        monkeypatch.setattr(time, "time", stepping_wall_clock)

        service = FingerprintService(str(tmp_path / "svc"), STUDY["vectors"],
                                     recorder=Recorder())

        async def go():
            await service.start()
            for visit in visits:
                await service.ingest(visit)
            results = [await service.lookup(v.user) for v in visits[:5]]
            await service.stop()
            return results
        results = asyncio.run(go())
        assert all(not r.degraded and not r.deadline_missed for r in results)
        assert service.counts["shed_deadline"] == 0
        assert service.counts["lookup_deadline_misses"] == 0
        assert service.breaker.trips == 0

    def test_no_wall_clock_in_deadline_sources(self):
        """Tripwire: nothing under repro.resilience or repro.service may
        call ``time.time()`` — every deadline/backoff instant must come
        from the monotonic clock. (The obs layer legitimately stamps
        events with wall time.)"""
        root = os.path.join(os.path.dirname(__file__), "..", "src", "repro")
        offenders = []
        for package in ("resilience", "service"):
            for path in glob.glob(os.path.join(root, package, "*.py")):
                with open(path, encoding="utf-8") as fh:
                    if "time.time(" in fh.read():
                        offenders.append(os.path.basename(path))
        assert offenders == []


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"queue_limit": 0}, {"batch_max": -1}, {"snapshot_every": 0}, {"ingest_deadline_s": 0.0},
        {"lookup_deadline_s": -1.0}, {"breaker_cooldown_s": 0.0},
        {"breaker_threshold": 0.0}, {"breaker_threshold": 1.5},
        {"breaker_window": 0}, {"breaker_min_samples": 0},
    ])
    def test_bad_config_rejected_by_name(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            ServiceConfig(**kwargs)

    def test_vectors_must_be_nonempty_and_unique(self, tmp_path):
        with pytest.raises(ValueError):
            FingerprintService(str(tmp_path / "a"), ())
        with pytest.raises(ValueError):
            FingerprintService(str(tmp_path / "b"), ("dc", "dc"))
