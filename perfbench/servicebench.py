"""Open-loop load on the matching service, the max-rate ladder, and cold
WAL replay.

Everything here runs in one process on one asyncio event loop. Requests
are offered on a fixed schedule (visit ``i`` is due at ``start + i /
rate``) whether or not earlier ones have completed, and every latency is
measured from the request's due time, so a stall also charges the
requests queued behind it. Each visit is offered with one ``lookup`` of
the same user scheduled beside it, so reads run beside writes.
"""
from __future__ import annotations

import asyncio
import math
import os
import shutil
import statistics
import time

from repro.analysis import collate_vector
from repro.obs import NULL_RECORDER
from repro.population import StudyDataset
from repro.service import (FingerprintService, IngestShed, ServiceConfig,
                           visits_from_dataset)
from repro.service.wal import SNAPSHOT_NAME

#: the vectors the service serves in every workload
SERVICE_VECTORS = ("dc", "fft", "hybrid")
SPOOF_FRACTION = 0.1
BOT_FRACTION = 0.05

#: ingest latency limit of the max-rate ladder (on p99 and on the drain
#: after the last due time)
LATENCY_LIMIT_S = 0.100
#: the fixed geometric ladder of offered rates (visits/s); its 5 % step
#: is finer than the bound on ``max_rate_visits_per_s``
LADDER = tuple(round(500.0 * 1.05 ** k, 1) for k in range(76))
#: ladder rungs walked per pass (see ``RateSearch``)
STAIR_STEPS = 4
#: a shed, failed or raising request counts as missing any latency limit:
#: it is recorded at the service's own ingest deadline
MISS_S = ServiceConfig().ingest_deadline_s
#: cold replays timed per pass
RECOVER_REPEATS = 9
#: the deadlines of the measured stream (see ``open_config``)
OPEN_DEADLINE_S = 60.0
_LEAD_S = 0.005


def visit_stream(dataset, seed: int, users: int, iterations: int):
    """The service's visit stream: the first ``iterations`` visits of the
    first ``users`` users of ``dataset`` on ``SERVICE_VECTORS``,
    iteration-major (every user's first visit, then every user's second,
    ...), with spoofers and bots mixed in."""
    people = dataset.users[:users]
    iterations = min(iterations, dataset.iterations)
    series = {v: {u["id"]: dataset.series[v][u["id"]][:iterations]
                  for u in people}
              for v in SERVICE_VECTORS}
    subset = StudyDataset(seed=dataset.seed, user_count=len(people),
                          iterations=iterations, vectors=SERVICE_VECTORS,
                          users=people, series=series)
    return visits_from_dataset(subset, seed=seed, interleave=True,
                               spoof_fraction=SPOOF_FRACTION,
                               bot_fraction=BOT_FRACTION)


#: visits per latency window; a window's p99 has ten samples beyond it
WINDOW = 1000


def windows(values) -> list[list]:
    """``values`` (in due-time order) cut into equal consecutive windows
    of about ``WINDOW`` samples; one window when there are fewer."""
    count = max(1, len(values) // WINDOW)
    size = len(values) // count
    return [values[i * size:(i + 1) * size] for i in range(count)]


def quantile(values, q: float) -> float:
    """Nearest-rank quantile (``q`` in (0, 1]); 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    return ordered[rank - 1]


class Offered:
    """What one open-loop offering measured; latencies are in due-time
    order."""

    def __init__(self):
        self.ingest_s: list[float] = []
        self.lookup_s: list[float] = []
        self.lag_s: list[float] = []
        self.shed: list = []          # visits refused (re-offered untimed)
        self.degraded = 0
        self.errors: list[str] = []
        self.attempted = 0
        self.drain_s = 0.0            # last completion - last due time

    @property
    def failed(self) -> int:
        return len(self.shed) + self.degraded + len(self.errors)


async def offer(service, visits, rate: float) -> Offered:
    """Offer ``visits`` open-loop at ``rate`` visits/s, one lookup beside
    each, and wait for every answer."""
    clock = time.perf_counter
    out = Offered()
    last_done = [0.0]

    async def ingest(index, due):
        try:
            result = await service.ingest(visits[index])
        except Exception as exc:  # a raising request is a failed operation
            out.errors.append(f"ingest: {exc!r}")
            return
        done = clock()
        last_done[0] = max(last_done[0], done)
        if isinstance(result, IngestShed):
            out.shed.append(visits[index])
        else:
            out.ingest_s[index] = done - due

    async def lookup(index, due):
        try:
            result = await service.lookup(visits[index].user)
        except Exception as exc:  # a raising request is a failed operation
            out.errors.append(f"lookup: {exc!r}")
            return
        out.lookup_s[index] = clock() - due
        if result.degraded:
            out.degraded += 1

    tasks = []
    start = clock() + _LEAD_S
    count = len(visits)
    out.ingest_s = [MISS_S] * count
    out.lookup_s = [MISS_S] * count
    sent = 0
    while sent < count:
        now = clock()
        while sent < count and start + sent / rate <= now:
            due = start + sent / rate
            out.lag_s.append(now - due)
            tasks.append(asyncio.create_task(ingest(sent, due)))
            tasks.append(asyncio.create_task(lookup(sent, due)))
            sent += 1
        if sent < count:
            await asyncio.sleep(start + sent / rate - clock())
    await asyncio.gather(*tasks)
    out.attempted = 2 * count
    last_due = start + (count - 1) / rate
    out.drain_s = max(0.0, last_done[0] - last_due)
    return out


async def _reoffer(service, visits) -> None:
    """Re-send shed visits until accepted (untimed), so the final state
    holds the whole stream and the replay checks see all of it."""
    for visit in visits:
        while isinstance(await service.ingest(visit), IngestShed):
            await asyncio.sleep(0.001)


def stream_dataset(visits) -> StudyDataset:
    """The visit stream as the service saw it, shaped as a dataset, so
    the batch collation can be run on exactly the same eFP series."""
    users: list[dict] = []
    series = {v: {} for v in SERVICE_VECTORS}
    for visit in visits:
        if visit.user not in series[SERVICE_VECTORS[0]]:
            users.append({"id": visit.user})
            for vector in SERVICE_VECTORS:
                series[vector][visit.user] = []
        for vector in SERVICE_VECTORS:
            series[vector][visit.user].append(visit.efps[vector])
    return StudyDataset(seed=0, user_count=len(users),
                        iterations=len(visits) // max(1, len(users)),
                        vectors=SERVICE_VECTORS, users=users, series=series)


def incremental_matches_batch(service, visits) -> bool:
    """The service's incremental collation assigns every user the same
    identity as ``collate_vector`` on the same stream."""
    dataset = stream_dataset(visits)
    for vector in SERVICE_VECTORS:
        batch = collate_vector(dataset, vector).user_component_ids()
        want = {user: int(component) for user, component in batch.items()}
        if service.state.collators[vector].user_component_ids() != want:
            return False
    return True


def replay(directory: str, live_bytes: bytes, repeats: int = RECOVER_REPEATS):
    """Delete the snapshot and time ``repeats`` cold full-WAL replays.

    Returns ``(seconds per replay, visits replayed, matches)`` where
    ``matches`` says every replay rebuilt the live state byte for byte
    and read the WAL without problems."""
    snapshot = os.path.join(directory, SNAPSHOT_NAME)
    if os.path.exists(snapshot):
        os.unlink(snapshot)
    seconds, replayed, matches = [], 0, True
    for _ in range(repeats):
        fresh = FingerprintService(directory, SERVICE_VECTORS)
        start = time.perf_counter()
        info = fresh.recover()
        seconds.append(time.perf_counter() - start)
        replayed = info["replayed"]
        matches = matches and not info["wal_problems"] \
            and fresh.state_bytes() == live_bytes
    return seconds, replayed, matches


def open_config(visits: int) -> ServiceConfig:
    """The measured stream's service: a queue that holds the whole stream
    and deadlines no stall of a shared host reaches, so no operation is
    refused and every stall shows as latency. The ladder probes keep the
    default admission control."""
    return ServiceConfig(queue_limit=visits,
                         ingest_deadline_s=OPEN_DEADLINE_S,
                         lookup_deadline_s=OPEN_DEADLINE_S)


def run_stream(directory: str, visits, rate: float, recorder=NULL_RECORDER,
               config: ServiceConfig | None = None):
    """Start a fresh service in ``directory``, offer ``visits`` at
    ``rate``, re-offer any shed visit, stop. Returns (service, offered)."""
    shutil.rmtree(directory, ignore_errors=True)
    service = FingerprintService(directory, SERVICE_VECTORS, config=config,
                                 recorder=recorder)

    async def go():
        await service.start()
        try:
            offered = await offer(service, visits, rate)
            await _reoffer(service, offered.shed)
        finally:
            await service.stop()
        return offered

    return service, asyncio.run(go())


def probe(directory: str, visits, rate: float) -> bool:
    """One ladder rung: no shed or error, ingest p99 under the limit, and
    the backlog drained within the limit after the last due time."""
    _, offered = run_stream(directory, visits, rate)
    return (not offered.shed and not offered.errors
            and quantile(offered.ingest_s, 0.99) <= LATENCY_LIMIT_S
            and offered.drain_s <= LATENCY_LIMIT_S)


class RateSearch:
    """The max-rate ladder search, carried across the passes of a run.

    The first ``run`` binary-searches the highest passing rung. Every
    ``run`` then walks ``STAIR_STEPS`` rungs from there: one up after a
    pass, one down after a failure, so the walk gathers around the rung
    where the service starts to fail. ``estimate`` is the median (low)
    walked rung: with the walk alternating between the last passing rung
    and the first failing one, that is the highest rung that passes at
    least as often as it fails. One noisy rung therefore cannot move the
    result by more than a rung.
    """

    def __init__(self, directory: str, visits):
        self.directory = directory
        self.visits = visits
        self.rung: int | None = None
        self.walked: list[int] = []

    def _passes(self, rung: int) -> bool:
        """A rung passes when either of two probes passes: a stall of the
        host only ever adds failures, so one failed probe is not enough
        to mark the service down."""
        return any(probe(self.directory, self.visits, LADDER[rung])
                   for _ in range(2))

    def run(self, steps: int = STAIR_STEPS) -> None:
        if self.rung is None:
            low, high = 0, len(LADDER)
            while high - low > 1:
                mid = (low + high) // 2
                if self._passes(mid):
                    low = mid
                else:
                    high = mid
            self.rung = low
        for _ in range(steps):
            self.walked.append(self.rung)
            if self._passes(self.rung):
                self.rung = min(self.rung + 1, len(LADDER) - 1)
            else:
                self.rung = max(self.rung - 1, 0)

    def estimate(self) -> float:
        """Visits/s of the median walked rung (0.0 before any walk)."""
        if not self.walked:
            return 0.0
        return LADDER[statistics.median_low(self.walked)]
