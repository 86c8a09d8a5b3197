"""The benchmark's own tests: a tiny-scale smoke of every workload, and
proof that corrupted outputs trip the correctness checks.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""
from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro import RenderCache, run_study  # noqa: E402
from repro.population import StudyDataset  # noqa: E402
from repro.service import ServiceConfig  # noqa: E402
from repro.vectors import FULL_BATTERY  # noqa: E402

import layers  # noqa: E402
import run  # noqa: E402
import servicebench  # noqa: E402
import workloads  # noqa: E402

TINY = workloads.SCALES["tiny"]


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def work_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("perfbench"))


def _run(work_dir, workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "0.2", "--trace", str(trace),
         "--scale", "tiny", "--work-dir", work_dir],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_prints_every_metric_with_its_unit(work_dir, workload, trace):
    result = _run(work_dir, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    section = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in _benchmark_json()[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], float)


def test_traced_runs_build_one_valid_chrome_trace(work_dir):
    for workload in workloads.WORKLOADS:
        _run(work_dir, workload, 1)
    with open(os.path.join(work_dir, "out", "trace.json"),
              encoding="utf-8") as fh:
        trace = json.load(fh)
    from repro.obs.trace import validate_trace
    assert validate_trace(trace) == []
    roots = [e["args"]["workload"] for e in trace["traceEvents"]
             if e["ph"] == "X" and e["name"] == "pass"]
    assert sorted(roots) == sorted(workloads.WORKLOADS)


def test_benchmark_json_matches_the_code():
    doc = _benchmark_json()
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} \
        == layers.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.fixture(scope="module")
def tiny_dataset():
    return run_study(TINY["users"], TINY["iterations"], vectors=FULL_BATTERY,
                     seed=5, cache=RenderCache())


def _flip(efp: str) -> str:
    return ("1" if efp[0] == "0" else "0") + efp[1:]


def test_flipped_efp_trips_the_dataset_checks(tmp_path, tiny_dataset):
    bench = workloads.PaperWorkload(5, TINY, str(tmp_path))
    path = str(tmp_path / "dataset.json")
    tiny_dataset.save(path)
    clean = bench.dataset_checks(tiny_dataset, StudyDataset.load(path), [],
                                 workloads._read(path))
    assert all(clean.values())

    corrupted = StudyDataset.load(path)
    user = corrupted.user_ids()[0]
    corrupted.series["dc"][user][1] = _flip(corrupted.series["dc"][user][1])
    corrupted.save(path)
    checks = bench.dataset_checks(corrupted, tiny_dataset, [],
                                  workloads._read(path))
    assert not checks["dc_bit_stable"]
    assert not checks["dataset_matches_reference"]
    assert not checks["dataset_round_trips"]


def test_report_problems_trip_the_dataset_checks(tmp_path, tiny_dataset):
    bench = workloads.PaperWorkload(5, TINY, str(tmp_path))
    path = str(tmp_path / "dataset.json")
    tiny_dataset.save(path)
    checks = bench.dataset_checks(tiny_dataset, tiny_dataset,
                                  ["tables: bad"], workloads._read(path))
    assert not checks["reports_valid"]


@pytest.fixture()
def served(tmp_path):
    dataset = run_study(TINY["service_users"], TINY["service_iterations"],
                        vectors=servicebench.SERVICE_VECTORS, seed=5,
                        cache=RenderCache())
    visits = servicebench.visit_stream(dataset, 5, TINY["service_users"],
                                       TINY["service_iterations"])
    directory = str(tmp_path / "service")
    service, offered = servicebench.run_stream(directory, visits,
                                               TINY["rate"])
    assert offered.failed == 0
    return directory, service, visits


def test_open_config_refuses_nothing_when_the_queue_backs_up(tmp_path):
    """Offered faster than the service can drain them, the measured
    stream's service queues every visit, where the default admission
    control sheds."""
    dataset = run_study(150, 2, vectors=servicebench.SERVICE_VECTORS,
                        seed=5, cache=RenderCache())
    visits = servicebench.visit_stream(dataset, 5, 150, 2)
    assert len(visits) > ServiceConfig().queue_limit
    _, default = servicebench.run_stream(str(tmp_path / "default"), visits,
                                         1e6)
    assert default.shed
    _, opened = servicebench.run_stream(
        str(tmp_path / "open"), visits, 1e6, config=servicebench.open_config(
            len(visits)))
    assert opened.failed == 0


def test_clean_service_passes_both_identity_checks(served):
    directory, service, visits = served
    assert servicebench.incremental_matches_batch(service, visits)
    _, replayed, matches = servicebench.replay(directory,
                                               service.state_bytes(), 1)
    assert matches and replayed == len(visits)


def test_altered_wal_record_trips_the_replay_check(served):
    directory, service, _ = served
    wal = service.wal_path
    with open(wal, encoding="utf-8") as fh:
        lines = fh.readlines()
    record = json.loads(lines[-1])
    record["efps"]["fft"] = _flip(record["efps"]["fft"])
    lines[-1] = json.dumps(record, sort_keys=True) + "\n"
    with open(wal, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    _, _, matches = servicebench.replay(directory, service.state_bytes(), 1)
    assert not matches


def test_diverging_collation_trips_the_incremental_check(served):
    """A stream that links two users the service keeps apart must not
    pass for the one the service saw."""
    _, service, visits = served
    identity = service.state.collators["dc"].user_component_ids()
    first = visits[0]
    other = next(v for v in visits
                 if identity[v.user] != identity[first.user])
    altered = [dataclasses.replace(first, efps=dict(other.efps))] \
        + list(visits[1:])
    assert not servicebench.incremental_matches_batch(service, altered)


def test_self_times_cover_the_root_exactly():
    spans = [
        {"id": 0, "name": "pass", "parent": None, "duration_s": 10.0},
        {"id": 1, "name": "population.run_study", "parent": 0,
         "duration_s": 6.0},
        {"id": 2, "name": "render", "parent": 1, "duration_s": 4.0},
        {"id": 3, "name": "probe", "parent": 2, "duration_s": 0.5},
        {"id": 4, "name": "service.open_loop", "parent": 0,
         "duration_s": 3.0},
    ]
    selves = layers.self_times(spans)
    assert selves["webaudio"] == pytest.approx(3.5)
    assert selves["population"] == pytest.approx(2.5)
    assert selves["service"] == pytest.approx(3.0)
    assert selves["bench"] == pytest.approx(1.0)
    assert sum(selves.values()) == pytest.approx(10.0)


def test_quantile_is_nearest_rank():
    values = list(range(1, 101))
    assert servicebench.quantile(values, 0.5) == 50
    assert servicebench.quantile(values, 0.99) == 99
    assert servicebench.quantile([], 0.99) == 0.0


def test_run_fails_without_the_program(tmp_path):
    """With only the benchmark present (no ``src/``), the run exits
    non-zero and prints no result."""
    import shutil
    bench = tmp_path / "perfbench"
    shutil.copytree(HERE, bench,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
