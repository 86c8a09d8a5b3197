"""The seeded-reproducibility contract (EXPERIMENTS.md): same seed ->
bit-identical dataset; different seed -> different stack assignments.
"""
import pytest

from repro import RenderCache, StudyDataset, run_study
from repro.population.sampler import sample_population

FAST = dict(user_count=50, iterations=6, vectors=("dc", "fft"), workers=0)


def test_same_seed_identical_dataset():
    a = run_study(seed=2021, **FAST)
    b = run_study(seed=2021, **FAST)
    assert a == b


def test_different_seed_different_assignments():
    a = run_study(seed=2021, **FAST)
    b = run_study(seed=2022, **FAST)
    assert a.stack_keys() != b.stack_keys()


def test_shared_cache_does_not_change_results():
    shared = RenderCache()
    first = run_study(seed=2021, cache=shared, **FAST)
    second = run_study(seed=2021, cache=shared, **FAST)  # 100% warm
    assert first == second
    assert shared.stats()["hit_rate"] > 0.9


def test_evicting_cache_gives_same_dataset():
    """A cache smaller than the study's class count evicts entries before
    assembly; the series still come out whole and identical."""
    default = run_study(seed=2021, user_count=40, iterations=6,
                        vectors=("dc", "fft"), workers=0)
    small = run_study(seed=2021, user_count=40, iterations=6,
                      vectors=("dc", "fft"), workers=0,
                      cache=RenderCache(capacity=5))
    assert small == default
    assert all(efp is not None for series in small.series.values()
               for efps in series.values() for efp in efps)


def test_cache_stats_pinned():
    """One probe per class, one hit per grid item at assembly: the
    counters a 20x5 study leaves behind (300 grid items, 34 classes)."""
    study = dict(user_count=20, iterations=5, vectors=("dc", "fft", "hybrid"),
                 seed=13, workers=0)
    cache = RenderCache()
    run_study(cache=cache, **study)
    assert (cache.hits, cache.misses, len(cache)) == (300, 34, 34)
    run_study(cache=cache, **study)  # warm: 34 probe hits + 300 items
    assert (cache.hits, cache.misses) == (634, 34)
    disabled = RenderCache(disabled=True)
    run_study(cache=disabled, **study)  # one real render per grid item
    assert (disabled.hits, disabled.misses) == (0, 300)


def test_worker_count_does_not_change_results():
    serial = run_study(seed=2021, **FAST)
    pooled = run_study(seed=2021, user_count=50, iterations=6,
                       vectors=("dc", "fft"), workers=2)
    assert serial == pooled


def test_population_sampler_is_deterministic():
    a = sample_population(40, seed=5)
    b = sample_population(40, seed=5)
    assert a == b
    c = sample_population(40, seed=6)
    assert [d.stack for d in a] != [d.stack for d in c]


def test_vector_subset_keeps_other_streams():
    """Dropping the analyser-free DC vector must not shift the jitter
    streams of the analyser vectors."""
    both = run_study(seed=3, user_count=10, iterations=5,
                     vectors=("dc", "fft"), workers=0)
    only_fft = run_study(seed=3, user_count=10, iterations=5,
                         vectors=("fft",), workers=0)
    assert both.series["fft"] == only_fft.series["fft"]


def test_dataset_round_trips_through_json(tmp_path):
    dataset = run_study(seed=11, user_count=5, iterations=3,
                        vectors=("dc",), workers=0)
    path = str(tmp_path / "ds.json")
    dataset.save(path)
    assert StudyDataset.load(path) == dataset


def test_unknown_vector_rejected_before_sampling():
    with pytest.raises(KeyError):
        run_study(user_count=5, vectors=("dc", "nope"), workers=0)


def test_invalid_user_count():
    with pytest.raises(ValueError):
        run_study(user_count=0, workers=0)


@pytest.mark.parametrize("iterations", [0, -3])
def test_invalid_iterations_rejected_up_front(iterations):
    with pytest.raises(ValueError, match="iterations"):
        run_study(user_count=5, iterations=iterations, workers=0)


def test_empty_vectors_rejected_up_front():
    with pytest.raises(ValueError, match="vectors"):
        run_study(user_count=5, vectors=(), workers=0)
