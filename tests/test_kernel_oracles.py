"""Array kernels of the pipeline tail, pinned to the scalar loops they
replaced.

``StudyDataset.intern``, ``series_edges``, ``match_score`` and
``pick_weighted`` used to be per-eFP, per-user and per-call Python loops.
The loops are kept here as oracles, and every rewritten kernel must
reproduce them exactly (same ids, same edge order, same scores, same
picks from the same rng stream), because datasets, reports and cache
keys are byte-pinned downstream.

Grids come from ``hypothesis`` (derandomized, so the suite stays
deterministic) with explicit examples for the corner cases: no users,
one user, one column, and rows that are all equal.
"""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import StudyDataset, run_study
from repro.analysis.collation import UnionFind, series_edges
from repro.analysis.tables import MATCH_SPLITS, match_score
from repro.platform import browsers, canvas_stack, font_stack
from repro.platform.browsers import pick_weighted
from repro.population.sampler import sample_population

SETTINGS = settings(derandomize=True, database=None, deadline=None,
                    max_examples=150)


# -- the replaced loops (oracles) -------------------------------------------

def intern_loop(dataset, vector):
    table = {}
    user_ids = dataset.user_ids()
    codes = np.empty((len(user_ids), dataset.iterations), dtype=np.int64)
    series = dataset.series[vector]
    for row, uid in enumerate(user_ids):
        for col, efp in enumerate(series[uid]):
            code = table.get(efp)
            if code is None:
                code = table[efp] = len(table)
            codes[row, col] = code
    return codes, list(table), user_ids


def series_edges_loop(codes):
    if codes.shape[1] < 2:
        return np.empty((0, 2), dtype=np.int64)
    first = np.broadcast_to(codes[:, :1], (codes.shape[0], codes.shape[1] - 1))
    u = first.ravel()
    v = codes[:, 1:].ravel()
    mask = u != v
    if not mask.any():
        return np.empty((0, 2), dtype=np.int64)
    u, v = u[mask], v[mask]
    pairs = np.stack([np.minimum(u, v), np.maximum(u, v)], axis=1)
    return np.unique(pairs, axis=0)


def match_score_loop(codes, s):
    users, iterations = codes.shape
    if users == 0 or iterations < 2 * s:
        return None
    train = codes[:, :s]
    test = codes[:, s:2 * s]
    uf = UnionFind(int(codes.max()) + 1)
    uf.union_edges(series_edges_loop(train))
    roots = uf.roots()
    seen = np.zeros(roots.shape[0], dtype=bool)
    seen[train.ravel()] = True
    own = roots[train[:, 0]]
    matched = 0
    for u in range(users):
        revisits = [e for e in test[u].tolist() if seen[e]]
        if revisits and all(int(roots[e]) == int(own[u]) for e in revisits):
            matched += 1
    return matched / users


def pick_weighted_loop(rng, table):
    weights = np.array([w for _, w in table], dtype=np.float64)
    cdf = np.cumsum(weights / weights.sum())
    index = min(int(np.searchsorted(cdf, rng.random(), side="right")),
                len(table) - 1)
    return table[index][0]


# -- grids --------------------------------------------------------------------

@st.composite
def grids(draw, max_users=7, max_cols=12, max_code=8):
    """Small non-negative int grids: free cells, rows that repeat one
    row, or rows that each hold one value."""
    users = draw(st.integers(0, max_users))
    cols = draw(st.integers(1, max_cols))
    cells = st.integers(0, max_code)
    shape = draw(st.sampled_from(("free", "equal_rows", "constant_rows")))
    if shape == "free":
        grid = [draw(st.lists(cells, min_size=cols, max_size=cols))
                for _ in range(users)]
    elif shape == "equal_rows":
        row = draw(st.lists(cells, min_size=cols, max_size=cols))
        grid = [row] * users
    else:
        grid = [[draw(cells)] * cols for _ in range(users)]
    return np.array(grid, dtype=np.int64).reshape(users, cols)


CORNERS = [
    np.empty((0, 4), dtype=np.int64),               # no users
    np.empty((0, 1), dtype=np.int64),
    np.array([[3, 1, 3, 0, 1, 2]], dtype=np.int64),  # one user
    np.array([[5], [2], [5]], dtype=np.int64),       # one column
    np.array([[0, 1, 2, 0]] * 4, dtype=np.int64),   # equal rows
    np.array([[4] * 10, [1] * 10], dtype=np.int64),  # constant rows
]


def _dataset(grid):
    users, cols = grid.shape
    uids = [f"u{i}" for i in range(users)]
    # eFPs as strings whose first appearance differs from numeric order
    series = {"v": {uid: [f"e{7 * c % 11}" for c in row]
                    for uid, row in zip(uids, grid.tolist())}}
    return StudyDataset(seed=0, user_count=users, iterations=cols,
                        vectors=("v",), users=[{"id": u} for u in uids],
                        series=series)


def _with_corners(test):
    for grid in CORNERS:
        test = example(grid)(test)
    return test


class TestIntern:
    @SETTINGS
    @_with_corners
    @given(grids())
    def test_matches_loop(self, grid):
        dataset = _dataset(grid)
        codes, labels, user_ids = dataset.intern("v")
        want_codes, want_labels, want_ids = intern_loop(dataset, "v")
        assert codes.dtype == np.int64
        assert codes.shape == want_codes.shape
        assert codes.tobytes() == want_codes.tobytes()
        assert labels == want_labels
        assert user_ids == want_ids


class TestSeriesEdges:
    @SETTINGS
    @_with_corners
    @given(grids(max_code=40))
    def test_matches_loop(self, grid):
        got = series_edges(grid)
        want = series_edges_loop(grid)
        assert got.dtype == want.dtype
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


class TestMatchScore:
    @pytest.mark.parametrize("s", MATCH_SPLITS)
    @SETTINGS
    @_with_corners
    @given(grids())
    def test_matches_loop(self, s, grid):
        assert match_score(grid, s) == match_score_loop(grid, s)


@pytest.fixture(scope="module")
def small_study():
    return run_study(user_count=60, iterations=10,
                     vectors=("dc", "fft", "hybrid", "merged"), seed=7919,
                     workers=0)


class TestOnRealStudy:
    def test_every_vector_matches_the_loops(self, small_study):
        for vector in small_study.vectors:
            codes, labels, user_ids = small_study.intern(vector)
            want = intern_loop(small_study, vector)
            assert codes.tobytes() == want[0].tobytes()
            assert (labels, user_ids) == (want[1], want[2])
            assert series_edges(codes).tobytes() \
                == series_edges_loop(codes).tobytes()
            for s in MATCH_SPLITS:
                assert match_score(codes, s) == match_score_loop(codes, s)


# -- weighted picks -----------------------------------------------------------

def _is_table(value):
    return (isinstance(value, tuple) and value
            and all(isinstance(entry, tuple) and len(entry) == 2
                    and isinstance(entry[0], str)
                    and isinstance(entry[1], float) for entry in value))


def _weighted_tables():
    """Every module-level (value, weight) table, bare or per-key."""
    tables = []
    for module in (browsers, canvas_stack, font_stack):
        for name, value in vars(module).items():
            if name.isupper() and _is_table(value):
                tables.append((f"{module.__name__}.{name}", value))
            elif name.isupper() and isinstance(value, dict):
                tables.extend((f"{module.__name__}.{name}[{key!r}]", table)
                              for key, table in value.items()
                              if _is_table(table))
    return tables


TABLES = _weighted_tables()


class _Fixed:
    """An rng stand-in whose ``random()`` returns chosen draws."""

    def __init__(self, draws):
        self.draws = list(draws)

    def random(self):
        return self.draws.pop(0)


def test_table_discovery_sees_every_pool():
    names = {name.rsplit("[", 1)[0] for name, _ in TABLES}
    assert names == {
        "repro.platform.browsers.BROWSER_VERSIONS",
        "repro.platform.browsers.OS_BUILDS",
        "repro.platform.canvas_stack.GPU_POOLS",
        "repro.platform.canvas_stack.DRIVER_POOLS",
        "repro.platform.canvas_stack.FONT_ENGINES",
        "repro.platform.canvas_stack.ANTIALIAS_MODES",
    }  # font_stack draws one Bernoulli per pack: no weighted table
    assert len(TABLES) == 21


@pytest.mark.parametrize("name,table", TABLES, ids=[n for n, _ in TABLES])
def test_pick_matches_searchsorted_on_cdf_boundaries(name, table):
    weights = np.array([w for _, w in table], dtype=np.float64)
    cdf = np.cumsum(weights / weights.sum())
    draws = [0.0, float(np.nextafter(1.0, 0.0))]
    for edge in cdf.tolist():
        draws += [edge, float(np.nextafter(edge, 0.0)),
                  float(np.nextafter(edge, 2.0))]
    got = [pick_weighted(_Fixed([u]), table) for u in draws]
    want = [pick_weighted_loop(_Fixed([u]), table) for u in draws]
    assert got == want


@pytest.mark.parametrize("name,table", TABLES, ids=[n for n, _ in TABLES])
def test_pick_matches_searchsorted_on_a_stream(name, table):
    rng, ref = np.random.default_rng(17), np.random.default_rng(17)
    got = [pick_weighted(rng, table) for _ in range(300)]
    want = [pick_weighted_loop(ref, table) for _ in range(300)]
    assert got == want
    assert rng.random() == ref.random()  # one draw per pick on both sides


def test_sample_population_matches_the_searchsorted_draw(monkeypatch):
    devices = sample_population(2093, 2021)
    monkeypatch.setattr(browsers, "pick_weighted", pick_weighted_loop)
    monkeypatch.setattr(canvas_stack, "pick_weighted", pick_weighted_loop)
    assert sample_population(2093, 2021) == devices
