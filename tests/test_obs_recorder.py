"""repro.obs unit coverage: spans, counters, histograms, merge protocol,
node profiler scoping, and the null object's contract."""
import json

import pytest

from repro.obs import (Histogram, NULL_RECORDER, NullRecorder, Recorder,
                       current_node_profiler, profile_nodes)


class TestSpans:
    def test_span_records_duration_and_name(self):
        rec = Recorder()
        with rec.span("plan") as span:
            pass
        assert span.duration_s >= 0.0
        assert [s["name"] for s in rec.spans] == ["plan"]
        assert rec.spans[0]["parent"] is None
        assert rec.spans[0]["duration_s"] >= 0.0

    def test_nested_spans_carry_parent_ids(self):
        rec = Recorder()
        with rec.span("outer"):
            with rec.span("inner"):
                pass
        by_name = {s["name"]: s for s in rec.spans}
        assert by_name["inner"]["parent"] == by_name["outer"]["id"]
        assert by_name["outer"]["parent"] is None
        # inner closes first, but ids follow open order
        assert by_name["inner"]["id"] > by_name["outer"]["id"]

    def test_span_attrs_and_set(self):
        rec = Recorder()
        with rec.span("render", jobs=3) as span:
            span.set(pooled=False)
        assert rec.spans[0]["attrs"] == {"jobs": 3, "pooled": False}

    def test_span_closed_on_exception(self):
        rec = Recorder()
        with pytest.raises(RuntimeError):
            with rec.span("boom"):
                raise RuntimeError
        assert rec.spans[0]["name"] == "boom"
        assert rec._open_spans == []

    def test_monotonic_start_offsets(self):
        rec = Recorder()
        with rec.span("a"):
            pass
        with rec.span("b"):
            pass
        a, b = (s for s in rec.spans)
        assert b["start_s"] >= a["start_s"] >= 0.0


class TestCountersAndHistograms:
    def test_counters_accumulate(self):
        rec = Recorder()
        rec.count("renders")
        rec.count("renders", 4)
        assert rec.counters["renders"] == 5

    def test_histogram_summary_stats(self):
        hist = Histogram()
        for value in (0.001, 0.002, 0.004):
            hist.observe(value)
        assert hist.count == 3
        assert hist.min == 0.001
        assert hist.max == 0.004
        assert hist.mean == pytest.approx(0.007 / 3)
        assert sum(hist.buckets.values()) == 3

    def test_bucket_bounds_cover_value(self):
        for value in (1e-9, 1e-6, 3e-6, 0.01, 1.0, 500.0):
            index = Histogram.bucket_index(value)
            assert value <= Histogram.bucket_upper_bound(index)
            if index > 0:
                assert value > Histogram.bucket_upper_bound(index - 1)

    def test_quantiles_bracket_the_data(self):
        hist = Histogram()
        for value in (0.001,) * 9 + (1.0,):
            hist.observe(value)
        assert hist.approx_quantile(0.5) <= 0.01
        assert hist.approx_quantile(0.99) == 1.0
        assert hist.approx_quantile(0.0) == 0.001

    def test_round_trip_and_merge(self):
        a, b = Histogram(), Histogram()
        for value in (0.001, 0.002):
            a.observe(value)
        for value in (0.004, 0.2):
            b.observe(value)
        merged = Histogram.from_dict(a.to_dict())
        merged.merge(b.to_dict())
        assert merged.count == 4
        assert merged.total == pytest.approx(0.207)
        assert merged.min == 0.001
        assert merged.max == 0.2


class TestMergeProtocol:
    def test_snapshot_is_json_serializable(self):
        rec = Recorder()
        with rec.span("plan"):
            rec.count("n")
            rec.observe("lat", 0.002)
            rec.record_node_profile("stack-a", {"Oscillator": 0.1},
                                    {"Oscillator": 40})
        payload = json.loads(json.dumps(rec.snapshot()))
        assert payload["counters"] == {"n": 1}
        assert payload["node_profile"]["stack-a"]["Oscillator"]["calls"] == 40

    def test_merge_snapshot_sums_everything(self):
        worker = Recorder()
        worker.count("renders", 2)
        worker.observe("lat", 0.001)
        worker.record_node_profile("s", {"Gain": 0.5}, {"Gain": 10})

        parent = Recorder()
        parent.count("renders", 3)
        parent.observe("lat", 0.004)
        parent.record_node_profile("s", {"Gain": 0.25}, {"Gain": 5})
        parent.merge_snapshot(worker.snapshot())

        assert parent.counters["renders"] == 5
        assert parent.histograms["lat"].count == 2
        assert parent.node_profile["s"]["Gain"] == {"seconds": 0.75, "calls": 15}

    def test_node_profile_without_calls_defaults_to_one(self):
        rec = Recorder()
        rec.record_node_profile("s", {"Gain": 0.5})
        assert rec.node_profile["s"]["Gain"]["calls"] == 1


class TestNodeProfiler:
    def test_scoped_activation(self):
        assert current_node_profiler() is None
        with profile_nodes() as prof:
            assert current_node_profiler() is prof
            prof.add("Oscillator", 0.25)
            prof.add("Oscillator", 0.25)
        assert current_node_profiler() is None
        assert prof.seconds == {"Oscillator": 0.5}
        assert prof.calls == {"Oscillator": 2}

    def test_nested_scopes_restore_outer(self):
        with profile_nodes() as outer:
            with profile_nodes() as inner:
                assert current_node_profiler() is inner
            assert current_node_profiler() is outer

    def test_empty_profile_stores_nothing(self):
        """A stack whose render never entered the engine leaves no empty
        hot-node table, directly or through a worker snapshot merge."""
        rec = Recorder()
        rec.record_node_profile("comparator-stack", {}, {})
        rec.record_node_profile("audio-stack", {"Gain": 0.5}, {"Gain": 2})
        assert list(rec.node_profile) == ["audio-stack"]
        parent = Recorder()
        parent.merge_snapshot({"node_profile": {"comparator-stack": {}}})
        assert parent.node_profile == {}


class TestNullRecorder:
    def test_null_is_disabled_and_inert(self):
        rec = NULL_RECORDER
        assert isinstance(rec, NullRecorder)
        assert rec.enabled is False
        with rec.span("anything", attr=1) as span:
            span.set(more=2)
        rec.count("n")
        rec.observe("lat", 1.0)
        rec.record_node_profile("s", {"Gain": 1.0})
        rec.merge_snapshot({"counters": {"n": 5}})
        snap = rec.snapshot()
        assert snap["enabled"] is False
        assert snap["counters"] == {} and snap["spans"] == []

    def test_null_span_handle_is_shared(self):
        # the fast-path guarantee: repeated span() calls allocate nothing
        assert NULL_RECORDER.span("a") is NULL_RECORDER.span("b")


class TestHistogramProperties:
    """Property tests over seeded random observation sets: the merge
    algebra the pool protocol relies on, and quantile sanity."""

    @staticmethod
    def _hist(values):
        hist = Histogram()
        for value in values:
            hist.observe(value)
        return hist

    @staticmethod
    def _samples(seed, n):
        import random
        rng = random.Random(seed)
        return [rng.lognormvariate(mu=-8.0, sigma=2.5) for _ in range(n)]

    @staticmethod
    def _same(a: Histogram, b: Histogram):
        assert a.count == b.count
        assert a.buckets == b.buckets
        assert a.min == b.min and a.max == b.max
        assert a.total == pytest.approx(b.total, rel=1e-12)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_merge_is_commutative(self, seed):
        xs = self._samples(seed, 300)
        ys = self._samples(seed + 100, 200)
        ab = self._hist(xs)
        ab.merge(self._hist(ys))
        ba = self._hist(ys)
        ba.merge(self._hist(xs))
        self._same(ab, ba)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_merge_is_associative(self, seed):
        parts = [self._samples(seed * 10 + i, 150) for i in range(3)]
        left = self._hist(parts[0])
        left.merge(self._hist(parts[1]))
        left.merge(self._hist(parts[2]))
        inner = self._hist(parts[1])
        inner.merge(self._hist(parts[2]))
        right = self._hist(parts[0])
        right.merge(inner)
        self._same(left, right)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_merge_equals_observing_everything_once(self, seed):
        xs = self._samples(seed, 250)
        ys = self._samples(seed + 7, 250)
        merged = self._hist(xs)
        merged.merge(self._hist(ys))
        self._same(merged, self._hist(xs + ys))

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_quantiles_are_monotone_in_q(self, seed):
        hist = self._hist(self._samples(seed, 400))
        qs = [i / 20 for i in range(21)]
        estimates = [hist.approx_quantile(q) for q in qs]
        assert estimates == sorted(estimates)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_quantiles_stay_inside_the_observed_range(self, seed):
        values = self._samples(seed, 100)
        hist = self._hist(values)
        for q in (0.0, 0.01, 0.25, 0.5, 0.75, 0.99, 1.0):
            assert min(values) <= hist.approx_quantile(q) <= max(values)
        assert hist.approx_quantile(0.0) == min(values)
        assert hist.approx_quantile(1.0) == max(values)

    def test_interior_quantile_interpolates_below_the_bucket_bound(self):
        # the median bucket holds 98 of 100 observations (outliers keep
        # the min/max clamp from binding): the estimate must be the
        # geometric midpoint (upper/sqrt(2)), not the pessimistic bound
        hist = self._hist([1e-5] + [0.0015] * 98 + [0.1])
        import math
        upper = Histogram.bucket_upper_bound(Histogram.bucket_index(0.0015))
        assert hist.approx_quantile(0.5) == pytest.approx(upper / math.sqrt(2))
        assert hist.approx_quantile(0.5) < upper
