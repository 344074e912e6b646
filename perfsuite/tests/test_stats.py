"""Order statistics, span self time and the reference check."""

import json
import statistics

import pytest

import procs
import run
import wl_campaign
from report import Outcome, Trace
from stats import (covered, durations, majority, median, mismatches,
                   percentile, self_times)


class TestPercentiles:
    def test_median_odd_and_even(self):
        assert median([3, 1, 2]) == 2
        assert median([4, 1, 3, 2]) == 2.5

    def test_matches_statistics_median(self):
        data = [0.41, 0.52, 0.47, 0.60, 0.455, 0.875, 0.51]
        assert median(data) == statistics.median(data)

    def test_linear_interpolation(self):
        data = list(range(1, 11))  # 1..10
        assert percentile(data, 0) == 1
        assert percentile(data, 100) == 10
        assert percentile(data, 50) == 5.5
        assert percentile(data, 90) == pytest.approx(9.1)

    def test_single_sample(self):
        assert percentile([7.0], 99) == 7.0

    def test_rejects_empty_and_out_of_range(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 101)


class TestSelfTime:
    def test_leaf_self_time_is_duration(self):
        assert self_times([("a", 1, 0, 0.0, 2.0)]) == {"a": 2.0}

    def test_parent_minus_children(self):
        spans = [
            ("parent", 1, 0, 0.0, 10.0),
            ("child", 2, 1, 1.0, 3.0),
            ("child", 3, 1, 5.0, 6.0),
            ("grandchild", 4, 2, 1.5, 2.0),
        ]
        out = self_times(spans)
        assert out["parent"] == pytest.approx(7.0)
        assert out["child"] == pytest.approx(2.5)
        assert out["grandchild"] == pytest.approx(0.5)
        # Self times partition the root span.
        assert sum(out.values()) == pytest.approx(10.0)

    def test_overlapping_children_count_once(self):
        spans = [
            ("parent", 1, 0, 0.0, 10.0),
            ("a", 2, 1, 1.0, 4.0),
            ("b", 3, 1, 3.0, 6.0),
        ]
        assert self_times(spans)["parent"] == pytest.approx(5.0)

    def test_children_are_clipped_to_the_parent(self):
        assert covered((2.0, 4.0), [(1.0, 3.0), (3.5, 9.0)]) == \
            pytest.approx(1.5)
        assert covered((0.0, 1.0), [(2.0, 3.0)]) == 0.0

    def test_durations_sum_per_name(self):
        spans = [("a", 1, 0, 0.0, 1.0), ("a", 2, 0, 2.0, 2.5),
                 ("b", 3, 1, 0.2, 0.4)]
        out = durations(spans)
        assert out["a"] == pytest.approx(1.5)
        assert out["b"] == pytest.approx(0.2)

    def test_trace_adds_processes_and_normalizes_per_op(self):
        proc = {
            "names": ["matrix.compute", "sim.run_job", "solver.solve"],
            # [name index, id, parent, wall start, wall end, cpu start,
            #  cpu end, extra]; wall is twice the CPU here.
            "spans": [[1, 1, 0, 0.0, 8.0, 0.0, 4.0, 0],
                      [2, 2, 1, 2.0, 4.0, 1.0, 2.0, 10],
                      [2, 3, 1, 4.0, 6.0, 2.0, 3.0, 30],
                      [0, 4, 0, 10.0, 14.0, 5.0, 7.0, 1]],
            "counters": {"kernel.events": 2000},
            "import_cpu_s": 0.25,
            "pools": [],
        }
        trace = Trace.from_procs([proc, proc])
        values = trace.per_op(ops=2, factor=1.0)
        assert values["sim.run_job_s"] == pytest.approx(2.0)  # 2 x 2 s / 2
        assert values["solver.solve_s"] == pytest.approx(2.0)
        assert values["solver.calls"] == 2.0
        assert values["solver.flows_mean"] == pytest.approx(20.0)
        assert values["matrix.compute_s"] == pytest.approx(2.0)
        assert values["matrix.computed"] == 1.0
        assert values["kernel.events"] == 2000.0
        # 8 s of jobs over 4000 events.
        assert values["kernel.host_us_per_event"] == pytest.approx(2000.0)
        assert trace.import_cpu_s == [0.25, 0.25]
        assert trace.wall_s["sim.run_job"] == pytest.approx(16.0)
        # CPU times scale with the calibration factor; counts do not.
        halved = trace.per_op(ops=2, factor=0.5)
        assert halved["sim.run_job_s"] == pytest.approx(1.0)
        assert halved["solver.calls"] == 2.0


class TestReferenceCheck:
    REFERENCE = [(1.5).hex(), (2.25).hex(), (3.0).hex()]

    def test_identical_times_pass(self):
        assert mismatches(list(self.REFERENCE), self.REFERENCE) == 0

    def test_perturbed_reference_registers_a_failure(self):
        perturbed = list(self.REFERENCE)
        perturbed[1] = (2.25 + 2 ** -40).hex()  # one ulp-scale change
        assert mismatches(list(self.REFERENCE), perturbed) == 1

    def test_failed_and_missing_points_count(self):
        assert mismatches([self.REFERENCE[0], None, self.REFERENCE[2]],
                          self.REFERENCE) == 1
        assert mismatches(self.REFERENCE[:2], self.REFERENCE) == 1

    def test_majority_finds_the_odd_step_out(self):
        good = list(self.REFERENCE)
        bad = [good[0], (9.0).hex(), good[2]]
        truth = majority([good, bad, good])
        assert list(truth) == good
        assert mismatches(bad, truth) == 1

    def test_majority_tie_goes_to_the_first_step(self):
        a, b = ["x"], ["y"]
        assert list(majority([a, b])) == a


class TestFailedPoints:
    """A traced step whose every point failed still yields a result
    line, with those points counted failed."""

    @staticmethod
    def step(hexes, traced):
        points = [{"label": f"p{i}", "status": "ok" if h else "failed",
                   "hex": h} for i, h in enumerate(hexes)]
        doc = {"setup_cpu_s": 0.2, "store_backend": "sqlite",
               "numpy": "0", "op_wall_s": 5.0, "completion_s": [],
               "points": points, "profile": {"simulate": 1.0},
               "pool": None}
        child = procs.ChildResult(returncode=0, cpu_s=5.0, wall_s=5.0,
                                  stderr="", procs=[])
        return wl_campaign.Step("step", child, doc, traced)

    def test_all_failed_traced_step_is_reported(self, capsys):
        truth = wl_campaign.load_references("fig2c-cold", 0)
        steps = [self.step(truth, traced=False),
                 self.step([None] * len(truth), traced=True)]
        outcome = Outcome()
        wl_campaign.summarize(outcome, "fig2c-cold", 0, steps, [],
                              traced=True)
        run.print_result(outcome, {}, traced=True)
        result = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert result["correct"] is False
        assert result["attempted"] == 2 * len(truth)
        assert result["failed"] == len(truth)
