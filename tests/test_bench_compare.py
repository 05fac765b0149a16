"""The claim rule of ``scripts/bench_compare.py``, on synthetic runs.

The script is loaded by path; no test starts a process or a perfbench run.
"""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_compare.py"
_spec = importlib.util.spec_from_file_location("bench_compare", SCRIPT)
bench_compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_compare)

LOWER, HIGHER = 1.0, -1.0

#: Ten parent runs with quartiles 1.0225, 1.045 and 1.0675: an IQR of 0.045,
#: 4.3% of the median.
PARENT = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]


def shifted(values, by):
    return [v + by for v in values]


#: Failed operations of neither side.
NO_FAILS = {"parent": 0, "change": 0}


def runs_of(parent, change, name="m", change_failed=0):
    """Pairs as ``summarize`` reads them from perfbench result lines; the
    first change run fails ``change_failed`` operations."""
    return [{"parent": {"metrics": {name: {"value": a}}, "failed": 0},
             "change": {"metrics": {name: {"value": b}}, "failed": change_failed if k == 0 else 0}}
            for k, (a, b) in enumerate(zip(parent, change))]


class TestQuartiles:
    def test_inclusive_quartiles(self):
        assert bench_compare.quartiles([5, 1, 4, 2, 3]) == {"q1": 2, "median": 3, "q3": 4}
        got = bench_compare.quartiles(PARENT)
        assert got == pytest.approx({"q1": 1.0225, "median": 1.045, "q3": 1.0675})


class TestVerdict:
    @pytest.mark.parametrize("sign, by, want", [
        (LOWER, 0.0, "within"),
        (LOWER, -0.5, "within"),
        # 0.26 on a median of 1.045 is 24.9% worse, 0.27 is 25.8%
        (LOWER, 0.26, "within"),
        (LOWER, 0.27, "outside"),
        (HIGHER, -0.26, "within"),
        (HIGHER, -0.27, "outside"),
        (HIGHER, 0.5, "within"),
    ])
    def test_bound_on_the_median(self, sign, by, want):
        assert bench_compare.verdict(PARENT, shifted(PARENT, by), sign, 0.25) == want

    def test_parent_spread_wider_than_the_bound_is_unresolved(self):
        parent = [1.0, 1.0, 1.0, 1.5, 1.5, 1.5, 2.0, 2.0, 2.0, 2.0]
        assert bench_compare.verdict(parent, parent, LOWER, 0.25) == "unresolved"
        assert bench_compare.verdict(parent, shifted(parent, 5.0), LOWER, 0.25) == "unresolved"

    @pytest.mark.parametrize("sign", [LOWER, HIGHER])
    def test_beating_every_parent_run_overrides_unresolved(self, sign):
        parent = [1.0, 1.0, 1.0, 1.5, 1.5, 1.5, 2.0, 2.0, 2.0, 2.0]
        best = min(sign * v for v in parent) * sign
        change = [best - sign * 0.01] * len(parent)
        assert bench_compare.verdict(parent, change, sign, 0.25) == "within"
        # a tie with the best parent run does not beat it
        change[0] = best
        assert bench_compare.verdict(parent, change, sign, 0.25) == "unresolved"


class TestGain:
    @pytest.mark.parametrize("sign", [LOWER, HIGHER])
    def test_met_on_nine_wins_and_a_gap_over_the_iqr(self, sign):
        # each change run beats its pair by 0.06; with one pair lost the
        # medians are still 0.05 apart, more than the IQR of 0.045
        change = shifted(PARENT, -sign * 0.06)
        assert bench_compare.gain(PARENT, change, sign, NO_FAILS) == "met"
        change[0] = PARENT[0] + sign * 0.01
        assert bench_compare.gain(PARENT, change, sign, NO_FAILS) == "met"
        change[1] = PARENT[1] + sign * 0.01
        assert bench_compare.gain(PARENT, change, sign, NO_FAILS) == "not met"

    def test_ties_count_for_neither_side(self):
        change = shifted(PARENT, -0.06)
        change[0] = PARENT[0]
        assert bench_compare.gain(PARENT, change, LOWER, NO_FAILS) == "met"
        change[1] = PARENT[1]
        assert bench_compare.gain(PARENT, change, LOWER, NO_FAILS) == "not met"

    def test_every_pair_won_by_less_than_the_iqr_is_not_met(self):
        change = shifted(PARENT, -0.04)
        assert bench_compare.gain(PARENT, change, LOWER, NO_FAILS) == "not met"

    def test_zero_iqr_needs_only_a_better_median(self):
        parent = [63.0] * 10
        assert bench_compare.gain(parent, [62.9] * 10, LOWER, NO_FAILS) == "met"
        assert bench_compare.gain(parent, parent, LOWER, NO_FAILS) == "not met"

    def test_more_failed_operations_than_the_parent_is_not_met(self):
        change = shifted(PARENT, -0.06)
        assert bench_compare.gain(PARENT, change, LOWER, {"parent": 2, "change": 2}) == "met"
        assert bench_compare.gain(PARENT, change, LOWER, {"parent": 0, "change": 1}) == "not met"


class TestSummarize:
    SPEC = [{"name": "m", "better": "lower", "bound": 0.1}]

    def test_summary_of_one_metric(self):
        change = shifted(PARENT, -0.05)
        got = bench_compare.summarize(runs_of(PARENT, change), self.SPEC)["m"]
        assert got["change_wins"] == 10 and got["pairs"] == 10
        assert got["median_gap_over_parent_iqr"] == pytest.approx(0.05 / 0.045)
        assert got["parent_iqr_over_median"] == pytest.approx(0.045 / 1.045)
        assert (got["verdict"], got["gain"], got["bound"]) == ("within", "met", 0.1)

    def test_a_failed_change_operation_voids_the_gain(self):
        runs = runs_of(PARENT, shifted(PARENT, -0.05), change_failed=1)
        assert bench_compare.failed_ops(runs) == {"parent": 0, "change": 1}
        assert bench_compare.summarize(runs, self.SPEC)["m"]["gain"] == "not met"

    def test_gap_is_none_at_a_zero_iqr(self):
        # peak_rss_mb is quantized, so the parent's quartiles can coincide
        got = bench_compare.summarize(runs_of([63.0] * 10, [63.5] * 10), self.SPEC)["m"]
        assert got["median_gap_over_parent_iqr"] is None
        assert got["parent_iqr_over_median"] == 0.0
        assert (got["verdict"], got["gain"], got["change_wins"]) == ("within", "not met", 0)
