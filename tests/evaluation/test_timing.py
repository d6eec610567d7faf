"""Unit tests for the timing harness."""

from __future__ import annotations

from repro.evaluation.timing import timed_run
from repro.matching.match_functions import JaccardMatcher, OracleMatcher
from repro.progressive.pps import PPS
from repro.progressive.sa_psn import SAPSN


class TestTimedRun:
    def test_full_run_statistics(self, paper_profiles, paper_ground_truth):
        method = PPS(paper_profiles, purge_ratio=None)
        matcher = OracleMatcher(paper_ground_truth, cost_model=JaccardMatcher())
        run = timed_run(
            method,
            paper_ground_truth,
            paper_profiles,
            matcher,
            max_comparisons=100,
            checkpoint_every=1,
        )
        assert run.method == "PPS"
        assert run.initialization_seconds > 0
        assert run.comparison_seconds > 0
        assert run.matches_found == run.total_matches == 4
        assert run.emitted <= 100

    def test_budget_respected(self, paper_profiles, paper_ground_truth):
        method = SAPSN(paper_profiles)
        run = timed_run(
            method,
            paper_ground_truth,
            paper_profiles,
            OracleMatcher(paper_ground_truth),
            max_comparisons=3,
        )
        assert run.emitted == 3

    def test_timeline_is_monotone(self, paper_profiles, paper_ground_truth):
        method = PPS(paper_profiles, purge_ratio=None)
        run = timed_run(
            method,
            paper_ground_truth,
            paper_profiles,
            OracleMatcher(paper_ground_truth),
            max_comparisons=50,
            checkpoint_every=1,
        )
        times = [t for t, _ in run.recall_timeline]
        recalls = [r for _, r in run.recall_timeline]
        assert times == sorted(times)
        assert recalls == sorted(recalls)

    def test_timeline_ends_where_the_run_ends(self, paper_profiles, paper_ground_truth):
        # the budget ends the run off the checkpoint grid
        run = timed_run(
            PPS(paper_profiles, purge_ratio=None),
            paper_ground_truth,
            paper_profiles,
            OracleMatcher(paper_ground_truth),
            max_comparisons=3,
            checkpoint_every=50,
        )
        assert 0 < run.matches_found < run.total_matches
        assert run.recall_timeline[-1][1] == run.matches_found / run.total_matches
