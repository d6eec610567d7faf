"""fork-safety: pool tasks must pickle by module path."""

from __future__ import annotations

import textwrap

from tools.repro_analyze.checkers import fork_safety


def check(run_rule, text):
    return run_rule(fork_safety, textwrap.dedent(text), "repro.parallel.demo")


def test_lambda_task_is_flagged(run_rule):
    violations = check(
        run_rule,
        """
        def fan_out(pool, payload, ranges):
            return pool.run(lambda lo, hi: hi - lo, payload, ranges)
        """,
    )
    assert len(violations) == 1
    assert "lambda" in violations[0].message


def test_constructed_callable_is_flagged(run_rule):
    violations = check(
        run_rule,
        """
        import functools

        def shard_task(payload, lo, hi, scale=1):
            return (hi - lo) * scale

        def fan_out(pool, payload, ranges):
            return pool.run(functools.partial(shard_task, scale=2), payload, ranges)
        """,
    )
    assert len(violations) == 1
    assert "partial" in violations[0].message


def test_nested_function_task_is_flagged(run_rule):
    violations = check(
        run_rule,
        """
        def fan_out(pool, payload, ranges):
            def shard_task(payload, lo, hi):
                return hi - lo

            return pool.run(shard_task, payload, ranges)
        """,
    )
    assert len(violations) == 1
    assert "module level" in violations[0].message


def test_bound_method_task_is_flagged(run_rule):
    violations = check(
        run_rule,
        """
        class Backend:
            def fan_out(self, pool, payload, ranges):
                return pool.run(self.shard_task, payload, ranges)
        """,
    )
    assert len(violations) == 1
    assert "bound method" in violations[0].message


def test_module_level_task_is_clean(run_rule):
    assert not check(
        run_rule,
        """
        def shard_task(payload, lo, hi):
            return hi - lo

        def fan_out(pool, payload, ranges):
            return pool.run(shard_task, payload, ranges)
        """,
    )


def test_imported_task_is_clean_even_when_imported_locally(run_rule):
    assert not check(
        run_rule,
        """
        def fan_out(pool, payload, ranges):
            from repro.engine.topk import rank_slice

            return pool.run(rank_slice, None, ranges)
        """,
    )


def test_fanout_call_sites_are_checked_like_pool_ones(run_rule):
    violations = check(
        run_rule,
        """
        def graph_rows(payload, shard):
            return shard

        def build(self, fanout, payload, ranges):
            self.fanout.run(lambda payload, shard: shard, payload, ranges)
            return fanout.run(graph_rows, payload, ranges)
        """,
    )
    assert len(violations) == 1
    assert "lambda" in violations[0].message


def test_non_pool_receivers_are_ignored(run_rule):
    assert not check(
        run_rule,
        """
        def fan_out(executor, ranges):
            return executor.run(lambda lo, hi: hi - lo, ranges)
        """,
    )
