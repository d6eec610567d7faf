"""The analyze rules cover the blocking-substrate modules.

The substrate is where a determinism bug would be quietest: the intern
sweep assigns token ids in first-appearance order, and a hash-order
iteration or an unordered scatter there changes block identity on some
runs only.  These tests pin two things: the real substrate sources are
*in scope* for the ``guarded-numpy``/``determinism`` rules (their paths
resolve to kernel-package module names) and currently clean, and the
exact hazard shapes the sweep could regress into are flagged when they
appear under those module names.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from tools.repro_analyze.checkers import determinism, guarded_numpy
from tools.repro_analyze.core import (
    filter_suppressed,
    module_name,
    parse_file,
)

REPO_ROOT = Path(__file__).resolve().parents[2]

SUBSTRATE_SOURCES = {
    "src/repro/blocking/substrate.py": "repro.blocking.substrate",
    "src/repro/engine/substrate.py": "repro.engine.substrate",
    # The sharded sweep is engine/substrate.py's kernel over this fan-out.
    "src/repro/parallel/fanout.py": "repro.parallel.fanout",
}


@pytest.mark.parametrize("relpath,module", sorted(SUBSTRATE_SOURCES.items()))
def test_substrate_modules_are_in_rule_scope(relpath, module):
    path = REPO_ROOT / relpath
    assert module_name(path, REPO_ROOT) == module


@pytest.mark.parametrize("rule", [determinism, guarded_numpy])
@pytest.mark.parametrize("relpath", sorted(SUBSTRATE_SOURCES))
def test_substrate_sources_are_clean(rule, relpath):
    source = parse_file(REPO_ROOT / relpath, REPO_ROOT)
    assert source is not None
    assert not list(filter_suppressed(source, rule.check(source)))


class TestHazardShapesAreCaught:
    """The specific regressions the sweep could pick up are flagged."""

    def run(self, run_rule, rule, text, module):
        return run_rule(rule, textwrap.dedent(text), module)

    def test_hash_order_intern_sweep_is_flagged(self, run_rule):
        violations = self.run(
            run_rule,
            determinism,
            """
            def intern(profile_tokens):
                ids = {}
                for token in set(profile_tokens):
                    ids[token] = len(ids)
                return ids
            """,
            "repro.engine.substrate",
        )
        assert len(violations) == 1
        assert "hash order" in violations[0].message

    def test_unordered_scatter_in_postings_build_is_flagged(self, run_rule):
        for module in ("repro.engine.substrate", "repro.parallel.fanout"):
            violations = self.run(
                run_rule,
                determinism,
                """
                def postings(counts, token_ids):
                    np.add.at(counts, token_ids, 1)
                """,
                module,
            )
            assert len(violations) == 1
            assert "unordered" in violations[0].message

    def test_unguarded_numpy_import_is_flagged(self, run_rule):
        violations = self.run(
            run_rule,
            guarded_numpy,
            """
            import numpy as np
            """,
            "repro.engine.substrate",
        )
        assert len(violations) == 1
        assert "require_numpy" in violations[0].message

    def test_reference_substrate_must_stay_numpy_free(self, run_rule):
        violations = self.run(
            run_rule,
            guarded_numpy,
            """
            import numpy as np
            """,
            "repro.blocking.substrate",
        )
        assert len(violations) == 1
        assert "dependency-free" in violations[0].message
