"""The analyzer runner: repo-wide cleanliness, selection and the CLI."""

from __future__ import annotations

import textwrap

from tools.repro_analyze import main, rule_names, run_paths

EXPECTED_RULES = [
    "budget-semantics",
    "determinism",
    "fork-safety",
    "guarded-numpy",
    "registry-metadata",
]


def test_all_five_rules_are_registered():
    assert rule_names() == EXPECTED_RULES


def test_repository_is_clean():
    """The gate CI enforces: the analyzer exits 0 on the whole repo."""
    assert run_paths(["src", "tests", "benchmarks"]) == []


def test_seeded_violation_fails_the_run(tmp_path):
    """Proof the gate is live: a planted violation is reported."""
    bad = tmp_path / "src" / "repro" / "blocking" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("import numpy as np\n")
    violations = run_paths(["src"], project_rules=False, root=tmp_path)
    assert len(violations) == 1
    assert violations[0].rule == "guarded-numpy"
    assert violations[0].path.endswith("bad.py")


def test_select_limits_the_rules(tmp_path):
    bad = tmp_path / "src" / "repro" / "blocking" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text(
        textwrap.dedent(
            """
            import numpy as np

            def emit(tokens):
                for token in set(tokens):
                    print(token)
            """
        )
    )
    only_det = run_paths(
        ["src"], select={"determinism"}, project_rules=False, root=tmp_path
    )
    assert {v.rule for v in only_det} == {"determinism"}


def test_unparseable_file_is_reported_not_skipped(tmp_path):
    bad = tmp_path / "src" / "repro" / "broken.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("def broken(:\n")
    violations = run_paths(["src"], project_rules=False, root=tmp_path)
    assert [v.rule for v in violations] == ["parse"]


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out.split()
    assert out == EXPECTED_RULES


def test_cli_clean_run_exits_zero(capsys):
    assert main(["src/repro/contracts.py", "--no-project"]) == 0
    assert capsys.readouterr().out == ""


def test_cli_reports_violations_and_exits_nonzero(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("budget = 0\nif budget:\n    pass\n")
    assert main([str(bad), "--no-project"]) == 1
    out = capsys.readouterr().out
    assert "budget-semantics" in out
