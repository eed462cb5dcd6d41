"""Fixture-backed self-tests: each rule fires on its violating fixture at
the exact (rule, line) positions and stays silent on the compliant twin."""

from pathlib import Path

import pytest

from repro.analysis import LintConfig, lint_paths

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "src" / "repro"


def lint_fixture(relpath: str):
    return lint_paths([str(FIXTURES / relpath)], LintConfig())


BAD_FIXTURES = {
    "ifmh/rl001_bad.py": [("RL001", 9), ("RL001", 13), ("RL001", 17)],
    "ifmh/rl002_bad.py": [("RL002", 6), ("RL002", 10)],
    "core/rl003_bad.py": [("RL003", 7), ("RL003", 11), ("RL003", 15), ("RL003", 20)],
    "merkle/rl004_bad.py": [("RL004", 10), ("RL004", 16), ("RL004", 19), ("RL004", 23)],
    "geometry/rl005_bad.py": [("RL005", 9), ("RL005", 13), ("RL005", 17)],
    "core/rl006_bad.py": [("RL006", 18), ("RL006", 21), ("RL006", 24)],
    "merkle/rl007_bad.py": [
        ("RL007", 3),
        ("RL007", 4),
        ("RL007", 5),
        ("RL007", 6),
        ("RL007", 10),
    ],
    "resilience/rl008_bad.py": [("RL008", 8), ("RL008", 16), ("RL008", 23)],
    "core/artifact/rl009_bad.py": [("RL009", 7), ("RL009", 11), ("RL009", 16)],
    "serving/rl010_bad.py": [
        ("RL010", 8),
        ("RL010", 12),
        ("RL010", 16),
        ("RL010", 20),
    ],
    "bench/rl011_bad.py": [("RL011", 8), ("RL011", 12)],
}

OK_FIXTURES = [
    "ifmh/rl001_ok.py",
    "ifmh/rl002_ok.py",
    "core/rl003_ok.py",
    "merkle/rl004_ok.py",
    "geometry/rl005_ok.py",
    "core/rl006_ok.py",
    "merkle/rl007_ok.py",
    "bench/rl007_ok.py",
    "resilience/rl008_ok.py",
    "core/artifact/rl009_ok.py",
    "serving/rl010_ok.py",
    "serving/recorder.py",
    "bench/rl011_ok.py",
]


@pytest.mark.parametrize("relpath", sorted(BAD_FIXTURES))
def test_rule_fires_on_violating_fixture(relpath):
    result = lint_fixture(relpath)
    got = [(finding.rule, finding.line) for finding in result.findings]
    assert got == BAD_FIXTURES[relpath]
    assert all(finding.path.endswith(relpath) for finding in result.findings)


@pytest.mark.parametrize("relpath", OK_FIXTURES)
def test_no_rule_fires_on_compliant_fixture(relpath):
    result = lint_fixture(relpath)
    assert result.findings == []
    assert result.files_checked == 1


def test_whole_fixture_tree_exercises_every_rule():
    result = lint_paths([str(FIXTURES)], LintConfig())
    fired = {finding.rule for finding in result.findings}
    assert {f"RL{n:03d}" for n in range(1, 12)} <= fired


def test_findings_carry_messages_and_render():
    result = lint_fixture("ifmh/rl001_bad.py")
    rendered = result.findings[0].render()
    assert "RL001" in rendered
    assert "rl001_bad.py:9:" in rendered
    assert "repro.crypto.hashing" in result.findings[0].message
