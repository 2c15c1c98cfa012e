"""The CI workflow names only things that exist.

``.github/workflows/tier1.yml`` is read as plain text (the dev extra has
no YAML parser), and every name it hands to ``lstep check``, pytest or
the benchmark is looked up in the tree: a suite in ``SUITES``, a test
path on disk, a ``-k`` term among the test functions it selects from,
and a workload in ``BENCHMARK.json``.
"""
import ast
import json
import re
import shlex
from pathlib import Path

from lstep.checks import SUITES

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()


def _pytest_runs() -> list[tuple[list[str], str | None]]:
    """(paths, -k expression) of each pytest command in the workflow."""
    runs = []
    for line in WORKFLOW.splitlines():
        if "-m pytest" not in line:
            continue
        args = iter(shlex.split(line.split("-m pytest", 1)[1]))
        paths, expr = [], None
        for arg in args:
            if arg == "-k":
                expr = next(args)
            elif not arg.startswith("-"):
                paths.append(arg)
        runs.append((paths, expr))
    assert runs, "the workflow runs no pytest command"
    return runs


def _test_functions(paths: list[str]) -> list[str]:
    """Names of the test functions pytest collects from ``paths`` (the
    ``testpaths`` when none)."""
    roots = [ROOT / p for p in paths] or [ROOT / "tests", ROOT / "benchmarks"]
    files = [f for r in roots for f in ([r] if r.is_file() else sorted(r.rglob("test_*.py")))]
    return [
        node.name
        for f in files
        for node in ast.walk(ast.parse(f.read_text()))
        if isinstance(node, ast.FunctionDef) and node.name.startswith("test")
    ]


def test_every_checked_suite_is_registered():
    suites = re.findall(r"lstep check --suite (\S+)", WORKFLOW)
    assert suites, "the workflow runs no lstep check suite"
    assert [s for s in suites if s not in SUITES] == []


def test_every_pytest_path_exists():
    paths = [p for paths, _ in _pytest_runs() for p in paths]
    assert [p for p in paths if not (ROOT / p).exists()] == []


def test_every_keyword_term_selects_a_test():
    for paths, expr in _pytest_runs():
        if expr is None:
            continue
        names = [name.lower() for name in _test_functions(paths)]
        terms = set(re.findall(r"\w+", expr)) - {"or", "and", "not"}
        # pytest -k matches a term as a case-insensitive substring of a test's name
        assert [t for t in sorted(terms) if not any(t.lower() in n for n in names)] == [], expr


def test_every_bench_workload_is_declared():
    declared = {w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}
    named = []
    for arg in re.findall(r"--workload\s+(\S+)", WORKFLOW):
        var = re.fullmatch(r'"?\$(\w+)"?', arg)
        if var is None:
            named.append(arg.strip('"'))
            continue
        loop = re.search(rf"for {var[1]} in ([^;\n]+); do", WORKFLOW)
        assert loop, f"no for loop sets ${var[1]}"
        named += loop[1].split()
    assert named, "the workflow runs no bench workload"
    assert [w for w in named if w not in declared] == []
