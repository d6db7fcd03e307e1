#!/usr/bin/env python
"""Fail if in-repo code uses the retired scheduling signatures.

The redesigned API is keyword-only::

    sim.schedule(fn)                  # now
    sim.schedule(fn, after=delay)     # relative
    sim.schedule(fn, at=deadline)     # absolute

The retired forms — ``sim.schedule(delay, fn)`` (two or more
positional arguments) and ``sim.schedule_at(...)`` — fail at the call
(``TypeError``/``AttributeError``); this linter catches them before
anything runs.  It walks the AST (so strings and comments never
false-positive) and flags:

- any ``*.schedule(...)`` call with two or more positional arguments;
- any ``*.schedule(...)`` call using the legacy ``callback=`` keyword;
- any ``*.schedule_at(...)`` call.

Only attribute calls are checked, so unrelated module-level functions
named ``schedule`` are left alone.  Usage::

    python tools/lint_schedule_api.py [paths...]
    # default: src tests benchmarks examples figures
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

DEFAULT_PATHS = ("src", "tests", "benchmarks", "examples", "figures")

#: Files allowed to mention the retired forms: the test asserting they
#: fail, and this tool.
ALLOWED = {
    Path("tests/simcore/test_schedule_api.py"),
    Path("tools/lint_schedule_api.py"),
}


def find_violations(tree: ast.AST) -> list[tuple[int, str]]:
    """Return ``(lineno, message)`` pairs for deprecated scheduling calls."""
    violations: list[tuple[int, str]] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not isinstance(func, ast.Attribute):
            continue
        if func.attr == "schedule_at":
            violations.append(
                (node.lineno,
                 "schedule_at() is deprecated; use schedule(fn, at=time)")
            )
        elif func.attr == "schedule":
            if len(node.args) >= 2:
                violations.append(
                    (node.lineno,
                     "positional schedule(delay, fn) is deprecated; "
                     "use schedule(fn, after=delay)")
                )
            elif any(kw.arg == "callback" for kw in node.keywords):
                violations.append(
                    (node.lineno,
                     "schedule(callback=...) is the legacy spelling; "
                     "pass the callable positionally")
                )
    return violations


def lint_paths(paths: list[str], root: Path) -> list[str]:
    """Lint every ``.py`` file under ``paths``; return formatted failures."""
    failures: list[str] = []
    for base in paths:
        base_path = root / base
        if not base_path.exists():
            continue
        files = (
            [base_path] if base_path.is_file() else sorted(base_path.rglob("*.py"))
        )
        for file in files:
            relative = file.relative_to(root)
            if relative in ALLOWED:
                continue
            try:
                tree = ast.parse(file.read_text(), filename=str(relative))
            except SyntaxError as error:
                failures.append(f"{relative}: unparseable: {error}")
                continue
            for lineno, message in find_violations(tree):
                failures.append(f"{relative}:{lineno}: {message}")
    return failures


def main(argv: list[str]) -> int:
    root = Path(__file__).resolve().parent.parent
    paths = argv or list(DEFAULT_PATHS)
    failures = lint_paths(paths, root)
    for failure in failures:
        print(failure)
    if failures:
        print(f"\n{len(failures)} deprecated scheduling call(s) found")
        return 1
    print("scheduling API lint: clean")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
