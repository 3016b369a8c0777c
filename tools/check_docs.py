#!/usr/bin/env python3
"""Docs smoke check: README/ARCHITECTURE must reference only real things.

A grep-based guard (no imports of the package) that keeps the docs
honest as the CLI and module tree evolve:

* every ``python -m repro <subcommand>`` in a fenced code block names a
  real subcommand, and every ``--flag`` on such a line appears in
  ``src/repro/cli.py`` (or ``src/repro/experiments/runner.py`` for
  ``python -m repro.experiments`` lines), and every ``--backend VALUE``
  on such a line is one of that option's ``choices`` in the CLI;
* every dotted ``repro.foo.bar`` reference resolves to a module file
  under ``src/`` (trailing attribute names are tolerated);
* every referenced repo-relative path (``docs/...``, ``examples/...``,
  ``benchmarks/...``, ``tests/...``, ``src/...``) exists.

Run: ``python tools/check_docs.py`` (exit code 0 = docs are clean).
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DOCS = [ROOT / "README.md", ROOT / "docs" / "ARCHITECTURE.md"]

#: Flags that belong to tools other than the repro CLI (pytest etc.).
FOREIGN_FLAGS = {"--benchmark-only", "--help"}


def fenced_code_lines(text: str):
    """Lines inside ``` fenced blocks."""
    inside = False
    for line in text.splitlines():
        if line.strip().startswith("```"):
            inside = not inside
            continue
        if inside:
            yield line.strip()


def module_exists(dotted: str) -> bool:
    """Whether ``repro.a.b[.attr...]`` resolves under src/.

    Trailing attribute names are tolerated (``repro.engine.core.StreamEngine``
    is fine), but the reference must resolve at least one component past
    the ``repro`` root — otherwise ``repro.anything.at.all`` would pass.
    """
    parts = dotted.split(".")
    while len(parts) >= 2:
        candidate = ROOT / "src" / Path(*parts)
        if candidate.with_suffix(".py").exists() or (candidate / "__init__.py").exists():
            return True
        parts = parts[:-1]
    return False


def check_document(path: Path, cli_source: str, runner_source: str):
    errors = []
    text = path.read_text(encoding="utf-8")
    subcommands = set(
        re.findall(r'commands\.add_parser\(\s*"([a-z]+)"', cli_source)
    )
    backends = {
        value
        for choices in re.findall(r'"--backend",\s*choices=\[([^\]]*)\]', cli_source)
        for value in re.findall(r'"([a-z]+)"', choices)
    }

    for line in fenced_code_lines(text):
        if not line.startswith("python -m repro"):
            continue
        is_runner = line.startswith("python -m repro.experiments")
        source = runner_source if is_runner else cli_source
        if not is_runner:
            tokens = line.split()
            if len(tokens) >= 4 and not tokens[3].startswith("-"):
                subcommand = tokens[3]
                if subcommand not in subcommands:
                    errors.append(
                        f"{path.name}: unknown subcommand {subcommand!r} in: {line}"
                    )
            for value in re.findall(r"--backend[ =]([\w|]+)", line):
                for backend in value.split("|"):
                    if backend not in backends:
                        errors.append(
                            f"{path.name}: --backend {backend!r} is not one of "
                            f"the CLI's choices {sorted(backends)} in: {line}"
                        )
        for flag in re.findall(r"(?<!-)(--[a-z][a-z-]*)", line):
            if flag in FOREIGN_FLAGS:
                continue
            if f'"{flag}"' not in source:
                errors.append(f"{path.name}: unknown flag {flag} in: {line}")

    for dotted in set(re.findall(r"\brepro(?:\.[A-Za-z_][A-Za-z_0-9]*)+", text)):
        if not module_exists(dotted):
            errors.append(f"{path.name}: dangling module reference {dotted}")

    for relative in set(
        re.findall(r"\b(?:docs|examples|benchmarks|tests|src)/[\w./-]+\b", text)
    ):
        target = relative.rstrip(".")
        if target.endswith(("_", "-")):
            continue  # a glob like bench_*.py, truncated at the star
        if not (ROOT / target).exists():
            errors.append(f"{path.name}: dangling path reference {target}")
    return errors


def main() -> int:
    cli_source = (ROOT / "src" / "repro" / "cli.py").read_text(encoding="utf-8")
    runner_source = (ROOT / "src" / "repro" / "experiments" / "runner.py").read_text(
        encoding="utf-8"
    )
    errors = []
    for path in DOCS:
        if not path.exists():
            errors.append(f"missing document: {path.relative_to(ROOT)}")
            continue
        errors.extend(check_document(path, cli_source, runner_source))
    for error in errors:
        print(f"check_docs: {error}", file=sys.stderr)
    if not errors:
        print(f"check_docs: {', '.join(d.name for d in DOCS)} are clean")
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
