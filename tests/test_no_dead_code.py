"""A gate against dead code: every function, class and method defined in
``src/`` must be named somewhere besides its own definition.

A name counts as used when it occurs as a whole word at least twice across
the project's code, tests, benchmarks, examples and scripts (its ``def`` or
``class`` line is one occurrence).  Dunder methods are called by the
interpreter and are exempt.  The check is textual, so a name that is only
mentioned (in a docstring, a string, a comment) counts as used: the gate
catches definitions nothing mentions at all.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIRECTORIES = ("src", "tests", "benchmarks", "perfbench", "examples",
               "scripts")
SUFFIXES = (".py", ".sh", ".yml", ".toml")
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _statements(body: list):
    """Every statement in ``body``, nested blocks included (expressions
    hold no definitions, so they are not walked)."""
    for node in body:
        yield node
        for block in ("body", "orelse", "finalbody", "handlers", "cases"):
            inner = getattr(node, block, None)
            if isinstance(inner, list):
                yield from _statements(inner)


def defined_names() -> dict[str, str]:
    """Every non-dunder function/class/method name in ``src/`` → the file
    (relative to the repo root) that defines it first."""
    names: dict[str, str] = {}
    for path in sorted((ROOT / "src").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in _statements(tree.body):
            if isinstance(node, DEFINITIONS) and not _is_dunder(node.name):
                names.setdefault(node.name, str(path.relative_to(ROOT)))
    return names


def word_counts() -> Counter:
    words = re.compile(r"\w+")
    counts: Counter = Counter()
    for directory in DIRECTORIES:
        for path in (ROOT / directory).rglob("*"):
            if path.suffix in SUFFIXES and path.is_file():
                counts.update(words.findall(
                    path.read_text(encoding="utf-8", errors="replace")))
    return counts


def test_every_definition_is_referenced():
    counts = word_counts()
    dead = sorted(f"{where}: {name}"
                  for name, where in defined_names().items()
                  if counts[name] < 2)
    assert not dead, ("defined in src/ but never referenced:\n  "
                      + "\n  ".join(dead))
