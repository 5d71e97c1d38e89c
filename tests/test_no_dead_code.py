"""A gate against dead code: every function, class and method defined in
``src/`` must be named somewhere besides its own definition.

A name counts as used when it occurs as a whole word across the project's
code, tests, benchmarks, examples and scripts outside three places that
only list it: its own definition (the ``def``/``class`` statement and its
body, so a recursive call or the name in its own error message is not a
use), an ``__all__`` list, and a ``lazy_exports(...)`` map.  Dunder
methods are called by the interpreter and are exempt, as are the
``_emit_<op>`` methods, which ``Emitter.emit_op`` looks up by name with
``getattr``.  The check is textual, so a name that is only mentioned (in a
docstring, a string, a comment) counts as used: the gate catches
definitions nothing else mentions at all.  ``scripts/entered.py`` finds the
ones that are mentioned but never run.
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
WORDS = re.compile(r"\w+")
# Reached through getattr(self, f"_emit_{op type}") in codegen/emitters.py.
DISPATCHED = re.compile(r"_emit_\w+")


def _is_exempt(name: str) -> bool:
    return (name.startswith("__") and name.endswith("__")) \
        or DISPATCHED.fullmatch(name) is not None


def _statements(body: list):
    """Every statement in ``body``, nested blocks included (expressions
    hold no definitions, so they are not walked)."""
    for node in body:
        yield node
        for block in ("body", "orelse", "finalbody", "handlers", "cases"):
            inner = getattr(node, block, None)
            if isinstance(inner, list):
                yield from _statements(inner)


def _listing(node: ast.AST) -> bool:
    """An ``__all__`` assignment, or a statement calling ``lazy_exports``."""
    if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
        targets = getattr(node, "targets", None) or [node.target]
        names = {sub.id for target in targets for sub in ast.walk(target)
                 if isinstance(sub, ast.Name)}
        if "__all__" in names:
            return True
    return any(isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
               and sub.func.id == "lazy_exports" for sub in ast.walk(node))


def _uses(text: str, tree: ast.Module | None) -> Counter:
    """Whole-word counts of ``text`` minus its listings and, for each
    definition, the mentions of its own name inside it."""
    lines = text.splitlines()
    counts = Counter(WORDS.findall(text))
    if tree is None:
        return counts

    def span(node) -> list[str]:
        first = min([node.lineno] + [d.lineno for d in
                                     getattr(node, "decorator_list", ())])
        return lines[first - 1:node.end_lineno]

    for node in _statements(tree.body):
        if isinstance(node, DEFINITIONS):
            counts[node.name] -= sum(WORDS.findall(line).count(node.name)
                                     for line in span(node))
        elif _listing(node):
            for line in span(node):
                counts.subtract(WORDS.findall(line))
    return counts


def defined_names() -> dict[str, str]:
    """Every non-exempt function/class/method name in ``src/`` → the file
    (relative to the repo root) that defines it first."""
    names: dict[str, str] = {}
    for path in sorted((ROOT / "src").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in _statements(tree.body):
            if isinstance(node, DEFINITIONS) and not _is_exempt(node.name):
                names.setdefault(node.name, str(path.relative_to(ROOT)))
    return names


def use_counts() -> Counter:
    counts: Counter = Counter()
    for directory in DIRECTORIES:
        for path in (ROOT / directory).rglob("*"):
            if path.suffix in SUFFIXES and path.is_file():
                text = path.read_text(encoding="utf-8", errors="replace")
                tree = (ast.parse(text, str(path)) if path.suffix == ".py"
                        else None)
                counts.update(_uses(text, tree))
    return counts


def test_every_definition_is_referenced():
    counts = use_counts()
    dead = sorted(f"{where}: {name}"
                  for name, where in defined_names().items()
                  if counts[name] < 1)
    assert not dead, ("defined in src/ but never referenced:\n  "
                      + "\n  ".join(dead))
