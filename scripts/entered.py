"""Function-entry map: which functions under ``src/repro`` a command enters.

    python scripts/entered.py run DATA -- CMD [ARG...]
    python scripts/entered.py report DATA

``run`` runs ``CMD`` with a generated ``sitecustomize.py`` first on
``PYTHONPATH``, so every Python process the command starts records the
``src/repro`` functions it enters: pytest, CLI subprocesses, ``repro
serve`` and its forked pool workers.  Each process writes one record file
into ``DATA``; repeated ``run`` calls over one ``DATA`` add up.  The exit
status is the command's.

``report`` merges the records and prints, per file, every function
(``def`` or method, at any nesting) whose code was never entered, with its
body line count.  A function nested in a never-entered one is folded into
it.  ``./scripts/ci.sh entered`` runs the map over tier-1 and every other
``ci.sh`` step (see DESIGN.md §14).

Stdlib only.  The recorder is a ``sys.setprofile`` hook (also set for new
threads) that adds each entered code object to a set; a process writes the
set when it exits: through ``atexit`` normally, and through a wrapper on
``os._exit``, which forked pool workers leave by and which skips
``atexit``.  A process killed by a signal it does not handle writes
nothing; ``repro serve`` handles SIGTERM and exits normally.
"""

from __future__ import annotations

import argparse
import ast
import os
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

SITECUSTOMIZE = '''\
import atexit, os, sys, threading

_DATA = {data!r}
_SRC = {src!r}
_seen = set()
_name = [None]


def _profile(frame, event, arg, _add=_seen.add):
    if event == "call":
        _add(frame.f_code)


def _rename():
    _name[0] = f"{{os.getpid()}}-{{os.urandom(4).hex()}}.txt"


def _flush():
    codes = list(_seen)
    real = {{}}
    lines = set()
    for code in codes:
        path = code.co_filename
        if path not in real:
            real[path] = os.path.realpath(path)
        if real[path].startswith(_SRC):
            lines.add(f"{{real[path][len(_SRC):]}}:{{code.co_firstlineno}}\\n")
    if lines:
        with open(os.path.join(_DATA, _name[0]), "w") as out:
            out.writelines(sorted(lines))


def _exit(status, _real=os._exit):
    _flush()
    _real(status)


_rename()
os.register_at_fork(after_in_child=_rename)
os._exit = _exit
atexit.register(_flush)
threading.setprofile(_profile)
sys.setprofile(_profile)
'''


def run(data: Path, command: list[str]) -> int:
    data.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="entered-site-") as site:
        Path(site, "sitecustomize.py").write_text(SITECUSTOMIZE.format(
            data=str(data.resolve()), src=str(SRC.resolve()) + os.sep))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [site, env.get("PYTHONPATH")]))
        return subprocess.run(command, env=env).returncode


def entered(data: Path) -> set[str]:
    """Every ``relpath:firstlineno`` some process recorded."""
    lines: set[str] = set()
    for path in data.glob("*.txt"):
        lines.update(path.read_text().split())
    return lines


def functions(path: Path):
    """``(first line, qualified name, body lines, parent)`` for every
    function in ``path``; the first line is a code object's
    ``co_firstlineno`` (its first decorator, when it has any)."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))

    def walk(node, prefix, parent):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d
                                              in child.decorator_list])
                name = prefix + child.name
                body = child.end_lineno - child.body[0].lineno + 1
                key = (first, name, body, parent)
                yield key
                yield from walk(child, name + ".", key)
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, prefix + child.name + ".", parent)
            else:
                yield from walk(child, prefix, parent)

    yield from walk(tree, "", None)


def report(data: Path) -> int:
    seen = entered(data)
    if not seen:
        print(f"no records under {data}", file=sys.stderr)
        return 1
    dead: dict[str, list[tuple[int, str, int]]] = defaultdict(list)
    total = total_lines = dead_count = dead_lines = 0
    for path in sorted(SRC.rglob("*.py")):
        rel = str(path.relative_to(SRC))
        missed = set()
        for key in functions(path):
            first, name, body, parent = key
            total += 1
            total_lines += body if parent is None else 0
            if f"{rel}:{first}" in seen:
                continue
            missed.add(key)
            if parent in missed:
                continue  # folded into its never-entered parent
            dead[rel].append((first, name, body))
            dead_count += 1
            dead_lines += body
    for rel, entries in dead.items():
        print(f"src/repro/{rel}")
        for first, name, body in entries:
            print(f"  {first:5d}  {name}  ({body} lines)")
    print(f"never entered: {dead_count} of {total} functions, "
          f"{dead_lines} of {total_lines} body lines")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="action", required=True)
    run_parser = sub.add_parser("run", help="run a command, recording entries")
    run_parser.add_argument("data", type=Path)
    run_parser.add_argument("command", nargs=argparse.REMAINDER)
    report_parser = sub.add_parser("report", help="list never-entered functions")
    report_parser.add_argument("data", type=Path)
    args = parser.parse_args(argv)
    if args.action == "report":
        return report(args.data)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not command:
        parser.error("run needs a command after --")
    return run(args.data, command)


if __name__ == "__main__":
    sys.exit(main())
