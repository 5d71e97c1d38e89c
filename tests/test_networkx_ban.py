"""``src/`` never imports networkx.

Associativity detection runs on canonical sids alone; the VF2 matcher it
replaced is a test-side oracle (``tests/vf2_oracle.py``).  Two checks keep
it there: a static scan of every module under ``src/repro`` for a networkx
import, and a fresh interpreter that runs the revised ICMP pipeline and
then looks for networkx in ``sys.modules``.

A second fresh interpreter runs the CLI and checks that it stays clear of
the serving layer and what that imports (asyncio, multiprocessing): the
CLI's start-up time is most of a warm run.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _networkx_imports(path: Path) -> list[int]:
    lines = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        if any(name == "networkx" or name.startswith("networkx.")
               for name in names):
            lines.append(node.lineno)
    return lines


def test_no_module_under_src_imports_networkx():
    modules = sorted((SRC / "repro").rglob("*.py"))
    assert modules
    offenders = {str(path.relative_to(SRC)): lines
                 for path in modules
                 if (lines := _networkx_imports(path))}
    assert not offenders, offenders


def _fresh_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("REPRO_CACHE_DIR", None)
    return env


def test_revised_icmp_run_leaves_networkx_unimported():
    env = _fresh_env()
    script = (
        "import sys\n"
        "from repro.core import SageEngine\n"
        "run = SageEngine(mode='revised').process_corpus('ICMP')\n"
        "assert run.results, 'empty run'\n"
        "print('networkx' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_cli_process_leaves_the_serving_layer_unimported():
    script = (
        "import io, sys\n"
        "from repro.api.cli import main\n"
        "assert main(['process', 'ICMP', '--json'], out=io.StringIO()) == 0\n"
        "print(sorted(name for name in ('repro.server', 'multiprocessing',\n"
        "                               'asyncio') if name in sys.modules))\n"
    )
    out = subprocess.run([sys.executable, "-c", script], env=_fresh_env(),
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
