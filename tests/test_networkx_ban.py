"""``src/`` never imports networkx.

Associativity detection runs on canonical sids alone; the VF2 matcher it
replaced is a test-side oracle (``tests/vf2_oracle.py``).  Two checks keep
it there: a static scan of every module under ``src/repro`` for a networkx
import, and a fresh interpreter that runs the revised ICMP pipeline and
then looks for networkx in ``sys.modules``.

A second fresh interpreter runs the CLI and checks that it stays clear of
the serving layer and what that imports (asyncio, multiprocessing): the
CLI's start-up time is most of a warm run.  Further fresh interpreters run
``--help`` and warm ``process``/``sweep`` commands and check that they
load none of the parser, chart, lexicon, check suite, handlers, emitters
or session code: a warm answer comes from one run entry per protocol.
Nor do they load the RFC text parser (``rfc.document``,
``rfc.preprocess``, ``rfc.header_diagram`` and the ``framework.packet``
and ``nlp.tokenizer`` modules it pulls in), the resolution module or the
codegen IR (``codegen.ir``, ``codegen.ops``): a warm answer reads only
each corpus's fingerprint and protocol name, no resolution, and no IR.

Naming or validating a codegen backend imports none of their modules,
nor the IR.

The run layer's store key must also print the same in every process, so
two interpreters with different hash seeds compute it and compare.
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


#: Modules a warm CLI answer must never load.
SUBSTRATE_MODULES = (
    "repro.parsing.indexed", "repro.ccg.chart", "repro.ccg.lexicon",
    "repro.disambiguation.checks", "repro.codegen.handlers",
    "repro.codegen.emitters", "repro.api.session", "networkx",
    "repro.rfc.document", "repro.rfc.preprocess", "repro.rfc.header_diagram",
    "repro.framework.packet", "repro.nlp.tokenizer",
    "repro.disambiguation.resolution", "repro.codegen.ir",
    "repro.codegen.ops",
)


def _loaded_by_cli(argv: list[str]) -> list[str]:
    """Run ``python -m repro *argv`` in a fresh interpreter; the
    :data:`SUBSTRATE_MODULES` it loaded."""
    script = (
        "import contextlib, io, runpy, sys\n"
        f"sys.argv = ['repro', *{argv!r}]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    try:\n"
        "        runpy.run_module('repro', run_name='__main__')\n"
        "    except SystemExit as exc:\n"
        "        assert exc.code in (0, None), exc.code\n"
        f"print(sorted(set({SUBSTRATE_MODULES!r}) & set(sys.modules)))\n"
    )
    out = subprocess.run([sys.executable, "-c", script], env=_fresh_env(),
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    return ast.literal_eval(out.stdout.strip())


def test_help_and_warm_cli_runs_load_no_substrate(tmp_path):
    from repro.api import SageService
    from repro.rfc.registry import ProtocolRegistry

    store = str(tmp_path / "store")
    SageService(registry=ProtocolRegistry(cache_dir=store)).sweep()
    assert _loaded_by_cli(["--help"]) == []
    for command in (["process", "ICMP"], ["sweep", "--all"]):
        assert _loaded_by_cli([*command, "--cache-dir", store, "--json"]) \
            == [], command


def test_codegen_backend_names_load_no_backend_module():
    script = (
        "import sys\n"
        "from repro.api import BackendNotFound, SageService\n"
        "from repro.codegen.backends import backend_names\n"
        "assert backend_names() == ['c', 'interp', 'python']\n"
        "try:\n"
        "    SageService().process(protocol='ICMP', artifacts=('rust',))\n"
        "except BackendNotFound:\n"
        "    pass\n"
        "print(sorted(name for name in ('repro.codegen.emitters',\n"
        "                               'repro.codegen.interp',\n"
        "                               'repro.codegen.ir')\n"
        "             if name in sys.modules))\n"
    )
    out = subprocess.run([sys.executable, "-c", script], env=_fresh_env(),
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_run_store_key_is_independent_of_the_hash_seed():
    script = (
        "from repro.cache.persistent import _key_string\n"
        "from repro.core import SageEngine\n"
        "from repro.disambiguation.resolution import Resolution\n"
        "from repro.rfc.registry import ProtocolRegistry\n"
        "registry = ProtocolRegistry()\n"
        "for text in ('First chosen sentence.', 'Second chosen sentence.'):\n"
        "    registry.apply_resolution(Resolution(\n"
        "        kind='select_lf', original=text, lf_signature='@Is(a, b)'))\n"
        "engine = SageEngine(protocol_registry=registry)\n"
        "print(_key_string(engine.run_key(registry.load_corpus('ICMP'))))\n"
    )
    keys = []
    for seed in ("1", "2"):
        env = dict(_fresh_env(), PYTHONHASHSEED=seed)
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, timeout=300)
        assert out.returncode == 0, out.stderr
        keys.append(out.stdout)
    assert keys[0] == keys[1]
    assert "first chosen sentence" in keys[0]
