"""``python -m repro`` with the layer wrappers installed (traced runs only).

Usage: python perfbench/traced_main.py --trace-dir DIR <repro CLI args>

The wrappers go in before the CLI runs, so the ``serve`` worker pool and
any sweep fan-out fork with them in place; every process writes its spans
to DIR when it ends.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import common, tracer  # noqa: E402


def main() -> int:
    if len(sys.argv) < 3 or sys.argv[1] != "--trace-dir":
        print(__doc__, file=sys.stderr)
        return 2
    out_dir = sys.argv[2]
    common.prepare_environment()
    from repro.api import cli

    serving = len(sys.argv) > 3 and sys.argv[3] == "serve"
    tracer.install_for_process(out_dir, auto_op=serving)
    return cli.main(sys.argv[3:])


if __name__ == "__main__":
    sys.exit(main())
