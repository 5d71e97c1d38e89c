"""Shared helpers: checkout paths, child environment, statistics, memory."""

from __future__ import annotations

import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN_ICMP_C = ROOT / "tests" / "golden" / "icmp_revised.c"
#: Scratch space inside the checkout (stores, span dumps).  Each process
#: works in its own subdirectory and removes it when it ends.
WORK_ROOT = ROOT / ".perfbench_work"
WORK = WORK_ROOT / str(os.getpid())

#: Environment variables that would change what the program does.
_SCRUBBED = ("REPRO_CACHE_DIR", "REPRO_WINNOW_ORACLE")


def prepare_environment() -> None:
    """Make ``repro`` importable from the checkout and drop the variables
    that would point it at a shared store or the debug winnow oracle.
    Every child process inherits the result."""
    for name in _SCRUBBED:
        os.environ.pop(name, None)
    src = str(SRC)
    if src not in sys.path:
        sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = src


def fresh_dir(prefix: str) -> str:
    """A new empty directory under this process's scratch space."""
    WORK.mkdir(parents=True, exist_ok=True)
    base = WORK / f"{prefix}-{time.perf_counter_ns()}"
    base.mkdir()
    return str(base)


def clean_work() -> None:
    """Remove this process's scratch space (and the root, once empty)."""
    shutil.rmtree(WORK, ignore_errors=True)
    try:
        WORK_ROOT.rmdir()
    except OSError:
        pass


# -- host speed ------------------------------------------------------------------
#
# The CPU speed of a small shared virtual machine drifts by up to half
# again over stretches of seconds.  Every timing the benchmark bounds is
# therefore scaled to a reference speed with a calibration loop run next
# to it: a fixed pure-Python loop that touches none of the program's code.

#: Iterations of the calibration loop.
CALIBRATION_LOOPS = 400_000
#: Seconds the loop takes at the reference speed (the fast phase of the
#: 2-CPU host the benchmark was sized on).
REFERENCE_CALIBRATION_S = 0.0145


def speed_factor() -> float:
    """Reference loop time over the loop time now: multiply a time
    measured now by this to express it at the reference speed."""
    started = time.perf_counter()
    total = 0
    for index in range(CALIBRATION_LOOPS):
        total += index
    return REFERENCE_CALIBRATION_S / (time.perf_counter() - started)


# -- statistics ------------------------------------------------------------------

def quantile(values: list[float], fraction: float) -> float:
    """Nearest-rank quantile (``fraction`` in [0, 1]) of a non-empty list."""
    ordered = sorted(values)
    index = min(len(ordered) - 1,
                max(0, int(round(fraction * (len(ordered) - 1)))))
    return ordered[index]


def median(values: list[float]) -> float:
    return statistics.median(values)


# -- memory and processes ----------------------------------------------------------

def self_peak_rss_mb() -> float:
    """This process's peak resident set size (``ru_maxrss`` is in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set size of a live process, from ``VmHWM``."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def cpu_seconds(pid: int, reaped_children: bool) -> float:
    """User plus system CPU time of a live process, optionally with that of
    the children it has already waited for."""
    with open(f"/proc/{pid}/stat", encoding="ascii",
              errors="replace") as handle:
        stat = handle.read()
    fields = stat[stat.rfind(")") + 2:].split()
    utime, stime, cutime, cstime = (int(value) for value in fields[11:15])
    ticks = utime + stime + (cutime + cstime if reaped_children else 0)
    return ticks / os.sysconf("SC_CLK_TCK")


def child_pids(pid: int) -> list[int]:
    """Direct children of ``pid``, found by scanning ``/proc``."""
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii",
                      errors="replace") as handle:
                stat = handle.read()
        except OSError:
            continue
        # The command name may hold spaces; fields resume after its ')'.
        fields = stat[stat.rfind(")") + 2:].split()
        if len(fields) > 1 and int(fields[1]) == pid:
            children.append(int(entry))
    return children


def run_child(argv: list[str], timeout: float = 120.0
              ) -> tuple[int, bytes, bytes, float, float, float]:
    """Run one child to completion.

    Returns ``(exit code, stdout, stderr, wall seconds, CPU seconds, peak
    RSS in MB)``; CPU time and peak come from the resource usage ``wait4``
    reports for the child (its CPU time includes the children it reaped).
    """
    started = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=str(ROOT), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    try:
        out, err = _read_both(proc, timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    _pid, status, usage = os.wait4(proc.pid, 0)
    elapsed = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, out, err, elapsed,
            usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def _read_both(proc: subprocess.Popen, timeout: float) -> tuple[bytes, bytes]:
    """Drain stdout and stderr without reaping the child (``communicate``
    would wait on it and lose the resource usage ``wait4`` reports)."""
    import selectors

    chunks = {proc.stdout: [], proc.stderr: []}
    deadline = time.monotonic() + timeout
    with selectors.DefaultSelector() as selector:
        for stream in chunks:
            selector.register(stream, selectors.EVENT_READ)
        while selector.get_map():
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise subprocess.TimeoutExpired(proc.args, timeout)
            for key, _events in selector.select(remaining):
                data = os.read(key.fd, 65536)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    selector.unregister(key.fileobj)
                    key.fileobj.close()
    return b"".join(chunks[proc.stdout]), b"".join(chunks[proc.stderr])


def stop_process_tree(proc: subprocess.Popen, grace: float = 20.0) -> None:
    """Interrupt a server and wait for it and every child it had to end."""
    children = child_pids(proc.pid)
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=grace)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    deadline = time.monotonic() + grace
    for pid in children:
        while _alive(pid):
            if time.monotonic() > deadline:
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
                deadline = time.monotonic() + grace
            time.sleep(0.02)


def _alive(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii",
                  errors="replace") as handle:
            stat = handle.read()
    except OSError:
        return False
    return stat[stat.rfind(")") + 2:].split()[0] != "Z"
