"""Benchmark of record for the repro pipeline; run ``python3 perfbench/run.py --help``."""
