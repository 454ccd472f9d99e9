"""Benchmark of blochpulse; run it with ``python3 blochbench/run.py`` (see README.md)."""
