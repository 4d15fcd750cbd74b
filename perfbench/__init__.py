"""Benchmark harness for the infomenu solvers; run ``perfbench/run.py``."""
