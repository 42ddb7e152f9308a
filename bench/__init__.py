"""Benchmark of the gicbounds command-line tool; run ``python3 bench/run.py``."""
