"""The repository benchmark: source text to wide instructions, and request
line to reply line.

Run one workload with::

    python3 perfbench/run.py --workload suite --seed 1 --seconds 10 --trace 0

``BENCHMARK.json`` at the repository root names the workloads and the
metrics; ``perfbench/README.md`` describes how each is measured.
"""
