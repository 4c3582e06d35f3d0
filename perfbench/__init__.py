"""The exactml benchmark: seeded CLI workloads, a correctness gate and a traced run.

Run one workload with ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1`` from the repository root; ``perfbench/sweep.py``
runs every workload over several seeds. See ``perfbench/README.md``.
"""
