"""End-to-end benchmark of the plan service, the simulator and the unified runtime.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; see :mod:`perfbench.run`.
"""
