"""RIOT's end-to-end benchmark: workloads, timed runs and a layer trace.

Run ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>``; see ``perfbench/README.md``.
"""
