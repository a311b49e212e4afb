"""The repo benchmark: workloads, reference check and layer tracing.

Run ``python3 perfbench/run.py``; see ``perfbench/README.md``.
"""
