"""End-to-end benchmark of the repro package, driven from outside the program.

``python3 perfbench/run.py --workload {query,serve,update} --seed N
--seconds S --trace {0,1}`` runs one workload and prints one JSON object as
its last line; ``perfbench/README.md`` describes the workloads, the metrics
and the evidence behind their bounds.
"""
