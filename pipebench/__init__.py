"""Pipeline benchmark for sephorn: see ``pipebench/run.py``."""

WORKLOADS = ("qubit", "qudit", "families", "horn")
