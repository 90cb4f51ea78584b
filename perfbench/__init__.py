"""The repository's benchmark: see ``perfbench/run.py``."""
