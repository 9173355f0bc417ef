"""The repository's gating benchmark (see ``bench/README.md``).

Four workloads, six end-to-end metrics and a per-layer budget from a traced
run.  The contract with the driver is ``BENCHMARK.json`` at the repository
root; ``bench/run.py`` is the one command.  Nothing here is imported by the
program under ``src/``: layers are measured from outside, through their
public functions.
"""
