"""The repo's one benchmark: four seeded, oracle-checked workloads.

``python3 benchmarks/e2e/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` (the command registered in ``BENCHMARK.json``) or
``PYTHONPATH=src python -m benchmarks.e2e ...`` runs one workload and prints
its metrics as one JSON object on the last line of standard output.  See
``README.md`` in this directory for the metric catalogue and how to read it.
"""
