"""The layered end-to-end benchmark (see README.md next to this file).

``python3 benchmarks/e2e/run.py`` (or ``python -m benchmarks.e2e``) is
the one command; ``BENCHMARK.json`` at the repository root is its
contract with the driver.
"""
