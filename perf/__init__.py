"""The repo benchmark: six workloads, host-time metrics, per-layer spans.

See ``perf/README.md``. ``python perf/run.py`` is the single entry point;
``BENCHMARK.json`` at the repo root declares the contract it implements.
"""
