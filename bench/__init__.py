"""The repo benchmark: four fixed-work workloads, see ``bench/README.md``."""
