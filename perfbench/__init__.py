"""Benchmark package: see README.md; entry point run.py."""
