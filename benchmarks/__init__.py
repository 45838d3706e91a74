"""Benchmarks: the end-to-end benchmark lives in :mod:`benchmarks.e2e`."""
