"""Reference implementations kept as bit-identity oracles for the tests.

Each module holds the original, straightforward implementation of a
production stage that has since been replaced by a faster one, or a
helper only tests need:

* ``physics`` — the scalar microarchitecture and power simulator
  (``evaluate``, ``compute_power``) behind the batched kernel;
* ``acquisition`` — per-phase execution, tracing, sampling and
  profile extraction (``window_mean``, ``sample_node_total``);
* ``exact_fit`` — the exact solver for every Gram-cache fit;
* ``online`` — the serial per-node online estimator;
* ``ingest`` — the per-sample ingestion path and ``row_sample``.

The oracles never run in production, and no module under ``src/``
imports them (``tests/test_source_invariants.py``); test suites call
them or swap them in and assert that production output equals theirs
bit for bit.
"""
