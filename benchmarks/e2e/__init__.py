"""End-to-end benchmark of the reproduction: paper runs, model fits and
fleet serving, with a traced per-layer breakdown (see README.md)."""
