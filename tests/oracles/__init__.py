"""Reference implementations kept as bit-identity oracles for the tests.

Each module holds the original, straightforward implementation of a
production stage that has since been replaced by a faster one.  The
oracles never run in production; test suites swap them in and assert
that production output equals theirs bit for bit.
"""
