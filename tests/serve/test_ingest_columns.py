"""The column ingestion path equals the per-sample oracle it replaced.

Production validates and packs a tick's submissions in one pass
(:func:`repro.serve.api.make_batch`) and queues column chunks
(:class:`repro.serve.queue.BoundedIngestQueue`).  The per-sample path —
a ``float()`` validator, a deque of samples, one scalar store per value
— lives in ``tests/oracles/ingest.py``.  On arbitrary submissions (wrong
types, empty ids, ``None``/NaN/str/bool/huge-int values, extra or
missing counters, missing or non-finite timestamps, duplicates and
bursts) both must give bit-equal columns, the same ``present`` masks
and drop tallies, equal :class:`~repro.serve.queue.QueueStats` and the
same drained row order under every backpressure policy.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import IngestFaultInjector, IngestFaultPlan
from repro.serve import (
    POLICIES,
    BoundedIngestQueue,
    NodeSample,
    concat_batches,
    make_batch,
)
from repro.serve.api import RowPacker
from tests.oracles import ingest as oracle

from .conftest import COUNTERS, make_fleet_samples

_FLOAT_COLUMNS = ("deltas", "interval_s", "voltage_v", "frequency_mhz", "time_s")
_BOOL_COLUMNS = ("present", "time_valid")


def assert_same_batch(ours, ref):
    assert ours.counters == ref.counters
    assert ours.node_ids == ref.node_ids
    for name in _FLOAT_COLUMNS:
        a, b = getattr(ours, name), getattr(ref, name)
        assert a.dtype == b.dtype == np.float64, name
        assert a.shape == b.shape, name
        # Bit for bit: NaN payloads and the sign of zero included.
        assert np.array_equal(a.view(np.int64), b.view(np.int64)), name
    for name in _BOOL_COLUMNS:
        a, b = getattr(ours, name), getattr(ref, name)
        assert a.dtype == b.dtype == np.bool_, name
        assert np.array_equal(a, b), name


def oracle_pack(submissions, counters=COUNTERS):
    validator = oracle.SchemaValidator()
    batch = oracle.make_batch(validator.validate(submissions), counters)
    return batch, validator.dropped


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
_HUGE = st.sampled_from([10**400, -(10**400), 2**63, 2**64 + 1, 2**53 + 1, -(2**63)])
numbers = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(min_value=-(2**70), max_value=2**70),
    _HUGE,
    st.booleans(),
)
values = st.one_of(
    numbers,
    numbers,
    st.none(),
    st.sampled_from(["1.5", "abc", "nan", " 2 ", "1_000", "-inf", ""]),
    st.just(1 + 0j),
    st.just([1.0]),
)
clean_values = st.floats(min_value=0.0, max_value=2e7)
exact_deltas = st.fixed_dictionaries({c: st.one_of(clean_values, values) for c in COUNTERS})
some_deltas = st.dictionaries(st.sampled_from(COUNTERS + ("extra",)), values, max_size=4)
deltas = st.one_of(
    st.fixed_dictionaries({c: clean_values for c in COUNTERS}),
    exact_deltas,
    some_deltas,
    # A dict subclass whose lookups insert keys must be read with .get.
    some_deltas.map(lambda d: defaultdict(float, d)),
    st.sampled_from([None, [], "deltas", 3.0]),
)
contexts = st.one_of(st.floats(min_value=0.1, max_value=3e3), values)
times = st.one_of(st.none(), st.floats(min_value=0.0, max_value=1e4), values)
node_ids = st.one_of(
    st.sampled_from(["n0", "n1", "n2", "n3", "n4"]),
    st.sampled_from(["", None, 7]),
)
samples = st.builds(
    NodeSample,
    node_id=node_ids,
    counter_deltas=deltas,
    interval_s=contexts,
    voltage_v=contexts,
    frequency_mhz=contexts,
    time_s=times,
)
garbage = st.one_of(st.none(), st.integers(), st.text(max_size=3), st.just({"node_id": "n0"}))
submission = st.one_of(samples, samples, samples, garbage)


@st.composite
def submissions(draw, max_size=12):
    """A submission list with duplicate deliveries and burst replays."""
    subs = draw(st.lists(submission, max_size=max_size))
    out = []
    for sub in subs:
        out.append(sub)
        if draw(st.integers(0, 4)) == 0:
            out.append(sub)  # delivered twice
    return out * draw(st.sampled_from([1, 1, 1, 2]))


# ----------------------------------------------------------------------
# Tests
# ----------------------------------------------------------------------
class TestMakeBatchMatchesOracle:
    @settings(max_examples=400, deadline=None)
    @given(submissions(max_size=16))
    def test_columns_masks_and_tallies(self, subs):
        ref, ref_dropped = oracle_pack(subs)
        dropped = {}
        ours = make_batch(subs, COUNTERS, dropped)
        assert_same_batch(ours, ref)
        assert dropped == ref_dropped

    @settings(max_examples=100, deadline=None)
    @given(submissions())
    def test_without_a_tally_a_drop_raises(self, subs):
        _, ref_dropped = oracle_pack(subs)
        if ref_dropped:
            with pytest.raises(ValueError, match="malformed"):
                make_batch(subs, COUNTERS)
        else:
            make_batch(subs, COUNTERS)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(samples, max_size=8), st.sampled_from([(), ("branches",)]))
    def test_other_counter_sets(self, subs, counters):
        ref, ref_dropped = oracle_pack(subs, counters)
        dropped = {}
        assert_same_batch(make_batch(subs, counters, dropped), ref)
        assert dropped == ref_dropped

    def test_an_empty_tick_packs_no_rows(self):
        assert_same_batch(make_batch([], COUNTERS), oracle.make_batch([], COUNTERS))


class TestRowPackerMatchesOracle:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(samples, min_size=1, max_size=6))
    def test_reused_row_equals_a_fresh_batch(self, subs):
        """The one-node path packs what the per-sample packer packs, and
        raises where it raises; its arrays are reused across calls."""
        packer = RowPacker("node", COUNTERS)
        for sub in subs:
            if not isinstance(sub.counter_deltas, dict):
                continue
            sub = NodeSample("node", *[getattr(sub, f) for f in (
                "counter_deltas", "interval_s", "voltage_v", "frequency_mhz", "time_s",
            )])
            try:
                ref = oracle.make_batch([sub], COUNTERS)
            except (TypeError, ValueError, OverflowError) as error:
                with pytest.raises(type(error)):
                    packer.pack(
                        sub.counter_deltas, sub.interval_s, sub.voltage_v,
                        sub.frequency_mhz, sub.time_s,
                    )
                continue
            ours = packer.pack(
                sub.counter_deltas, sub.interval_s, sub.voltage_v,
                sub.frequency_mhz, sub.time_s,
            )
            assert ours is packer.batch
            assert_same_batch(ours, ref)


def _drained(queue):
    return concat_batches(queue.drain(), COUNTERS)


class TestQueueMatchesOracle:
    @pytest.mark.parametrize("policy", POLICIES)
    @settings(max_examples=100, deadline=None)
    @given(
        capacity=st.integers(1, 12),
        ops=st.lists(
            st.one_of(submissions(max_size=8), st.integers(-1, 10)), max_size=8
        ),
    )
    def test_stats_outcomes_and_drained_order(self, policy, capacity, ops):
        """Offers (a submission list) and drains (an int) interleaved:
        every outcome, every drained row and the stats agree."""
        ours = BoundedIngestQueue(capacity, policy=policy)
        ref = oracle.BoundedIngestQueue(capacity, policy=policy)
        dropped = {}
        for op in ops:
            if isinstance(op, int):
                got = concat_batches(ours.drain(op), COUNTERS)
                assert_same_batch(got, oracle.make_batch(ref.drain(op), COUNTERS))
            else:
                outcome = ours.offer(make_batch(op, COUNTERS, dropped))
                expected = ref.offer(oracle.SchemaValidator().validate(op))
                assert (outcome.accepted, outcome.rejected, outcome.shed) == (
                    expected.accepted, expected.rejected, expected.shed,
                )
                if expected.diverted:
                    assert_same_batch(
                        outcome.diverted,
                        oracle.make_batch(expected.diverted, COUNTERS),
                    )
                else:
                    assert outcome.diverted is None
            assert ours.stats() == ref.stats()
            assert len(ours) == ours.depth == ref.stats().depth
        assert_same_batch(_drained(ours), oracle.make_batch(ref.drain(), COUNTERS))


@pytest.mark.parametrize("policy", POLICIES)
def test_chaos_stream_ingests_like_the_oracle(policy, fault_seed):
    """A seeded fault stream (malformed, dropped, NaN, negative,
    duplicate and burst submissions) through a queue that overflows
    every burst: the same columns, tallies and stats tick after tick."""
    plan = IngestFaultPlan.chaos(0.5, faulty_node_fraction=0.4, fault_seed=fault_seed)
    injector = IngestFaultInjector(plan, fault_seed)
    rng = np.random.default_rng(fault_seed)
    node_ids = [f"node-{i:02d}" for i in range(16)]
    ours = BoundedIngestQueue(20, policy=policy)
    ref = oracle.BoundedIngestQueue(20, policy=policy)
    dropped, ref_validator = {}, oracle.SchemaValidator()
    for tick in range(12):
        subs = injector.corrupt(make_fleet_samples(node_ids, tick, rng), tick)
        ours.offer(make_batch(subs, COUNTERS, dropped))
        ref.offer(ref_validator.validate(subs))
        assert dropped == ref_validator.dropped
        assert ours.stats() == ref.stats()
        if tick % 3 == 2:
            assert_same_batch(_drained(ours), oracle.make_batch(ref.drain(), COUNTERS))
    assert sum(dropped.values()) > 0
