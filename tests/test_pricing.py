import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fogsim.engine import Scenario
from fogsim.metrics import CLOUD_LATENCY, MESSAGE_KB, RunTrace, account
from fogsim.model import PriceBook, Task, UsageLedger, fold_sum
from fogsim.pricing import (
    connectivity_cost,
    messaging_cost,
    processing_cost,
    total_app_cost,
)

PRICES = PriceBook()  # defaults: 0.08 / 1.00 / 0.15, U=5, FS=2, FD=3


def test_connectivity_cloud_only():
    ledger = UsageLedger(cloud_connect_minutes=1e6)
    assert connectivity_cost(ledger, PRICES) == pytest.approx(0.08)


def test_connectivity_server_halved():
    ledger = UsageLedger(server_connect_minutes=2e6)
    # 0.08 * (2e6 / 2) * 1e-6
    assert connectivity_cost(ledger, PRICES) == pytest.approx(0.08)


def test_connectivity_empty():
    assert connectivity_cost(UsageLedger(), PRICES) == 0.0


def test_messaging_million_five_kb():
    ledger = UsageLedger(cloud_messages_kb=Counter({5.0: 1_000_000}))
    assert messaging_cost(ledger, PRICES) == pytest.approx(1.00)


def test_messaging_oversize_counts_double():
    ledger = UsageLedger(cloud_messages_kb=Counter({7.0: 1_000_000}))
    assert messaging_cost(ledger, PRICES) == pytest.approx(2.00)


def test_messaging_empty():
    assert messaging_cost(UsageLedger(), PRICES) == 0.0


def test_messaging_bad_unit_rejected():
    with pytest.raises(ValueError):
        messaging_cost(UsageLedger(cloud_messages_kb=Counter({5.0: 1})),
                       PriceBook(data_unit=0.0))


def test_processing_cloud():
    ledger = UsageLedger(cloud_processing_kb=Counter({5.0: 1_000_000}))
    assert processing_cost(ledger, PRICES) == pytest.approx(0.15)


def test_processing_device_third():
    ledger = UsageLedger(device_processing_kb=Counter({5.0: 3_000_000}))
    assert processing_cost(ledger, PRICES) == pytest.approx(0.15)


def test_processing_empty():
    assert processing_cost(UsageLedger(), PRICES) == 0.0


def test_total_sums_three_components():
    ledger = UsageLedger(
        cloud_connect_minutes=1e6,                       # 0.08
        cloud_messages_kb=Counter({5.0: 1_000_000}),     # 1.00
        cloud_processing_kb=Counter({5.0: 1_000_000}),   # 0.15
    )
    assert total_app_cost(ledger, PRICES) == pytest.approx(1.23)


def test_total_zero_ledger():
    assert total_app_cost(UsageLedger(), PRICES) == 0.0


sizes = st.lists(st.floats(min_value=0.1, max_value=50.0), max_size=20).map(Counter)
minutes = st.floats(min_value=0.0, max_value=2e5)


@st.composite
def ledger_st(draw):
    return UsageLedger(
        cloud_connect_minutes=draw(minutes),
        server_connect_minutes=draw(minutes),
        device_connect_minutes=draw(minutes),
        cloud_messages_kb=draw(sizes),
        server_messages_kb=draw(sizes),
        device_messages_kb=draw(sizes),
        cloud_processing_kb=draw(sizes),
        server_processing_kb=draw(sizes),
        device_processing_kb=draw(sizes),
    )


ALL_COSTS = (connectivity_cost, messaging_cost, processing_cost, total_app_cost)


def union(a, b):
    """The ledger holding both ledgers' usage: minutes added, counts added."""
    return UsageLedger(**{name: getattr(a, name) + getattr(b, name)
                          for name in UsageLedger.__dataclass_fields__})


@settings(max_examples=200, deadline=None)
@given(a=ledger_st(), b=ledger_st())
def test_costs_additive_over_disjoint_ledgers(a, b):
    merged = union(a, b)
    for fn in ALL_COSTS:
        assert fn(merged, PRICES) == pytest.approx(fn(a, PRICES) + fn(b, PRICES))


@settings(max_examples=200, deadline=None)
@given(a=ledger_st(), extra=st.floats(min_value=0.0, max_value=100.0))
def test_costs_monotone_in_usage(a, extra):
    grown = union(a, UsageLedger(
        cloud_connect_minutes=extra, cloud_messages_kb=Counter([extra + 0.1]),
        cloud_processing_kb=Counter([extra + 0.1])))
    for fn in ALL_COSTS:
        assert fn(grown, PRICES) >= fn(a, PRICES) - 1e-15


@settings(max_examples=200, deadline=None)
@given(vol=st.lists(st.floats(min_value=0.1, max_value=50.0), min_size=1, max_size=20))
def test_tier_ordering_cloud_costs_most(vol):
    cloud = UsageLedger(cloud_messages_kb=Counter(vol), cloud_connect_minutes=fold_sum(vol),
                        cloud_processing_kb=Counter(vol))
    server = UsageLedger(server_messages_kb=Counter(vol), server_connect_minutes=fold_sum(vol),
                         server_processing_kb=Counter(vol))
    device = UsageLedger(device_messages_kb=Counter(vol), device_connect_minutes=fold_sum(vol),
                         device_processing_kb=Counter(vol))
    c, s, d = (total_app_cost(l, PRICES) for l in (cloud, server, device))
    assert c >= s >= d


def per_entry_units(sizes_kb, unit_kb):
    """Billing units as priced from one entry per message, before the ledger tallied sizes."""
    return float(sum(math.ceil(kb / unit_kb) for kb in sizes_kb))


KB_FIELDS = [  # (ledger field, cost function, unit price, tier divisor)
    ("cloud_messages_kb", messaging_cost, "messaging_unit", None),
    ("server_messages_kb", messaging_cost, "messaging_unit", "server_divisor"),
    ("device_messages_kb", messaging_cost, "messaging_unit", "device_divisor"),
    ("cloud_processing_kb", processing_cost, "processing_unit", None),
    ("server_processing_kb", processing_cost, "processing_unit", "server_divisor"),
    ("device_processing_kb", processing_cost, "processing_unit", "device_divisor"),
]


@settings(max_examples=300, deadline=None)
@given(sizes=st.lists(st.one_of(st.sampled_from([0.0, 5.0, 7.0, 10.0]),
                                st.floats(min_value=0.0, max_value=1e6)), max_size=30),
       unit=st.floats(min_value=0.0, exclude_min=True, allow_nan=False))
def test_tallied_sizes_price_as_one_entry_per_message(sizes, unit):
    prices = PriceBook(data_unit=unit)
    for name, cost, unit_price, divisor in KB_FIELDS:
        ledger = UsageLedger(**{name: Counter(sizes)})
        try:
            units = per_entry_units(sizes, unit)
        except OverflowError:  # a size over a subnormal unit: the tally overflows the same way
            with pytest.raises(OverflowError):
                cost(ledger, prices)
            continue
        priced = cost(ledger, prices)
        if divisor is not None:
            units = units / getattr(prices, divisor)
        assert priced == getattr(prices, unit_price) * units * 1e-6, name


@settings(max_examples=100, deadline=None)
@given(requests=st.lists(st.tuples(st.floats(min_value=1.0, max_value=1e5), st.booleans()),
                         max_size=40))
def test_minute_totals_fold_the_requests_in_accounting_order(requests):
    trace = RunTrace()
    scenario = Scenario()
    for i, (length, cloud_bound) in enumerate(requests):
        task = Task(id=f"t{i}", app_id="a0", length=length, data_size=81920.0, deadline=6.0)
        account(trace, scenario, task, completion_time=5.0, deadline=6.0, uplink=0.4,
                active_time=3.0, migrations=0, migration_time=0.0, cloud_bound=cloud_bound,
                progress=length)
    device = [length / 1000.0 / 60.0 for length, _ in requests]
    ledger = trace.ledger
    assert ledger.device_connect_minutes == fold_sum(device)
    assert ledger.server_connect_minutes == fold_sum(m / 2.0 for m in device)
    assert ledger.cloud_connect_minutes == fold_sum(
        2.0 * CLOUD_LATENCY / 60.0 for _, cloud_bound in requests if cloud_bound)
    n_sub = sum(max(math.ceil(length / scenario.subtask_length), 1) for length, _ in requests)
    assert ledger.device_processing_kb == ledger.server_messages_kb == Counter({MESSAGE_KB: n_sub})
    assert ledger.device_messages_kb == Counter({10.0: 2 * len(requests)})
