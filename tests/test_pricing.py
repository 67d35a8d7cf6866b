import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fogsim.model import PriceBook, UsageLedger
from fogsim.pricing import (
    connectivity_cost,
    messaging_cost,
    processing_cost,
    total_app_cost,
)

PRICES = PriceBook()  # defaults: 0.08 / 1.00 / 0.15, U=5, FS=2, FD=3


def test_connectivity_cloud_only():
    ledger = UsageLedger(cloud_connect_minutes=[1e6])
    assert connectivity_cost(ledger, PRICES) == pytest.approx(0.08)


def test_connectivity_server_halved():
    ledger = UsageLedger(server_connect_minutes=[2e6])
    # 0.08 * (2e6 / 2) * 1e-6
    assert connectivity_cost(ledger, PRICES) == pytest.approx(0.08)


def test_connectivity_empty():
    assert connectivity_cost(UsageLedger(), PRICES) == 0.0


def test_messaging_million_five_kb():
    ledger = UsageLedger(cloud_messages_kb=[5.0] * 1_000_000)
    assert messaging_cost(ledger, PRICES) == pytest.approx(1.00)


def test_messaging_oversize_counts_double():
    ledger = UsageLedger(cloud_messages_kb=[7.0] * 1_000_000)
    assert messaging_cost(ledger, PRICES) == pytest.approx(2.00)


def test_messaging_empty():
    assert messaging_cost(UsageLedger(), PRICES) == 0.0


def test_messaging_bad_unit_rejected():
    with pytest.raises(ValueError):
        messaging_cost(UsageLedger(cloud_messages_kb=[5.0]),
                       PriceBook(data_unit=0.0))


def test_processing_cloud():
    ledger = UsageLedger(cloud_processing_kb=[5.0] * 1_000_000)
    assert processing_cost(ledger, PRICES) == pytest.approx(0.15)


def test_processing_device_third():
    ledger = UsageLedger(device_processing_kb=[5.0] * 3_000_000)
    assert processing_cost(ledger, PRICES) == pytest.approx(0.15)


def test_processing_empty():
    assert processing_cost(UsageLedger(), PRICES) == 0.0


def test_total_sums_three_components():
    ledger = UsageLedger(
        cloud_connect_minutes=[1e6],          # 0.08
        cloud_messages_kb=[5.0] * 1_000_000,  # 1.00
        cloud_processing_kb=[5.0] * 1_000_000,  # 0.15
    )
    assert total_app_cost(ledger, PRICES) == pytest.approx(1.23)


def test_total_zero_ledger():
    assert total_app_cost(UsageLedger(), PRICES) == 0.0


sizes = st.lists(st.floats(min_value=0.1, max_value=50.0), max_size=20)
minutes = st.lists(st.floats(min_value=0.0, max_value=1e4), max_size=20)


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


@settings(max_examples=200, deadline=None)
@given(a=ledger_st(), b=ledger_st())
def test_costs_additive_over_disjoint_ledgers(a, b):
    merged = a.combine(b)
    for fn in ALL_COSTS:
        assert fn(merged, PRICES) == pytest.approx(fn(a, PRICES) + fn(b, PRICES))


@settings(max_examples=200, deadline=None)
@given(a=ledger_st(), extra=st.floats(min_value=0.0, max_value=100.0))
def test_costs_monotone_in_usage(a, extra):
    grown = a.combine(UsageLedger(
        cloud_connect_minutes=[extra], cloud_messages_kb=[extra + 0.1],
        cloud_processing_kb=[extra + 0.1]))
    for fn in ALL_COSTS:
        assert fn(grown, PRICES) >= fn(a, PRICES) - 1e-15


@settings(max_examples=200, deadline=None)
@given(vol=st.lists(st.floats(min_value=0.1, max_value=50.0), min_size=1, max_size=20))
def test_tier_ordering_cloud_costs_most(vol):
    cloud = UsageLedger(cloud_messages_kb=list(vol), cloud_connect_minutes=list(vol),
                        cloud_processing_kb=list(vol))
    server = UsageLedger(server_messages_kb=list(vol), server_connect_minutes=list(vol),
                         server_processing_kb=list(vol))
    device = UsageLedger(device_messages_kb=list(vol), device_connect_minutes=list(vol),
                         device_processing_kb=list(vol))
    c, s, d = (total_app_cost(l, PRICES) for l in (cloud, server, device))
    assert c >= s >= d
