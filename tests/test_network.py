import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fogsim.model import NetworkLink, NetworkPath
from fogsim.network import (
    EmptyPathError,
    InvalidLinkError,
    available_bandwidth,
    link_bandwidth,
    link_delay,
    path_bandwidth,
    processing_delay,
)


def link(**kw):
    return NetworkLink(**kw)


def path_of(*links):
    return NetworkPath(links=list(links))


class TestLinkBandwidth:
    def test_min_of_endpoints(self):
        assert link_bandwidth(link(endpoint_bandwidths=(100e6, 50e6))) == 50e6

    def test_identical_endpoints(self):
        assert link_bandwidth(link(endpoint_bandwidths=(10e6, 10e6))) == 10e6

    def test_min_dominates(self):
        assert link_bandwidth(link(endpoint_bandwidths=(1e6, 100e9))) == 1e6

    def test_nonpositive_rejected(self):
        with pytest.raises(InvalidLinkError):
            link_bandwidth(link(endpoint_bandwidths=(0.0, 10e6)))


class TestPathBandwidth:
    def test_bottleneck(self):
        p = path_of(link(endpoint_bandwidths=(100e6, 100e6)),
                    link(endpoint_bandwidths=(10e6, 10e6)),
                    link(endpoint_bandwidths=(50e6, 50e6)))
        assert path_bandwidth(p) == 10e6

    def test_singleton(self):
        assert path_bandwidth(path_of(link(endpoint_bandwidths=(5e6, 5e6)))) == 5e6

    def test_uniform(self):
        p = path_of(*[link(endpoint_bandwidths=(7e6, 7e6)) for _ in range(3)])
        assert path_bandwidth(p) == 7e6

    def test_empty_rejected(self):
        with pytest.raises(EmptyPathError):
            path_bandwidth(path_of())


class TestAvailableBandwidth:
    def test_fair_share_with_throughput(self):
        # 100e6 / 4 users * 0.8 throughput
        l = link(endpoint_bandwidths=(100e6, 100e6), sharing_users=4, medium_throughput=0.8)
        assert available_bandwidth(l) == pytest.approx(20e6)

    def test_csma_throughput_factor(self):
        l = link(endpoint_bandwidths=(11e6, 11e6), sharing_users=1, medium_throughput=0.55)
        assert available_bandwidth(l) == pytest.approx(6.05e6)

    def test_identity(self):
        l = link(endpoint_bandwidths=(3e6, 3e6), sharing_users=1, medium_throughput=1.0)
        assert available_bandwidth(l) == 3e6

    def test_zero_users_rejected(self):
        with pytest.raises(InvalidLinkError):
            available_bandwidth(link(sharing_users=0))


class TestLinkDelay:
    def test_round_trip_sum(self):
        l = link(queuing_delay=0.001, transmission_delay=0.002,
                 propagation_delay=0.003, processing_delay=0.0005)
        assert link_delay(l) == pytest.approx(0.013)

    def test_all_zero(self):
        assert link_delay(link()) == 0.0

    def test_long_haul_fibre(self):
        # 8000 km of fibre at 5 us/km is 40 ms one way
        l = link(propagation_delay=0.04)
        assert link_delay(l) == pytest.approx(0.08)

    def test_negative_rejected(self):
        with pytest.raises(InvalidLinkError):
            link_delay(link(queuing_delay=-1.0))


class TestProcessingDelay:
    def test_frame_over_rate(self):
        assert processing_delay(12000, 11e6) == pytest.approx(12000 / 11e6)

    def test_zero_frame(self):
        assert processing_delay(0, 1e6) == 0.0

    def test_unit(self):
        assert processing_delay(5e5, 5e5) == 1.0

    def test_zero_rate_rejected(self):
        with pytest.raises(InvalidLinkError):
            processing_delay(100, 0)


bw = st.floats(min_value=1e3, max_value=1e9, allow_nan=False)
users = st.integers(min_value=1, max_value=1000)
thr = st.floats(min_value=0.01, max_value=1.0)


@settings(max_examples=1000, deadline=None)
@given(a=bw, b=bw, n=users, m=thr)
def test_fairness_bound(a, b, n, m):
    l = link(endpoint_bandwidths=(a, b), sharing_users=n, medium_throughput=m)
    assert n * available_bandwidth(l) <= link_bandwidth(l) * (1 + 1e-12)


@settings(max_examples=1000, deadline=None)
@given(values=st.lists(bw, min_size=1, max_size=8), extra=bw)
def test_bottleneck_monotone(values, extra):
    p = path_of(*[link(endpoint_bandwidths=(v, v)) for v in values])
    longer = path_of(*p.links, link(endpoint_bandwidths=(extra, extra)))
    assert path_bandwidth(longer) <= path_bandwidth(p)
