"""Bandwidth, fairness and latency arithmetic for links and paths.

All functions are pure. Rates are bits/second, sizes are bits, delays are
seconds.
"""

from __future__ import annotations

from .model import NetworkLink, NetworkPath, fold_sum


class InvalidLinkError(ValueError):
    pass


class EmptyPathError(ValueError):
    pass


def link_bandwidth(link: NetworkLink) -> float:
    """Raw bandwidth of a link: the slower of its two endpoints."""
    a, b = link.endpoint_bandwidths
    if a <= 0 or b <= 0:
        raise InvalidLinkError(f"endpoint bandwidths must be > 0, got {link.endpoint_bandwidths}")
    return min(a, b)


def path_bandwidth(path: NetworkPath) -> float:
    """Bottleneck bandwidth over every link of the path."""
    if not path.links:
        raise EmptyPathError("path has no links")
    return min(link_bandwidth(link) for link in path.links)


def available_bandwidth(link: NetworkLink) -> float:
    """Max-min fair share of one link, de-rated by the medium throughput.

    Each of the ``sharing_users`` flows gets an equal split of the raw link
    bandwidth; only ``medium_throughput`` of that split is usable payload.
    """
    if link.sharing_users < 1:
        raise InvalidLinkError("sharing_users must be >= 1")
    if not 0.0 < link.medium_throughput <= 1.0:
        raise InvalidLinkError("medium_throughput must be in (0, 1]")
    return link_bandwidth(link) / link.sharing_users * link.medium_throughput


def link_delay(link: NetworkLink) -> float:
    """Round-trip latency of one link: twice the sum of its four components."""
    components = (
        link.queuing_delay,
        link.transmission_delay,
        link.propagation_delay,
        link.processing_delay,
    )
    if any(c < 0 for c in components):
        raise InvalidLinkError("delay components must be >= 0")
    return 2.0 * fold_sum(components)


def processing_delay(frame_length: float, transmission_rate: float) -> float:
    """Per-frame header processing time: frame length over transmission rate."""
    if transmission_rate <= 0:
        raise InvalidLinkError("transmission_rate must be > 0")
    if frame_length < 0:
        raise InvalidLinkError("frame_length must be >= 0")
    return frame_length / transmission_rate

