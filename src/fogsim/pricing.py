"""Tiered usage pricing: connectivity, messaging, processing.

Cloud usage is billed at the full unit price; fog servers at 1/FS and fog
devices at 1/FD of it (divisors from the price book). Prices are dollars
per million billing units, hence the 1e-6 scaling.
"""

from __future__ import annotations

import math
from collections import Counter

from .model import PriceBook, UsageLedger


def _ceil_units(sizes_kb: Counter[float], unit_kb: float) -> float:
    """Billing units of messages counted by size: ceil(size/unit) each, an exact integer sum."""
    if unit_kb <= 0:
        raise ValueError("data_unit must be > 0")
    return float(sum(math.ceil(kb / unit_kb) * n for kb, n in sizes_kb.items()))


def connectivity_cost(ledger: UsageLedger, prices: PriceBook) -> float:
    """Connection-minute charges across the three tiers."""
    units = (
        ledger.cloud_connect_minutes
        + ledger.server_connect_minutes / prices.server_divisor
        + ledger.device_connect_minutes / prices.device_divisor
    )
    return prices.connectivity_unit * units * 1e-6


def messaging_cost(ledger: UsageLedger, prices: PriceBook) -> float:
    """Message charges; every message is billed in ceil(size/unit) chunks."""
    units = (
        _ceil_units(ledger.cloud_messages_kb, prices.data_unit)
        + _ceil_units(ledger.server_messages_kb, prices.data_unit) / prices.server_divisor
        + _ceil_units(ledger.device_messages_kb, prices.data_unit) / prices.device_divisor
    )
    return prices.messaging_unit * units * 1e-6


def processing_cost(ledger: UsageLedger, prices: PriceBook) -> float:
    """Rules-engine charges; same chunking as messaging."""
    units = (
        _ceil_units(ledger.cloud_processing_kb, prices.data_unit)
        + _ceil_units(ledger.server_processing_kb, prices.data_unit) / prices.server_divisor
        + _ceil_units(ledger.device_processing_kb, prices.data_unit) / prices.device_divisor
    )
    return prices.processing_unit * units * 1e-6


def total_app_cost(ledger: UsageLedger, prices: PriceBook) -> float:
    """Total per-application cost: connectivity + messaging + processing."""
    return (
        connectivity_cost(ledger, prices)
        + messaging_cost(ledger, prices)
        + processing_cost(ledger, prices)
    )
