"""Price a month of usage across the three tiers.

Cloud traffic pays the full unit price; fog servers pay half and fog
devices a third. Messages and processing requests are billed in 5 KB
chunks, so a 7 KB message costs two units.
"""

from fogsim.model import PriceBook, UsageLedger
from fogsim.pricing import (
    connectivity_cost,
    messaging_cost,
    processing_cost,
    total_app_cost,
)

prices = PriceBook()
ledger = UsageLedger(
    cloud_connect_minutes=[1e6],
    server_connect_minutes=[2e6],
    device_connect_minutes=[6e6],
    cloud_messages_kb=[5.0] * 200_000,
    server_messages_kb=[7.0] * 200_000,  # ceil(7/5) = 2 chunks each
    device_messages_kb=[5.0] * 600_000,
    cloud_processing_kb=[5.0] * 100_000,
    device_processing_kb=[5.0] * 300_000,
)

print(f"connectivity : ${connectivity_cost(ledger, prices):8.4f}")
print(f"messaging    : ${messaging_cost(ledger, prices):8.4f}")
print(f"processing   : ${processing_cost(ledger, prices):8.4f}")
print(f"total        : ${total_app_cost(ledger, prices):8.4f}")
