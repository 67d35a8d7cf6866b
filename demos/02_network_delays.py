"""Bandwidth fairness and delay decomposition on a two-hop path."""

from fogsim.model import NetworkLink, NetworkPath
from fogsim.network import (
    available_bandwidth,
    link_bandwidth,
    link_delay,
    path_bandwidth,
    processing_delay,
)

wifi = NetworkLink(
    endpoint_bandwidths=(11e6, 11e6),
    capacity=11e6,
    sharing_users=4,
    medium_throughput=0.55,  # CSMA/CA ceiling
    transmission_delay=12000 / 11e6,
    propagation_delay=30e-6,
    processing_delay=processing_delay(12000, 11e6),
)
backhaul = NetworkLink(
    endpoint_bandwidths=(100e6, 100e6),
    capacity=100e6,
    sharing_users=20,
    medium_throughput=0.83,
    transmission_delay=12000 / 100e6,
    propagation_delay=0.0004,  # 80 km of fibre
    processing_delay=processing_delay(12000, 100e6),
)
path = NetworkPath(links=[wifi, backhaul])

for name, link in (("wifi", wifi), ("backhaul", backhaul)):
    print(f"{name:<9} raw rate   : {link_bandwidth(link)/1e6:8.3f} Mbit/s")
    print(f"{name:<9} fair share : {available_bandwidth(link)/1e6:8.3f} Mbit/s")
    print(f"{name:<9} round trip : {link_delay(link)*1e3:8.3f} ms")
print()
print(f"path raw bottleneck  : {path_bandwidth(path)/1e6:8.3f} Mbit/s")
print(f"path usable          : {min(available_bandwidth(l) for l in path.links)/1e6:8.3f} Mbit/s")
