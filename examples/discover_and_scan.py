#!/usr/bin/env python3
"""The paper's full discovery pipeline on a small simulated Internet.

Reproduces the §3 methodology end to end at 1:20000 scale:

1. bulk DNS scans of the input lists (A/AAAA/HTTPS records),
2. a ZMap sweep of the whole simulated IPv4 space forcing version
   negotiations,
3. TCP SYN + stateful TLS scans harvesting Alt-Svc headers,
4. stateful QUIC scans with the QScanner over the combined targets,

then prints the regenerated Tables 1, 3 and 4.

Run:  python examples/discover_and_scan.py
"""

import time

from repro.experiments import get_campaign
from repro.experiments.tables import table1, table3, table4
from repro.internet.providers import Scale


def main() -> None:
    start = time.time()
    campaign = get_campaign(
        week=18, scale=Scale(addresses=20_000, ases=200, domains=20_000), seed=1
    )

    print("== discovery ==")
    print(f"DNS: resolved {len(campaign.all_dns_records)} domains "
          f"({sum(1 for r in campaign.dns_answers if r.has_https_rr)} HTTPS RRs)")
    print(f"ZMap IPv4: {len(campaign.zmap_v4)} responders "
          f"in a /{campaign.world.ipv4_space.length} sweep")
    print(f"ZMap IPv6: {len(campaign.zmap_v6)} responders "
          f"of {len(campaign.ipv6_scan_input)} probed")
    print(f"TCP SYN: {len(campaign.syn_v4)} open ports")
    print(f"Alt-Svc discoveries: {len(campaign.altsvc_discovered_v4)} (IPv4)")
    print()

    for experiment in (table1, table3, table4):
        print(experiment(campaign).render())
        print()
    print(f"(wall clock: {time.time() - start:.1f}s, virtual network time: "
          f"{campaign.world.network.now:.0f}s)")


if __name__ == "__main__":
    main()
