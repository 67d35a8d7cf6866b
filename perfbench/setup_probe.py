"""Time one cold set-up in a fresh interpreter and print it in seconds.

Set-up is everything before the first event: importing fogsim, loading
the workload's config (which builds the Scenario), the first
``Simulation(...)`` (fleet build) and ``generate_workload``.

Usage: python3 setup_probe.py <src dir> <config path>
"""

import sys
import time


def main() -> None:
    src, config_path = sys.argv[1:3]
    start = time.perf_counter()
    sys.path.insert(0, src)
    from fogsim import config, engine, experiments  # noqa: F401  (import is timed)

    cfg = config.load_config(config_path)
    engine.Simulation(cfg.scenario)
    engine.generate_workload(cfg.scenario)
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main()
