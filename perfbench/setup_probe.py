"""Set-up probe: import collapsekit and parse one workload's configs, then exit.

    python3 perfbench/setup_probe.py CONFIG...
    python3 perfbench/setup_probe.py --grid DIR SEED

The benchmark times this process from spawn to exit as setup_s. With --grid
the probe first writes the imbalance grid into DIR, as `sweep --write-grid`
does, and parses the written configs.
"""

import sys

from collapsekit import harness


def main() -> int:
    args = sys.argv[1:]
    if args[:1] == ["--grid"]:
        paths = harness.write_imbalance_grid(args[1], seed=int(args[2]))
    else:
        paths = args
    for path in paths:
        harness.load_config(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
