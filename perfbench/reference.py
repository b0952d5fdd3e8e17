"""Reference work: a fixed job that gauges how fast the host runs right now.

    python3 perfbench/reference.py

The benchmark times this process next to every round. Its work never
changes, so any change in its wall time is the host's: on a shared machine
the CPU speed a process gets drifts by tens of percent over minutes. The mix
follows what collapsekit spends its time on: small-matrix numpy steps driven
from a Python loop, and float text formatting and parsing, after the same
interpreter start and numpy import.
"""

import numpy as np

STEPS = 1500          # numpy steps on a 10 x 16 x 400 problem
TEXT_VALUES = 120000  # floats written with repr and parsed back


def main() -> int:
    rng = np.random.default_rng(0)
    w = rng.standard_normal((10, 16))
    h = rng.standard_normal((16, 400))
    for _ in range(STEPS):
        z = w @ h
        z -= z.max(axis=0)
        p = np.exp(z)
        p /= p.sum(axis=0)
        np.sort(z, axis=0)
        grad = p @ h.T
        w -= 1e-3 * grad
        w *= 1.0 / max(1.0, float(np.sqrt(np.mean(np.sum(w * w, axis=1)))))
    values = rng.standard_normal(TEXT_VALUES)
    text = "\n".join(",".join(repr(float(x)) for x in row) for row in values.reshape(-1, 400))
    parsed = np.array([[float(x) for x in line.split(",")] for line in text.splitlines()])
    return 0 if parsed.size == values.size else 1


if __name__ == "__main__":
    raise SystemExit(main())
