"""Does the speed probe's time depend on what the measured process does?

    python3 perfbench/probe_check.py --seconds 40

Runs ``speed.SpeedProbe`` while the process alternates half-second segments
of memory-heavy work (in-place adds over a 32 MB array) and light work
(interpreter arithmetic on small integers).  Prints the median and
quartiles, over the pairs of a heavy segment and the light one after it,
of the ratio of the probe's median duration in the two.  Phases of the
machine last seconds or more, so they change both segments of a pair
alike.  A ratio near 1 means the probe times the machine, not the work
around it.
"""

from __future__ import annotations

import argparse
import statistics
import time

import numpy as np

import speed

SEGMENT_S = 0.5
HEAVY_BYTES = 32 << 20


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seconds", type=float, default=40.0)
    args = p.parse_args()
    buf = np.zeros(HEAVY_BYTES, dtype=np.uint8)
    segments = []  # (start, end), heavy and light in turn
    with speed.SpeedProbe() as probe:
        stop = time.perf_counter() + args.seconds
        while time.perf_counter() < stop:
            start = time.perf_counter()
            end = start + SEGMENT_S
            heavy = len(segments) % 2 == 0
            while time.perf_counter() < end:
                if heavy:
                    np.add(buf, 1, out=buf)
                else:
                    total = 0
                    for k in range(20_000):
                        total += k * k
            segments.append((start, end))

    def median_in(start: float, end: float) -> float:
        inside = [d for e, d in zip(probe.ends, probe.durations) if start < e <= end]
        return statistics.median(inside) if len(inside) > 3 else float("nan")

    ratios = [median_in(*h) / median_in(*l) for h, l in zip(segments[0::2], segments[1::2])]
    ratios = [r for r in ratios if r == r]
    q1, med, q3 = statistics.quantiles(ratios, n=4)
    print(f"{len(ratios)} pairs: heavy/light probe time median {med:.3f}, "
          f"quartiles {q1:.3f} {q3:.3f}")


if __name__ == "__main__":
    main()
