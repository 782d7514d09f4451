"""Host-speed probe, run beside the benchmark as its own process.

    python3 perfbench/speedprobe.py   # stops when its stdin closes

Every PERIOD_S it runs a fixed pure-Python Fraction kernel and records
the CPU time the kernel took, stamped with CLOCK_MONOTONIC.  On a shared
machine the speed of every core drifts by up to half within seconds, and
a job's times drift with it; the probe's CPU time tracks that drift and
does not depend on the code under test.  When stdin reaches end of file
the probe prints one "stamp cpu_seconds" line per sample and exits.
"""

import select
import sys
import time
from fractions import Fraction

PERIOD_S = 0.05


def kernel() -> Fraction:
    acc = Fraction(0)
    for k in range(1, 200):
        acc += Fraction(1, k) * Fraction(k + 1, k + 2)
    return acc


def main() -> None:
    kernel()  # the first call runs cold; leave it out
    samples = []
    while True:
        c0 = time.thread_time()
        kernel()
        cpu = time.thread_time() - c0
        samples.append(f"{time.clock_gettime(time.CLOCK_MONOTONIC):.6f} {cpu:.9f}")
        if select.select([sys.stdin], [], [], PERIOD_S)[0]:
            break  # stdin is readable only at end of file: the run is over
    sys.stdout.write("\n".join(samples) + "\n")


if __name__ == "__main__":
    main()
