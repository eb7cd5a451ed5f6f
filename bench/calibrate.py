"""Reference kernel that measures the machine's current speed.

Run as a child process by ``run.py``: for every line ``N`` read from
standard input it times the kernel N times and prints the median in
seconds.  It exits when standard input closes.  The process never imports
parallelobox and runs with the garbage collector off, so the state of the
program under test (its heap, its caches) cannot change the kernel's time;
only the machine can.
"""
from __future__ import annotations

import gc
import statistics
import sys
import time

import numpy as np


def kernel() -> float:
    """Seconds for interpreted Python and small numpy calls, like the program's."""
    points = np.linspace(0.0, 1.0, 192).reshape(64, 3)
    start = time.perf_counter()
    total = 0.0
    for i in range(2000):
        a, b = points[i % 64], points[(7 * i) % 64]
        c = np.cross(a, b)
        total += float(c @ a) + max(a[0], b[1]) - min(c[2], 0.5)
    return time.perf_counter() - start


def main() -> None:
    gc.disable()
    for line in sys.stdin:
        print(statistics.median(kernel() for _ in range(int(line))), flush=True)


if __name__ == "__main__":
    main()
