"""Run-to-run jitter of a fixed pure-Python loop on this machine.

    python3 perfbench/jitter.py

Times the same loop (about 0.2 s) 40 times in one process and prints its
median and the interquartile range as a share of the median.  This is the
noise floor a single benchmark sample carries; see README.md.
"""

import statistics
import time

REPS = 40


def loop(n=2_000_000):
    t = time.perf_counter()
    s = 0
    for i in range(n):
        s += i * i
    return time.perf_counter() - t


if __name__ == "__main__":
    xs = [loop() for _ in range(REPS)]
    q1, med, q3 = statistics.quantiles(xs, n=4)
    print(f"{REPS} runs: median {med:.4f} s, min {min(xs):.4f} s, max {max(xs):.4f} s, "
          f"IQR/median {(q3 - q1) / med:.3f}")
