"""Machine-speed probe, run by run.py as a child process.

For each line read from standard input it runs one fixed piece of
pure-Python work and writes the seconds it took as one line. The work scans
wide integers with generator tests and fills and reads a dict of tuple
keys, the same kinds of work as tampnet's scans and graph build. It imports
nothing from tampnet. It exits at the end of its input.

It runs in a process of its own so that its memory, about 15 MB while a
sample runs, stays out of the benchmark's ``peak_rss_mb``.
"""

import random
import sys
import time


def main() -> int:
    rng = random.Random("perfbench-probe")
    words = [rng.getrandbits(120) for _ in range(40_000)]
    masks = [rng.getrandbits(120) for _ in range(4)]
    for _ in sys.stdin:
        t0 = time.perf_counter()
        hits = 0
        for _ in range(9):
            for v in words:
                if not v & masks[0] and all(v & m for m in masks[1:]):
                    hits += 1
        index = {}
        for i in range(90_000):
            index[(i, i * 7 % 1000)] = i
        for i in range(90_000):
            hits += index[(i, i * 7 % 1000)] & 1
        del index
        print(time.perf_counter() - t0, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
