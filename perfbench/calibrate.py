"""A fixed reference job that gauges how fast the host runs right now.

Run as ``python perfbench/calibrate.py``.  It imports NumPy, draws seeded
random 0/1 blocks and reduces them, and tallies keys in a dict: the same
kinds of work as the ``chbound`` jobs, in the same proportions of start-up,
NumPy and interpreter time, but none of the program's code.  So a change to
``chbound`` cannot change its time, while a host that is busier or slower
stretches it as it stretches the jobs timed beside it.  It prints its
checksums, which never change.
"""

import numpy as np

BLOCKS = 64
BLOCK_ROWS = 4096
WIDTH = 50
KEYS = 400_000


def main() -> None:
    rng = np.random.default_rng(20071)
    hits = 0
    for _ in range(BLOCKS):
        ones = rng.random((BLOCK_ROWS, WIDTH)) < 0.5
        chosen = rng.random((BLOCK_ROWS, WIDTH)) < 0.1
        hits += int(np.all(ones | ~chosen, axis=1).sum())
    tally: dict[int, int] = {}
    for i in range(KEYS):
        key = (i * 2654435761) % 100_003
        tally[key] = tally.get(key, 0) + 1
    print(hits, len(tally))


if __name__ == "__main__":
    main()
