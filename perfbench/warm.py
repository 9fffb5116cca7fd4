"""Set-up of an in-process workload: import pushkit and fill the per-rank
caches (the working ring, the fixed-point charts and the cofactors) with a
first ``localize`` of the class 1 at each rank.

Run as a script it does the same in a fresh interpreter and prints the
seconds it took, so a run can take several set-up samples:

    python3 perfbench/warm.py 5 6 7
"""

from __future__ import annotations

import sys
import time


def warm(ranks, on_import=None, on_rank=None) -> tuple[float, float]:
    """(import seconds, whole set-up seconds).  ``on_import`` runs between
    the import and the cache fill, outside the measured time; ``on_rank``
    runs before each rank's fill."""
    start = time.perf_counter()
    import pushkit.localization as loc

    imported = time.perf_counter()
    if on_import is not None:
        on_import()
    resumed = time.perf_counter()
    for rank in ranks:
        if on_rank is not None:
            on_rank(rank)
        loc.localize(loc.bundle_ring(rank).one(), rank)
    return imported - start, time.perf_counter() - resumed + (imported - start)


if __name__ == "__main__":
    print(warm([int(a) for a in sys.argv[1:]])[1])
