"""Time the step kernel per call on two recorded traces.

For the free lattices of tests/data/growth-seed0.seq and long-seed0.seq,
print the median wall time of one StepLattice.expected_counts call at
R = 1, 2 and 16 weight rows, the calls sharing one buffers list as the
solver's ascent shares it; of one call at R = 1 in a buffers list kept from
a call at R = 6, as an ascent's calls are once some of its restarts have
stopped; of one values call at R = 1, and of one
lattice_probability call, the path of every printed p(theta), under uniform
weights per predecessor block.  The other weights are seeded exponentials,
and every median is over 101 calls after 5 untimed ones.  To compare two
checkouts, run each in turn, several times over, and compare the medians;
one process's timings vary with what it allocated before, so compare runs,
not lines within one run.

Usage: python3 tools/kernel_time.py [SOURCE]   (default: this checkout's src)
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACES = ("growth-seed0", "long-seed0")
ROWS = (1, 2, 16)
KEPT = 6  # rows of the call whose buffers a 1-row call reuses
CALLS, WARMUP = 101, 5


def median_ms(call) -> float:
    """The median wall time of call(), in milliseconds."""
    for _ in range(WARMUP):
        call()
    times = []
    for _ in range(CALLS):
        begin = time.perf_counter()
        call()
        times.append(time.perf_counter() - begin)
    return 1e3 * statistics.median(times)


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(Path(argv[0]).resolve() if argv else ROOT / "src"))
    import numpy as np

    from solis import parse_sequence_file
    from solis.lattice import free_lattice, lattice_probability

    print(f"solis from {Path(sys.modules['solis'].__file__).parent}")
    for name in TRACES:
        lattice = free_lattice(parse_sequence_file(str(ROOT / "tests" / "data" / f"{name}.seq")))
        print(f"{name}: {lattice.bounds[-1]} edges, {len(lattice.variables)} variables")
        for rows in ROWS:
            weights = np.random.default_rng(0).exponential(size=(rows, len(lattice.variables)))
            buffers: list = []
            ms = median_ms(lambda: lattice.expected_counts(weights, buffers))
            print(f"  expected_counts R={rows:<2} {ms:8.3f} ms")
            if rows == 1:
                kept: list = []
                wide = np.random.default_rng(0).exponential(size=(KEPT, len(lattice.variables)))
                lattice.expected_counts(wide, kept)
                ms = median_ms(lambda: lattice.expected_counts(weights, kept))
                print(f"  expected_counts R=1  {ms:8.3f} ms  (buffers kept from R={KEPT})")
        weights = np.random.default_rng(0).exponential(size=(1, len(lattice.variables)))
        print(f"  values          R=1  {median_ms(lambda: lattice.values(weights)):8.3f} ms")
        blocks = Counter(p.predecessor for p in lattice.variables)
        prob = {p: 1 / blocks[p.predecessor] for p in lattice.variables}
        ms = median_ms(lambda: lattice_probability(lattice, prob))
        print(f"  probability     R=1  {ms:8.3f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
