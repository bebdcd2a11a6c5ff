#!/usr/bin/env python3
"""Time the pure-Python kernels against the compiled extension.

Run from a checkout with the package installed:

    python3 benchmarks/bench_kernels.py
    python3 benchmarks/bench_kernels.py --repeat 9 --scale 2

Each kernel gets a fixed workload sized by --scale; the table reports
the best wall time of --repeat runs plus the speedup of the compiled
module over the pure one.  ``dp_rows`` has no compiled twin (the
backend binds the pure kernel on both backends), so it is timed on the
pure module only.
"""

from __future__ import annotations

import argparse
import random
import time

import motzkinrank._kernels_py as pure
from motzkinrank.linalg import PRIMES61

try:
    import motzkinrank._kernels as compiled
except ImportError:
    compiled = None

PURE_ONLY = ("dp_rows",)


def best_time(fn, repeat):
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def workloads(scale):
    rng = random.Random(12345)

    n_conv = 512 * scale
    a = [rng.getrandbits(600) for _ in range(n_conv)]
    b = [rng.getrandbits(600) for _ in range(n_conv)]
    yield "conv_trunc", f"{n_conv} terms, 600-bit entries", lambda mod: mod.conv_trunc(
        a, b, n_conv
    )

    # rank-3 closed-walk counting profile, heights capped like the counter does
    deltas = (1, 2, 3, 0, -1, -2, -3)
    weights = (1, 1, 1, 1, 1, 1, 1)
    n_dp = 300 * scale
    caps = [min(3 * i, 3 * (n_dp - i)) for i in range(n_dp + 1)]
    yield "dp_rows", f"rank 3, n = {n_dp}", lambda mod: mod.dp_rows(
        deltas, weights, n_dp, 0, caps
    )

    p = PRIMES61[0]
    dim = 90 * scale
    base = [[rng.randrange(p) for _ in range(dim)] for _ in range(dim)]
    yield "modp_echelon", f"{dim}x{dim} mod 61-bit prime", lambda mod: mod.modp_echelon(
        [row[:] for row in base], p
    )

    dim_b = 28 * scale
    ibase = [[rng.randint(-10**6, 10**6) for _ in range(dim_b)] for _ in range(dim_b)]
    yield "bareiss_echelon", f"{dim_b}x{dim_b} int entries", lambda mod: mod.bareiss_echelon(
        [row[:] for row in ibase]
    )


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=5, help="runs per kernel, best kept")
    parser.add_argument("--scale", type=int, default=1, help="workload size multiplier")
    args = parser.parse_args()

    if compiled is None:
        print("compiled extension not available; timing the pure kernels only")
    header = f"{'kernel':<16} {'workload':<28} {'pure':>10}"
    if compiled is not None:
        header += f" {'compiled':>10} {'speedup':>8}"
    print(header)
    print("-" * len(header))

    for name, desc, call in workloads(args.scale):
        t_pure = best_time(lambda: call(pure), args.repeat)
        line = f"{name:<16} {desc:<28} {t_pure * 1e3:>8.1f}ms"
        if compiled is not None and name not in PURE_ONLY:
            t_comp = best_time(lambda: call(compiled), args.repeat)
            line += f" {t_comp * 1e3:>8.1f}ms {t_pure / t_comp:>7.1f}x"
        print(line)


if __name__ == "__main__":
    main()
