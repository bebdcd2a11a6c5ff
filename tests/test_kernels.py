"""Parity between the pure-Python kernels and the compiled extension."""

import os
import random
import subprocess
import sys

import pytest

import motzkinrank._kernels_py as pure
from motzkinrank import backend
from motzkinrank.linalg import PRIMES61

try:
    import motzkinrank._kernels as compiled
except ImportError:  # pure-only build
    compiled = None

needs_ext = pytest.mark.skipif(compiled is None, reason="compiled extension not built")


def test_backend_selection():
    assert backend.BACKEND in ("pure", "compiled")
    assert pure.BACKEND == "pure"
    for name in ("conv_trunc", "dp_rows", "modp_echelon", "bareiss_echelon"):
        assert callable(getattr(backend, name))


def test_env_var_forces_pure_backend():
    env = dict(os.environ, MOTZKINRANK_PURE="1")
    out = subprocess.run(
        [sys.executable, "-c", "from motzkinrank import backend; print(backend.BACKEND)"],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "pure"


@needs_ext
def test_compiled_module_identifies_itself():
    assert compiled.BACKEND == "compiled"


@needs_ext
def test_conv_trunc_parity():
    rng = random.Random(1)
    for _ in range(50):
        la, lb = rng.randint(1, 12), rng.randint(1, 12)
        a = [rng.randint(-(10**30), 10**30) for _ in range(la)]
        b = [rng.randint(-(10**30), 10**30) for _ in range(lb)]
        n = rng.randint(1, la + lb)
        assert pure.conv_trunc(a, b, n) == compiled.conv_trunc(a, b, n)


def _lu_product(lu, pivots, p):
    """Rows of L * U mod p, read back from modp_echelon's compact output."""
    ncols = len(lu[0])
    upper = []
    for k, c in enumerate(pivots):
        u = [0] * c + [1] + lu[k][c + 1 :]
        for c2 in pivots[k + 1 :]:
            assert u[c2] == lu[k][c2]
        upper.append(u)
    out = []
    for i, row in enumerate(lu):
        mults = [row[c] for c in pivots[: min(i + 1, len(pivots))]]
        for c in range(ncols):
            if c not in pivots[: len(mults)] and (i >= len(pivots) or c < pivots[i]):
                assert row[c] == 0  # nothing left of the pivot but multipliers
        out.append([sum(m * u[j] for m, u in zip(mults, upper)) % p for j in range(ncols)])
    return out


def _random_lu_cases(rng, p, count):
    for _ in range(count):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        rank = rng.randint(0, min(m, n))
        left = [[rng.randrange(p) for _ in range(rank)] for _ in range(m)]
        right = [[rng.randrange(p) if rng.random() < 0.8 else 0 for _ in range(n)] for _ in range(rank)]
        yield [
            [sum(row[t] * right[t][j] for t in range(rank)) % p for j in range(n)]
            for row in left
        ]


@pytest.mark.parametrize("p", [97, PRIMES61[0], PRIMES61[-1]])
def test_modp_echelon_factors_its_input(p):
    # The compact output is P A = L U mod p: input row order[i] is the
    # product of row i of L (multipliers, pivot values on the diagonal)
    # with the unit upper rows.
    rng = random.Random(p)
    for rows in _random_lu_cases(rng, p, 40):
        lu = [r[:] for r in rows]
        pivots, order = pure.modp_echelon(lu, p)
        assert sorted(order) == list(range(len(rows)))
        assert pivots == sorted(pivots)
        assert _lu_product(lu, pivots, p) == [rows[i] for i in order]


@needs_ext
def test_modp_echelon_parity():
    rng = random.Random(3)
    for p in (97, PRIMES61[0], PRIMES61[-1]):
        for rows in _random_lu_cases(rng, p, 20):
            a = [r[:] for r in rows]
            b = [r[:] for r in rows]
            out_pure = pure.modp_echelon(a, p)
            out_comp = compiled.modp_echelon(b, p)
            assert out_pure == out_comp  # same pivots and row order
            assert a == b  # same multipliers, pivot values and U in place


@needs_ext
def test_bareiss_echelon_parity():
    rng = random.Random(4)
    for _ in range(30):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[rng.randint(-50, 50) for _ in range(n)] for _ in range(m)]
        a = [r[:] for r in rows]
        b = [r[:] for r in rows]
        assert pure.bareiss_echelon(a) == compiled.bareiss_echelon(b)
        assert a == b


@needs_ext
def test_solver_results_backend_independent():
    # end to end: the series solver must not care which backend ran
    code = (
        "from motzkinrank import WeightSpec, generating_series;"
        "print(generating_series(WeightSpec.all_ones(3), 25).coeffs)"
    )
    env_pure = dict(os.environ, MOTZKINRANK_PURE="1")
    out_pure = subprocess.run(
        [sys.executable, "-c", code], env=env_pure, capture_output=True, text=True, check=True
    )
    env_ext = dict(os.environ)
    env_ext.pop("MOTZKINRANK_PURE", None)
    out_ext = subprocess.run(
        [sys.executable, "-c", code], env=env_ext, capture_output=True, text=True, check=True
    )
    assert out_pure.stdout == out_ext.stdout
