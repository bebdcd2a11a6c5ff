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


@needs_ext
def test_modp_echelon_parity():
    rng = random.Random(3)
    for p in (97, PRIMES61[0], PRIMES61[-1]):
        for _ in range(20):
            m, n = rng.randint(1, 7), rng.randint(1, 7)
            rows = [[rng.randrange(p) for _ in range(n)] for _ in range(m)]
            a = [r[:] for r in rows]
            b = [r[:] for r in rows]
            piv_pure = pure.modp_echelon(a, p)
            piv_comp = compiled.modp_echelon(b, p)
            assert piv_pure == piv_comp
            assert a == b  # both reduce in place to the same echelon form


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
