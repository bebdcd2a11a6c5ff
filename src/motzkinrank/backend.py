"""Kernel backend selection.

Imports the compiled Cython kernels when available and falls back to the
pure Python twins otherwise.  Set MOTZKINRANK_PURE=1 to force the pure
backend (useful for benchmarking and for the parity tests).  The
counting DP ``dp_rows`` is the pure kernel on both backends.
"""

import os

from . import _kernels_py

_impl = _kernels_py
if not os.environ.get("MOTZKINRANK_PURE"):
    try:
        from . import _kernels as _impl  # type: ignore[attr-defined]
    except ImportError:
        pass

BACKEND = _impl.BACKEND
conv_trunc = _impl.conv_trunc
dp_rows = _kernels_py.dp_rows
modp_echelon = _impl.modp_echelon
bareiss_echelon = _impl.bareiss_echelon
