# cython: boundscheck=False, wraparound=False, cdivision=True
"""Compiled kernels.

Cython twin of ``_kernels_py`` for three of its four kernels; see that
module for the contracts.  The counting DP ``dp_rows`` has no twin: the
pure kernel adds whole slices, so a compiled loop gains little.  The
mod-p LU factorization runs on a flat C buffer with 128-bit products
(every prime is below 2**61, so products never overflow); the other two
kernels keep Python object arithmetic (the operands are big integers)
but move all loop bookkeeping to C.
"""

from cpython.mem cimport PyMem_Free, PyMem_Malloc

cdef extern from *:
    ctypedef unsigned long long u128 "unsigned __int128"

ctypedef unsigned long long u64

BACKEND = "compiled"


def conv_trunc(a, b, int n):
    """First n coefficients of the product of coefficient lists a and b."""
    cdef list A = a if type(a) is list else list(a)
    cdef list B = b if type(b) is list else list(b)
    cdef list out = [0] * n
    cdef int la = len(A)
    cdef int lb = len(B)
    cdef int i, j, hi
    cdef int top = la if la < n else n
    for i in range(top):
        ai = A[i]
        if not ai:
            continue
        hi = lb if lb < n - i else n - i
        for j in range(hi):
            bj = B[j]
            if bj:
                out[i + j] = out[i + j] + ai * bj
    return out


cdef inline u64 _modpow(u64 base, u64 exp, u64 p):
    cdef u64 acc = 1
    cdef u64 b = base % p
    while exp:
        if exp & 1:
            acc = <u64> ((<u128> acc * b) % p)
        b = <u64> ((<u128> b * b) % p)
        exp >>= 1
    return acc


def modp_echelon(rows, p_in):
    """In-place LU factorization mod the prime p; returns (pivots, order)."""
    cdef u64 p = p_in
    cdef int nrows = len(rows)
    cdef int ncols = len(rows[0]) if nrows else 0
    cdef list pivots = []
    cdef list order = list(range(nrows))
    if nrows == 0 or ncols == 0:
        return pivots, order
    cdef u64 * buf = <u64 *> PyMem_Malloc(<size_t> nrows * ncols * sizeof(u64))
    if buf == NULL:
        raise MemoryError()
    cdef int i, j, r, c, pr
    cdef u64 inv, m, x, v, sub
    cdef list rowi
    try:
        for i in range(nrows):
            rowi = rows[i]
            for j in range(ncols):
                buf[i * ncols + j] = rowi[j]
        r = 0
        for c in range(ncols):
            if r == nrows:
                break
            pr = -1
            for i in range(r, nrows):
                if buf[i * ncols + c]:
                    pr = i
                    break
            if pr < 0:
                continue
            if pr != r:
                # whole rows: the entries left of c hold multipliers
                for j in range(ncols):
                    x = buf[r * ncols + j]
                    buf[r * ncols + j] = buf[pr * ncols + j]
                    buf[pr * ncols + j] = x
                order[r], order[pr] = order[pr], order[r]
            inv = _modpow(buf[r * ncols + c], p - 2, p)
            if inv != 1:
                for j in range(c + 1, ncols):
                    x = buf[r * ncols + j]
                    if x:
                        buf[r * ncols + j] = <u64> ((<u128> x * inv) % p)
            for i in range(r + 1, nrows):
                m = buf[i * ncols + c]
                if m:
                    for j in range(c + 1, ncols):
                        x = buf[r * ncols + j]
                        if x:
                            sub = <u64> ((<u128> m * x) % p)
                            v = buf[i * ncols + j]
                            buf[i * ncols + j] = v - sub if v >= sub else v + (p - sub)
            pivots.append(c)
            r += 1
        for i in range(nrows):
            rowi = rows[i]
            for j in range(ncols):
                rowi[j] = buf[i * ncols + j]
    finally:
        PyMem_Free(buf)
    return pivots, order


def bareiss_echelon(rows):
    """In-place fraction-free row echelon over the integers."""
    cdef int nrows = len(rows)
    cdef int ncols = len(rows[0]) if nrows else 0
    cdef list pivots = []
    cdef int i, j, r, c, pr
    cdef list rowr, rowi
    prev = 1
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = -1
        for i in range(r, nrows):
            if (<list> rows[i])[c]:
                pr = i
                break
        if pr < 0:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
        rowr = rows[r]
        piv = rowr[c]
        for i in range(r + 1, nrows):
            rowi = rows[i]
            m = rowi[c]
            for j in range(c + 1, ncols):
                rowi[j] = (piv * rowi[j] - m * rowr[j]) // prev
            rowi[c] = 0
        prev = piv
        pivots.append(c)
        r += 1
    return pivots
