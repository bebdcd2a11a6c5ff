"""Pure Python reference kernels.

These four loops dominate the runtime of the whole package: truncated
series convolution, the weighted lattice-path DP step, LU factorization
mod a word-sized prime, and fraction-free (Bareiss) row echelon over the
integers.  ``motzkinrank._kernels`` is a Cython twin of the other
three kernels with identical semantics; ``backend.py`` picks whichever
is importable.  Both versions must give bit-identical results on the
same inputs.  The DP has no twin: it adds whole slices per run of step
types, so its loops already run in C.
"""

from itertools import accumulate, repeat
from operator import add, mul, sub

BACKEND = "pure"


def conv_trunc(a, b, n):
    """First n coefficients of the product of coefficient lists a and b.

    Missing coefficients (beyond the length of either list) are treated
    as zero.  Entries may be ints or Fractions.
    """
    out = [0] * n
    la = len(a)
    lb = len(b)
    for i in range(min(la, n)):
        ai = a[i]
        if not ai:
            continue
        hi = min(lb, n - i)
        for j in range(hi):
            bj = b[j]
            if bj:
                out[i + j] += ai * bj
    return out


def dp_rows(deltas, weights, n, start, caps):
    """Forward DP over weighted steps with a per-row height cap.

    deltas and weights are parallel lists describing the step set; caps
    has length n+1 and caps[i] bounds the height kept after i steps.
    Returns n+1 rows; row i holds, at each height h <= min(caps[i],
    caps[n]), the total weight of length-i paths from ``start`` to h
    that stay at heights >= 0 and within the caps.  Only the previous
    row is kept in full, so memory is one full row plus the returned
    rows cut at caps[n].

    Steps are added to the next row by slices.  Step types of one weight
    with consecutive displacements d1..d2 form a run, whose slice holds
    the window sums prev[h-d2] + ... + prev[h-d1], read off prefix sums
    of the previous row: the all-ones step set is a single run, so a
    row costs three passes (prefix sums, window differences, the add)
    whatever the rank.
    """
    keep = caps[n] + 1
    prev = [0] * (caps[0] + 1)
    if 0 <= start <= caps[0]:
        prev[start] = 1
    rows = [prev[:keep]]
    runs = []
    for d, w in sorted(zip(deltas, weights)):
        if w and runs and runs[-1][1] == d - 1 and runs[-1][2] == w:
            runs[-1][1] = d
        elif w:
            runs.append([d, d, w])
    pad = max((max(-d1, d2) for d1, d2, _ in runs if d1 < d2), default=None)
    for i in range(1, n + 1):
        cap = caps[i]
        prevcap = caps[i - 1]
        if pad is not None:
            # psum[pad + k] = prev[0] + ... + prev[k-1], -pad <= k <= prevcap + 2*pad + 1
            psum = [0] * (pad + 1)
            psum += accumulate(prev)
            psum += repeat(psum[-1], 2 * pad)
        cur = [0] * (cap + 1)
        for d1, d2, w in runs:
            lo = d1 if d1 > 0 else 0
            hi = min(cap, prevcap + d2)
            if hi < lo:
                continue
            if d1 == d2:
                seg = prev[lo - d1 : hi - d1 + 1]
            else:
                a = pad + 1 - d1
                b = pad - d2
                seg = map(sub, psum[lo + a : hi + a + 1], psum[lo + b : hi + b + 1])
            if w != 1:
                seg = map(mul, repeat(w), seg)
            cur[lo : hi + 1] = map(add, cur[lo : hi + 1], seg)
        rows.append(cur[:keep])
        prev = cur
    return rows


def modp_echelon(rows, p):
    """In-place LU factorization mod the prime p, with row pivoting.

    Entries must already lie in [0, p).  Returns ``(pivots, order)``:
    the pivot columns in ascending order, and ``order[i]``, the input
    index of the row that ends at position i.  Let r be the rank and c_k
    the k-th pivot column.  Afterwards, row k < r holds the pivot value
    d_k at c_k and, right of c_k, the pivot row divided by d_k (the unit
    upper factor U, whose 1 at c_k is implied).  Every row i holds, at
    each pivot column c_k with k < min(i, r), the multiplier L[i][k] of
    U row k that the elimination subtracted there, and zero at the
    other columns left of its own pivot (at all other columns when
    i >= r).  So input row order[i] equals sum_k L[i][k] * U[k] mod p,
    with L[k][k] = d_k.  Row operations never mix columns, so cut to the
    first w columns this is the factorization of that column prefix,
    with the pivots below w.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    order = list(range(nrows))
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = -1
        for i in range(r, nrows):
            if rows[i][c]:
                pr = i
                break
        if pr < 0:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
            order[r], order[pr] = order[pr], order[r]
        rowr = rows[r]
        inv = pow(rowr[c], p - 2, p)
        if inv != 1:
            for j in range(c + 1, ncols):
                if rowr[j]:
                    rowr[j] = rowr[j] * inv % p
        for i in range(r + 1, nrows):
            rowi = rows[i]
            m = rowi[c]
            if m:
                for j in range(c + 1, ncols):
                    x = rowr[j]
                    if x:
                        rowi[j] = (rowi[j] - m * x) % p
        pivots.append(c)
        r += 1
    return pivots, order


def bareiss_echelon(rows):
    """In-place fraction-free row echelon over the integers.

    One-step Bareiss: every update divides exactly by the previous pivot,
    so entries stay minors of the input matrix (no rational blow-up
    beyond that).  Returns the pivot column list.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    r = 0
    prev = 1
    for c in range(ncols):
        if r == nrows:
            break
        pr = -1
        for i in range(r, nrows):
            if rows[i][c]:
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
            # The pivot rescaling applies to the whole row even when the
            # entry below the pivot is already zero; skipping it would
            # break exactness of later divisions.
            for j in range(c + 1, ncols):
                rowi[j] = (piv * rowi[j] - m * rowr[j]) // prev
            rowi[c] = 0
        prev = piv
        pivots.append(c)
        r += 1
    return pivots
