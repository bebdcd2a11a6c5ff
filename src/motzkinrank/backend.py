"""The four exact kernels.

These loops dominate the runtime of the whole package: truncated series
convolution, the weighted lattice-path DP step, LU factorization mod a
prime, and fraction-free (Bareiss) row echelon over the integers.

The modular LU packs each row's columns not yet eliminated into one
int, the current column lowest, so a row update is one big-integer
multiply-add rather than a loop over entries, on a row that loses a
slot at every column.  ``packed_echelon`` is the one elimination loop.
It never unpacks a row: a pivot row's tail is reduced mod p on the
packed int, every slot at once, by ``folder``, which leaves each slot
below 2**(k + 1), k = p.bit_length(), not below p.  The rows below
take that folded tail times their multiplier over the pivot, and it is
returned packed with the pivot's inverse in place of a written-out U
row.  ``modp_echelon`` packs integer rows, hands them to it and writes
U from those tails.  ``linalg`` calls it directly, on rows it packs or
on the recurrence systems' rows packed from the residues of their
terms, and reads U only where a lift needs it.  The layout is this
module's: ``slot_bits`` gives the slot width and its no-carry bound for
updates by folded tails, ``pack`` and ``unpack`` the order of the
slots.

Callers look the kernels up as ``backend.<kernel>`` at call time, and
``modp_echelon`` looks up ``packed_echelon`` the same way, so a wrapper
installed on this module (as the benchmark's spans and the tests'
counters are) wraps the code that runs.  ``BACKEND`` names the
implementation; it is recorded with every benchmark result.
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


def slot_bits(p, ncols):
    """Slot width S of a packed row of ncols residues mod the prime p.

    S >= 2 * k + ncols.bit_length() + 1 with k = p.bit_length(), rounded
    up to whole bytes so rows pack and unpack through ``bytes``.  An
    entry may start at any value below p**2 (a product of two
    residues).  The elimination adds to it, once per pivot left of it,
    a multiplier below p times a slot of a folded tail, which ``folder``
    leaves below 2**(k + 1): less than 2**(2 * k + 1) each time.  So it
    stays below p**2 + (ncols - 1) * 2**(2 * k + 1) < 2**S: no slot
    carries into the next.
    """
    return 8 * ((2 * p.bit_length() + ncols.bit_length() + 8) // 8)


def pack(values, s):
    """One int holding ``values`` (each below 2**s) in s-bit slots, the
    first value in the lowest slot: value j sits at bits j*s..(j+1)*s-1.
    So ``x >> s`` drops the first value, ``x | v << (j * s)`` puts v in
    empty slot j, and a packed row of a slots is one slot of width a*s.
    s is a multiple of 8, as ``slot_bits`` gives it."""
    sb = s // 8
    return int.from_bytes(b"".join([v.to_bytes(sb, "little") for v in values]), "little")


def unpack(x, n, s):
    """The n s-bit slots of x, lowest first: the inverse of ``pack``."""
    sb = s // 8
    b = x.to_bytes(n * sb, "little")
    return [int.from_bytes(b[j : j + sb], "little") for j in range(0, n * sb, sb)]


def folder(p, ncols):
    """The reduction mod p of packed rows of up to ncols slots at
    ``slot_bits(p, ncols)``, all slots at once.

    With k = p.bit_length(), 2**k = p + c, so a slot v = h * 2**k + l
    is congruent to c * h + l mod p.  One fold masks out every slot's
    low k bits l and its high bits h and forms the slots c * h + l,
    which is at most 2**k - 1 + c * (2**(S - k) - 1) < 2**S: no slot
    carries.  Each fold bounds a slot below b by 2**k - 1 + c * (b >>
    k), which falls while b >= 2**(k + 1), since p >= 2**(k - 1).  The
    returned function folds as often as it takes that bound, from 2**S,
    to pass below 2**(k + 1): its slots are congruent to the input's
    mod p and below 2**(k + 1) <= 4 * p, not fully reduced.  For the
    Mersenne prime 2**61 - 1, c = 1 and that is two folds at any width
    below 2**53 columns.
    """
    s = slot_bits(p, ncols)
    k = p.bit_length()
    c = (1 << k) - p
    ones = ((1 << s * ncols) - 1) // ((1 << s) - 1)  # 1 in every slot
    low, high = ((1 << k) - 1) * ones, ((1 << s - k) - 1) * ones
    folds, b = 0, (1 << s) - 1
    while b >> k > 1:
        b = (1 << k) - 1 + c * (b >> k)
        folds += 1

    def fold(x):
        for _ in range(folds):
            x = (x & low) + c * (x >> k & high)
        return x

    return fold


def modp_echelon(rows, p):
    """In-place LU factorization mod the prime p, with row pivoting.

    Entries may be any ints: the factorization is that of their residues
    mod p, and every output entry lies in [0, p).  Returns ``(pivots,
    order)``: the pivot columns in ascending order, and ``order[i]``, the
    input index of the row that ends at position i.  Let r be the rank
    and c_k the k-th pivot column.  Afterwards, row k < r holds the pivot
    value d_k at c_k and, right of c_k, the pivot row divided by d_k (the
    unit upper factor U, whose 1 at c_k is implied).  Every row i holds,
    at each pivot column c_k with k < min(i, r), the multiplier L[i][k]
    of U row k that the elimination subtracted there, and zero at the
    other columns left of its own pivot (at all other columns when
    i >= r).  So input row order[i] equals sum_k L[i][k] * U[k] mod p,
    with L[k][k] = d_k.  Row operations never mix columns, so cut to the
    first w columns this is the factorization of that column prefix,
    with the pivots below w.

    The residues are packed by ``pack_residues`` and eliminated by
    ``packed_echelon`` into the cleared input rows, and U is written out
    by ``upper_row``.
    """
    ncols = len(rows[0]) if rows else 0
    packed = pack_residues(rows, p)
    for row in rows:
        row[:] = [0] * ncols
    pivots, order, tails, invs = packed_echelon(packed, rows, p)
    for k, c in enumerate(pivots):
        rows[k][c + 1 :] = upper_row(tails[k], invs[k], c, ncols, p)
    return pivots, order


def pack_residues(rows, p):
    """The integer rows' residues mod p, each row packed at
    ``slot_bits(p, ncols)``: ``packed_echelon``'s input."""
    s = slot_bits(p, len(rows[0]) if rows else 0)
    return [pack([v % p for v in row], s) for row in rows]


def upper_row(tail, inv, c, ncols, p):
    """Row k of U right of its pivot column c, in [0, p), from
    ``packed_echelon``'s ``tails[k]`` and ``invs[k]`` for a matrix of
    ncols columns."""
    return [v * inv % p for v in unpack(tail, ncols - 1 - c, slot_bits(p, ncols))]


def packed_echelon(packed, rows, p):
    """``modp_echelon`` of the matrix whose rows are given packed, with
    U left packed.

    ``packed[i]`` holds row i's ncols entries as ``pack`` lays them out
    at ``slot_bits(p, ncols)``, each slot below p**2; their residues mod
    p are the matrix.  ``rows`` are nrows lists of ncols zeros, which
    receive ``modp_echelon``'s output left of U: the pivot value d_k at
    c_k on row k and the multipliers L[i][k] at c_k below it.  They are
    swapped with ``order``, and ``packed`` is consumed.  Returns
    ``(pivots, order, tails, invs)``: ``tails[k]`` is pivot row k's
    tail, its ncols - 1 - c_k slots right of c_k packed as ``folder``
    leaves them, each below 2**(p.bit_length() + 1) and congruent to
    d_k times U's entry mod p, and ``invs[k]`` is d_k's inverse mod p.

    Rows are eliminated packed (Dumas, Fousse and Salvy, "Simultaneous
    modular reduction and Kronecker substitution for small finite
    fields", JSC 2011).  A row carries only the columns not yet
    eliminated, the current column c in its lowest slot, so the pivot
    search and the multiplier read the low S bits of a row, whatever
    its length.  At c the pivot row leaves the packed rows, and its
    tail (the slots right of c) is folded, not divided by d.  Every row
    below it records its multiplier m, drops its lowest slot and, when
    m is nonzero, takes one multiply-add, R = (R >> S) + (-m / d mod p)
    * tail, with no reduction of R.  A column
    without a pivot is dropped from every row left.  Each update stays
    within the bound of ``slot_bits``.  Nothing is unpacked.
    """
    nrows = len(packed)
    ncols = len(rows[0]) if nrows else 0
    pivots, tails, invs = [], [], []
    order = list(range(nrows))
    s = slot_bits(p, ncols)
    mask = (1 << s) - 1
    fold = folder(p, ncols)
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if (packed[i] & mask) % p), -1)
        if pr < 0:
            packed[r:] = [x >> s for x in packed[r:]]
            continue
        if pr != r:
            packed[r], packed[pr] = packed[pr], packed[r]
            rows[r], rows[pr] = rows[pr], rows[r]
            order[r], order[pr] = order[pr], order[r]
        x = packed[r]
        d = (x & mask) % p
        inv = pow(d, -1, p)
        neg = p - inv  # -1/d mod p
        rows[r][c] = d
        tail = fold(x >> s)
        for i in range(r + 1, nrows):
            x = packed[i]
            m = (x & mask) % p
            if m:
                rows[i][c] = m
                packed[i] = (x >> s) + m * neg % p * tail
            else:
                packed[i] = x >> s
        pivots.append(c)
        tails.append(tail)
        invs.append(inv)
        r += 1
    return pivots, order, tails, invs


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
