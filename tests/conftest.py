"""Shared pytest plumbing for the suite.

The acceptance tests report one verdict line per numbered criterion;
the hook below prints them as a block after the normal summary so the
pass/fail state of each criterion is visible at a glance.

``entrywise_modp_echelon`` is the reference LU mod p that the packed
``backend.modp_echelon`` must reproduce bit for bit, shared by the
kernel's parity tests and the guessers' parity test.
``entrywise_packed_echelon`` is its twin with the contract of
``backend.packed_echelon``, the elimination every LU mod p goes through,
and ``write_upper`` checks that contract's packed U and writes it out.
"""

from __future__ import annotations

from motzkinrank import backend

# tag -> (description, passed); populated by tests/test_acceptance.py
_CRITERIA: dict[str, tuple[str, bool]] = {}


def record_criterion(tag: str, description: str, passed: bool) -> bool:
    _CRITERIA[tag] = (description, passed)
    return passed


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CRITERIA:
        return
    terminalreporter.section("acceptance criteria")
    for tag in sorted(_CRITERIA):
        description, passed = _CRITERIA[tag]
        verdict = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"[{tag}] {verdict} {description}")


def entrywise_modp_echelon(rows, p):
    """Entry-by-entry LU mod p with row pivoting, in place, with
    ``backend.modp_echelon``'s contract: entries are reduced mod p
    first, and it returns ``(pivots, order)``."""
    for row in rows:
        row[:] = [v % p for v in row]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    order = list(range(nrows))
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if rows[i][c]), -1)
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


def entrywise_packed_echelon(packed, rows, p):
    """``entrywise_modp_echelon`` on packed input, with
    ``backend.packed_echelon``'s contract: the slots of ``packed`` at
    ``backend.slot_bits`` are written into ``rows``, lowest slot first,
    and eliminated there; then each U row is returned packed, times its
    pivot value, with that value's inverse, and cleared from ``rows``."""
    ncols = len(rows[0]) if rows else 0
    s = backend.slot_bits(p, ncols)
    mask = (1 << s) - 1
    for row, x in zip(rows, packed):
        row[:] = [x >> (j * s) & mask for j in range(ncols)]
    pivots, order = entrywise_modp_echelon(rows, p)
    tails, invs = [], []
    for k, c in enumerate(pivots):
        d = rows[k][c]
        tails.append(backend.pack([d * u % p for u in rows[k][c + 1 :]], s))
        invs.append(pow(d, p - 2, p))
        rows[k][c + 1 :] = [0] * (ncols - 1 - c)
    return pivots, order, tails, invs


def write_upper(rows, result, p):
    """``modp_echelon``'s ``(pivots, order)`` and, in ``rows``, its U,
    from ``backend.packed_echelon``'s ``result`` on ``rows``, after
    checking the contract of its tails: each slot below
    2**(p.bit_length() + 1), nothing above the last slot, and each
    inverse that of the pivot value."""
    pivots, order, tails, invs = result
    ncols = len(rows[0]) if rows else 0
    s = backend.slot_bits(p, ncols)
    for k, c in enumerate(pivots):
        assert rows[k][c] * invs[k] % p == 1
        assert tails[k] >> ((ncols - 1 - c) * s) == 0
        tail = backend.unpack(tails[k], ncols - 1 - c, s)
        assert all(v >> (p.bit_length() + 1) == 0 for v in tail)
        rows[k][c + 1 :] = [v * invs[k] % p for v in tail]
    return pivots, order
