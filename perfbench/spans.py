"""Spans around the library's public functions, recorded from outside.

``Tracer.installed()`` replaces each traced function by a wrapper on the
module that defines it (``motzkinrank.backend.conv_trunc``,
``motzkinrank.linalg.nullspace_basis``, ...).  The library looks those
attributes up at call time, so internal calls are traced too; the
re-exports in ``motzkinrank/__init__`` are bound at import and are not,
which is why the workloads call through the defining modules.

A span is ``[name, start, end, parent, op, measure]``: ``parent`` is the
index of the enclosing span (None at the top of an operation), ``op``
the index of the operation in the batch, and ``measure`` an optional
count taken from the arguments or the result (products, cells, bits,
paths).  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter

from motzkinrank import algebraic, backend, counting, genfunc, linalg, paths, recurrence


def _conv_products(result, a, b, n):
    # Coefficient products of the schoolbook loop: sum over i < min(len a, n)
    # of min(len b, n - i).
    m = min(len(a), n)
    full = max(0, min(m, n - len(b) + 1))  # rows where all of b fits
    return full * len(b) + (n - full + n - m + 1) * (m - full) // 2


def _dp_cells(result, deltas, weights, n, start, caps):
    return sum(caps[1 : n + 1]) + n


def _echelon_cells(result, rows, p):
    return len(rows) * len(rows[0]) if rows else 0


def _max_bits(result, *args, **kwargs):
    return max((v.bit_length() for v in result), default=0)


def _found(result, *args, **kwargs):
    return 0 if result is None or getattr(result, "found", True) is False else 1


def _swept_paths(report, *args, **kwargs):
    return report.domain_size + report.codomain_size


# (defining module, public function, measure taken from each call)
TRACED = (
    (backend, "conv_trunc", _conv_products),
    (backend, "dp_rows", _dp_cells),
    (backend, "modp_echelon", _echelon_cells),
    (backend, "bareiss_echelon", None),
    (genfunc, "solve_series", None),
    (algebraic, "guess_algebraic_equation", _found),
    (algebraic, "verify_algebraic_equation", None),
    (recurrence, "guess_recurrence", _found),
    (recurrence, "verify_recurrence", None),
    (recurrence, "apply_recurrence", None),
    (linalg, "nullspace_basis", None),
    (counting, "count_sequence", _max_bits),
    (paths, "recoloring_report", _swept_paths),
)


def span_name(module, attr):
    return f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.op = None

    def _wrap(self, name, fn, measure):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if measure is not None:
                span[5] = measure(result, *args, **kwargs)
            return result

        return traced

    @contextmanager
    def installed(self):
        saved = [(module, attr, getattr(module, attr)) for module, attr, _ in TRACED]
        try:
            for module, attr, measure in TRACED:
                setattr(module, attr, self._wrap(span_name(module, attr), getattr(module, attr), measure))
            yield self
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)

    def dump(self):
        keys = ("name", "start", "end", "parent", "op", "measure")
        return [dict(zip(keys, span)) for span in self.spans]


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, op_walls, traced_wall, untraced_wall):
    """Per-layer metrics of one traced batch.

    ``op_walls`` are the traced wall times of the operations; glue is
    what they spend outside every top-level span.
    """
    names = [span_name(module, attr) for module, attr, _ in TRACED]
    calls = dict.fromkeys(names, 0)
    self_s = dict.fromkeys(names, 0.0)
    measure = dict.fromkeys(names, 0)
    max_bits = 0
    top = 0.0
    under_guess = {"algebraic.guess_algebraic_equation": 0, "recurrence.guess_recurrence": 0}
    for name, start, end, parent, _, value in spans:
        dur = end - start
        calls[name] += 1
        self_s[name] += dur
        if parent is None:
            top += dur
        else:
            self_s[spans[parent][0]] -= dur
        if value is not None:
            if name == "counting.count_sequence":
                max_bits = max(max_bits, value)
            else:
                measure[name] += value
        if name == "linalg.nullspace_basis":
            while parent is not None:
                if spans[parent][0] in under_guess:
                    under_guess[spans[parent][0]] += 1
                    break
                parent = spans[parent][3]

    out = {}
    for name in names:
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.self_s"] = (self_s[name], "s")
    ns_calls = calls["linalg.nullspace_basis"]
    report_s = self_s["paths.recoloring_report"]
    glue = sum(op_walls) - top
    out.update({
        "backend.conv_trunc.products": (measure["backend.conv_trunc"], "count"),
        "backend.dp_rows.cells": (measure["backend.dp_rows"], "count"),
        "backend.modp_echelon.cells": (measure["backend.modp_echelon"], "count"),
        "algebraic.ansatz_hit_ratio": (_ratio(measure["algebraic.guess_algebraic_equation"],
                                              under_guess["algebraic.guess_algebraic_equation"]), "ratio"),
        "recurrence.cell_hit_ratio": (_ratio(measure["recurrence.guess_recurrence"],
                                             under_guess["recurrence.guess_recurrence"]), "ratio"),
        "linalg.primes_per_call": (_ratio(calls["backend.modp_echelon"], ns_calls), "ratio"),
        "linalg.exact_fallback_ratio": (_ratio(calls["backend.bareiss_echelon"], ns_calls), "ratio"),
        "counting.max_bits": (max_bits, "bits"),
        "paths.paths_per_s": (_ratio(measure["paths.recoloring_report"], report_s), "1/s"),
        "glue_s": (glue, "s"),
        "traced_wall_s": (traced_wall, "s"),
        "untraced_wall_s": (untraced_wall, "s"),
        "trace_overhead_frac": (traced_wall / untraced_wall - 1.0, "ratio"),
        "trace_accounted_frac": (_ratio(sum(self_s.values()) + glue, traced_wall), "ratio"),
    })
    return out
