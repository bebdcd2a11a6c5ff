"""Command line driver.

Every subcommand is a thin adapter over the library: parse arguments,
call one operation, render the result.  Output is JSON by default
(big integers always as decimal strings), with ``--format csv`` or
``--format plain`` where a flat rendering makes sense.  ``reproduce``
re-derives the embedded reference fixtures end to end and diffs the
results against the stored transcriptions.

Exit codes: 0 success, 1 domain error or failed verification, 2 usage
error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import asdict

from . import counting, genfunc, intpoly, published, recurrence
from .algebraic import (
    AlgebraicEquation,
    check_shape_conjecture,
    guess_algebraic_equation,
    multiply_equations,
    reference_equation,
    reference_equations,
    verify_algebraic_equation,
)
from .counting import WeightSpec
from .errors import InvalidSpec, MotzkinError
from .paths import DEFAULT_MAX_LENGTH, enumerate_paths, recoloring_report

SERIES_ORDER_DEFAULT = 64
TERMS_DEFAULT = 120
GUARD_DEFAULT = 8


def _weights_arg(text):
    try:
        return WeightSpec.parse(text)
    except InvalidSpec as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _positive_int(text):
    v = int(text)
    if v < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {v}")
    return v


def _nonneg_int(text):
    v = int(text)
    if v < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {v}")
    return v


def _file_arg(parse):
    """An argparse ``type=`` that opens the file at PATH and parses it.

    Any failure to read or parse it is a one-line usage error naming
    the file and the cause.
    """

    def read(path):
        try:
            with open(path, encoding="utf-8") as fh:
                return parse(fh)
        except (OSError, KeyError, TypeError, ValueError) as exc:
            raise argparse.ArgumentTypeError(f"{path}: {type(exc).__name__}: {exc}") from None

    return read


_BUILTIN_RECURRENCES = {
    "motzkin": recurrence.motzkin_recurrence,
    "prodinger": recurrence.prodinger_recurrence,
}


def _add_spec_args(sub):
    given = sub.add_mutually_exclusive_group()
    given.add_argument(
        "--weights",
        type=_weights_arg,
        metavar="U;L;D",
        help="weight spec as 'u_1,..,u_r;l;d_1,..,d_r' (rank inferred)",
    )
    given.add_argument(
        "--weights-file",
        dest="weights",
        type=_file_arg(lambda fh: WeightSpec.parse(fh.read().strip())),
        metavar="PATH",
        help="file containing one weight spec in the --weights grammar",
    )
    sub.add_argument(
        "--rank",
        type=_positive_int,
        help="with a weight spec: cross-check the rank; alone: use the "
        "all-ones spec of this rank",
    )


def _resolve_spec(args) -> WeightSpec:
    spec = args.weights
    if spec is None:
        if args.rank is None:
            args._parser.error("a weight spec is required (--weights, --weights-file, or --rank)")
        return WeightSpec.all_ones(args.rank)
    if args.rank is not None and args.rank != spec.rank:
        args._parser.error(
            f"--rank {args.rank} contradicts the weight spec (rank {spec.rank})"
        )
    return spec


def _terms(args) -> list[int]:
    """The dp counts n = 0..terms-1 that a recurrence is fitted to or checked on."""
    return counting.count_sequence(_resolve_spec(args), args.terms - 1, args.start, args.end)


def _emit(args, payload, plain_lines=None, csv_rows=None):
    """Render and write the result in the selected format.

    ``main`` refuses ``--format csv`` before a subcommand that offers no
    csv rows runs, so csv_rows is given whenever csv is selected.
    """
    if args.format == "json":
        text = json.dumps(payload, indent=2) + "\n"
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        for row in csv_rows:
            writer.writerow(row)
        text = buf.getvalue()
    else:
        lines = plain_lines if plain_lines is not None else [json.dumps(payload)]
        text = "".join(line + "\n" for line in lines)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            args._parser.error(f"cannot write --out: {exc}")
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------- commands


def _cmd_count(args):
    spec = _resolve_spec(args)
    value = counting.count_paths_dp(spec, args.n, args.start, args.end)
    payload = {"n": args.n, "value": str(value)}
    if args.start or args.end:
        payload = {"n": args.n, "start": args.start, "end": args.end, "value": str(value)}
    _emit(
        args,
        payload,
        plain_lines=[str(value)],
        csv_rows=[("n", "value"), (args.n, value)],
    )
    return 0


def _cmd_seq(args):
    spec = _resolve_spec(args)
    terms = counting.count_sequence(spec, args.n_max, args.start, args.end)
    _emit(
        args,
        [str(t) for t in terms],
        plain_lines=[str(t) for t in terms],
        csv_rows=[("n", "value")] + list(enumerate(terms)),
    )
    return 0


def _cmd_enumerate(args):
    spec = _resolve_spec(args)
    paths = enumerate_paths(
        spec,
        args.n,
        start=args.start,
        end=args.end,
        colored=not args.uncolored,
        max_paths=args.max_paths,
        max_length=args.max_length,
    )
    texts = [p.to_text() for p in paths]
    _emit(
        args,
        {"count": len(texts), "paths": texts},
        plain_lines=texts,
        csv_rows=[("index", "path")] + list(enumerate(texts)),
    )
    return 0


def _cmd_series(args):
    spec = _resolve_spec(args)
    if not (0 <= args.i < spec.rank and 0 <= args.j < spec.rank):
        args._parser.error(f"--i and --j must lie in 0..{spec.rank - 1}")
    family = genfunc.solve_series(spec, args.order, symmetric=spec.is_all_ones)
    series = family[args.i, args.j]
    _emit(
        args,
        series.to_json_dict(),
        plain_lines=[str(c) for c in series.coeffs],
        csv_rows=[("n", "value")] + list(enumerate(series.coeffs)),
    )
    return 0


def _cmd_guess_algeq(args):
    spec = _resolve_spec(args)
    series = genfunc.generating_series(spec, args.order)
    max_y = args.max_y_degree or 2**spec.rank
    report = guess_algebraic_equation(
        series, max_y, max_x_degree=args.max_x_degree, guard=args.guard
    )
    payload = {
        "found": report.found,
        "y_degree_bound": report.y_degree_bound,
        "x_degree_bound": report.x_degree_bound,
        "guard": report.guard,
    }
    if report.found:
        payload.update(
            {
                "ansatz": report.ansatz,
                "verified_order": report.verified_order,
                "equation": report.equation.to_json_dict(),
                "pretty": str(report.equation),
            }
        )
        lines = [str(report.equation)]
    else:
        lines = ["no annihilating equation found within the bounds"]
    _emit(args, payload, plain_lines=lines)
    return 0


def _cmd_verify_algeq(args):
    spec = _resolve_spec(args)
    eq = args.equation_file or reference_equation(args.reference)
    series = genfunc.generating_series(spec, args.order)
    ok = verify_algebraic_equation(eq, series)
    _emit(
        args,
        {"verified": ok, "order": args.order, "y_degree": eq.y_degree},
        plain_lines=[
            f"{'verified' if ok else 'FAILED'}: y-degree {eq.y_degree} "
            f"equation vs series at order {args.order}"
        ],
    )
    return 0 if ok else 1


def _cmd_guess_rec(args):
    terms = _terms(args)
    rec = recurrence.guess_recurrence(
        terms, max_order=args.max_order, max_degree=args.max_degree, guard=args.guard
    )
    if rec is None:
        _emit(
            args,
            {"found": False, "max_order": args.max_order, "max_degree": args.max_degree},
            plain_lines=["no recurrence found within the bounds"],
        )
        return 0
    payload = {
        "found": True,
        "order": rec.order,
        "degree": rec.degree,
        "recurrence": rec.to_json_dict(),
        "pretty": str(rec),
    }
    _emit(args, payload, plain_lines=[str(rec)])
    return 0


def _cmd_verify_rec(args):
    rec = args.recurrence_file or _BUILTIN_RECURRENCES[args.builtin]()
    terms = _terms(args)
    ok = recurrence.verify_recurrence(rec, terms)
    _emit(
        args,
        {"verified": ok, "terms": len(terms), "order": rec.order, "degree": rec.degree},
        plain_lines=[
            f"{'verified' if ok else 'FAILED'}: order-{rec.order} relation "
            f"on {len(terms)} terms"
        ],
    )
    return 0 if ok else 1


def _cmd_scan_min(args):
    report = recurrence.minimality_scan(
        _terms(args), max_order=args.max_order, max_degree=args.max_degree, guard=args.guard
    )
    payload = {
        **asdict(report),
        "smallest": report.smallest,
        "observed_term_count": report.observed_term_count,
    }
    lines = [
        f"scanned orders 1..{report.max_order}, degrees 0..{report.max_degree} "
        f"on {report.terms_used} terms (guard {report.guard})"
    ]
    if report.hits:
        lines.append("verified cells (order, degree): " + ", ".join(map(str, report.hits)))
        lines.append(
            f"smallest: order {report.smallest[0]}, degree {report.smallest[1]} "
            f"({report.observed_term_count}-term relation)"
        )
    else:
        lines.append("no verified relation in the scanned grid")
    _emit(args, payload, plain_lines=lines)
    return 0


def _cmd_biject(args):
    report = recoloring_report(args.u, args.level, args.d, args.n, max_paths=args.max_paths)
    payload = {**asdict(report), "is_bijection": report.is_bijection}
    lines = [
        f"({args.u};{args.level};{args.d}) n={args.n}: domain {report.domain_size}, "
        f"image {report.image_size}, codomain {report.codomain_size}, "
        f"round-trip {'ok' if report.roundtrip_ok else 'BROKEN'}",
        "bijection verified" if report.is_bijection else "NOT a bijection",
    ]
    _emit(args, payload, plain_lines=lines)
    return 0 if report.is_bijection else 1


# -------------------------------------------------------------- reproduce


def _diff_terms(name, got, expected, lines):
    hits = sum(1 for a, b in zip(got, expected) if a == b)
    lines.append(f"{name}: {hits}/{len(expected)} terms match")
    if hits != len(expected):
        for idx, (a, b) in enumerate(zip(got, expected), start=1):
            if a != b:
                lines.append(f"  n={idx}: computed {a}, embedded {b}")
        return False
    return True


def _rep_table(rank):
    expected = published.TABLES[rank]
    spec = WeightSpec.all_ones(rank)
    lines = [f"rank-{rank} all-ones counts, n = 1..{len(expected)}"]
    dp = counting.count_sequence(spec, len(expected))[1:]
    ok = _diff_terms("dp", dp, expected, lines)
    ser = list(genfunc.generating_series(spec, len(expected) + 1).coeffs[1:])
    ok = _diff_terms("series", ser, expected, lines) and ok
    return ok, lines


def _rep_algeq(rank):
    guess_order = 170 if rank == 4 else 60
    verify_order = 120
    solve_order = max(guess_order, verify_order)
    spec = WeightSpec.all_ones(rank)
    series = genfunc.generating_series(spec, solve_order)
    lines = [f"rank-{rank} annihilating equation (guess on {guess_order} terms)"]
    ok = True

    report = guess_algebraic_equation(series.truncate(guess_order), 2**rank)
    if not report.found:
        lines.append("guesser found nothing within the 2^rank bound: FAIL")
        return False, lines
    eq = report.equation
    lines.append(f"guessed y-degree {eq.y_degree} ({report.ansatz} ansatz)")

    refs = reference_equations(rank)
    match = eq in refs
    lines.append(
        "guessed equation matches the embedded transcription"
        if match
        else "guessed equation DIFFERS from the embedded transcription (recorded)"
    )
    if rank <= 2:
        ok = ok and match  # for ranks 1 and 2 exact rediscovery is required

    v_guessed = verify_algebraic_equation(eq, series, verify_order)
    lines.append(f"guessed equation verifies at order {verify_order}: {v_guessed}")
    ok = ok and v_guessed
    for ref in refs:
        v_ref = verify_algebraic_equation(ref, series, verify_order)
        lines.append(
            f"embedded y-degree {ref.y_degree} equation verifies at order "
            f"{verify_order}: {v_ref}"
        )
        ok = ok and v_ref

    shape = check_shape_conjecture(eq, rank)
    lines.append(f"shape (y-degree 2^{rank}, a_0 = 1, deg a_i <= i): {shape}")
    ok = ok and shape

    if rank == 2:
        sextic, quartic = refs
        one_plus_xy = AlgebraicEquation(((1,), (0, 1)))
        product = multiply_equations(multiply_equations(one_plus_xy, one_plus_xy), quartic)
        factor_ok = product == sextic
        lines.append(f"(1 + xy)^2 * quartic equals the sextic: {factor_ok}")
        ok = ok and factor_ok
    return ok, lines


def _rep_prodinger():
    # The embedded seven-term P is not the smallest relation: the guess
    # is an order-5, degree-4 Q, and P is the left multiple
    # (n + 5) * P = (S + 5) * Q, with S the shift m_n -> m_{n+1}.
    spec = WeightSpec.all_ones(2)
    terms = counting.count_sequence(spec, TERMS_DEFAULT - 1)
    embedded = recurrence.prodinger_recurrence()
    lines = [f"rank-2 seven-term relation P (guess on {len(terms)} dp terms)"]

    guessed = recurrence.guess_recurrence(terms, max_order=8, max_degree=5)
    if guessed is None:
        lines.append("guesser found no relation: FAIL")
        return False, lines
    lines.append(f"guessed order {guessed.order}, degree {guessed.degree}")
    ok = (guessed.order, guessed.degree) == (5, 4) and recurrence.verify_recurrence(
        guessed, terms
    )
    lines.append(f"guessed relation Q is a verified order-5, degree-4 relation: {ok}")

    certificate = tuple(
        intpoly.mul((5, 1), p) for p in embedded.coeff_polys
    ) == recurrence.shift_left_multiply(5, guessed.coeff_polys)
    lines.append(f"certificate (n+5)*P = (S+5)*Q, S the shift m_n -> m_{{n+1}}: {certificate}")
    ok = ok and certificate

    scan = recurrence.minimality_scan(terms, max_order=5, max_degree=5)
    frontier = scan.frontier == ((5, 4),)
    lines.append(
        f"scan frontier for order <= 5, degree <= 5: {scan.frontier}, "
        f"expected ((5, 4),): {frontier}"
    )
    ok = ok and frontier

    extended = recurrence.apply_recurrence(embedded, terms[:6], 101)
    dp = counting.count_sequence(spec, 100)
    ok = _diff_terms("extension to n = 100 vs dp", extended[1:], dp[1:], lines) and ok
    return ok, lines


_REPRODUCE_TARGETS = {
    "table1": lambda: _rep_table(2),
    "table2": lambda: _rep_table(3),
    "table3": lambda: _rep_table(4),
    "algeq-r1": lambda: _rep_algeq(1),
    "algeq-r2": lambda: _rep_algeq(2),
    "algeq-r3": lambda: _rep_algeq(3),
    "algeq-r4": lambda: _rep_algeq(4),
    "prodinger": _rep_prodinger,
}


def _cmd_reproduce(args):
    targets = sorted(_REPRODUCE_TARGETS) if args.target == "all" else [args.target]
    ok = True
    lines = []
    for name in targets:
        target_ok, target_lines = _REPRODUCE_TARGETS[name]()
        target_lines.append(f"reproduce {name}: {'OK' if target_ok else 'MISMATCH'}")
        lines.extend(target_lines)
        ok = ok and target_ok
    _emit(args, {"target": args.target, "ok": ok, "report": lines}, plain_lines=lines)
    return 0 if ok else 1


# ------------------------------------------------------------------ parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="motzkinrank",
        allow_abbrev=False,
        description="Exact counting, series, equations, and recurrences "
        "for colored Motzkin paths of arbitrary rank.",
    )
    subs = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def new_sub(
        name,
        help_text,
        func,
        default_format="json",
        has_csv=False,
        spec=True,
        order=False,
        terms=False,
        ends=False,
        grid=None,
        guard=False,
    ):
        """A subcommand running ``func``, with the output options and the
        shared option sets its flags name; ``terms`` brings ``ends`` along
        and ``grid`` is the (--max-order, --max-degree) defaults."""
        sub = subs.add_parser(name, help=help_text, description=help_text, allow_abbrev=False)
        sub.add_argument(
            "--format",
            choices=("json", "csv", "plain"),
            default=default_format,
            help=f"output format (default: {default_format})",
        )
        sub.add_argument("--out", metavar="PATH", help="write output to PATH instead of stdout")
        sub.set_defaults(func=func, _parser=sub, _csv=has_csv)
        if spec:
            _add_spec_args(sub)
        if order:
            sub.add_argument(
                "--order",
                type=_positive_int,
                default=SERIES_ORDER_DEFAULT,
                help=f"truncation order (default {SERIES_ORDER_DEFAULT})",
            )
        if terms:
            sub.add_argument(
                "--terms",
                type=_positive_int,
                default=TERMS_DEFAULT,
                help=f"number of dp terms n = 0..terms-1 (default {TERMS_DEFAULT})",
            )
        if terms or ends:
            for height in ("start", "end"):
                sub.add_argument(
                    f"--{height}", type=_nonneg_int, default=0, help=f"{height} height (default 0)"
                )
        if grid:
            sub.add_argument("--max-order", type=_positive_int, default=grid[0])
            sub.add_argument("--max-degree", type=_nonneg_int, default=grid[1])
        if guard:
            sub.add_argument("--guard", type=_nonneg_int, default=GUARD_DEFAULT)
        return sub

    sub = new_sub("count", "count colored paths of one length", _cmd_count, has_csv=True, ends=True)
    sub.add_argument("--n", type=_nonneg_int, required=True, help="path length")

    sub = new_sub(
        "seq", "count colored paths for every length 0..n-max", _cmd_seq, has_csv=True, ends=True
    )
    sub.add_argument("--n-max", type=_nonneg_int, required=True, help="largest length")

    sub = new_sub(
        "enumerate", "list the paths themselves (guarded)", _cmd_enumerate, has_csv=True, ends=True
    )
    sub.add_argument("--n", type=_nonneg_int, required=True, help="path length")
    sub.add_argument(
        "--uncolored",
        action="store_true",
        help="one representative per step sequence instead of per coloring",
    )
    sub.add_argument(
        "--max-paths",
        type=_positive_int,
        default=None,
        help="override the output-size guard (default 10^6 or $MOTZKIN_MAX_ENUM)",
    )
    sub.add_argument(
        "--max-length",
        type=_nonneg_int,
        default=DEFAULT_MAX_LENGTH,
        help=f"length guard (default {DEFAULT_MAX_LENGTH})",
    )

    sub = new_sub(
        "series",
        "solve the quadratic system as truncated series",
        _cmd_series,
        has_csv=True,
        order=True,
    )
    sub.add_argument("--i", type=_nonneg_int, default=0, help="start height label (default 0)")
    sub.add_argument("--j", type=_nonneg_int, default=0, help="end height label (default 0)")

    sub = new_sub(
        "guess-algeq",
        "search for an annihilating algebraic equation",
        _cmd_guess_algeq,
        order=True,
        guard=True,
    )
    sub.add_argument(
        "--max-y-degree",
        type=_positive_int,
        default=None,
        help="y-degree bound (default 2^rank)",
    )
    sub.add_argument(
        "--max-x-degree",
        type=_nonneg_int,
        default=None,
        help="uniform x-degree bound (default: per-coefficient bound i)",
    )

    sub = new_sub(
        "verify-algeq", "verify an equation against a solved series", _cmd_verify_algeq, order=True
    )
    given = sub.add_mutually_exclusive_group(required=True)
    given.add_argument(
        "--equation-file",
        type=_file_arg(lambda fh: AlgebraicEquation.from_json_dict(json.load(fh))),
        metavar="PATH",
        help="equation as JSON",
    )
    given.add_argument(
        "--reference",
        type=_positive_int,
        metavar="RANK",
        help="use the embedded reference equation for this rank",
    )

    new_sub(
        "guess-rec",
        "search for a polynomial-coefficient recurrence",
        _cmd_guess_rec,
        terms=True,
        grid=(8, 5),
        guard=True,
    )

    sub = new_sub("verify-rec", "verify a recurrence against dp terms", _cmd_verify_rec, terms=True)
    given = sub.add_mutually_exclusive_group(required=True)
    given.add_argument(
        "--recurrence-file",
        type=_file_arg(lambda fh: recurrence.Recurrence.from_json_dict(json.load(fh))),
        metavar="PATH",
        help="recurrence as JSON",
    )
    given.add_argument(
        "--builtin", choices=_BUILTIN_RECURRENCES, help="use an embedded reference relation"
    )

    new_sub(
        "scan-min",
        "map which (order, degree) cells admit a relation",
        _cmd_scan_min,
        terms=True,
        grid=(6, 4),
        guard=True,
    )

    sub = new_sub(
        "biject", "exhaustively verify the rank-1 recoloring bijection", _cmd_biject, spec=False
    )
    sub.add_argument("--u", type=_nonneg_int, required=True, help="up weight")
    sub.add_argument("--level", type=_nonneg_int, required=True, help="level weight")
    sub.add_argument("--d", type=_nonneg_int, required=True, help="down weight")
    sub.add_argument("--n", type=_nonneg_int, required=True, help="path length")
    sub.add_argument("--max-paths", type=_positive_int, default=None)

    sub = new_sub(
        "reproduce",
        "re-derive an embedded fixture and diff against the transcription",
        _cmd_reproduce,
        default_format="plain",
        spec=False,
    )
    sub.add_argument("target", choices=sorted(_REPRODUCE_TARGETS) + ["all"])

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.format == "csv" and not args._csv:
            args._parser.error("--format csv is not supported for this subcommand")
        if args.out and not os.path.isdir(os.path.dirname(args.out) or "."):
            args._parser.error(f"cannot write --out: no directory for {args.out!r}")
        return args.func(args)
    except SystemExit as exc:  # argparse --help (0) or usage error (2)
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    except MotzkinError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main_entry():
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    main_entry()
