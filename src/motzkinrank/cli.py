"""Command line driver.

Every subcommand is a thin adapter over the library: parse arguments,
call one operation, render the result.  Output is JSON by default
(big integers always as decimal strings), with ``--format csv`` or
``--format plain`` where a flat rendering makes sense.  ``reproduce``
runs the paper's claims from ``motzkinrank.claims`` and prints their
report lines.

Library names are read through the package (``mr.count_paths_dp``),
which loads a module on first use, so a subcommand loads only the
modules it calls: ``count`` loads no solver or guesser.

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

import motzkinrank as mr

from . import claims

SERIES_ORDER_DEFAULT = 64
TERMS_DEFAULT = 120
GUARD_DEFAULT = 8


def _weights_arg(text):
    try:
        return mr.WeightSpec.parse(text)
    except mr.InvalidSpec as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _nonneg_int(text, least=0):
    v = int(text)
    if v < least:
        kind = "positive" if least else "nonnegative"
        raise argparse.ArgumentTypeError(f"expected a {kind} integer, got {v}")
    return v


def _positive_int(text):
    return _nonneg_int(text, least=1)


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
        type=_file_arg(lambda fh: mr.WeightSpec.parse(fh.read().strip())),
        metavar="PATH",
        help="file containing one weight spec in the --weights grammar",
    )
    sub.add_argument(
        "--rank",
        type=_positive_int,
        help="with a weight spec: cross-check the rank; alone: use the "
        "all-ones spec of this rank",
    )


def _resolve_spec(args):
    spec = args.weights
    if spec is None:
        if args.rank is None:
            args._parser.error("a weight spec is required (--weights, --weights-file, or --rank)")
        return mr.WeightSpec.all_ones(args.rank)
    if args.rank is not None and args.rank != spec.rank:
        args._parser.error(f"--rank {args.rank} contradicts the weight spec (rank {spec.rank})")
    return spec


def _terms(args) -> list[int]:
    """The dp counts n = 0..terms-1 that a recurrence is fitted to or checked on."""
    return mr.count_sequence(_resolve_spec(args), args.terms - 1, args.start, args.end)


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
        writer.writerows(csv_rows)
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
    value = mr.count_paths_dp(_resolve_spec(args), args.n, args.start, args.end)
    ends = {"start": args.start, "end": args.end} if args.start or args.end else {}
    payload = {"n": args.n, **ends, "value": str(value)}
    _emit(
        args,
        payload,
        plain_lines=[str(value)],
        csv_rows=[("n", "value"), (args.n, value)],
    )
    return 0


def _cmd_seq(args):
    terms = mr.count_sequence(_resolve_spec(args), args.n_max, args.start, args.end)
    _emit(
        args,
        [str(t) for t in terms],
        plain_lines=[str(t) for t in terms],
        csv_rows=[("n", "value")] + list(enumerate(terms)),
    )
    return 0


def _cmd_enumerate(args):
    # Without --max-length the library's own length guard applies.
    length = {} if args.max_length is None else {"max_length": args.max_length}
    paths = mr.enumerate_paths(
        _resolve_spec(args),
        args.n,
        start=args.start,
        end=args.end,
        colored=not args.uncolored,
        max_paths=args.max_paths,
        **length,
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
    family = mr.solve_series(spec, args.order, symmetric=spec.is_all_ones)
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
    series = mr.generating_series(spec, args.order)
    max_y = args.max_y_degree or 2**spec.rank
    report = mr.guess_algebraic_equation(
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
            ansatz=report.ansatz,
            verified_order=report.verified_order,
            equation=report.equation.to_json_dict(),
            pretty=str(report.equation),
        )
        lines = [str(report.equation)]
    else:
        lines = ["no annihilating equation found within the bounds"]
    _emit(args, payload, plain_lines=lines)
    return 0


def _cmd_verify_algeq(args):
    spec = _resolve_spec(args)
    eq = args.equation_file or mr.reference_equation(args.reference)
    series = mr.generating_series(spec, args.order)
    ok = mr.verify_algebraic_equation(eq, series)
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
    rec = mr.guess_recurrence(
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
    rec = args.recurrence_file or getattr(mr, f"{args.builtin}_recurrence")()
    terms = _terms(args)
    ok = mr.verify_recurrence(rec, terms)
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
    report = mr.minimality_scan(
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
    report = mr.recoloring_report(args.u, args.level, args.d, args.n, max_paths=args.max_paths)
    payload = {**asdict(report), "is_bijection": report.is_bijection}
    lines = [
        f"({args.u};{args.level};{args.d}) n={args.n}: domain {report.domain_size}, "
        f"image {report.image_size}, codomain {report.codomain_size}, "
        f"round-trip {'ok' if report.roundtrip_ok else 'BROKEN'}",
        "bijection verified" if report.is_bijection else "NOT a bijection",
    ]
    _emit(args, payload, plain_lines=lines)
    return 0 if report.is_bijection else 1


def _cmd_reproduce(args):
    targets = sorted(claims.TARGETS) if args.target == "all" else [args.target]
    ok = True
    lines = []
    for name in targets:
        target_ok, target_lines = claims.TARGETS[name]()
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
        help="override the output-size guard (default 10^6 or $MOTZKIN_MAX_ENUM)",
    )
    sub.add_argument(
        "--max-length",
        type=_nonneg_int,
        help="length guard (default: the library's, motzkinrank.paths.DEFAULT_MAX_LENGTH)",
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
        help="y-degree bound (default 2^rank)",
    )
    sub.add_argument(
        "--max-x-degree",
        type=_nonneg_int,
        help="uniform x-degree bound (default: per-coefficient bound i)",
    )

    sub = new_sub(
        "verify-algeq", "verify an equation against a solved series", _cmd_verify_algeq, order=True
    )
    given = sub.add_mutually_exclusive_group(required=True)
    given.add_argument(
        "--equation-file",
        type=_file_arg(lambda fh: mr.AlgebraicEquation.from_json_dict(json.load(fh))),
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
        type=_file_arg(lambda fh: mr.Recurrence.from_json_dict(json.load(fh))),
        metavar="PATH",
        help="recurrence as JSON",
    )
    given.add_argument(
        "--builtin", choices=("motzkin", "prodinger"), help="use an embedded reference relation"
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
    sub.add_argument("target", choices=sorted(claims.TARGETS) + ["all"])

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
        return exc.code if isinstance(exc.code, int) else 0 if exc.code is None else 2
    except mr.MotzkinError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main_entry():
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    main_entry()
