"""Command-line interface: output formats, exit codes, reproduce targets."""

import json
from pathlib import Path

import pytest

import motzkinrank as mr
from motzkinrank import cli
from motzkinrank.cli import main
from motzkinrank.recurrence import shift_left_multiply


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_json(capsys):
    code, out, _ = run(capsys, "count", "--rank", "2", "--n", "10")
    assert code == 0
    assert json.loads(out) == {"n": 10, "value": "147787"}


def test_count_with_endpoints(capsys):
    code, out, _ = run(
        capsys, "count", "--weights", "1,1;1;1,1", "--n", "6", "--start", "1", "--end", "2"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["start"] == 1 and payload["end"] == 2
    assert int(payload["value"]) == mr.count_paths_dp(
        mr.WeightSpec.all_ones(2), 6, start=1, end=2
    )


def test_seq_json_and_csv(capsys):
    code, out, _ = run(capsys, "seq", "--rank", "1", "--n-max", "6")
    assert code == 0
    assert json.loads(out) == ["1", "1", "2", "4", "9", "21", "51"]
    code, out, _ = run(capsys, "seq", "--rank", "1", "--n-max", "3", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["n,value", "0,1", "1,1", "2,2", "3,4"]


def test_series_json(capsys):
    code, out, _ = run(capsys, "series", "--weights", "2;1;3", "--order", "6")
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 6
    assert [int(c) for c in payload["coeffs"]] == mr.count_sequence(
        mr.WeightSpec.rank1(2, 1, 3), 5
    )


def test_series_and_enumerate_csv(capsys):
    code, out, _ = run(capsys, "series", "--rank", "1", "--order", "4", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["n,value", "0,1", "1,1", "2,2", "3,4"]
    code, out, _ = run(capsys, "enumerate", "--rank", "1", "--n", "2", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "index,path"
    code, _, err = run(capsys, "biject", "--u", "1", "--level", "1", "--d", "1",
                       "--n", "2", "--format", "csv")
    assert code == 2
    assert "csv" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("guess-algeq", "--rank", "1"),
        ("verify-algeq", "--rank", "1", "--reference", "1"),
        ("guess-rec", "--rank", "1"),
        ("verify-rec", "--rank", "1", "--builtin", "motzkin"),
        ("scan-min", "--rank", "1"),
        ("biject", "--u", "1", "--level", "1", "--d", "1", "--n", "2"),
        ("reproduce", "all"),
    ],
)
def test_unsupported_csv_is_refused_before_the_work(capsys, monkeypatch, argv):
    def work(args):
        raise AssertionError(f"{args.command} ran")

    for name in vars(cli).copy():
        if name.startswith("_cmd_"):
            monkeypatch.setattr(cli, name, work)
    with pytest.raises(AssertionError, match=argv[0]):
        main(list(argv))
    code, out, err = run(capsys, *argv, "--format", "csv")
    assert (code, out) == (2, "")
    assert "--format csv is not supported for this subcommand" in err


def test_series_index_bounds(capsys):
    code, _, err = run(capsys, "series", "--rank", "2", "--order", "6", "--i", "5")
    assert code == 2


def test_enumerate_uncolored(capsys):
    code, out, _ = run(
        capsys, "enumerate", "--weights", "2;1;3", "--n", "4", "--uncolored"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == len(payload["paths"]) == 9


def test_out_file(tmp_path, capsys):
    target = tmp_path / "result.json"
    code, out, _ = run(capsys, "count", "--rank", "1", "--n", "5", "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text()) == {"n": 5, "value": "21"}


def test_weights_file(tmp_path, capsys):
    wfile = tmp_path / "spec.txt"
    wfile.write_text("2;1;3\n")
    code, out, _ = run(capsys, "count", "--weights-file", str(wfile), "--n", "4")
    assert code == 0
    assert json.loads(out)["value"] == "109"


def test_bad_arguments_exit_2(capsys):
    assert run(capsys, "count", "--weights", "oops", "--n", "3")[0] == 2
    assert run(capsys, "count", "--rank", "2", "--weights", "1;1;1", "--n", "3")[0] == 2
    assert run(capsys, "count", "--n", "3")[0] == 2  # no spec at all
    assert run(capsys, "count", "--rank", "1", "--n", "-4")[0] == 2
    assert run(capsys, "count", "--rank", "1", "--n", "3", "--threads", "0")[0] == 2
    assert run(capsys, "no-such-command")[0] == 2
    assert run(capsys)[0] == 2


def test_abbreviated_options_exit_2(capsys):
    # Only the full spelling of an option is accepted.
    assert run(capsys, "seq", "--rank", "1", "--n", "6")[0] == 2
    code, out, err = run(
        capsys, "guess-rec", "--rank", "1", "--terms", "60", "--max-o", "2", "--max-d", "1"
    )
    assert code == 2 and out == ""
    assert "--max-o" in err


def test_domain_errors_exit_1(capsys):
    code, _, err = run(capsys, "guess-rec", "--rank", "1", "--terms", "20")
    assert code == 1
    assert "error: InsufficientTerms" in err


def test_failed_self_check_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(mr.linalg, "is_nullvector", lambda rows, v: False)
    code, out, err = run(
        capsys, "guess-rec", "--rank", "1", "--terms", "60",
        "--max-order", "2", "--max-degree", "1",
    )
    assert code == 1 and out == ""
    assert "error: SelfCheckFailed" in err


def test_guess_algeq_found_and_not_found(capsys):
    code, out, _ = run(capsys, "guess-algeq", "--rank", "1", "--order", "40")
    assert code == 0
    payload = json.loads(out)
    assert payload["found"] is True
    assert payload["equation"]["y_degree"] == 2
    code, out, _ = run(
        capsys, "guess-algeq", "--rank", "1", "--order", "40", "--max-y-degree", "1"
    )
    assert code == 0  # an unsuccessful search is still a clean run
    assert json.loads(out)["found"] is False


def test_verify_algeq_reference_and_file(tmp_path, capsys):
    assert run(capsys, "verify-algeq", "--rank", "1", "--reference", "1", "--order", "40")[0] == 0
    good = tmp_path / "good.json"
    good.write_text(json.dumps(mr.reference_equation(1).to_json_dict()))
    assert run(capsys, "verify-algeq", "--rank", "1", "--equation-file", str(good))[0] == 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"y_degree": 1, "coeffs": [["1"], ["1"]]}))
    code, out, _ = run(capsys, "verify-algeq", "--rank", "1", "--equation-file", str(bad))
    assert code == 1
    assert json.loads(out)["verified"] is False


def test_guess_and_verify_rec(tmp_path, capsys):
    code, out, _ = run(
        capsys, "guess-rec", "--rank", "1", "--terms", "60",
        "--max-order", "2", "--max-degree", "1",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["found"] is True
    assert payload["recurrence"]["order"] == 2

    assert run(capsys, "verify-rec", "--rank", "1", "--builtin", "motzkin", "--terms", "50")[0] == 0
    assert run(capsys, "verify-rec", "--rank", "2", "--builtin", "prodinger", "--terms", "50")[0] == 0
    # motzkin relation does not hold for the rank-2 sequence
    code, out, _ = run(capsys, "verify-rec", "--rank", "2", "--builtin", "motzkin", "--terms", "50")
    assert code == 1
    assert json.loads(out)["verified"] is False

    rfile = tmp_path / "rec.json"
    rfile.write_text(json.dumps(mr.motzkin_recurrence().to_json_dict()))
    assert run(capsys, "verify-rec", "--rank", "1", "--recurrence-file", str(rfile))[0] == 0


def test_scan_min(capsys):
    code, out, _ = run(
        capsys, "scan-min", "--rank", "1", "--terms", "60",
        "--max-order", "3", "--max-degree", "2",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["smallest"] == [2, 1]
    assert [2, 1] in payload["hits"]


# The JSON of a (10, 7) recurrence guess and of C4's scan, as eliminating
# the integer rows gave it: any other route to these answers must print
# the same bytes.
PINNED = Path(__file__).resolve().parent / "pinned"


@pytest.mark.parametrize(
    "name, argv",
    [
        ("guess_rec.json", ("guess-rec", "--weights", "1,2;1;1,3", "--terms", "120",
                            "--max-order", "10", "--max-degree", "7")),
        ("scan_min.json", ("scan-min", "--rank", "2", "--terms", "120",
                           "--max-order", "5", "--max-degree", "5")),
    ],
)
def test_recurrence_output_is_pinned(capsys, name, argv):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.encode() == (PINNED / name).read_bytes()


def test_biject(capsys):
    code, out, _ = run(capsys, "biject", "--u", "2", "--level", "1", "--d", "2", "--n", "5")
    assert code == 0
    assert json.loads(out)["is_bijection"] is True


def test_biject_length_guard_exits_1(capsys):
    code, out, err = run(capsys, "biject", "--u", "0", "--level", "1", "--d", "0", "--n", "5000")
    assert code == 1
    assert out == ""
    assert err.startswith("error: GuardExceeded: length 5000")


def test_reproduce_table(capsys):
    code, out, _ = run(capsys, "reproduce", "table1")
    assert code == 0
    assert "reproduce table1: OK" in out
    assert "dp: 10/10 terms match" in out


def test_reproduce_rank1_equation(capsys):
    code, out, _ = run(capsys, "reproduce", "algeq-r1")
    assert code == 0
    assert "reproduce algeq-r1: OK" in out


def test_reproduce_all_aggregates(capsys):
    code, out, _ = run(capsys, "reproduce", "all", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    report = "\n".join(payload["report"])
    assert report.count("reproduce ") == 8
    assert report.count(": OK") == 8
    assert ": MISMATCH" not in report
    assert "reproduce prodinger: OK" in report


def test_reproduce_seven_term_reports_shorter_relation(capsys):
    # the guided search finds a verified order-5 degree-4 relation Q
    # before the embedded 7-term P; the target checks that P is the
    # left multiple (n+5)*P = (S+5)*Q, that (5, 4) is the only minimal
    # cell of the (<= 5, <= 5) scan, and that P extends the dp values
    code, out, _ = run(capsys, "reproduce", "prodinger")
    assert code == 0
    assert "reproduce prodinger: OK" in out
    assert "guessed order 5, degree 4" in out
    assert "verified order-5, degree-4 relation: True" in out
    assert "certificate (n+5)*P = (S+5)*Q, S the shift m_n -> m_{n+1}: True" in out
    assert "scan frontier for order <= 5, degree <= 5: ((5, 4),), expected ((5, 4),): True" in out
    assert "extension to n = 100 vs dp: 100/100 terms match" in out


def _unshifted(c, polys):
    # (S + c) * L with the shift forgotten on the coefficients
    lower = [mr.intpoly.scale(p, c) for p in polys] + [()]
    return tuple(mr.intpoly.add(a, b) for a, b in zip(lower, [()] + list(polys)))


@pytest.mark.parametrize(
    "mutant",
    [_unshifted, lambda c, polys: shift_left_multiply(c + 1, polys)],
    ids=["shift", "constant"],
)
def test_reproduce_seven_term_rejects_a_mutated_certificate(capsys, monkeypatch, mutant):
    monkeypatch.setattr(mr.recurrence, "shift_left_multiply", mutant)
    code, out, _ = run(capsys, "reproduce", "prodinger")
    assert code == 1
    assert "S the shift m_n -> m_{n+1}: False" in out
    assert "reproduce prodinger: MISMATCH" in out
