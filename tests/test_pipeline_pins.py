"""The series-to-equation pipeline, pinned.

``pinned/system_renders.json`` holds ``render()`` of the first-return
systems, full and reduced, and ``pinned/guess_reports.json`` the
``GuessReport`` fields of a spread of ``guess_algebraic_equation``
calls: found and not found, both ansatz families, every kind of x-bound,
two guards, trimmed families and one ``InsufficientOrder`` refusal.
"""

import json
from pathlib import Path

import pytest

import motzkinrank as mr

PINNED = Path(__file__).resolve().parent / "pinned"

GENERAL_SPECS = ("2,1;3;1,2", "1,0,2;0;3,0,1")

# (key, spec, symmetric)
ALL_ONES = [f"{ones};1;{ones}" for ones in (",".join("1" * r) for r in range(1, 6))]
RENDER_CASES = [
    (f"{'reduced' if symmetric else 'full'} {text}", text, symmetric)
    for text in ALL_ONES
    for symmetric in (False, True)
] + [(f"full {text}", text, False) for text in GENERAL_SPECS]


def _case(spec, order, max_y_degree, max_x_degree=None, guard=8, shift=False):
    name = f"{spec} o{order} y{max_y_degree} x{max_x_degree} g{guard}" + (" shifted" if shift else "")
    return dict(
        id=name, spec=spec, order=order, shift=shift,
        args=dict(max_y_degree=max_y_degree, max_x_degree=max_x_degree, guard=guard),
    )


GUESS_CASES = [
    _case("1;1;1", 40, 2),
    _case("1;1;1", 40, 1),
    _case("1;1;1", 10, 4),  # refused: 3 unknowns + guard 8 > order 10
    _case("1;1;1", 20, 8),  # both families trimmed to what the order holds
    _case("2;1;3", 40, 2),
    _case("1;0;1", 40, 3, guard=4),
    _case("1,1;1;1,1", 60, 4),
    _case("1,1,1;1;1,1,1", 120, 8),
    _case("2,1;3;1,2", 60, 6),
    _case("1,2;0;3,1", 60, 6, guard=4),
    _case("3,1;2;2,2", 60, 6),
    _case("0,1;1;1,1", 60, 6),
    _case("1,1;1;1,1", 60, 4, max_x_degree=0),
    _case("1,1;1;1,1", 60, 4, max_x_degree=1),
    _case("1,1;1;1,1", 60, 4, max_x_degree=2),
    _case("1,1;1;1,1", 60, 4, max_x_degree=3),
    _case("1,1;1;1,1", 60, 4, max_x_degree=5),
    _case("1,1;1;1,1", 30, 4, max_x_degree=3, guard=4),
    _case("2,1;3;1,2", 60, 6, max_x_degree=6, guard=4),
    _case("1;1;1", 39, 2, max_x_degree=1, shift=True),  # x M: uniform only
    _case("1;1;1", 39, 2, shift=True),
    _case("1;1;1", 39, 2, max_x_degree=0, shift=True),
    _case("1;1;1", 12, 3, max_x_degree=2, guard=4, shift=True),
]


def series_for(case):
    coeffs = list(mr.generating_series(mr.WeightSpec.parse(case["spec"]), case["order"]).coeffs)
    return mr.CoeffSeries([0] * case["shift"] + coeffs)


def guess_case_report(case):
    """The report's fields as JSON, or the refusal's type."""
    try:
        report = mr.guess_algebraic_equation(series_for(case), **case["args"])
    except mr.InsufficientOrder:
        return {"refused": "InsufficientOrder"}
    return {
        "found": report.found,
        "equation": report.equation and report.equation.to_json_dict(),
        "ansatz": report.ansatz,
        "y_degree_bound": report.y_degree_bound,
        "x_degree_bound": report.x_degree_bound,
        "guard": report.guard,
        "verified_order": report.verified_order,
    }


def test_system_renders_are_pinned():
    pinned = json.loads((PINNED / "system_renders.json").read_text())
    assert list(pinned) == [key for key, _, _ in RENDER_CASES]
    for key, text, symmetric in RENDER_CASES:
        system = mr.build_system(mr.WeightSpec.parse(text), symmetric=symmetric)
        assert system.render() == pinned[key], key


@pytest.mark.parametrize("case", GUESS_CASES, ids=[case["id"] for case in GUESS_CASES])
def test_guess_reports_are_pinned(case):
    pinned = json.loads((PINNED / "guess_reports.json").read_text())
    assert guess_case_report(case) == pinned[case["id"]]
