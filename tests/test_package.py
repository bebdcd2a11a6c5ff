"""The package namespace: names resolve on first use, from their defining
modules, and a count loads only what counting needs."""

import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import motzkinrank as mr

SRC = str(Path(mr.__file__).resolve().parents[1])


def _fresh(code):
    """Run ``code`` in a new interpreter that imports this checkout and
    return what it prints, parsed as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=30
    )
    return json.loads(out.stdout)


LOADED = "sorted(k for k in sys.modules if k.split('.')[0] == 'motzkinrank')"


def test_a_fresh_count_loads_four_modules():
    loaded = _fresh(
        "import json, sys\n"
        "import motzkinrank as m\n"
        "bare = " + LOADED + "\n"
        "m.count_paths_dp(m.WeightSpec.all_ones(1), 4)\n"
        "print(json.dumps([bare, " + LOADED + "]))"
    )
    assert loaded == [
        ["motzkinrank"],
        ["motzkinrank", "motzkinrank.backend", "motzkinrank.counting", "motzkinrank.errors"],
    ]


def test_a_cli_count_loads_no_solver_or_guesser():
    # The CLI reads library names through the package, and the reproduce
    # targets it lists come from a module that loads no library code.
    loaded = _fresh(
        "import contextlib, io, json, sys\n"
        "from motzkinrank import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['count', '--rank', '1', '--n', '4'])\n"
        "print(json.dumps([code, " + LOADED + "]))"
    )
    assert loaded == [
        0,
        [
            "motzkinrank",
            "motzkinrank.backend",
            "motzkinrank.claims",
            "motzkinrank.cli",
            "motzkinrank.counting",
            "motzkinrank.errors",
        ],
    ]


def test_a_submodule_name_imports_that_submodule():
    got = _fresh(
        "import json, sys\n"
        "import motzkinrank as m\n"
        "f = m.genfunc.solve_series\n"
        "print(json.dumps([f.__module__, f.__name__]))"
    )
    assert got == ["motzkinrank.genfunc", "solve_series"]


def test_every_name_is_its_defining_modules_object():
    assert len(mr.__all__) == len(set(mr.__all__)) == 59
    for name in mr.__all__:
        if name == "__version__":
            continue
        origin = import_module(f"motzkinrank.{mr._ORIGIN[name]}")
        obj = getattr(mr, name)
        assert obj is getattr(origin, name), name
        assert getattr(obj, "__module__", origin.__name__) == origin.__name__, name
    assert mr.paths.WeightSpec is mr.counting.WeightSpec is mr.WeightSpec
    assert mr.paths.capped_dp_rows is mr.counting.capped_dp_rows


def test_star_import_and_dir_list_all():
    namespace = {}
    exec("from motzkinrank import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(mr.__all__)
    assert set(mr.__all__) <= set(dir(mr))


def test_names_are_read_on_each_access(monkeypatch):
    def count_sequence(*args):
        return []

    monkeypatch.setattr(mr.counting, "count_sequence", count_sequence)
    assert mr.count_sequence is count_sequence
    monkeypatch.undo()
    assert mr.count_sequence is mr.counting.count_sequence is not count_sequence


def test_unknown_names_are_attribute_errors():
    assert not hasattr(mr, "no_such_name")
    assert not hasattr(mr, "_private")
