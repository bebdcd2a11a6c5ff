#!/usr/bin/env python3
"""Compare two sets of benchmark results, metric by metric.

    python3 perfbench/compare.py --base base/*.json --new new/*.json

Each file is a record that run.py wrote to ``.bench_out/``.  For every
workload and metric the table gives the median of each side, the
change, and, for end-to-end metrics, whether the new median is worse
than the base by more than the bound in BENCHMARK.json.  Results
measured on different kernel backends are not comparable: the script
refuses them and exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(paths):
    """Metric values keyed by (workload, metric), and the backends seen."""
    values, backends = {}, set()
    for path in paths:
        record = json.loads(Path(path).read_text())
        prov = record["provenance"]
        backends.add(prov["backend"])
        for name, m in record["result"]["metrics"].items():
            values.setdefault((prov["workload"], name), []).append(m["value"])
    return values, backends


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--new", nargs="+", required=True)
    args = ap.parse_args(argv)
    (base, base_backends), (new, new_backends) = load(args.base), load(args.new)
    backends = base_backends | new_backends
    if len(backends) != 1:
        print(f"refusing to compare results from different backends: {sorted(backends)}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    for key in sorted(base.keys() & new.keys()):
        b, n = statistics.median(base[key]), statistics.median(new[key])
        change = (n - b) / b if b else 0.0
        verdict = ""
        if key[1] in bounds:
            bound, better = bounds[key[1]]
            worse = change if better == "lower" else -change
            verdict = "WORSE THAN BOUND" if worse > bound else "within bound"
        print(f"{key[0]:<11} {key[1]:<46} {b:>12.6g} {n:>12.6g} {change:>+8.1%}  "
              f"(n={len(base[key])}/{len(new[key])}) {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
