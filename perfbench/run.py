#!/usr/bin/env python3
"""End-to-end benchmark of motzkinrank's exact pipelines.

Run from the root of a checkout:

    python3 perfbench/run.py --workload count --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

The package is imported from ``src/`` as it is, single-process and
single-threaded, on whichever kernel backend ``motzkinrank.BACKEND``
reports.  Workloads (see workloads.py): rediscover, count, guess-rec,
bijection; ``all`` runs each in turn and prints every metric by name.

Each workload runs in a fresh child process.  The child builds the
seeded batch of operations, runs whole batches until the next one would
end past ``--seconds`` (always at least one), and then checks every
result by an independent route, outside the timed interval.

With ``--trace 0`` the metrics are the end-to-end ones:

* ``wall_s``: median seconds to run the batch;
* ``op_s_p50``: median over the batch's operations of each one's mean
  seconds over the run's batches (a median over all samples would jump
  between the two speeds that shared CPUs alternate between);
* ``setup_s``: median seconds for a fresh interpreter to import
  motzkinrank and make one trivial call (one warm-up spawn, then 7);
* ``peak_rss_mb``: peak resident memory of the child, before checks.

``attempted`` and ``failed`` count operations; an operation fails when
it raises or its check rejects the result, so failed / attempted is the
error rate (printed as ``error_rate`` by ``--workload all``).

With ``--trace 1`` the child times one untraced batch, then one batch
with spans around each module's public functions (spans.py), and the
metrics are the per-layer ones.

The last line of standard output is the JSON result.  Provenance
(backend, Python, commit, CPUs, seed, operations) is printed on the
line before it and, with per-operation times and any spans, written to
``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
NAMES = ("rediscover", "count", "guess-rec", "bijection")
SETUP_SPAWNS = 7
SETUP_CODE = "import motzkinrank as m; m.count_paths_dp(m.WeightSpec.all_ones(1), 4)"
CHILD_TIMEOUT_S = 170


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def _commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count()


def measure_setup():
    cmd = [sys.executable, "-c", SETUP_CODE]
    times = []
    for _ in range(SETUP_SPAWNS + 1):
        t0 = perf_counter()
        subprocess.run(cmd, env=_env(), cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - t0)
    return statistics.median(times[1:])  # the first spawn warms the bytecode cache


# --- child: one workload in a fresh process -------------------------------


_RAISED = object()  # result slot of an operation that raised


def _run_batch(workload, ops, tracer=None):
    results, times = [], []
    start = perf_counter()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        t0 = perf_counter()
        try:
            results.append(workload.run(*op.args))
        except Exception:  # counted as a failed operation
            traceback.print_exc()
            results.append(_RAISED)
        times.append(perf_counter() - t0)
    return perf_counter() - start, times, results


def _checked(workload, op, result):
    if result is _RAISED:
        return False
    try:
        return bool(workload.check(op, result))
    except Exception:  # a check that cannot complete rejects the result
        traceback.print_exc()
        return False


def count_failures(workload, ops, batches):
    """Failed operations over all batches: the first batch's results are
    checked, later batches must reproduce them exactly."""
    first = batches[0]
    passed = [_checked(workload, op, r) for op, r in zip(ops, first)]
    failed = passed.count(False)
    for results in batches[1:]:
        failed += sum(1 for ok, r, r0 in zip(passed, results, first) if not (ok and r == r0))
    return failed


def run_workload(name, seed, seconds, trace, tiny):
    """Run one workload in this process; returns the child's report."""
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    ops = workload.batch(random.Random(f"{name}:{seed}"), tiny)
    walls, times, results = [], [], []
    begin = perf_counter()
    while True:
        wall, op_times, batch_results = _run_batch(workload, ops)
        walls.append(wall)
        times.append(op_times)
        results.append(batch_results)
        if trace or perf_counter() - begin + wall > seconds:
            break
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    layers = spans = None
    if trace:
        from spans import Tracer, layer_metrics

        tracer = Tracer()
        with tracer.installed():
            traced_wall, traced_times, traced_results = _run_batch(workload, ops, tracer)
        results.append(traced_results)
        layers = layer_metrics(tracer.spans, traced_times, traced_wall, statistics.median(walls))
        spans = tracer.dump()
    return {
        "ops": [{"kind": op.kind, "label": op.label, "s": [t[i] for t in times]}
                for i, op in enumerate(ops)],
        "batch_s": walls,
        "peak_rss_mb": peak_mb,
        "attempted": len(ops) * len(results),
        "failed": count_failures(workload, ops, results),
        "layers": layers,
        "spans": spans,
    }


def child_main(args):
    sys.path.insert(0, str(SRC))
    import motzkinrank

    if Path(motzkinrank.__file__).resolve().parent != (SRC / "motzkinrank").resolve():
        print(f"perfbench: imported motzkinrank from {motzkinrank.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    report = run_workload(args.workload, args.seed, args.seconds, args.trace, args.tiny)
    report["backend"] = motzkinrank.BACKEND
    print(json.dumps(report))
    return 0


# --- parent ----------------------------------------------------------------


def run_child(name, args):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child",
           "--workload", name, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, env=_env(), cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"workload {name} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def metrics_of(report, trace, setup_s):
    if trace:
        return {k: {"value": v, "unit": u} for k, (v, u) in report["layers"].items()}
    op_means = [statistics.fmean(op["s"]) for op in report["ops"]]
    return {
        "wall_s": {"value": statistics.median(report["batch_s"]), "unit": "s"},
        "op_s_p50": {"value": statistics.median(op_means), "unit": "s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
    }


def provenance(name, report, args):
    return {
        "workload": name,
        "backend": report["backend"],
        "python": platform.python_version(),
        "commit": _commit(),
        "nproc": _nproc(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "ops_per_batch": len(report["ops"]),
        "batches": len(report["batch_s"]),
        "ops_per_run": report["attempted"],
    }


def save(name, args, prov, result, report):
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{name}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}.json"
    record = {"provenance": prov, "result": result, "ops": report["ops"],
              "batch_s": report["batch_s"], "spans": report["spans"]}
    path.write_text(json.dumps(record))


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="smallest batches, for the smoke test")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if args.child:
        return child_main(args)
    if not (SRC / "motzkinrank" / "__init__.py").is_file():
        print(f"perfbench: no motzkinrank package under {SRC}", file=sys.stderr)
        return 2
    names = NAMES if args.workload == "all" else (args.workload,)
    try:
        setup_s = None if args.trace else measure_setup()
        results = {}
        for name in names:
            report = run_child(name, args)
            prov = provenance(name, report, args)
            result = {
                "correct": report["failed"] == 0,
                "attempted": report["attempted"],
                "failed": report["failed"],
                "metrics": metrics_of(report, args.trace, setup_s),
            }
            save(name, args, prov, result, report)
            print("provenance: " + json.dumps(prov))
            results[name] = result
    except (subprocess.SubprocessError, RuntimeError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
        return 0
    merged = {"correct": all(r["correct"] for r in results.values()),
              "attempted": sum(r["attempted"] for r in results.values()),
              "failed": sum(r["failed"] for r in results.values()),
              "metrics": {}}
    for name, r in results.items():
        r["metrics"]["error_rate"] = {"value": r["failed"] / r["attempted"], "unit": "ratio"}
        for metric, m in r["metrics"].items():
            print(f"{name:<11} {metric:<46} {m['value']:>14.6g} {m['unit']}")
            merged["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(merged))
    return 0


if __name__ == "__main__":
    sys.exit(main())
