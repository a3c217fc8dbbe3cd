"""Run one workload of the peftlab benchmark and print its metrics.

    python3 bench/run.py --workload desk-sweep --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the
metrics are the end-to-end ones of BENCHMARK.json; with ``--trace 1`` they are
the per-layer ones, and the spans go to ``.bench_out/``. The exit code is 0
when every row passed its checks, 1 when a row failed and 2 when the program
under test cannot be imported. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".bench_out")


def cap_blas_threads():
    """Limit BLAS threads to the usable cores; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            wanted = int(os.environ.get(var, nproc))
        except ValueError:
            wanted = nproc
        os.environ[var] = str(max(1, min(wanted, nproc)))
    return nproc, int(os.environ["OPENBLAS_NUM_THREADS"])


def commit():
    """The checked-out commit, or "unknown" outside a git checkout."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        try:
            with open(os.path.join(ROOT, ".git", ref), encoding="utf-8") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(ROOT, ".git", "packed-refs"),
                      encoding="utf-8") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metric_specs(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def result(outcome, values, specs):
    """The result object; ``values`` must hold exactly the metrics of ``specs``."""
    mismatch = {s["name"] for s in specs} ^ set(values)
    if mismatch:
        raise RuntimeError(f"metrics out of step with BENCHMARK.json: "
                           f"{sorted(mismatch)}")
    return {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {s["name"]: {"value": values[s["name"]], "unit": s["unit"]}
                    for s in specs},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    nproc, blas_threads = cap_blas_threads()
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "peftlab")):
        print(f"error: no program under test in {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    try:
        import numpy
        import workloads
    except ImportError as exc:
        print(f"error: cannot import the program under test: {exc}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")

    env = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
           "nproc": nproc, "blas_threads": blas_threads,
           "numpy": numpy.__version__, "commit": commit()}
    print("env " + json.dumps(env))
    outcome = workloads.run_workload(args.workload, args.seed, args.seconds,
                                     bool(args.trace))

    row_ms = workloads.row_train_ms(outcome)
    for traced, runs in outcome.rounds:
        for run in runs:
            if run.error is not None:
                print(f"FAIL {run.label}{' (traced)' if traced else ''}: "
                      f"{run.error}", file=sys.stderr)
    for row in outcome.rows:
        if row.label in row_ms:
            print(f"row {row.label}: train {row_ms[row.label]:.3f} ms/ex")

    if args.trace:
        values = workloads.per_layer(outcome)
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl")
        outcome.tracer.write(path, env)
        print(f"spans written to {os.path.relpath(path, ROOT)}")
    else:
        values = workloads.end_to_end(outcome)
    print(json.dumps(result(outcome, values, metric_specs(args.trace))))
    return 0 if outcome.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
