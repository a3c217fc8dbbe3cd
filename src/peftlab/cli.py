"""Experiment runner CLI: count, run, gradcheck, plotdata.

Exit codes: 0 success, 1 validation or usage error, 2 runtime or divergence.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import math
import os
import sys

from . import accounting, checks
from .manifest import ManifestError, parse_manifest
from .span import UNANSWERABLE_FRACTION, generate_dataset
from .trainer import (TrainingDiverged, build_model, efficiency_ratio,
                      evaluate, train)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2

COUNT_COLUMNS = ["label", "layers_trained", "adapter_size", "trainable_params",
                 "em", "f1", "train_seconds", "inference_seconds"]
REPORT_COLUMNS = COUNT_COLUMNS + ["efficiency_ratio"]
# the columns plotdata projects: how each must parse, and what it must be
PLOT_COLUMNS = {"trainable_params": (int, "an integer >= 0"),
                "f1": (float, "a finite number >= 0"),
                "train_seconds": (float, "a finite number >= 0"),
                "inference_seconds": (float, "a finite number >= 0")}


def _fail(code, message):
    print(f"error: {message}", file=sys.stderr)
    return code


def _read_report(path, columns):
    """The rows of a report CSV by label, in file order; ValueError names any
    missing column or repeated label."""
    rows = {}
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        missing = set(columns) - set(reader.fieldnames or ())
        if missing:
            raise ValueError(f"{path}: missing columns {sorted(missing)}")
        for row in reader:
            if row["label"] in rows:
                raise ValueError(f"{path}: label {row['label']!r} appears "
                                 "twice")
            rows[row["label"]] = row
    return rows


def _write_csv(path, columns, rows):
    """Atomically write dict rows under a header of columns: a cell a row
    lacks is blank, and a key outside columns is dropped. A write that
    fails removes its temporary file."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, columns, restval="",
                                    extrasaction="ignore", lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _model_columns(config, policy, head):
    """The report cells that the model alone fixes."""
    adapter = config.adapter
    return {"layers_trained": policy.top_layers_trainable,
            "adapter_size": adapter.adapter_size if adapter else "",
            "trainable_params": accounting.count(
                config, policy, head).trainable_under_policy}


def cmd_count(args):
    out_path = os.path.join(args.out, "counts.csv")
    try:
        specs = parse_manifest(args.config)
        text = accounting.table_report(
            [(s.label, s.encoder_config, s.policy, s.head) for s in specs])
        os.makedirs(args.out, exist_ok=True)
        # the run columns stay blank: this is an accounting view
        _write_csv(out_path, COUNT_COLUMNS,
                   [{"label": s.label, **_model_columns(
                       s.encoder_config, s.policy, s.head)} for s in specs])
    except (ManifestError, OSError) as exc:
        return _fail(EXIT_VALIDATION, exc)
    print(text, end="")
    print(f"wrote {out_path}")
    return EXIT_OK


def _run_experiment(spec, out_dir):
    config, tc = spec.encoder_config, spec.train_config
    dataset = generate_dataset(
        seed=tc.seed, count=spec.dataset_count, seq_len=spec.dataset_len,
        vocab_size=config.vocab_size,
        unanswerable_fraction=UNANSWERABLE_FRACTION,
    )
    model = build_model(config, spec.policy, spec.head, tc.seed)
    result = train(model, dataset, tc)
    em, f1, infer_seconds = evaluate(model, dataset, tc)
    _write_csv(os.path.join(out_dir, f"loss_{spec.label}.csv"),
               ["step", "epoch", "loss"],
               ({"step": step, "epoch": epoch, "loss": loss}
                for step, epoch, loss in result.loss_history))

    em, f1 = round(em, 1), round(f1, 1)
    columns = _model_columns(config, spec.policy, spec.head)
    ratio = efficiency_ratio(f1, columns["trainable_params"])
    return {"label": spec.label, **columns, "em": f"{em:.1f}",
            "f1": f"{f1:.1f}", "train_seconds": f"{result.train_seconds:.3f}",
            "inference_seconds": f"{infer_seconds:.3f}",
            "efficiency_ratio": f"{ratio:.4f}"}


def cmd_run(args):
    out_dir = args.out
    report_path = os.path.join(out_dir, "report.csv")
    existing = {}
    try:
        specs = parse_manifest(args.manifest)
        os.makedirs(out_dir, exist_ok=True)
        if os.path.exists(report_path):
            existing = _read_report(report_path, REPORT_COLUMNS)
        # a row of another model must not pass for a spec's result
        for spec in [s for s in specs if s.label in existing]:
            row = existing[spec.label]
            for column, want in _model_columns(
                    spec.encoder_config, spec.policy, spec.head).items():
                if row[column] != str(want):
                    raise ValueError(
                        f"{report_path}: row {spec.label!r} has {column} "
                        f"{row[column]!r}, but [{spec.label}] gives {want!r}")
    except (ValueError, OSError) as exc:  # ManifestError is a ValueError
        return _fail(EXIT_VALIDATION, exc)

    todo = [s for s in specs if s.label not in existing]
    if not todo:
        print(f"all {len(specs)} experiments already in {report_path}")
        return EXIT_OK

    # each finished row reaches disk at once, so an interrupt keeps it
    try:
        for spec in todo:
            existing[spec.label] = _run_experiment(spec, out_dir)
            _write_report(report_path, specs, existing)
    except OSError as exc:
        return _fail(EXIT_VALIDATION, exc)
    except (TrainingDiverged, MemoryError) as exc:
        return _fail(EXIT_RUNTIME, f"[{spec.label}] {exc}")

    print(f"wrote {report_path} ({len(existing)} rows, {len(todo)} new)")
    return EXIT_OK


def _write_report(path, specs, rows):
    """Atomically write every row: the manifest's in manifest order, then
    the other rows already in the report, in file order."""
    rank = {spec.label: i for i, spec in enumerate(specs)}
    # a stable sort: rows is in file order, new labels come last
    _write_csv(path, REPORT_COLUMNS,
               sorted(rows.values(),
                      key=lambda row: rank.get(row["label"], len(rank))))


def cmd_gradcheck(args):
    if args.seeds < 1:
        return _fail(EXIT_VALIDATION, f"--seeds must be >= 1, got {args.seeds}")
    failures = 0
    for seed in range(args.seeds):
        for name, err, passed in checks.run_suite(seed):
            status = "PASS" if passed else "FAIL"
            print(f"{status} {name} seed={seed} max_rel_err={err:.3e}")
            failures += not passed
    if failures:
        print(f"{failures} gradient check(s) failed", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def cmd_plotdata(args):
    rows = []
    seen = {}
    for path in args.reports:
        try:
            report = _read_report(path, ["label", *PLOT_COLUMNS])
        except (ValueError, OSError) as exc:
            return _fail(EXIT_VALIDATION, exc)
        for row in report.values():
            for column, (parse, kind) in PLOT_COLUMNS.items():
                try:
                    if not 0 <= parse(row[column]) < math.inf:  # nan fails too
                        raise ValueError
                except (TypeError, ValueError):
                    return _fail(EXIT_VALIDATION,
                                 f"{path}: row {row['label']!r}: {column} "
                                 f"{row[column]!r} is not {kind}")
            seen.setdefault(row["label"], []).append(path)
            rows.append(row)
    duplicates = sorted(l for l, paths in seen.items() if len(paths) > 1)
    if duplicates:
        return _fail(EXIT_VALIDATION, f"duplicate labels: {', '.join(duplicates)}")

    by_params = sorted(rows, key=lambda r: int(r["trainable_params"]))
    paths = []
    try:
        os.makedirs(args.out, exist_ok=True)
        for name, x, ordered in [
                ("train_time_vs_f1.csv", "train_seconds", rows),
                ("inference_time_vs_f1.csv", "inference_seconds", rows),
                ("params_vs_f1.csv", "trainable_params", by_params)]:
            paths.append(os.path.join(args.out, name))
            _write_csv(paths[-1], ["label", x, "f1"], ordered)
    except OSError as exc:
        return _fail(EXIT_VALIDATION, exc)
    for path in paths:
        print(f"wrote {path}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """A usage error, an abbreviated flag too, exits 1, not argparse's 2."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


def build_parser():
    parser = _Parser(
        prog="peftlab",
        description="Parameter-efficiency experiments: layer freezing, "
                    "adapters, and context-aware convolutional heads on a "
                    "synthetic span-extraction task.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="trainable-parameter accounting table")
    p.add_argument("--config", required=True, help="manifest of model rows")
    p.add_argument("--out", default="out", help="directory for counts.csv")
    p.set_defaults(fn=cmd_count)

    p = sub.add_parser("run", help="train and evaluate every manifest entry")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", default="out", help="directory for report CSVs")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("gradcheck", help="finite-difference gradient checks")
    p.add_argument("--seeds", type=int, default=1, help="number of seeds")
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("plotdata", help="project report CSVs into plot CSVs")
    p.add_argument("reports", nargs="+", help="report.csv files")
    p.add_argument("--out", default="out")
    p.set_defaults(fn=cmd_plotdata)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout closed early: devnull keeps the flush at exit silent too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_VALIDATION
    return code


if __name__ == "__main__":
    sys.exit(main())
