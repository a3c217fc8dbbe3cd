"""Experiment runner CLI: count, run, gradcheck, plotdata.

Exit codes: 0 success, 1 validation or usage error, 2 runtime or divergence.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys

from . import accounting, checks
from .manifest import ManifestError, parse_manifest
from .span import generate_dataset
from .trainer import (TrainingDiverged, build_model, efficiency_ratio,
                      evaluate, save_loss_history, train)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2

REPORT_COLUMNS = accounting.CSV_COLUMNS + ["efficiency_ratio"]
# the columns plotdata projects: how each must parse, and what it must be
PLOT_COLUMNS = {"trainable_params": (int, "an integer"),
                "f1": (float, "a number"), "train_seconds": (float, "a number"),
                "inference_seconds": (float, "a number")}


def _fail(code, message):
    print(f"error: {message}", file=sys.stderr)
    return code


def _read_report(path, columns):
    """The rows of a report CSV; ValueError names any missing column."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        missing = set(columns) - set(reader.fieldnames or ())
        if missing:
            raise ValueError(f"{path}: missing columns {sorted(missing)}")
        return list(reader)


def cmd_count(args):
    out_path = os.path.join(args.out, "counts.csv")
    try:
        specs = parse_manifest(args.config)
        rows = [(s.label, s.encoder_config, s.policy, s.head) for s in specs]
        text, csv_text, _ = accounting.table_report(rows)
        os.makedirs(args.out, exist_ok=True)
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(csv_text)
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
        unanswerable_fraction=spec.unanswerable_fraction,
    )
    model = build_model(config, spec.policy, spec.head, tc.seed)
    result = train(model, dataset, tc)
    em, f1, infer_seconds = evaluate(model, dataset, tc)
    save_loss_history(result.loss_history,
                      os.path.join(out_dir, f"loss_{spec.label}.csv"))

    em, f1 = round(em, 1), round(f1, 1)
    model_columns = accounting.model_columns(config, spec.policy, spec.head)
    ratio = efficiency_ratio(f1, model_columns[-1])
    return [spec.label, *model_columns, f"{em:.1f}", f"{f1:.1f}",
            f"{result.train_seconds:.3f}", f"{infer_seconds:.3f}",
            f"{ratio:.4f}"]


def cmd_run(args):
    out_dir = args.out
    report_path = os.path.join(out_dir, "report.csv")
    existing = {}
    try:
        specs = parse_manifest(args.manifest)
        os.makedirs(out_dir, exist_ok=True)
        if os.path.exists(report_path):
            for row in _read_report(report_path, REPORT_COLUMNS):
                existing[row["label"]] = [row[c] for c in REPORT_COLUMNS]
        # a row of another model must not pass for a spec's result
        for spec in [s for s in specs if s.label in existing]:
            row = dict(zip(REPORT_COLUMNS, existing[spec.label]))
            columns = accounting.model_columns(spec.encoder_config,
                                               spec.policy, spec.head)
            for column, want in zip(REPORT_COLUMNS[1:4], columns):
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
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(REPORT_COLUMNS)
        # a stable sort: rows is in file order, new labels come last
        for label in sorted(rows, key=lambda l: rank.get(l, len(rank))):
            writer.writerow(rows[label])
    os.replace(tmp, path)


def cmd_gradcheck(args):
    if args.seed < 0:
        return _fail(EXIT_VALIDATION, f"--seed must be >= 0, got {args.seed}")
    if args.seeds < 1:
        return _fail(EXIT_VALIDATION, f"--seeds must be >= 1, got {args.seeds}")
    failures = 0
    for seed in range(args.seed, args.seed + args.seeds):
        results = checks.run_suite(seed=seed,
                                   include_composites=not args.ops_only)
        for name, err, passed in results:
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
        for row in report:
            for column, (parse, kind) in PLOT_COLUMNS.items():
                try:
                    parse(row[column])
                except (TypeError, ValueError):
                    return _fail(EXIT_VALIDATION,
                                 f"{path}: row {row['label']!r}: {column} "
                                 f"{row[column]!r} is not {kind}")
            seen.setdefault(row["label"], []).append(path)
            rows.append(row)
    duplicates = sorted(l for l, paths in seen.items() if len(paths) > 1)
    if duplicates:
        return _fail(EXIT_VALIDATION, f"duplicate labels: {', '.join(duplicates)}")

    def write(name, columns, ordered_rows):
        path = os.path.join(args.out, name)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["label"] + columns)
            for row in ordered_rows:
                writer.writerow([row["label"]] + [row[c] for c in columns])
        print(f"wrote {path}")

    try:
        os.makedirs(args.out, exist_ok=True)
        write("train_time_vs_f1.csv", ["train_seconds", "f1"], rows)
        write("inference_time_vs_f1.csv", ["inference_seconds", "f1"], rows)
        write("params_vs_f1.csv", ["trainable_params", "f1"],
              sorted(rows, key=lambda r: int(r["trainable_params"])))
    except OSError as exc:
        return _fail(EXIT_VALIDATION, exc)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """A usage error is a validation error: exit 1, not argparse's 2."""

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
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seeds", type=int, default=1, help="number of seeds")
    p.add_argument("--ops-only", action="store_true",
                   help="skip the model composite checks")
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("plotdata", help="project report CSVs into plot CSVs")
    p.add_argument("reports", nargs="+", help="report.csv files")
    p.add_argument("--out", default="out")
    p.set_defaults(fn=cmd_plotdata)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
