"""Command-line front end: qubit estimation, streaming estimation, encoding,
and training, with machine-readable JSON reports.

Exit codes: 0 success, 2 when any replicate hit the width cap without
reaching the configured threshold, 1 on any error.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

from bitbit import __version__
from bitbit.coverage import (
    CoverageMetrics,
    QubitEstimate,
    compute_q_y,
    count_codes,
    estimate_from_curve,
    split_coverage,
    sweep_curve,
)
from bitbit.data import Dataset, SplitSpec, load_csv, make_synthetic, relabel, split_train_test
from bitbit.dimred import ReducerSpec
from bitbit.encoder import copula_units, fit_encoder, pack_codes, persist_model, write_packed
from bitbit.qsim import (
    classification_accuracy,
    evaluate_loss,
    fresh_model,
    get_qubit_cap,
    set_qubit_cap,
    train_sweeps,
    training_batch_from_table,
)
from bitbit.stream import CsvBatchSource, StreamConfig, stream_fit_base, stream_sweep_curve

REPORT_SCHEMA_VERSION = "1"


@dataclass
class RunConfig:
    """Flat bag of CLI options; each command reads the fields it needs.

    Defaults follow the estimation protocol: 80/20 splits, 10 replicates,
    threshold 1.0, sweep step 1 in memory and 10 when streaming.
    """

    command: str = ""
    input: str | None = None
    train_input: str | None = None
    test_input: str | None = None
    label_column: str = "label"
    scheme: str = "pca"
    components: int | None = None
    threshold: float = 1.0
    replicates: int = 10
    train_fraction: float = 0.8
    seed: int = 0
    n_x_max: int = 128
    step: int = 1
    batch_size: int | None = None
    reservoir_size: int = 100_000
    weighted_mi: bool = False
    stratify: bool = False
    n_x: int | None = None
    layers: int = 2
    sweeps: int = 10
    uniform_weights: bool = False
    max_qubits: int = 20
    jobs: int | None = None
    output: str | None = None
    output_dir: str | None = None
    model_output: str | None = None
    work_dir: str | None = None
    samples: int = 1000
    features: int = 4
    classes: int = 2
    separation: float = 4.0


# --- report plumbing ---


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat()


def _metrics_dict(n_x: int, m: CoverageMetrics) -> dict:
    return {
        "n_x": n_x,
        "train_collision_incidence": float(m.train_collision_incidence),
        "test_overlap_incidence": float(m.test_overlap_incidence),
        "theoretical_train_accuracy": float(m.theoretical_train_accuracy),
        "theoretical_test_accuracy": float(m.theoretical_test_accuracy),
        "test_train_overlap_fraction": float(m.test_train_overlap_fraction),
        "n_train": m.n_train,
        "n_test": m.n_test,
        "n_test_overlapping": m.n_test_overlapping,
        "n_test_overlap_errors": m.n_test_overlap_errors,
    }


def _estimate_dict(est: QubitEstimate) -> dict:
    return {
        "q_train": est.q_train,
        "q_test": est.q_test,
        "q_y": est.q_y,
        "q_dataset": est.q_dataset,
        "covered": est.covered,
    }


def _aggregate(values: list[int | None]) -> dict:
    covered = [v for v in values if v is not None]
    out = {
        "n_replicates": len(values),
        "n_covered": len(covered),
        "mean_q_dataset": None,
        "std_q_dataset": None,
    }
    if covered:
        mean = sum(covered) / len(covered)
        out["mean_q_dataset"] = mean
        if len(covered) > 1:
            out["std_q_dataset"] = (
                sum((v - mean) ** 2 for v in covered) / (len(covered) - 1)
            ) ** 0.5
        else:
            out["std_q_dataset"] = 0.0
    return out


def _write_report(report: dict, output: str) -> None:
    path = Path(output)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_curves_csv(report: dict, output: str) -> Path:
    path = Path(output).with_suffix(".curves.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("replicate,n_x,train_acc,test_acc,overlap_fraction\n")
        for rep in report["replicates"]:
            for point in rep["curve"]:
                fh.write(
                    f"{rep['replicate']},{point['n_x']},"
                    f"{point['theoretical_train_accuracy']!r},"
                    f"{point['theoretical_test_accuracy']!r},"
                    f"{point['test_train_overlap_fraction']!r}\n"
                )
    return path


def _threshold_set(configured: float) -> list[float]:
    # The 0.99-vs-1.0 gap is always reported; the configured threshold rides along.
    return sorted({configured, 0.99, 1.0})


class _WarningLog:
    """Collect warning messages; sorted and deduplicated so report bytes do
    not depend on thread interleaving."""

    def __init__(self):
        self._messages: list[str] = []
        self._ctx = None

    def __enter__(self):
        self._ctx = warnings.catch_warnings(record=True)
        self._records = self._ctx.__enter__()
        warnings.simplefilter("always")
        return self

    def __exit__(self, *exc):
        for rec in self._records:
            self._messages.append(str(rec.message))
        return self._ctx.__exit__(*exc)

    def messages(self) -> list[str]:
        return sorted(set(self._messages))


def _config_echo(cfg: RunConfig, fields: tuple[str, ...], **resolved) -> dict:
    """The report's ``config``: the named flags as given, plus values resolved at run time."""
    return {**{field: getattr(cfg, field) for field in fields}, **resolved}


def _write_estimate_report(
    cfg: RunConfig, config: dict, streamed: bool, label_mapping: dict[str, int],
    results: list[tuple[list[tuple[int, CoverageMetrics]], int | None]], warning_messages: list[str], output: str,
) -> int:
    """Write the report and its ``.curves.csv`` for swept ``(curve, split_seed)``
    results; the exit code is 2 when any replicate is uncovered at ``--threshold``."""
    c = len(label_mapping)
    thresholds = _threshold_set(cfg.threshold)
    replicates = []
    per_threshold: dict[float, list[int | None]] = {t: [] for t in thresholds}
    uncovered_at_configured = False
    for r, (curve, seed) in enumerate(results):
        entry = {
            "replicate": r,
            "split_seed": seed,
            "curve": [_metrics_dict(n_x, m) for n_x, m in curve],
            "thresholds": {},
        }
        for t in thresholds:
            est = estimate_from_curve(curve, t, c)
            entry["thresholds"][str(t)] = _estimate_dict(est)
            per_threshold[t].append(est.q_dataset)
            if t == cfg.threshold and not est.covered:
                uncovered_at_configured = True
        replicates.append(entry)

    exit_code = 2 if uncovered_at_configured else 0
    report = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "tool": {"name": "bitbit", "version": __version__},
        "timestamp": _timestamp(),
        "command": cfg.command,
        "streamed": streamed,
        "config": config,
        "label_mapping": label_mapping,
        "n_classes": c,
        "warnings": warning_messages,
        "replicates": replicates,
        "aggregates": {str(t): _aggregate(per_threshold[t]) for t in thresholds},
        "exit_code": exit_code,
    }
    _write_report(report, output)
    curves = _write_curves_csv(report, output)
    print(f"wrote {output} and {curves}")
    return exit_code


# --- flag checks ---

# Least value of each numeric flag. Fields a command lacks keep their
# RunConfig default, which every check accepts; None means the flag is unset.
_FLAG_MINIMUMS = {
    "n_x_max": 1, "step": 1, "replicates": 1, "jobs": 1, "batch_size": 1, "reservoir_size": 1,
    "components": 1, "n_x": 1, "layers": 1, "sweeps": 0, "max_qubits": 1, "seed": 0,
    "features": 1, "classes": 2, "separation": 0.0,
}


def _check_flags(cfg: RunConfig) -> None:
    """Reject flag values no command can run with, before any input is read
    or any output created; each message names the flag."""
    if not 0.0 < cfg.threshold <= 1.0:
        raise ValueError(f"--threshold must be in (0, 1], got {cfg.threshold}")
    if not 0.0 < cfg.train_fraction < 1.0:
        raise ValueError(f"--train-fraction must be in (0, 1), got {cfg.train_fraction}")
    for field, least in _FLAG_MINIMUMS.items():
        value = getattr(cfg, field)
        if value is not None and not value >= least:
            raise ValueError(f"--{field.replace('_', '-')} must be >= {least}, got {value}")
    if cfg.samples < cfg.classes:
        raise ValueError(f"--samples must be >= --classes ({cfg.classes}), got {cfg.samples}")


# --- estimate ---


def _load_split_pair(cfg: RunConfig) -> tuple[Dataset, Dataset]:
    train = load_csv(cfg.train_input, cfg.label_column)
    test = relabel(load_csv(cfg.test_input, cfg.label_column), train.label_names)
    return train, test


def run_estimate(cfg: RunConfig) -> int:
    """Replicated split-sweep-estimate protocol over one CSV, or a single run
    over a pre-split train/test pair."""
    spec = ReducerSpec(cfg.scheme, cfg.components)

    with _WarningLog() as wlog:
        if cfg.train_input or cfg.test_input:
            if not (cfg.train_input and cfg.test_input):
                raise ValueError("pre-split mode needs both --train-input and --test-input")
            train, test = _load_split_pair(cfg)
            label_names = train.label_names
            pairs = [(train, test, None)]
        else:
            if cfg.input is None:
                raise ValueError("estimate requires --input (or --train-input/--test-input)")
            dataset = load_csv(cfg.input, cfg.label_column)
            label_names = dataset.label_names

            def make_pair(r: int):
                seed = cfg.seed + r
                spec_r = SplitSpec(train_fraction=cfg.train_fraction, seed=seed, stratify=cfg.stratify)
                tr, te = split_train_test(dataset, spec_r)
                return tr, te, seed

            pairs = [make_pair(r) for r in range(cfg.replicates)]

        def worker(pair):
            tr, te, seed = pair
            # Sweep to the strictest reported threshold so every threshold's
            # first crossing can be read off one curve.
            curve = sweep_curve(tr, te, spec, 1.0, cfg.n_x_max, cfg.step)
            return curve, seed

        jobs = cfg.jobs if cfg.jobs else (os.cpu_count() or 1)
        if jobs > 1 and len(pairs) > 1:
            with ThreadPoolExecutor(max_workers=jobs) as pool:
                results = list(pool.map(worker, pairs))
        else:
            results = [worker(p) for p in pairs]

    config = _config_echo(cfg, ("input", "train_input", "test_input", "label_column", "scheme", "components",
                                "threshold", "train_fraction", "seed", "n_x_max", "step", "stratify"),
                          replicates=len(results))
    label_mapping = {name: i for i, name in enumerate(label_names)}
    return _write_estimate_report(cfg, config, False, label_mapping, results, wlog.messages(), cfg.output)


# --- stream-estimate ---


def run_stream_estimate(cfg: RunConfig) -> int:
    """Streaming protocol over pre-split CSVs: fit once in batched passes, rank
    each split once into a spill, then pack and measure coverage at each swept
    width from the spill."""
    if cfg.output is None and cfg.work_dir is None:
        raise ValueError("stream-estimate requires --output or --work-dir")
    for flag, path in (("--train-input", cfg.train_input), ("--test-input", cfg.test_input)):
        if not Path(path).is_file():
            raise ValueError(f"{flag}: no such file {path!r}")

    work_dir = Path(cfg.work_dir) if cfg.work_dir else Path(cfg.output).with_suffix(".work")
    output = cfg.output if cfg.output else str(work_dir / "report.json")
    work_dir.mkdir(parents=True, exist_ok=True)
    spec = ReducerSpec(cfg.scheme, cfg.components)

    with _WarningLog() as wlog:
        train_source = CsvBatchSource(cfg.train_input, cfg.label_column)
        stream_cfg = StreamConfig(
            train_source=train_source,
            test_source=None,
            batch_size=cfg.batch_size,
            work_dir=work_dir,
            reservoir_size=cfg.reservoir_size,
            seed=cfg.seed,
            weighted_mi=cfg.weighted_mi,
        )
        base = stream_fit_base(stream_cfg, spec)
        label_mapping = dict(train_source.label_mapping)
        c = len(label_mapping)
        if c < 2:
            raise ValueError("training stream holds fewer than 2 classes")
        stream_cfg.test_source = CsvBatchSource(cfg.test_input, cfg.label_column, label_mapping=label_mapping)
        curve = stream_sweep_curve(stream_cfg, base, c, 1.0, cfg.n_x_max, cfg.step)

    config = _config_echo(cfg, ("train_input", "test_input", "label_column", "scheme", "components", "threshold",
                                "n_x_max", "step", "batch_size", "reservoir_size", "seed", "weighted_mi"),
                          work_dir=str(work_dir))
    return _write_estimate_report(cfg, config, True, label_mapping, [(curve, None)], wlog.messages(), output)


# --- encode ---


def run_encode(cfg: RunConfig) -> int:
    """Split, fit at a fixed width, and write model.json, train.enc, test.enc,
    and labels.json into the output directory."""
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    dataset = load_csv(cfg.input, cfg.label_column)
    train, test = split_train_test(
        dataset, SplitSpec(train_fraction=cfg.train_fraction, seed=cfg.seed, stratify=cfg.stratify)
    )
    model = fit_encoder(train, ReducerSpec(cfg.scheme, cfg.components), cfg.n_x)
    persist_model(model, out / "model.json")
    for name, split in (("train", train), ("test", test)):
        words = pack_codes(copula_units(model, split.features), model.allocation.bits)
        write_packed(out / f"{name}.enc", model.width, [(words, split.labels)])
    with open(out / "labels.json", "w", encoding="utf-8") as fh:
        json.dump({name: i for i, name in enumerate(dataset.label_names)}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out / 'model.json'}, {out / 'train.enc'}, {out / 'test.enc'}, {out / 'labels.json'}")
    return 0


# --- train ---


def run_train(cfg: RunConfig) -> int:
    """``_train`` under the qubit cap ``--max-qubits``; the previous cap is
    restored afterwards, on errors too."""
    previous = get_qubit_cap()
    set_qubit_cap(cfg.max_qubits)
    try:
        return _train(cfg)
    finally:
        set_qubit_cap(previous)


def _train(cfg: RunConfig) -> int:
    """Encode at the requested width, drop collisions (majority label per
    bitstring), train by coordinate updates, and write a per-sweep trace CSV
    plus the final model parameters."""
    dataset = load_csv(cfg.input, cfg.label_column)
    q_y = compute_q_y(dataset.c)
    if cfg.n_x + q_y > cfg.max_qubits:
        raise ValueError(
            f"--n-x {cfg.n_x} plus {q_y} class qubit(s) exceeds the qubit cap --max-qubits {cfg.max_qubits}"
        )
    train, test = split_train_test(
        dataset, SplitSpec(train_fraction=cfg.train_fraction, seed=cfg.seed, stratify=cfg.stratify)
    )
    model_enc = fit_encoder(train, ReducerSpec(cfg.scheme, cfg.components), cfg.n_x)
    train_table, test_keys, ceiling = split_coverage(
        copula_units(model_enc, train.features), train,
        copula_units(model_enc, test.features), test, model_enc.allocation.bits,
    )
    test_table = count_codes(test_keys, test.labels, test.c, model_enc.width)
    batch = training_batch_from_table(
        train_table, weighting="uniform" if cfg.uniform_weights else "frequency"
    )
    qmodel = fresh_model(cfg.n_x, q_y, cfg.layers, init_seed=cfg.seed)

    rows = [(0, evaluate_loss(qmodel, batch),
             classification_accuracy(qmodel, train_table),
             classification_accuracy(qmodel, test_table))]
    for sweep in range(1, cfg.sweeps + 1):
        loss = train_sweeps(qmodel, batch, 1)[-1]
        rows.append((sweep, loss,
                     classification_accuracy(qmodel, train_table),
                     classification_accuracy(qmodel, test_table)))

    trace_path = Path(cfg.output)
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    with open(trace_path, "w", encoding="utf-8") as fh:
        fh.write(f"# theoretical_train_accuracy={ceiling.theoretical_train_accuracy!r}\n")
        fh.write(f"# theoretical_test_accuracy={ceiling.theoretical_test_accuracy!r}\n")
        fh.write("sweep,loss,train_accuracy,test_accuracy\n")
        for sweep, loss, tr_acc, te_acc in rows:
            fh.write(f"{sweep},{loss!r},{tr_acc!r},{te_acc!r}\n")

    model_path = Path(cfg.model_output) if cfg.model_output else trace_path.with_suffix(".model.json")
    with open(model_path, "w", encoding="utf-8") as fh:
        json.dump(
            {"n_x": cfg.n_x, "n_y": q_y, "layers": cfg.layers, "theta": qmodel.theta.tolist()},
            fh, indent=2, sort_keys=True,
        )
        fh.write("\n")
    print(f"wrote {trace_path} and {model_path}")
    return 0


# --- report pretty-printer ---


def run_report(cfg: RunConfig) -> int:
    with open(cfg.input, encoding="utf-8") as fh:
        try:
            report = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{cfg.input}: not a report JSON ({exc})") from None
    out = io.StringIO()
    tool = report.get("tool", {})
    out.write(f"bitbit report (schema {report.get('schema_version')}, "
              f"tool {tool.get('name')} {tool.get('version')})\n")
    out.write(f"command: {report.get('command')} (streamed: {report.get('streamed')})\n")
    cfg_echo = report.get("config", {})
    for key in sorted(cfg_echo):
        out.write(f"  {key}: {cfg_echo[key]}\n")
    out.write(f"classes: {report.get('n_classes')}  label mapping: {report.get('label_mapping')}\n")
    for thr in sorted(report.get("aggregates", {}), key=float):
        agg = report["aggregates"][thr]
        mean = agg.get("mean_q_dataset")
        std = agg.get("std_q_dataset")
        out.write(
            f"threshold {thr}: mean Q_dataset "
            f"{'n/a' if mean is None else format(mean, '.2f')}"
            f"{'' if std is None else f' (std {std:.2f})'}"
            f", covered {agg.get('n_covered')}/{agg.get('n_replicates')}\n"
        )
    out.write("replicate  threshold  q_train  q_test  q_y  q_dataset\n")
    for rep in report.get("replicates", []):
        for thr in sorted(rep.get("thresholds", {}), key=float):
            est = rep["thresholds"][thr]
            out.write(
                f"{rep['replicate']:>9}  {thr:>9}  {est['q_train']!s:>7}  "
                f"{est['q_test']!s:>6}  {est['q_y']:>3}  {est['q_dataset']!s:>9}\n"
            )
    for message in report.get("warnings", []):
        out.write(f"warning: {message}\n")
    print(out.getvalue(), end="")
    return 0


# --- synthetic data recipe ---


def run_make_synthetic(cfg: RunConfig) -> int:
    """Write a seeded Gaussian-blob classification CSV (the scaling-study
    recipe: generate wide/tall synthetics here, then stream-estimate them)."""
    dataset = make_synthetic(cfg.samples, cfg.features, cfg.classes, cfg.separation, cfg.seed)
    path = Path(cfg.output)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join([f"f{j}" for j in range(dataset.n_features)] + ["label"]) + "\n")
        for row, label in zip(dataset.features, dataset.labels.tolist()):
            fh.write(",".join(repr(v) for v in row.tolist()) + f",{label}\n")
    print(f"wrote {path}")
    return 0


# --- argument parsing ---


def _add_common_data_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--label-column", default="label", help="label column name or 0-based index")
    p.add_argument("--scheme", choices=("none", "pca", "lsa"), default="pca")
    p.add_argument("--components", type=int, default=None,
                   help="reduced width D (default: number of features, capped at the sample count)")
    p.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bitbit",
        description="Estimate the qubits needed to encode a classification dataset, "
                    "and train a desk-scale basis-state classifier against that estimate.",
    )
    parser.add_argument("--version", action="version", version=f"bitbit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate", help="replicated split/sweep qubit estimate")
    p.add_argument("--input", help="dataset CSV (split per replicate)")
    p.add_argument("--train-input", help="pre-split training CSV (with --test-input; disables replication)")
    p.add_argument("--test-input", help="pre-split test CSV")
    _add_common_data_flags(p)
    p.add_argument("--threshold", type=float, default=1.0)
    p.add_argument("--replicates", type=int, default=10)
    p.add_argument("--train-fraction", type=float, default=0.8)
    p.add_argument("--n-x-max", type=int, default=128)
    p.add_argument("--step", type=int, default=1)
    p.add_argument("--stratify", action="store_true")
    p.add_argument("--jobs", type=int, default=None,
                   help="parallel replicates (default: available parallelism)")
    p.add_argument("--output", required=True, help="report JSON path (curves CSV lands beside it)")

    p = sub.add_parser("stream-estimate", help="batched streaming qubit estimate over pre-split CSVs")
    p.add_argument("--train-input", required=True)
    p.add_argument("--test-input", required=True)
    _add_common_data_flags(p)
    p.add_argument("--threshold", type=float, default=1.0)
    p.add_argument("--n-x-max", type=int, default=128)
    p.add_argument("--step", type=int, default=10)
    p.add_argument("--batch-size", type=int, required=True)
    p.add_argument("--reservoir-size", type=int, default=100_000)
    p.add_argument("--weighted-mi", action="store_true",
                   help="weight batch importance scores by record count instead of plain averaging")
    p.add_argument("--work-dir", default=None, help="directory for model.json/train.enc/test.enc")
    p.add_argument("--output", default=None, help="report JSON path (default: <work-dir>/report.json)")

    p = sub.add_parser("encode", help="fit one encoder and write encoded record files")
    p.add_argument("--input", required=True)
    _add_common_data_flags(p)
    p.add_argument("--n-x", type=int, required=True)
    p.add_argument("--train-fraction", type=float, default=0.8)
    p.add_argument("--stratify", action="store_true")
    p.add_argument("--output-dir", required=True)

    p = sub.add_parser("train", help="train a statevector classifier on an encoded dataset")
    p.add_argument("--input", required=True)
    _add_common_data_flags(p)
    p.add_argument("--n-x", type=int, required=True)
    p.add_argument("--layers", type=int, default=2)
    p.add_argument("--sweeps", type=int, default=10)
    p.add_argument("--train-fraction", type=float, default=0.8)
    p.add_argument("--stratify", action="store_true")
    p.add_argument("--uniform-weights", action="store_true",
                   help="weight unique inputs equally instead of by frequency")
    p.add_argument("--max-qubits", type=int, default=20)
    p.add_argument("--output", required=True, help="training trace CSV path")
    p.add_argument("--model-output", default=None, help="model JSON path (default: trace path with .model.json)")

    p = sub.add_parser("report", help="pretty-print a report JSON")
    p.add_argument("--input", required=True)

    p = sub.add_parser("make-synthetic", help="write a seeded Gaussian-blob classification CSV")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--features", type=int, default=4)
    p.add_argument("--classes", type=int, default=2)
    p.add_argument("--separation", type=float, default=4.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True)

    return parser


_COMMANDS = {
    "estimate": run_estimate,
    "stream-estimate": run_stream_estimate,
    "encode": run_encode,
    "train": run_train,
    "report": run_report,
    "make-synthetic": run_make_synthetic,
}


def config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    for key, value in vars(args).items():
        setattr(cfg, key.replace("-", "_"), value)
    return cfg


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; 2 is reserved for uncovered runs
        return 0 if exc.code in (0, None) else 1
    cfg = config_from_args(args)
    try:
        _check_flags(cfg)
        return _COMMANDS[cfg.command](cfg)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
