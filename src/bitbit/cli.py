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
import shutil
import sys
import warnings
from datetime import datetime, timezone
from itertools import islice
from pathlib import Path
from typing import NamedTuple

from bitbit import __version__
from bitbit.coverage import (
    CoverageMetrics,
    code_coverage,
    compute_q_y,
    count_table,
    estimate_from_curve,
    sweep_curve,
)
from bitbit.data import Dataset, SplitSpec, check_train_count, csv_records, load_csv, make_synthetic, open_text
from bitbit.data import split_train_test
from bitbit.dimred import SCHEMES, ReducerSpec
from bitbit.encoder import ENCODING_FILES, fit_encoder, split_codes, write_encoding
from bitbit.qsim import (
    DEFAULT_QUBIT_CAP,
    classification_accuracies,
    evaluate_loss,
    fresh_model,
    train_sweeps,
    training_batch_from_table,
)
from bitbit.stream import DEFAULT_RESERVOIR_SIZE, RANK_SPILLS, CsvBatchSource, Spill
from bitbit.stream import stream_fit_base, stream_sweep_curve

REPORT_SCHEMA_VERSION = "1"


# --- report plumbing ---


def _aggregate(values: list[int | None]) -> dict:
    """Mean and sample standard deviation (0.0 for one) of the covered replicates' q_dataset."""
    covered = [v for v in values if v is not None]
    mean = sum(covered) / len(covered) if covered else None
    std = None if mean is None else 0.0 if len(covered) == 1 else (
        sum((v - mean) ** 2 for v in covered) / (len(covered) - 1)) ** 0.5
    return {"n_replicates": len(values), "n_covered": len(covered), "mean_q_dataset": mean, "std_q_dataset": std}


def _write_json(path, doc: dict) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _fields(obj, names: tuple[str, ...], **resolved) -> dict:
    """``obj``'s attributes ``names``, plus ``resolved``: a report's ``config`` is flags as given, plus these."""
    return {**{name: getattr(obj, name) for name in names}, **resolved}


def _write_estimate_report(
    cfg: argparse.Namespace, config: dict, label_mapping: dict[str, int],
    results: list[tuple[list[tuple[int, CoverageMetrics]], int | None]], caught: list[warnings.WarningMessage],
    paths: dict[str, _PlannedPath],
) -> int:
    """Write the report and its curves file, as ``paths`` names them, for swept ``(curve, split_seed)``
    results; the exit code is 2 when any replicate is uncovered at ``--threshold``."""
    c = len(label_mapping)
    # The 0.99-vs-1.0 gap is always reported; the configured threshold rides along.
    thresholds = sorted({cfg.threshold, 0.99, 1.0})
    replicates = []
    per_threshold: dict[float, list[int | None]] = {t: [] for t in thresholds}
    for r, (curve, seed) in enumerate(results):
        entry = {
            "replicate": r,
            "split_seed": seed,
            "curve": [{"n_x": n_x, **vars(m)} for n_x, m in curve],
            "thresholds": {},
        }
        for t in thresholds:
            est = estimate_from_curve(curve, t, c)
            entry["thresholds"][str(t)] = _fields(est, ("q_train", "q_test", "q_y", "q_dataset", "covered"))
            per_threshold[t].append(est.q_dataset)
        replicates.append(entry)

    exit_code = 2 if None in per_threshold[cfg.threshold] else 0  # a replicate is uncovered
    report = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "tool": {"name": "bitbit", "version": __version__},
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "command": cfg.command,
        "streamed": cfg.command == "stream-estimate",
        "config": config,
        "label_mapping": label_mapping,
        "n_classes": c,
        # Sorted and deduplicated: replicates repeat the same warning.
        "warnings": sorted({str(w.message) for w in caught}),
        "replicates": replicates,
        "aggregates": {str(t): _aggregate(per_threshold[t]) for t in thresholds},
        "exit_code": exit_code,
    }
    output, curves = paths["output"].path, paths["curves"].path
    _write_json(output, report)
    with open(curves, "w", encoding="utf-8") as fh:
        fh.write("replicate,n_x,train_acc,test_acc,overlap_fraction\n")
        for rep in replicates:
            for point in rep["curve"]:
                fh.write(f"{rep['replicate']},{point['n_x']},{point['theoretical_train_accuracy']!r},"
                         f"{point['theoretical_test_accuracy']!r},{point['test_train_overlap_fraction']!r}\n")
    print(f"wrote {output} and {curves}")
    return exit_code


# --- flag checks ---

# Each flag that gives a path, and the kind of path it gives.
_PATH_FLAGS = {"input": "input", "train_input": "input", "test_input": "input", "output": "file",
               "model_output": "file", "output_dir": "directory", "work_dir": "directory"}
# The files this module names inside a directory; the others belong to the module that writes them.
_LABELS_FILE = "labels.json"
_ROWS_SPILL = "train.rows"


# One path of a command: the flag it is named after, as messages give it, and its kind: "input", "file" or "directory".
_PlannedPath = NamedTuple("_PlannedPath", [("flag", str), ("path", Path), ("kind", str)])


def _paths(cfg: argparse.Namespace) -> dict[str, _PlannedPath]:
    """Every path ``cfg.command`` reads or writes, each once, inputs first: keyed by the field of the flag
    that gives it or that it stands in for, by ``"curves"``, or by its name inside a directory."""
    paths = {field: _PlannedPath(f"--{field.replace('_', '-')}", Path(getattr(cfg, field)), kind)
             for field, kind in _PATH_FLAGS.items() if getattr(cfg, field, None) is not None}
    for flag, path, kind in paths.values():
        if kind == "file" and not path.name:  # "." or "/": a directory, and no name to derive files from
            _check_output(flag, path, False)

    def derive(key, base, what, path, kind="file"):
        owner = paths[base].flag.partition("'")[0]  # the flag the base path is named after
        paths.setdefault(key, _PlannedPath(f"{owner}'s {what}", path, kind))

    if cfg.command == "stream-estimate":
        if cfg.output is None and cfg.work_dir is None:
            raise ValueError("stream-estimate requires --output or --work-dir")
        if cfg.work_dir is None:
            derive("work_dir", "output", "work directory", paths["output"].path.with_suffix(".work"), "directory")
        for name in (*ENCODING_FILES, _ROWS_SPILL, *RANK_SPILLS):
            derive(name, "work_dir", name, paths["work_dir"].path / name)
        derive("output", "work_dir", "report", paths["work_dir"].path / "report.json")
    if cfg.command in ("estimate", "stream-estimate"):
        derive("curves", "output", "curves file", paths["output"].path.with_suffix(".curves.csv"))
    if cfg.command == "encode":
        for name in (*ENCODING_FILES, _LABELS_FILE):
            derive(name, "output_dir", name, paths["output_dir"].path / name)
    if cfg.command == "train":
        derive("model_output", "output", "model file", paths["output"].path.with_suffix(".model.json"))
    return paths


# Least value of each numeric flag; None means the flag is unset.
_FLAG_MINIMUMS = {
    "n_x_max": 1, "step": 1, "replicates": 1, "jobs": 1, "batch_size": 2, "reservoir_size": 1,
    "components": 1, "n_x": 1, "layers": 1, "sweeps": 0, "max_qubits": 1, "seed": 0,
    "features": 1, "classes": 2, "separation": 0.0,
}


def _check_flags(cfg: argparse.Namespace) -> dict[str, _PlannedPath]:
    """Reject values of ``cfg``'s flags that its command cannot run with, before any input
    is read or any output created; each message names the flag. Returns ``_paths``."""
    flags = vars(cfg)
    if "threshold" in flags and not 0.0 < cfg.threshold <= 1.0:
        raise ValueError(f"--threshold must be in (0, 1], got {cfg.threshold}")
    if "train_fraction" in flags and not 0.0 < cfg.train_fraction < 1.0:
        raise ValueError(f"--train-fraction must be in (0, 1), got {cfg.train_fraction}")
    for field, least in _FLAG_MINIMUMS.items():
        value = flags.get(field)
        if value is not None and not value >= least:
            raise ValueError(f"--{field.replace('_', '-')} must be >= {least}, got {value}")
    if "samples" in flags:
        if cfg.samples < cfg.classes:
            raise ValueError(f"--samples must be >= --classes ({cfg.classes}), got {cfg.samples}")
        # The last class mean, separation * (classes - 1), must be a finite float; no --classes overflows here.
        if cfg.separation and cfg.classes - 1 > sys.float_info.max / cfg.separation:
            raise ValueError(f"--separation {cfg.separation} with --classes {cfg.classes} puts a class mean "
                             f"past the largest float")
    if flags.get("input") is not None and (flags.get("train_input") or flags.get("test_input")):
        raise ValueError("--input cannot be combined with --train-input/--test-input")
    # No output may land on an input or on another output; two inputs may be one file.
    seen, paths = {}, _paths(cfg)
    for flag, path, kind in paths.values():
        if kind == "input" and not path.is_file():
            raise ValueError(f"{flag}: no such file {str(path)!r}")
        if kind != "input":
            _check_output(flag, path, kind == "directory")
        if (other := seen.setdefault(_file_id(path), flag)) != flag and kind != "input":
            raise ValueError(f"{other} and {flag} are the same file {path}")
    return paths


def _file_id(path: Path):
    """Two paths are one file when they resolve to the same device and inode, or to the same absent path."""
    path = path.resolve()
    return (path.stat().st_dev, path.stat().st_ino) if path.exists() else path


def _check_output(flag: str, path: Path, is_dir: bool) -> None:
    """Reject an output path no run could write, creating nothing: an existing path must be
    a directory iff ``is_dir``, and its nearest existing ancestor a writable directory."""
    if path.exists() and path.is_dir() != is_dir:
        raise ValueError(f"{flag} {path}: {'not a directory' if is_dir else 'is a directory'}")
    home = next(p for p in ((path, *path.parents) if is_dir else path.parents) if p.exists())
    if not (home.is_dir() and os.access(home, os.W_OK)):
        raise ValueError(f"{flag} {path}: {home} is not a writable directory")


def _check_components(cfg: argparse.Namespace, n_features: int, path, n_rows: int | None = None) -> None:
    """Reject a ``--components`` that the ``n_features`` columns of the
    training input ``path`` cannot give, or, for pca and lsa, that exceeds its
    ``n_rows`` training rows when given; each message names the flag."""
    if cfg.components is None:
        return
    if cfg.components > n_features:
        raise ValueError(f"--components {cfg.components} exceeds the {n_features} features of {path}")
    if cfg.scheme == "none" and cfg.components != n_features:
        raise ValueError(
            f"--scheme none needs --components equal to the {n_features} features of {path}, got {cfg.components}"
        )
    if cfg.scheme != "none" and n_rows is not None and cfg.components > n_rows:
        raise ValueError(f"--components {cfg.components} exceeds the {n_rows} training rows of {path}")


def _check_test_columns(cfg: argparse.Namespace) -> tuple[str, ...]:
    """Reject a ``--test-input`` whose feature columns (the header without the
    label column) are not the training input's in the same order, naming both
    files and the first column that differs; reads only the two headers, and
    returns the training input's feature names."""
    train_names, test_names = (CsvBatchSource(path, cfg.label_column).feature_names()
                               for path in (cfg.train_input, cfg.test_input))
    if test_names != train_names:
        i, pair = next((i, p) for i, p in enumerate(zip((*test_names, None), (*train_names, None))) if p[0] != p[1])
        test_name, train_name = ("absent" if name is None else repr(name) for name in pair)
        raise ValueError(f"--test-input {cfg.test_input}: feature column {i + 1} is {test_name}, "
                         f"but in the training input {cfg.train_input} it is {train_name}")
    return train_names


# --- in-memory front end: estimate --input, encode, train ---


def _load_input(cfg: argparse.Namespace) -> Dataset:
    """Load ``--input`` and check ``--components`` against its features."""
    dataset = load_csv(cfg.input, cfg.label_column)
    _check_components(cfg, dataset.n_features, cfg.input)
    return dataset


def _split(cfg: argparse.Namespace, dataset: Dataset, seed: int) -> tuple[Dataset, Dataset]:
    """Split ``--input`` with ``seed``, then check the training rows: at least
    2, and for pca and lsa at least ``--components``."""
    train, test = split_train_test(dataset, SplitSpec(cfg.train_fraction, seed, cfg.stratify))
    if train.n_samples < 2:
        raise ValueError(f"--train-fraction {cfg.train_fraction} leaves {train.n_samples} training row of "
                         f"{cfg.input}; need at least 2")
    _check_components(cfg, train.n_features, cfg.input, train.n_samples)
    return train, test


# --- estimate ---


def run_estimate(cfg: argparse.Namespace, paths: dict[str, _PlannedPath]) -> int:
    """Replicated split-sweep-estimate protocol over one CSV, or a single run
    over a pre-split train/test pair."""
    spec = ReducerSpec(cfg.scheme, cfg.components)

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if cfg.train_input or cfg.test_input:
            if not (cfg.train_input and cfg.test_input):
                raise ValueError("pre-split mode needs both --train-input and --test-input")
            _check_test_columns(cfg)
            train = load_csv(cfg.train_input, cfg.label_column)
            test = load_csv(cfg.test_input, cfg.label_column, train.label_names)
            _check_components(cfg, train.n_features, cfg.train_input, train.n_samples)
            label_names = train.label_names
            seeds = [None]
        else:
            if cfg.input is None:
                raise ValueError("estimate requires --input (or --train-input/--test-input)")
            dataset = _load_input(cfg)
            label_names = dataset.label_names
            seeds = [cfg.seed + r for r in range(cfg.replicates)]
        # Replicates run in turn, each split made just before its sweep, so one split is held at a time.
        # Split sizes do not depend on the seed: replicate 0's split fails a bad split before any sweep.
        # Every sweep runs to full coverage, so each threshold's first crossing is on one curve.
        results = [(sweep_curve(*((train, test) if seed is None else _split(cfg, dataset, seed)), spec,
                                cfg.n_x_max, cfg.step), seed) for seed in seeds]

    config = _fields(cfg, ("input", "train_input", "test_input", "label_column", "scheme", "components",
                           "threshold", "train_fraction", "seed", "n_x_max", "step", "stratify"),
                     replicates=len(results))
    label_mapping = {name: i for i, name in enumerate(label_names)}
    return _write_estimate_report(cfg, config, label_mapping, results, caught, paths)


# --- stream-estimate ---


def run_stream_estimate(cfg: argparse.Namespace, paths: dict[str, _PlannedPath]) -> int:
    """Streaming protocol over pre-split CSVs: parse the training CSV once into
    a row spill, fit once in batched passes over it, rank each split once into
    a spill, then pack and measure coverage at each swept width from the spill."""
    n_features = len(_check_test_columns(cfg))
    train_csv = CsvBatchSource(cfg.train_input, cfg.label_column)
    _check_components(cfg, n_features, cfg.train_input)
    with open_text(cfg.test_input) as fh:
        if not any(row for _, row in islice(csv_records(fh, cfg.test_input), 1, None)):  # none converted
            raise ValueError(f"--test-input {cfg.test_input} holds no data rows")

    work_dir = paths["work_dir"].path
    # The outermost directory this run creates, removed again if the run fails.
    created = next((d for d in reversed((work_dir, *work_dir.parents)) if not d.exists()), None)
    work_dir.mkdir(parents=True, exist_ok=True)
    train_rows = Spill(paths[_ROWS_SPILL].path, "float64", n_features + 1)

    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            n_rows = train_rows.write(train_csv.batches(cfg.batch_size))
            check_train_count(n_rows)
            _check_components(cfg, n_features, cfg.train_input, n_rows)
            label_mapping = train_csv.label_mapping
            if len(label_mapping) < 2:
                raise ValueError("training stream holds fewer than 2 classes")
            base = stream_fit_base(train_rows, ReducerSpec(cfg.scheme, cfg.components), cfg.batch_size,
                                   cfg.reservoir_size, cfg.seed, cfg.weighted_mi)
            test_csv = CsvBatchSource(cfg.test_input, cfg.label_column, label_mapping=label_mapping)
            curve = stream_sweep_curve(train_rows, test_csv, base, len(label_mapping), cfg.batch_size, work_dir,
                                       cfg.n_x_max, cfg.step)
    except BaseException:
        if created is not None:
            shutil.rmtree(created, ignore_errors=True)
        raise
    finally:
        train_rows.path.unlink(missing_ok=True)

    config = _fields(cfg, ("train_input", "test_input", "label_column", "scheme", "components", "threshold",
                           "n_x_max", "step", "batch_size", "reservoir_size", "seed", "weighted_mi"),
                     work_dir=str(work_dir))
    return _write_estimate_report(cfg, config, label_mapping, [(curve, None)], caught, paths)


# --- encode ---


def run_encode(cfg: argparse.Namespace, paths: dict[str, _PlannedPath]) -> int:
    """Split, fit at a fixed width, and write the encoding and the label
    mapping into the output directory."""
    dataset = _load_input(cfg)
    train, test = _split(cfg, dataset, cfg.seed)
    model = fit_encoder(train, ReducerSpec(cfg.scheme, cfg.components), cfg.n_x)
    write_encoding(paths["output_dir"].path, model, split_codes(model, train, test))
    _write_json(paths[_LABELS_FILE].path, {name: i for i, name in enumerate(dataset.label_names)})
    print(f"wrote {', '.join(str(paths[name].path) for name in (*ENCODING_FILES, _LABELS_FILE))}")
    return 0


# --- train ---


def run_train(cfg: argparse.Namespace, paths: dict[str, _PlannedPath]) -> int:
    """Encode at the requested width, drop collisions (majority label per
    bitstring), train by coordinate updates, and write a per-sweep trace CSV
    plus the final model parameters."""
    if cfg.max_qubits > DEFAULT_QUBIT_CAP:
        warnings.warn(f"raising the qubit cap to {cfg.max_qubits}: statevectors take "
                      f"{(2 ** cfg.max_qubits * 16) / 2**20:.0f} MB each")
    dataset = _load_input(cfg)
    q_y = compute_q_y(dataset.c)
    if cfg.n_x + q_y > cfg.max_qubits:
        raise ValueError(
            f"--n-x {cfg.n_x} plus {q_y} class qubit(s) exceeds the qubit cap --max-qubits {cfg.max_qubits}"
        )
    train, test = _split(cfg, dataset, cfg.seed)
    model_enc = fit_encoder(train, ReducerSpec(cfg.scheme, cfg.components), cfg.n_x)
    train_table, test_table = (count_table(chunks, train.c, model_enc.width)
                               for chunks in split_codes(model_enc, train, test)(model_enc.allocation.bits))
    ceiling = code_coverage(train_table, test_table)
    batch = training_batch_from_table(train_table, weighting="uniform" if cfg.uniform_weights else "frequency")
    qmodel = fresh_model(cfg.n_x, q_y, cfg.layers, init_seed=cfg.seed, max_qubits=cfg.max_qubits)

    rows = []
    for sweep in range(cfg.sweeps + 1):
        loss = train_sweeps(qmodel, batch, 1)[-1] if sweep else evaluate_loss(qmodel, batch)
        rows.append((sweep, loss, *classification_accuracies(qmodel, (train_table, test_table))))

    trace_path, model_path = paths["output"].path, paths["model_output"].path
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    with open(trace_path, "w", encoding="utf-8") as fh:
        fh.write(f"# theoretical_train_accuracy={ceiling.theoretical_train_accuracy!r}\n")
        fh.write(f"# theoretical_test_accuracy={ceiling.theoretical_test_accuracy!r}\n")
        fh.write("sweep,loss,train_accuracy,test_accuracy\n")
        for sweep, loss, tr_acc, te_acc in rows:
            fh.write(f"{sweep},{loss!r},{tr_acc!r},{te_acc!r}\n")

    _write_json(model_path, {"n_x": cfg.n_x, "n_y": q_y, "layers": cfg.layers, "theta": qmodel.theta.tolist()})
    print(f"wrote {trace_path} and {model_path}")
    return 0


# --- report pretty-printer ---


def run_report(cfg: argparse.Namespace, paths: dict[str, _PlannedPath]) -> int:
    with open(cfg.input, encoding="utf-8") as fh:
        try:
            text = _render_report(json.load(fh))
        except (AttributeError, LookupError, RecursionError, TypeError, ValueError) as exc:  # not a JSON report
            raise ValueError(f"{cfg.input}: not a report JSON ({exc})") from None
    print(text, end="")
    return 0


def _render_report(report: dict) -> str:
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
    return out.getvalue()


# --- synthetic data recipe ---


def run_make_synthetic(cfg: argparse.Namespace, paths: dict[str, _PlannedPath]) -> int:
    """Write a seeded Gaussian-blob classification CSV (the scaling-study
    recipe: generate wide/tall synthetics here, then stream-estimate them)."""
    dataset = make_synthetic(cfg.samples, cfg.features, cfg.classes, cfg.separation, cfg.seed)
    path = paths["output"].path
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join([f"f{j}" for j in range(dataset.n_features)] + ["label"]) + "\n")
        for row, label in zip(dataset.features, dataset.labels.tolist()):
            fh.write(",".join(repr(v) for v in row.tolist()) + f",{label}\n")
    print(f"wrote {path}")
    return 0


# --- argument parsing ---


def _add_common_data_flags(p: argparse.ArgumentParser, schemes=SCHEMES) -> None:
    p.add_argument("--label-column", default="label", help="label column name or 0-based index")
    p.add_argument("--scheme", choices=schemes, default="pca")
    p.add_argument("--components", type=int, default=None,
                   help="reduced width D (default: number of features, capped at the sample count)")
    p.add_argument("--seed", type=int, default=0)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # no usage text: main prints the message as its one error line
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bitbit",
        description="Estimate the qubits needed to encode a classification dataset, "
                    "and train a desk-scale basis-state classifier against that estimate.",
    )
    parser.add_argument("--version", action="version", version=f"bitbit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

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
    p.add_argument("--jobs", type=int, default=None, help="ignored: replicates run one after another")
    p.add_argument("--output", required=True, help="report JSON path (curves CSV lands beside it)")

    p = sub.add_parser("stream-estimate", help="batched streaming qubit estimate over pre-split CSVs")
    p.add_argument("--train-input", required=True)
    p.add_argument("--test-input", required=True)
    _add_common_data_flags(p, ("none", "pca"))  # lsa fits one batch
    p.add_argument("--threshold", type=float, default=1.0)
    p.add_argument("--n-x-max", type=int, default=128)
    p.add_argument("--step", type=int, default=10)
    p.add_argument("--batch-size", type=int, required=True)
    p.add_argument("--reservoir-size", type=int, default=DEFAULT_RESERVOIR_SIZE)
    p.add_argument("--weighted-mi", action="store_true",
                   help="weight batch importance scores by record count instead of plain averaging")
    p.add_argument("--work-dir", default=None, help=f"directory for {'/'.join(ENCODING_FILES)}")
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
    p.add_argument("--max-qubits", type=int, default=DEFAULT_QUBIT_CAP)
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


def main(argv=None) -> int:
    try:
        # Warnings no report collects go to stderr as one line each, once the
        # command has succeeded; a failed run prints only its error.
        with warnings.catch_warnings(record=True) as caught:
            cfg = build_parser().parse_args(argv)
            code = _COMMANDS[cfg.command](cfg, _check_flags(cfg))
    except SystemExit as exc:  # --help and --version; usage errors raise ValueError
        return 0 if exc.code in (0, None) else 1
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy's error names the allocation it refused
        print(f"error: out of memory ({str(exc) or 'no detail'})", file=sys.stderr)
        return 1
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
