"""Dataset ingestion and its checks, seeded splitting, and synthetic generation."""

from __future__ import annotations

import csv
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, replace
from itertools import chain, count, islice

import numpy as np


@dataclass(frozen=True)
class Dataset:
    """A tabular classification dataset: finite real features, contiguous class ids."""

    features: np.ndarray  # (s, n) float64
    labels: np.ndarray  # (s,) int64 in [0, c)
    c: int
    feature_names: tuple[str, ...] | None = None
    label_names: tuple[str, ...] | None = None  # original label values, indexed by class id

    def __post_init__(self):
        features = np.ascontiguousarray(np.asarray(self.features, dtype=np.float64))
        labels = np.ascontiguousarray(np.asarray(self.labels, dtype=np.int64))
        if features.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {features.shape}")
        if labels.shape != (features.shape[0],):
            raise ValueError("labels length must equal the number of feature rows")
        features.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def batches(self, batch_size: int):
        """(features, labels) row views of ``batch_size`` rows, the last one
        short: an in-memory set is a batch source like a CSV or a spill."""
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        for lo in range(0, self.n_samples, batch_size):
            yield self.features[lo:lo + batch_size], self.labels[lo:lo + batch_size]


@dataclass(frozen=True)
class SplitSpec:
    """Seeded train/test split: train and test partition the input rows."""

    train_fraction: float
    seed: int
    stratify: bool = False

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError(f"train_fraction must be in (0, 1), got {self.train_fraction}")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")


def check_train_count(count: int) -> None:
    """Reject fewer than 2 training rows: the one message of every fit and of the streaming ingest."""
    if count < 2:
        raise ValueError(f"train source must yield at least 2 samples, got {count}")


def csv_records(lines, path, line_no: int = 1):
    """(line number, cells) per ``csv.reader`` record of ``lines``, numbered
    from ``line_no``; a ``csv.Error`` becomes a ValueError naming the line."""
    line_nos = count(line_no)
    try:
        for row in csv.reader(lines):
            yield next(line_nos), row
    except csv.Error as exc:
        raise ValueError(f"{path}: line {next(line_nos)}: {exc}") from None


def _first_non_utf8_line(path) -> int | None:
    """The number of the first line of a file that is not UTF-8 text, with lines
    ended as a file opened with ``newline=""`` ends them; None if every line is."""
    with open(path, "rb") as fh:
        for line_no, line in enumerate((line for chunk in fh for line in chunk.splitlines()), start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError:
                return line_no
    return None


@contextmanager
def open_text(path, at: str = "line", encoding: str = "utf-8-sig"):
    """``path`` opened to read as UTF-8 text with ``newline=""``, by default past
    any byte-order mark, as CSV files are read. A byte that does not decode, whenever
    it is read, is a ValueError naming its line N: ``{path}: {at} N: not UTF-8 text``."""
    with open(path, newline="", encoding=encoding) as fh:
        try:
            yield fh
        except UnicodeDecodeError:
            raise ValueError(f"{path}: {at} {_first_non_utf8_line(path)}: not UTF-8 text") from None


def read_csv_header(fh, path) -> list[str]:
    """The stripped header cells of a CSV file; ``fh`` is left after the header."""
    _, header = next(csv_records(fh, path), (1, None))
    if header is None:
        raise ValueError(f"{path}: empty file, expected a header row")
    header = [h.strip() for h in header]
    if len(header) < 2:
        raise ValueError(f"{path}: no feature column in header {header!r}")
    return header


def resolve_label_column(header: list[str], label_column, path) -> int:
    """Map a label-column name or 0-based index onto the header; names win
    over indices when a header is itself numeric."""
    if isinstance(label_column, int) or (
        isinstance(label_column, str) and label_column.isdigit() and label_column not in header
    ):
        label_idx = int(label_column)
        if not 0 <= label_idx < len(header):
            raise ValueError(f"{path}: label column index {label_idx} out of range")
        return label_idx
    try:
        return header.index(label_column)
    except ValueError:
        raise ValueError(f"{path}: no column named {label_column!r} in header") from None


def parse_csv_row(row, header, label_idx, feature_idx, path, line_no) -> tuple[list[float], str]:
    """Parse one data row into (feature values, raw label), naming the file
    line and column on any missing, unparseable, or non-finite cell."""
    if len(row) != len(header):
        raise ValueError(f"{path}: line {line_no} has {len(row)} fields, expected {len(header)}")
    values = []
    for j in feature_idx:
        cell = row[j].strip()
        if cell == "":
            raise ValueError(f"{path}: missing value at line {line_no}, column {header[j]!r}")
        try:
            v = float(cell)
        except ValueError:
            raise ValueError(
                f"{path}: cannot parse {cell!r} as a number at line {line_no}, column {header[j]!r}"
            ) from None
        if not np.isfinite(v):
            raise ValueError(f"{path}: non-finite value {cell!r} at line {line_no}, column {header[j]!r}")
        values.append(v)
    label = row[label_idx].strip()
    if label == "":
        raise ValueError(f"{path}: missing label at line {line_no}")
    return values, label


# Rows load_csv converts at a time. A batch's raw lines and parsed arrays are
# held at once, so a small batch keeps the peak near that of the features.
LOAD_BATCH_ROWS = 256

_BLANK_LINES = ("\n", "\r\n", "\r")  # csv.reader reads these as an empty row


def csv_batches(fh, header, label_idx, path, batch_size: int, mapping: dict[str, int], strict: bool = False):
    """Yield (features, label ids) for each ``batch_size`` non-blank data rows
    of a CSV file (opened with ``newline=""``) read past its header, numbering
    lines from 2. Labels get ids from ``mapping``, which grows by first
    appearance; with ``strict`` an unseen label is an error. Batches are raw
    lines until a read holds a quote, a NUL or a line over ``csv.field_size_limit()``;
    from there ``csv.reader`` reads on, since a quoted field can span lines.
    Blank lines are dropped as read, so memory is bounded by the batch."""
    line_no, limit = 2, csv.field_size_limit()
    rows, line_nos, records = [], [], ()
    while chunk := list(islice(fh, batch_size - len(rows))):
        text = "".join(chunk)
        if '"' in text or "\0" in text or max(map(len, chunk)) > limit:
            rows = list(csv.reader(rows))  # one record per line: none holds a quote
            records = csv_records(chain(chunk, fh), path, line_no)
            break
        rows += [line for line in chunk if line not in _BLANK_LINES]
        line_nos += [n for n, line in enumerate(chunk, line_no) if line not in _BLANK_LINES]
        line_no += len(chunk)
        if len(rows) == batch_size:
            yield _convert_rows(rows, line_nos, header, label_idx, path, mapping, strict)
            rows, line_nos = [], []
    for line_no, row in records:
        if row:
            rows.append(row)
            line_nos.append(line_no)
            if len(rows) == batch_size:
                yield _convert_rows(rows, line_nos, header, label_idx, path, mapping, strict)
                rows, line_nos = [], []
    if rows:
        yield _convert_rows(rows, line_nos, header, label_idx, path, mapping, strict)


def _convert_rows(rows, line_nos, header, label_idx, path, mapping, strict) -> tuple[np.ndarray, np.ndarray]:
    """A batch of CSV rows, raw lines or ``csv.reader`` cells, as (features,
    label ids). ``np.loadtxt`` parses the lines, or the cells joined by commas
    if every row has the header's field count (a short row whose cell holds a
    comma would otherwise read as whole), with ``float``'s conversion; its
    batch stands if all values are finite, no label is blank and, with
    ``strict``, all labels are known. Other batches go row by row through
    ``parse_csv_row``, whose error names the file line and column."""
    as_lines = isinstance(rows[0], str)
    if as_lines or all(len(row) == len(header) for row in rows):
        dtype = np.dtype([("head", np.float64, (label_idx,)), ("label", object),
                          ("tail", np.float64, (len(header) - 1 - label_idx,))])
        try:  # fails on another field count, a line break in a cell, or a cell loadtxt does not read
            table = np.loadtxt(rows if as_lines else [",".join(row) for row in rows], dtype=dtype, delimiter=",",
                               comments=None, quotechar=None, ndmin=1)
        except ValueError:
            pass
        else:
            x = np.concatenate((table["head"], table["tail"]), axis=1)
            labels = list(map(str.strip, table["label"].tolist()))
            seen = dict.fromkeys(labels)  # in order of first appearance
            if np.isfinite(x).all() and "" not in seen and (not strict or mapping.keys() >= seen.keys()):
                for label in seen:
                    mapping.setdefault(label, len(mapping))
                return x, np.fromiter(map(mapping.__getitem__, labels), dtype=np.int64, count=len(labels))
    feature_idx = [j for j in range(len(header)) if j != label_idx]
    values, ids = [], []
    for line_no, row in zip(line_nos, csv.reader(rows) if as_lines else rows):
        v, raw_label = parse_csv_row(row, header, label_idx, feature_idx, path, line_no)
        if raw_label not in mapping:
            if strict:
                raise ValueError(f"{path}: line {line_no}: label {raw_label!r} was not seen in training")
            mapping[raw_label] = len(mapping)
        values.append(v)
        ids.append(mapping[raw_label])
    return np.asarray(values, dtype=np.float64), np.asarray(ids, dtype=np.int64)


def load_csv(path, label_column, label_names: tuple[str, ...] | None = None) -> Dataset:
    """Load a UTF-8, comma-delimited, headered CSV into a Dataset.

    ``label_column`` is a header name or a 0-based column index. Labels are
    remapped to contiguous ids by first appearance; the original values are
    kept in ``label_names``. Any unparseable, missing, or non-finite feature
    cell is an error naming the file line and column. A leading byte-order
    mark is skipped. Given a training set's ``label_names`` (for a separate
    test CSV), labels take their training ids, an unseen label is an error
    naming the file line, and one class and one row present suffice.
    """
    mapping = {name: i for i, name in enumerate(label_names or ())}
    with open_text(path) as fh:
        header = read_csv_header(fh, path)
        label_idx = resolve_label_column(header, label_column, path)
        batches = list(csv_batches(fh, header, label_idx, path, LOAD_BATCH_ROWS, mapping, label_names is not None))

    n_rows = sum(y.shape[0] for _, y in batches)
    least = 2 if label_names is None else 1
    if n_rows < least:
        raise ValueError(f"{path}: need at least {least} data row{'s' * (least > 1)}, got {n_rows}")
    if len(mapping) < 2:
        raise ValueError(f"{path}: fewer than 2 classes in column {header[label_idx]!r}")

    features = np.concatenate([x for x, _ in batches])
    labels = np.concatenate([y for _, y in batches])
    _warn_on_conflicting_duplicates(features, labels, None if label_names is None else path)
    return Dataset(
        features=features,
        labels=labels,
        c=len(mapping),
        feature_names=tuple(h for j, h in enumerate(header) if j != label_idx),
        label_names=tuple(mapping),
    )


def _warn_on_conflicting_duplicates(features: np.ndarray, labels: np.ndarray, test_path=None) -> None:
    # Duplicate raw rows with conflicting labels make full coverage unreachable
    # even before encoding; worth surfacing, not fatal. A row conflicts when
    # its label differs from that of the first row with the same features.
    _, first, inverse = np.unique(features, axis=0, return_index=True, return_inverse=True)
    conflicts = int((labels != labels[first][inverse]).sum())
    if conflicts:
        where, side = ("", "training") if test_path is None else (f"{test_path}: ", "test")
        warnings.warn(
            f"{where}{conflicts} duplicate feature rows carry conflicting labels; "
            f"full {side} coverage is unreachable at any width",
            stacklevel=3,
        )


def split_train_test(d: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset]:
    """Deterministic seeded split; row order within each side is the shuffled order."""
    s = d.n_samples
    rng = np.random.default_rng(spec.seed)
    if spec.stratify:
        train_idx, test_idx = _stratified_indices(d.labels, d.c, spec.train_fraction, rng)
    else:
        perm = rng.permutation(s)
        n_train = int(np.floor(spec.train_fraction * s))
        train_idx, test_idx = perm[:n_train], perm[n_train:]
    # Checked on the split made: a stratified split floors each class apart,
    # so it can leave a side empty where one floor over all rows would not.
    if train_idx.size < 1 or test_idx.size < 1:
        raise ValueError(f"train_fraction {spec.train_fraction} leaves an empty split for {s} samples")

    train, test = (replace(d, features=d.features[idx], labels=d.labels[idx]) for idx in (train_idx, test_idx))
    for name, part in (("train", train), ("test", test)):
        present = np.bincount(part.labels, minlength=d.c) > 0
        missing = np.nonzero(~present)[0]
        if missing.size:
            warnings.warn(
                f"classes {missing.tolist()} absent from the {name} split",
                stacklevel=2,
            )
    return train, test


def _stratified_indices(labels, c, train_fraction, rng):
    train_parts, test_parts = [], []
    for k in range(c):
        idx = np.nonzero(labels == k)[0]
        idx = idx[rng.permutation(idx.size)]
        n_k = int(np.floor(train_fraction * idx.size))
        train_parts.append(idx[:n_k])
        test_parts.append(idx[n_k:])
    train_idx = np.concatenate(train_parts)
    test_idx = np.concatenate(test_parts)
    # Interleave classes back into a shuffled order so downstream batching
    # does not see label-sorted data.
    return train_idx[rng.permutation(train_idx.size)], test_idx[rng.permutation(test_idx.size)]


def make_synthetic(s: int, n: int, c: int, separation: float, seed: int) -> Dataset:
    """Gaussian blobs with class means spaced ``separation`` apart along every axis.

    separation=0 makes the features independent of the label. Every class id
    occurs at least once (s >= c required).
    """
    if s < c:
        raise ValueError(f"need s >= c, got s={s}, c={c}")
    if separation < 0:
        raise ValueError("separation must be nonnegative")
    rng = np.random.default_rng(seed)
    labels = np.arange(s, dtype=np.int64) % c
    labels = labels[rng.permutation(s)]
    features = rng.standard_normal((s, n)) + separation * labels[:, None].astype(np.float64)
    if not np.isfinite(features).all():
        raise ValueError(f"separation {separation} with {c} classes gives non-finite features")
    return Dataset(features=features, labels=labels, c=c)
