"""Dataset ingestion, validation, seeded splitting, and synthetic generation."""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from itertools import chain

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


def validate(d: Dataset) -> list[str]:
    """Return a list of invariant violations; empty iff the dataset is well formed."""
    findings: list[str] = []
    s, n = d.features.shape
    if s < 2:
        findings.append(f"need at least 2 samples, got {s}")
    if n < 1:
        findings.append("need at least 1 feature")
    if d.c < 2:
        findings.append(f"need at least 2 classes, got {d.c}")
    bad = ~np.isfinite(d.features)
    if bad.any():
        rows, cols = np.nonzero(bad)
        name = _feature_name(d, int(cols[0]))
        findings.append(
            f"non-finite value in feature {name} at sample {int(rows[0])}"
            f" ({int(bad.sum())} non-finite values total)"
        )
    if d.labels.size:
        lo, hi = int(d.labels.min()), int(d.labels.max())
        if lo < 0 or hi >= d.c:
            findings.append(f"labels must lie in [0, {d.c}), found range [{lo}, {hi}]")
        else:
            present = np.bincount(d.labels, minlength=d.c) > 0
            for k in np.nonzero(~present)[0]:
                findings.append(f"class {int(k)} absent")
    return findings


def _feature_name(d: Dataset, j: int) -> str:
    if d.feature_names is not None:
        return repr(d.feature_names[j])
    return str(j)


def read_csv_header(reader, path) -> list[str]:
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError(f"{path}: empty file, expected a header row") from None
    return [h.strip() for h in header]


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


# Rows load_csv converts at a time. Raw cells take about twice the memory of
# the float lists the row-at-a-time parser held, so a batch this small keeps
# the peak below that parser's even for files of a few hundred rows.
LOAD_BATCH_ROWS = 256


def csv_batches(reader, header, label_idx, path, batch_size: int, mapping: dict[str, int], strict: bool = False):
    """Yield (features, label ids) for each ``batch_size`` data rows of a CSV
    reader positioned after its header. Labels get ids from ``mapping``, which
    grows by first appearance; with ``strict`` an unseen label is an error."""
    rows: list[list[str]] = []
    line_nos: list[int] = []
    for line_no, row in enumerate(reader, start=2):
        if not row:
            continue
        rows.append(row)
        line_nos.append(line_no)
        if len(rows) == batch_size:
            yield _convert_rows(rows, line_nos, header, label_idx, path, mapping, strict)
            rows, line_nos = [], []
    if rows:
        yield _convert_rows(rows, line_nos, header, label_idx, path, mapping, strict)


def _convert_rows(rows, line_nos, header, label_idx, path, mapping, strict) -> tuple[np.ndarray, np.ndarray]:
    """A batch of CSV rows as (features, label ids), converted in one go;
    a batch holding any bad row is redone row by row by ``parse_csv_row``,
    whose error names the file line and column."""
    n_features = len(header) - 1
    if all(len(row) == len(header) for row in rows):
        cells = chain.from_iterable(row[:label_idx] + row[label_idx + 1:] for row in rows)
        try:
            x = np.fromiter(map(float, cells), dtype=np.float64, count=len(rows) * n_features)
        except ValueError:
            x = None
        raw_labels = [row[label_idx].strip() for row in rows]
        known = not strict or all(label in mapping for label in raw_labels)
        if x is not None and np.isfinite(x).all() and "" not in raw_labels and known:
            ids = [mapping.setdefault(label, len(mapping)) for label in raw_labels]
            return x.reshape(len(rows), n_features), np.array(ids, dtype=np.int64)
    feature_idx = [j for j in range(len(header)) if j != label_idx]
    values, ids = [], []
    for line_no, row in zip(line_nos, rows):
        v, raw_label = parse_csv_row(row, header, label_idx, feature_idx, path, line_no)
        if raw_label not in mapping:
            if strict:
                raise ValueError(f"{path}: line {line_no}: label {raw_label!r} was not seen in training")
            mapping[raw_label] = len(mapping)
        values.append(v)
        ids.append(mapping[raw_label])
    return np.asarray(values, dtype=np.float64), np.asarray(ids, dtype=np.int64)


def load_csv(path, label_column) -> Dataset:
    """Load a UTF-8, comma-delimited, headered CSV into a Dataset.

    ``label_column`` is a header name or a 0-based column index. Labels are
    remapped to contiguous ids by first appearance; the original values are
    kept in ``label_names``. Any unparseable, missing, or non-finite feature
    cell is an error naming the file line and column.
    """
    mapping: dict[str, int] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = read_csv_header(reader, path)
        label_idx = resolve_label_column(header, label_column, path)
        batches = list(csv_batches(reader, header, label_idx, path, LOAD_BATCH_ROWS, mapping))

    n_rows = sum(y.shape[0] for _, y in batches)
    if n_rows < 2:
        raise ValueError(f"{path}: need at least 2 data rows, got {n_rows}")
    if len(mapping) < 2:
        raise ValueError(f"{path}: fewer than 2 classes in column {header[label_idx]!r}")

    features = np.concatenate([x for x, _ in batches])
    labels = np.concatenate([y for _, y in batches])
    _warn_on_conflicting_duplicates(features, labels)
    return Dataset(
        features=features,
        labels=labels,
        c=len(mapping),
        feature_names=tuple(h for j, h in enumerate(header) if j != label_idx),
        label_names=tuple(mapping),
    )


def _warn_on_conflicting_duplicates(features: np.ndarray, labels: np.ndarray) -> None:
    # Duplicate raw rows with conflicting labels make full coverage unreachable
    # even before encoding; worth surfacing, not fatal.
    _, inverse = np.unique(features, axis=0, return_inverse=True)
    conflicts = 0
    seen: dict[int, int] = {}
    for g, lab in zip(inverse.tolist(), labels.tolist()):
        if g in seen and seen[g] != lab:
            conflicts += 1
        else:
            seen.setdefault(g, lab)
    if conflicts:
        warnings.warn(
            f"{conflicts} duplicate feature rows carry conflicting labels; "
            "full training coverage is unreachable at any width",
            stacklevel=3,
        )


def split_train_test(d: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset]:
    """Deterministic seeded split; row order within each side is the shuffled order."""
    s = d.n_samples
    n_train = int(np.floor(spec.train_fraction * s))
    if n_train < 1 or s - n_train < 1:
        raise ValueError(
            f"train_fraction {spec.train_fraction} leaves an empty split for {s} samples"
        )
    rng = np.random.default_rng(spec.seed)
    if spec.stratify:
        train_idx, test_idx = _stratified_indices(d.labels, d.c, spec.train_fraction, rng)
    else:
        perm = rng.permutation(s)
        train_idx, test_idx = perm[:n_train], perm[n_train:]

    train = _take(d, train_idx)
    test = _take(d, test_idx)
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


def _take(d: Dataset, idx: np.ndarray) -> Dataset:
    return Dataset(
        features=d.features[idx],
        labels=d.labels[idx],
        c=d.c,
        feature_names=d.feature_names,
        label_names=d.label_names,
    )


def relabel(d: Dataset, label_names: tuple[str, ...]) -> Dataset:
    """Remap a dataset's class ids onto another dataset's label order.

    Used to align a separately loaded test CSV with a training CSV whose
    first-appearance order may differ. Labels absent from ``label_names``
    are an error.
    """
    if d.label_names is None:
        raise ValueError("dataset carries no original label values to remap")
    target = {name: i for i, name in enumerate(label_names)}
    lut = np.empty(len(d.label_names), dtype=np.int64)
    for old_id, name in enumerate(d.label_names):
        if name not in target:
            raise ValueError(f"label {name!r} does not occur in the reference label set")
        lut[old_id] = target[name]
    return Dataset(
        features=d.features,
        labels=lut[d.labels],
        c=len(label_names),
        feature_names=d.feature_names,
        label_names=tuple(label_names),
    )


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
    return Dataset(features=features, labels=labels, c=c)
