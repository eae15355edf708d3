"""Batched encoding for datasets too large for memory.

Three passes over the training stream: (1) accumulate the reducer, (2)
transform batches to collect per-component min/max, batch-averaged importance
scores, and a copula reservoir, (3) encode to disk. Test data is encoded with
the persisted model in a single pass. Coverage over encoded files keeps only
unique bitstrings in memory, so the footprint grows with distinct codes, not
record count.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from bitbit.coverage import BitstringTable, CoverageMetrics, build_table, code_coverage, table_arrays
from bitbit.data import parse_csv_row, read_csv_header, resolve_label_column
from bitbit.dimred import (
    FittedReducer,
    IncrementalPcaState,
    ReducerSpec,
    finalize_incremental,
    incremental_update,
    transform,
)
from bitbit.encoder import (
    CopulaModel,
    EncoderModel,
    ImportanceScores,
    _normalize,
    allocate_bits,
    encode_samples,
    estimate_mutual_information,
    iter_encoded,
    persist_model,
    read_encoded_header,
    write_encoded,
)

DEFAULT_RESERVOIR_SIZE = 100_000


class CsvBatchSource:
    """Restartable batched reader over a headered CSV.

    Labels are mapped to contiguous ids by first appearance across the whole
    stream; pass an existing ``label_mapping`` to reuse a training-side
    mapping (unknown labels then become errors).
    """

    def __init__(self, path, label_column, label_mapping: dict | None = None):
        self.path = Path(path)
        self.label_column = label_column
        self._strict = label_mapping is not None
        self.label_mapping: dict[str, int] = dict(label_mapping) if label_mapping else {}

    @property
    def n_classes(self) -> int:
        return len(self.label_mapping)

    def batches(self, batch_size: int):
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        with open(self.path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = read_csv_header(reader, self.path)
            label_idx = resolve_label_column(header, self.label_column, self.path)
            feature_idx = [j for j in range(len(header)) if j != label_idx]
            rows: list[list[float]] = []
            labels: list[int] = []
            for line_no, row in enumerate(reader, start=2):
                if not row:
                    continue
                values, raw_label = parse_csv_row(row, header, label_idx, feature_idx, self.path, line_no)
                if raw_label not in self.label_mapping:
                    if self._strict:
                        raise ValueError(
                            f"{self.path}: line {line_no}: label {raw_label!r} was not seen in training"
                        )
                    self.label_mapping[raw_label] = len(self.label_mapping)
                rows.append(values)
                labels.append(self.label_mapping[raw_label])
                if len(rows) == batch_size:
                    yield np.asarray(rows, dtype=np.float64), np.asarray(labels, dtype=np.int64)
                    rows, labels = [], []
            if rows:
                yield np.asarray(rows, dtype=np.float64), np.asarray(labels, dtype=np.int64)


class ArrayBatchSource:
    """Batched view over in-memory arrays (tests and small runs)."""

    def __init__(self, features, labels):
        self.features = np.asarray(features, dtype=np.float64)
        self.labels = np.asarray(labels, dtype=np.int64)
        if self.features.shape[0] != self.labels.shape[0]:
            raise ValueError("features and labels must have equal length")

    @property
    def n_classes(self) -> int:
        return int(self.labels.max()) + 1 if self.labels.size else 0

    def batches(self, batch_size: int):
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        for lo in range(0, self.features.shape[0], batch_size):
            yield self.features[lo:lo + batch_size], self.labels[lo:lo + batch_size]


@dataclass
class StreamConfig:
    train_source: object
    test_source: object | None
    batch_size: int
    work_dir: Path
    reservoir_size: int = DEFAULT_RESERVOIR_SIZE
    seed: int = 0
    weighted_mi: bool = False  # weight batch scores by record count instead of plain averaging

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.reservoir_size < 1:
            raise ValueError("reservoir_size must be >= 1")
        self.work_dir = Path(self.work_dir)


class _Reservoir:
    """Uniform reservoir sample (algorithm R). When the stream fits within
    capacity no randomness is consumed and the sample is the whole stream in
    arrival order, which is what makes small-data streaming exact."""

    def __init__(self, capacity: int, rng: np.random.Generator):
        self.capacity = capacity
        self.rng = rng
        self.values = np.empty(capacity, dtype=np.float64)
        self.size = 0
        self.seen = 0

    def add(self, vals: np.ndarray) -> None:
        m = vals.shape[0]
        fill = min(self.capacity - self.size, m)
        if fill:
            self.values[self.size:self.size + fill] = vals[:fill]
            self.size += fill
            self.seen += fill
        rest = m - fill
        if rest:
            highs = np.arange(self.seen + 1, self.seen + rest + 1)
            draws = self.rng.integers(0, highs)
            for offset in np.nonzero(draws < self.capacity)[0].tolist():
                self.values[draws[offset]] = vals[fill + offset]
            self.seen += rest

    def result(self) -> np.ndarray:
        return self.values[:self.size].copy()


def stream_fit_base(cfg: StreamConfig, spec: ReducerSpec) -> EncoderModel:
    """Passes 1 and 2: fit the reducer, then collect min/max, batch-averaged
    importance scores, and the copula reservoir. The model comes back at
    width 1; ``EncoderModel.at_width`` re-derives the allocation for any other
    width without re-streaming."""
    if spec.scheme not in ("none", "pca"):
        raise ValueError(f"streaming supports schemes 'none' and 'pca', not {spec.scheme!r}")

    # Pass 1: reducer accumulation.
    state: IncrementalPcaState | None = None
    count = 0
    n_features = None
    for x, _ in cfg.train_source.batches(cfg.batch_size):
        if n_features is None:
            n_features = x.shape[1]
            state = IncrementalPcaState.empty(n_features)
        if spec.scheme == "pca":
            state = incremental_update(state, x)
        count += x.shape[0]
    if n_features is None or count < 2:
        raise ValueError(f"train source must yield at least 2 samples, got {count}")

    if spec.scheme == "none":
        d = n_features if spec.n_components is None else spec.n_components
        if d != n_features:
            raise ValueError(f"scheme 'none' requires n_components == n ({n_features}), got {d}")
        reducer = FittedReducer(
            scheme="none",
            center=np.zeros(n_features),
            components=np.eye(n_features),
            explained_variance=np.zeros(n_features),
        )
    else:
        d = min(count, n_features) if spec.n_components is None else spec.n_components
        reducer = finalize_incremental(state, d)
    d = reducer.n_components

    # Pass 2: extrema, batch importance scores, copula reservoir.
    rng = np.random.default_rng(cfg.seed)
    reservoirs = [_Reservoir(cfg.reservoir_size, rng) for _ in range(d)]
    mins = np.full(d, np.inf)
    maxs = np.full(d, -np.inf)
    score_sum = np.zeros(d)
    score_weight = 0.0
    for x, y in cfg.train_source.batches(cfg.batch_size):
        if x.shape[0] == 0:
            continue
        reduced = transform(reducer, x)
        mins = np.minimum(mins, reduced.min(axis=0))
        maxs = np.maximum(maxs, reduced.max(axis=0))
        for j in range(d):
            reservoirs[j].add(reduced[:, j])
        if x.shape[0] >= 2:  # single-row batches carry no label information
            batch_scores = np.array(
                [estimate_mutual_information(reduced[:, j], y) for j in range(d)]
            )
            w = float(x.shape[0]) if cfg.weighted_mi else 1.0
            score_sum += w * batch_scores
            score_weight += w
    if score_weight == 0.0:
        raise ValueError("no batch held 2 or more samples; cannot score importances")
    importances = ImportanceScores(score_sum / score_weight)

    copula = CopulaModel(columns=tuple(
        np.sort(_normalize(r.result()[:, None], mins[j:j + 1], maxs[j:j + 1], clamp=True)[:, 0])
        for j, r in enumerate(reservoirs)
    ))
    return EncoderModel(reducer, mins, maxs, copula, allocate_bits(importances, 1), importances)


def stream_fit_encoder(cfg: StreamConfig, spec: ReducerSpec, n_x: int) -> EncoderModel:
    """Full streaming fit at one width: fitting passes, a final encoding pass
    writing ``work_dir/train.enc``, and the model persisted to
    ``work_dir/model.json``."""
    model = stream_fit_base(cfg, spec).at_width(n_x)
    cfg.work_dir.mkdir(parents=True, exist_ok=True)
    stream_encode(model, cfg.train_source, cfg.work_dir / "train.enc", cfg.batch_size)
    persist_model(model, cfg.work_dir / "model.json")
    return model


def stream_encode(model: EncoderModel, source, sink_path, batch_size: int = 4096) -> int:
    """Encode a record stream to an encoded-record file; memory stays bounded
    by one batch plus the model. Returns the record count."""

    def records():
        for x, y in source.batches(batch_size):
            yield from zip(encode_samples(model, x), y.tolist())

    return write_encoded(sink_path, model.width, records())


def stream_coverage(encoded_train_path, encoded_test_path, c: int) -> CoverageMetrics:
    """Coverage from two encoded-record files.

    Train collisions are counted as in the in-memory path. A test bitstring
    found in training counts its whole bucket as wrong iff the bucket's
    majority test label differs from the training majority label (the batched
    rule: per-bitstring majority stands in for per-sample truth).
    """
    train_width = read_encoded_header(encoded_train_path)
    test_width = read_encoded_header(encoded_test_path)
    if train_width != test_width:
        raise ValueError(f"width mismatch: train {train_width} != test {test_width}")
    train_table = build_table(iter_encoded(encoded_train_path), c)
    test_table = build_table(iter_encoded(encoded_test_path), c)
    return stream_coverage_from_tables(train_table, test_table)


def stream_coverage_from_tables(
    train_table: BitstringTable, test_table: BitstringTable
) -> CoverageMetrics:
    """The batched rule: each test bucket carries its majority label and its size."""
    if None not in (train_table.width, test_table.width) and train_table.width != test_table.width:
        raise ValueError(f"width mismatch: train {train_table.width} != test {test_table.width}")
    test_codes, test_counts = table_arrays(test_table)
    return code_coverage(*table_arrays(train_table), test_codes, test_counts.argmax(axis=1), test_counts.sum(axis=1))
