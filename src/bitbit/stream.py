"""Batched encoding for datasets too large for memory.

``stream_fit_base`` fits in at most two passes over the training stream: (1)
accumulate the PCA covariance (skipped for scheme ``none``, whose identity
reducer needs no fit), (2) transform batches to collect per-component
min/max, batch-averaged importance scores, and a copula reservoir.

``stream_sweep_curve`` then reads each split once more (the rank pass) and
spills every record's integer copula ranks and its label to ``work_dir`` as
D + 1 uint32 values, 4 * (D + 1) bytes per record. Ranks do not depend on the
width, so each swept width packs its codes from the spill a batch at a time
and merges per-batch code counts; memory grows with distinct codes, not
record count. The final ``train.enc``, ``test.enc`` and ``model.json`` are
written from the spill at the last swept width, and the spill files are
removed on success and on error.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from bitbit.coverage import (
    BitstringTable,
    CoverageMetrics,
    build_table,
    code_coverage,
    code_keys,
    count_codes,
    merge_counts,
    sweep_widths,
)
from bitbit.data import csv_batches, read_csv_header, resolve_label_column
from bitbit.data import parse_csv_row  # noqa: F401  importable here: the benchmark's tracer test looks it up
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
    copula_ranks,
    copula_units,
    estimate_mutual_information,
    iter_encoded,
    pack_codes,
    persist_model,
    rank_units,
    read_encoded_header,
    write_packed,
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
            yield from csv_batches(reader, header, label_idx, self.path, batch_size, self.label_mapping, self._strict)


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
    """Fit the reducer (pass 1, PCA only), then collect min/max, batch-averaged
    importance scores, and the copula reservoir (pass 2). The model comes back
    at width 1; ``EncoderModel.at_width`` re-derives the allocation for any
    other width without re-streaming."""
    if spec.scheme not in ("none", "pca"):
        raise ValueError(f"streaming supports schemes 'none' and 'pca', not {spec.scheme!r}")
    reducer = _stream_fit_pca(cfg, spec) if spec.scheme == "pca" else None

    # Pass 2: extrema, batch importance scores, copula reservoir.
    rng = np.random.default_rng(cfg.seed)
    count = 0
    score_weight = 0.0
    for x, y in cfg.train_source.batches(cfg.batch_size):
        if x.shape[0] == 0:
            continue
        if count == 0:  # the first rows; scheme 'none' takes its identity reducer from their width
            if reducer is None:
                reducer = _identity_reducer(x.shape[1])
            d = reducer.n_components
            reservoirs = [_Reservoir(cfg.reservoir_size, rng) for _ in range(d)]
            mins = np.full(d, np.inf)
            maxs = np.full(d, -np.inf)
            score_sum = np.zeros(d)
        count += x.shape[0]
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
    if spec.scheme == "none":
        _check_count(count)
        n_features = reducer.n_features
        d = n_features if spec.n_components is None else spec.n_components
        if d != n_features:
            raise ValueError(f"scheme 'none' requires n_components == n ({n_features}), got {d}")
    if score_weight == 0.0:
        raise ValueError("no batch held 2 or more samples; cannot score importances")
    importances = ImportanceScores(score_sum / score_weight)

    copula = CopulaModel(columns=tuple(
        np.sort(_normalize(r.result()[:, None], mins[j:j + 1], maxs[j:j + 1], clamp=True)[:, 0])
        for j, r in enumerate(reservoirs)
    ))
    return EncoderModel(reducer, mins, maxs, copula, allocate_bits(importances, 1), importances)


def _stream_fit_pca(cfg: StreamConfig, spec: ReducerSpec) -> FittedReducer:
    """Pass 1: accumulate the covariance over the training stream."""
    state: IncrementalPcaState | None = None
    count = 0
    for x, _ in cfg.train_source.batches(cfg.batch_size):
        if state is None:
            state = IncrementalPcaState.empty(x.shape[1])
        state = incremental_update(state, x)
        count += x.shape[0]
    _check_count(count)
    d = min(count, state.n_features) if spec.n_components is None else spec.n_components
    return finalize_incremental(state, d)


def _identity_reducer(n_features: int) -> FittedReducer:
    return FittedReducer(
        scheme="none",
        center=np.zeros(n_features),
        components=np.eye(n_features),
        explained_variance=np.zeros(n_features),
    )


def _check_count(count: int) -> None:
    if count < 2:
        raise ValueError(f"train source must yield at least 2 samples, got {count}")


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
    return write_packed(sink_path, model.width, (
        (pack_codes(copula_units(model, x), model.allocation.bits), y)
        for x, y in source.batches(batch_size)
    ))


class RankSpill:
    """One split's copula ranks and labels on disk, one row of D + 1 uint32
    values per record: the D ranks of ``copula_ranks``, then the label id."""

    def __init__(self, path, model: EncoderModel):
        self.path = Path(path)
        self.model = model

    def write(self, source, batch_size: int) -> None:
        """The rank pass: one read of ``source``."""
        if max(col.shape[0] for col in self.model.copula.columns) >= 2**32:
            raise ValueError("copula columns of 2**32 or more values do not fit a uint32 rank")
        with open(self.path, "wb") as fh:
            for x, y in source.batches(batch_size):
                np.column_stack((copula_ranks(self.model, x), y)).astype(np.uint32).tofile(fh)

    def codes(self, bits, batch_size: int):
        """(``pack_codes`` words, label ids) per chunk of ``batch_size`` records;
        the last chunk may be short or empty."""
        copula = self.model.copula
        n_columns = len(copula) + 1
        with open(self.path, "rb") as fh:
            while True:
                chunk = np.fromfile(fh, dtype=np.uint32, count=batch_size * n_columns).reshape(-1, n_columns)
                yield pack_codes(rank_units(copula, chunk[:, :-1]), bits), chunk[:, -1].astype(np.int64)
                if chunk.shape[0] < batch_size:
                    return

    def table(self, bits, c: int, batch_size: int) -> BitstringTable:
        """``count_codes`` over the whole split. Per-chunk tables are merged once
        they hold as many codes as the merged table, so memory stays within
        about twice the distinct codes plus one chunk."""
        tables: list[BitstringTable] = []
        for words, labels in self.codes(bits, batch_size):
            tables.append(count_codes(code_keys(words), labels, c, sum(bits)))
            if len(tables) > 1 and sum(t.codes.shape[0] for t in tables[1:]) >= tables[0].codes.shape[0]:
                tables = [merge_counts(tables)]
        return tables[0] if len(tables) == 1 else merge_counts(tables)


def stream_sweep_curve(
    cfg: StreamConfig,
    base: EncoderModel,
    c: int,
    stop_threshold: float,
    n_x_max: int,
    step: int,
) -> list[tuple[int, CoverageMetrics]]:
    """``sweep_widths`` over ``cfg.train_source`` and ``cfg.test_source`` with
    the batched test rule, after one rank pass over each. Writes
    ``train.enc``, ``test.enc`` and ``model.json`` to ``work_dir`` at the last
    swept width; the rank spill files there are removed on success and error."""
    if cfg.test_source is None:
        raise ValueError("stream_sweep_curve needs a test_source")
    cfg.work_dir.mkdir(parents=True, exist_ok=True)
    spills = {name: RankSpill(cfg.work_dir / f"{name}.ranks", base) for name in ("train", "test")}
    try:
        spills["train"].write(cfg.train_source, cfg.batch_size)
        spills["test"].write(cfg.test_source, cfg.batch_size)

        def measure(bits):
            return batched_coverage(spills["train"].table(bits, c, cfg.batch_size),
                                    spills["test"].table(bits, c, cfg.batch_size))

        curve = sweep_widths(base.importances, measure, stop_threshold, n_x_max, step)
        model = base.at_width(curve[-1][0])
        for name, spill in spills.items():
            write_packed(cfg.work_dir / f"{name}.enc", model.width,
                         spill.codes(model.allocation.bits, cfg.batch_size))
        persist_model(model, cfg.work_dir / "model.json")
    finally:
        for spill in spills.values():
            spill.path.unlink(missing_ok=True)
    return curve


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
    if None not in (train_table.width, test_table.width) and train_table.width != test_table.width:
        raise ValueError(f"width mismatch: train {train_table.width} != test {test_table.width}")
    return batched_coverage(train_table, test_table)


def batched_coverage(train_table: BitstringTable, test_table: BitstringTable) -> CoverageMetrics:
    """The batched rule: each test bucket carries its majority label and its size."""
    counts = test_table.counts
    return code_coverage(train_table, test_table.codes, counts.argmax(axis=1), counts.sum(axis=1))
