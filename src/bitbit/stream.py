"""Batched encoding for datasets too large for memory.

``stream_fit_base`` fits in at most two passes over the training stream: (1)
accumulate the PCA covariance (skipped for scheme ``none``, whose identity
reducer needs no fit), (2) ``encoder.fit_batches``, the same fit that
``fit_encoder`` runs on one in-memory batch: per-component min/max,
batch-averaged importance scores, and a copula reservoir.

``stream_sweep_curve`` then reads each split once more (the rank pass) and
spills every record's integer copula ranks and its label to ``work_dir`` as
D + 1 uint32 values, 4 * (D + 1) bytes per record. Ranks do not depend on the
width, so each swept width packs its codes from the spill a batch at a time
and merges per-batch code counts; memory grows with distinct codes, not
record count. The final ``train.enc``, ``test.enc`` and ``model.json`` are
written from the spill at the last swept width, and the spill files are
removed on success and on error.

A CSV is parsed once: wrapped in a ``RowSpill``, the training source's first
pass tees its float64 rows and label ids to a file, and the later passes
(pass 2 and the rank pass) read that file back instead of the CSV. The test
source is read only by its rank pass, so it needs no row spill.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from bitbit.coverage import (
    BitstringTable,
    CoverageMetrics,
    code_coverage,
    code_keys,
    count_codes,
    merge_counts,
    sweep_widths,
)
from bitbit.data import csv_batches, read_csv_header, resolve_label_column
from bitbit.data import parse_csv_row  # noqa: F401  importable here: the benchmark's tracer test looks it up
from bitbit.dimred import FittedReducer, IncrementalPcaState, ReducerSpec, finalize_incremental, incremental_update
from bitbit.encoder import (
    EncoderModel,
    _check_count,
    copula_ranks,
    fit_batches,
    pack_codes,
    persist_model,
    rank_units,
    write_packed,
)

DEFAULT_RESERVOIR_SIZE = 100_000


class CsvBatchSource:
    """Restartable batched reader over a headered CSV.

    Labels are mapped to contiguous ids by first appearance across the whole
    stream; pass an existing ``label_mapping`` to reuse a training-side
    mapping (unknown labels then become errors). A leading BOM is skipped.
    """

    def __init__(self, path, label_column, label_mapping: dict | None = None):
        self.path = Path(path)
        self.label_column = label_column
        self._strict = label_mapping is not None
        self.label_mapping: dict[str, int] = dict(label_mapping) if label_mapping else {}

    @property
    def n_classes(self) -> int:
        return len(self.label_mapping)

    def n_features(self) -> int:
        """The number of feature columns in the header; reads only the header row."""
        with open(self.path, newline="", encoding="utf-8-sig") as fh:
            header = read_csv_header(csv.reader(fh), self.path)
        resolve_label_column(header, self.label_column, self.path)
        return len(header) - 1

    def batches(self, batch_size: int):
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        with open(self.path, newline="", encoding="utf-8-sig") as fh:
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


def stream_fit_base(cfg: StreamConfig, spec: ReducerSpec) -> EncoderModel:
    """Fit the reducer (pass 1, PCA only), then run ``fit_batches`` over the
    training stream (pass 2). The model comes back at width 1;
    ``EncoderModel.at_width`` re-derives the allocation for any other width
    without re-streaming."""
    if spec.scheme not in ("none", "pca"):
        raise ValueError(f"streaming supports schemes 'none' and 'pca', not {spec.scheme!r}")
    reducer = _stream_fit_pca(cfg, spec) if spec.scheme == "pca" else None
    model = fit_batches(reducer, cfg.train_source.batches(cfg.batch_size), cfg.reservoir_size,
                        np.random.default_rng(cfg.seed), cfg.weighted_mi)
    n_features = model.reducer.n_features
    if spec.scheme == "none" and spec.n_components not in (None, n_features):
        raise ValueError(f"scheme 'none' requires n_components == n ({n_features}), got {spec.n_components}")
    return model


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


def _read_chunks(path, dtype, n_columns: int, batch_size: int):
    """Rows of ``n_columns`` values of ``dtype`` from ``path``, ``batch_size``
    rows per chunk; the last chunk is short, and empty when the row count is a
    multiple of ``batch_size``."""
    with open(path, "rb") as fh:
        while True:
            chunk = np.fromfile(fh, dtype=dtype, count=batch_size * n_columns).reshape(-1, n_columns)
            yield chunk
            if chunk.shape[0] < batch_size:
                return


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
        for chunk in _read_chunks(self.path, np.uint32, len(copula) + 1, batch_size):
            yield pack_codes(rank_units(copula, chunk[:, :-1]), bits), chunk[:, -1].astype(np.int64)

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


class RowSpill:
    """A batch source whose CSV is parsed once. The first pass over ``source``
    that runs to the end tees each batch to ``path`` as float64 rows of the
    n features then the label id, 8 * (n + 1) bytes per record; every later
    pass reads that file back in ``batch_size`` chunks and yields the same
    arrays and label ids. A pass broken off early leaves a file that no pass
    trusts, so the next pass reads ``source`` again. Passes run one at a time;
    the caller removes ``path``."""

    def __init__(self, source, path):
        self.source = source
        self.path = Path(path)
        self._n_columns: int | None = None  # set when a pass has written the whole source

    @property
    def label_mapping(self) -> dict[str, int]:
        return self.source.label_mapping

    @property
    def n_classes(self) -> int:
        return self.source.n_classes

    def batches(self, batch_size: int):
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self._n_columns is None:
            n_columns = 0
            with open(self.path, "wb") as fh:
                for x, y in self.source.batches(batch_size):
                    np.column_stack((x, y)).astype(np.float64, copy=False).tofile(fh)
                    n_columns = x.shape[1] + 1
                    yield x, y
            self._n_columns = n_columns
            return
        if not self._n_columns:  # zero columns: the source held no records
            return
        for chunk in _read_chunks(self.path, np.float64, self._n_columns, batch_size):
            if chunk.shape[0]:
                yield np.ascontiguousarray(chunk[:, :-1]), chunk[:, -1].astype(np.int64)


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


def batched_coverage(train_table: BitstringTable, test_table: BitstringTable) -> CoverageMetrics:
    """The batched rule: a test bucket whose code occurs in training errs as a
    whole iff its majority test label differs from the training majority."""
    counts = test_table.counts
    return code_coverage(train_table, test_table.codes, counts.argmax(axis=1), counts.sum(axis=1))
