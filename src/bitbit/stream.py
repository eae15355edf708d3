"""Batched encoding for datasets too large for memory.

``stream_fit_base`` is ``fit_encoder`` over batches: two passes over the
training stream, (1) ``dimred.fit_reducer``, (2) ``encoder.fit_batches``:
per-component min/max, batch-averaged importance scores, and a copula
reservoir. Scheme ``lsa`` streams only as one non-empty batch.

``stream_sweep_curve`` then reads each split once more (the rank pass) and
writes every record's integer copula ranks and its label to a uint32
``Spill`` in ``work_dir`` (``RANK_SPILLS``: training, then test), 4 * (D + 1)
bytes per record. Ranks do not depend on the width, so each swept width packs
its codes from the spill a batch at a time and merges per-batch code counts;
memory grows with distinct codes, not record count. The final encoding
(``encoder.write_encoding``) is written from the spills at the last swept
width, and the spill files are removed on success and on error.

``Spill`` is the one on-disk batch format: per record, its values, then its
label id. ``stream-estimate`` parses the training CSV once, before the fit,
into a float64 ``Spill`` that the reducer, fit and rank passes read; the test
CSV is read only by its rank pass.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from bitbit.coverage import CoverageMetrics, check_sweep, sweep_widths
from bitbit.data import csv_batches, open_text, read_csv_header, resolve_label_column
from bitbit.data import parse_csv_row  # noqa: F401  importable here: the benchmark's tracer test looks it up
from bitbit.dimred import ReducerSpec, fit_reducer
from bitbit.encoder import (
    EncoderModel,
    copula_ranks,
    fit_batches,
    pack_codes,
    rank_units,
    write_encoding,
)

DEFAULT_RESERVOIR_SIZE = 100_000
RANK_SPILLS = ("train.ranks", "test.ranks")


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

    def feature_names(self) -> tuple[str, ...]:
        """The header's feature column names, in order; reads only the header row."""
        with open_text(self.path) as fh:
            header = read_csv_header(fh, self.path)
        label_idx = resolve_label_column(header, self.label_column, self.path)
        return tuple(header[:label_idx] + header[label_idx + 1:])

    def batches(self, batch_size: int):
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        with open_text(self.path) as fh:
            header = read_csv_header(fh, self.path)
            label_idx = resolve_label_column(header, self.label_column, self.path)
            yield from csv_batches(fh, header, label_idx, self.path, batch_size, self.label_mapping, self._strict)


class ArrayBatchSource:
    """Batched view over in-memory arrays (tests and small runs)."""

    def __init__(self, features, labels):
        self.features = np.asarray(features, dtype=np.float64)
        self.labels = np.asarray(labels, dtype=np.int64)
        if self.features.shape[0] != self.labels.shape[0]:
            raise ValueError("features and labels must have equal length")

    def batches(self, batch_size: int):
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        for lo in range(0, self.features.shape[0], batch_size):
            yield self.features[lo:lo + batch_size], self.labels[lo:lo + batch_size]


def stream_fit_base(train_source, spec: ReducerSpec, batch_size: int, reservoir_size: int = DEFAULT_RESERVOIR_SIZE,
                    seed: int = 0, weighted_mi: bool = False) -> EncoderModel:
    """The two calls of ``fit_encoder`` over two passes of ``train_source``:
    ``fit_reducer``, then ``fit_batches`` with a reservoir of ``reservoir_size``
    values per component, drawn from a generator seeded with ``seed``. The
    model comes back at width 1; ``EncoderModel.at_width`` re-derives the
    allocation for any other width without re-streaming."""
    reducer = fit_reducer(spec, (x for x, _ in train_source.batches(batch_size)))
    return fit_batches(reducer, train_source.batches(batch_size), reservoir_size,
                       np.random.default_rng(seed), weighted_mi)


class Spill:
    """Records on disk, one row of ``n_columns`` values of ``dtype`` per record:
    the record's values, then its label id. Holds the training CSV as float64
    rows (8 * (n + 1) bytes per record) and each split's copula ranks as uint32
    rows (4 * (D + 1) bytes per record); the caller removes ``path``."""

    def __init__(self, path, dtype, n_columns: int):
        self.path = Path(path)
        self.dtype = np.dtype(dtype)
        self.n_columns = n_columns

    def write(self, batches) -> int:
        """Store one pass of (values, labels) batches; returns the record count."""
        count = 0
        with open(self.path, "wb") as fh:
            for x, y in batches:
                np.column_stack((x, y)).astype(self.dtype, copy=False).tofile(fh)
                count += len(y)
        return count

    def batches(self, batch_size: int):
        """(values, int64 label ids) per ``batch_size`` records, values
        contiguous; the last chunk is short, and empty when the record count
        is a multiple of ``batch_size``. No read asks for more records than are left."""
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        n_records = self.path.stat().st_size // (self.dtype.itemsize * self.n_columns)
        with open(self.path, "rb") as fh:
            for lo in range(0, n_records + 1, batch_size):
                count = min(batch_size, n_records - lo) * self.n_columns
                chunk = np.fromfile(fh, dtype=self.dtype, count=count).reshape(-1, self.n_columns)
                yield np.ascontiguousarray(chunk[:, :-1]), chunk[:, -1].astype(np.int64)


def _spill_codes(spill: Spill, copula, bits, batch_size: int):
    """(``pack_codes`` words, label ids) per chunk of a rank spill."""
    for ranks, labels in spill.batches(batch_size):
        yield pack_codes(rank_units(copula, ranks), bits), labels


def stream_sweep_curve(train_source, test_source, base: EncoderModel, c: int, batch_size: int, work_dir,
                       n_x_max: int, step: int) -> list[tuple[int, CoverageMetrics]]:
    """``sweep_widths`` over ``train_source`` and ``test_source`` with the
    batched test rule, after one rank pass over each into ``RANK_SPILLS``.
    Writes the encoding at the last swept width to ``work_dir``; the rank
    spills there are removed on success and error."""
    check_sweep(n_x_max, step)
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    copula = base.copula
    if max(col.shape[0] for col in copula.columns) >= 2**32:
        raise ValueError("copula columns of 2**32 or more values do not fit a uint32 rank")
    work_dir = Path(work_dir)
    work_dir.mkdir(parents=True, exist_ok=True)
    spills = [Spill(work_dir / name, np.uint32, len(copula) + 1) for name in RANK_SPILLS]
    try:
        for spill, source in zip(spills, (train_source, test_source)):
            spill.write((copula_ranks(base, x), y) for x, y in source.batches(batch_size))

        def codes(bits):
            return tuple(_spill_codes(spill, copula, bits, batch_size) for spill in spills)

        curve = sweep_widths(base.importances, codes, c, True, n_x_max, step)
        write_encoding(work_dir, base.at_width(curve[-1][0]), codes)
    finally:
        for spill in spills:
            spill.path.unlink(missing_ok=True)
    return curve
