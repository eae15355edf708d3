"""Collision and overlap analytics over encoded datasets, and the qubit sweep.

Terminology: a training sample "collides" when its bucket (all samples
sharing its bitstring) is not dominated by its class; a test sample
"overlaps" when its bitstring occurs in training. Theoretical accuracies are
the exact complements of the two incidences and bound what any classifier on
the encoding can achieve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from bitbit.data import Dataset
from bitbit.dimred import ReducerSpec
from bitbit.encoder import (
    Bitstring,
    ImportanceScores,
    allocate_bits,
    fit_encoder,
    packed_values,
    split_codes,
)


@dataclass(frozen=True)
class BitstringTable:
    """Per-class sample counts of fixed-width codes: ``counts[i, k]`` samples of
    class k carry code ``codes[i]``. ``codes`` are sorted and unique, with the
    ``code_keys`` dtype (uint64 up to 64 bits, Python ints above); ``counts`` is
    int64 of shape (codes, classes). ``width`` is None only for a table of no
    records."""

    codes: np.ndarray
    counts: np.ndarray
    width: int | None

    def __post_init__(self):
        self.counts.setflags(write=False)

    @property
    def c(self) -> int:
        return self.counts.shape[1]

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def build_table(encoded: Iterable[tuple[Bitstring, int]], c: int) -> BitstringTable:
    """Aggregate (bitstring, label) records into per-class counts."""
    if c < 1:
        raise ValueError("c must be positive")
    values: list[int] = []
    labels: list[int] = []
    width: int | None = None
    for z, label in encoded:
        if width is None:
            width = z.width
        elif z.width != width:
            raise ValueError(f"mixed widths in input: {z.width} != {width}")
        label = int(label)
        if not 0 <= label < c:
            raise ValueError(f"label {label} out of range for c={c}")
        values.append(z.value)
        labels.append(label)
    keys = np.array(values, dtype=np.uint64 if width is None or width <= 64 else object)
    return count_codes(keys, np.array(labels, dtype=np.int64), c, width)


def train_collision_incidence(t: BitstringTable) -> float:
    """Fraction of samples that do not belong to their bucket's majority class."""
    total = t.total
    if total == 0:
        raise ValueError("empty table")
    return (total - int(t.counts.max(axis=1).sum())) / total


@dataclass(frozen=True)
class CoverageMetrics:
    """Incidences, their exact accuracy complements, and the raw counts behind them."""

    train_collision_incidence: float
    test_overlap_incidence: float
    theoretical_train_accuracy: float
    theoretical_test_accuracy: float
    test_train_overlap_fraction: float
    n_train: int
    n_test: int
    n_test_overlapping: int
    n_test_overlap_errors: int

    @classmethod
    def from_counts(cls, train_incidence, n_train, errors, overlapping, n_test):
        test_incidence = errors / n_test if n_test else 0.0
        return cls(
            train_collision_incidence=train_incidence,
            test_overlap_incidence=test_incidence,
            theoretical_train_accuracy=1.0 - train_incidence,
            theoretical_test_accuracy=1.0 - test_incidence,
            test_train_overlap_fraction=overlapping / n_test if n_test else 0.0,
            n_train=n_train,
            n_test=n_test,
            n_test_overlapping=overlapping,
            n_test_overlap_errors=errors,
        )


def count_codes(keys: np.ndarray, labels: np.ndarray, c: int, width: int | None) -> BitstringTable:
    """The count table of records with these code keys and label ids."""
    codes, inverse = np.unique(keys, return_inverse=True)
    counts = np.bincount(inverse * c + labels, minlength=codes.shape[0] * c)
    return BitstringTable(codes, counts.reshape(codes.shape[0], c), width)


def count_table(chunks: Iterable[tuple[np.ndarray, np.ndarray]], c: int, width: int) -> BitstringTable:
    """The count table of ``(pack_codes words, label ids)`` chunks, at least
    one. Per-chunk tables are merged once they hold as many codes as the
    merged table, so memory stays within about twice the distinct codes plus
    one chunk."""
    tables: list[BitstringTable] = []
    for words, labels in chunks:
        tables.append(count_codes(code_keys(words), labels, c, width))
        if len(tables) > 1 and sum(t.codes.shape[0] for t in tables[1:]) >= tables[0].codes.shape[0]:
            tables = [merge_counts(tables)]
    return tables[0] if len(tables) == 1 else merge_counts(tables)


def merge_counts(tables: Sequence[BitstringTable]) -> BitstringTable:
    """Sum count tables of one width and class count into one."""
    codes, inverse = np.unique(np.concatenate([t.codes for t in tables]), return_inverse=True)
    counts = np.zeros((codes.shape[0], tables[0].c), dtype=np.int64)
    np.add.at(counts, inverse, np.concatenate([t.counts for t in tables]))
    return BitstringTable(codes, counts, tables[0].width)


def code_coverage(train: BitstringTable, test: BitstringTable, batched: bool = False) -> CoverageMetrics:
    """Coverage of a test count table against a training one; test codes not
    in training neither err nor overlap. Per-sample rule: a test record errs
    iff its label is not its code's training majority (ties go to the
    smallest class). With ``batched``, the streaming rule: a test bucket errs
    as a whole iff its own majority is not the training majority. Tables of
    two widths are refused."""
    if None not in (train.width, test.width) and test.width != train.width:
        raise ValueError(f"test width {test.width} != table width {train.width}")
    train_incidence = train_collision_incidence(train)
    pos = np.minimum(np.searchsorted(train.codes, test.codes), train.codes.shape[0] - 1)
    hit = train.codes[pos] == test.codes
    majority = train.counts.argmax(axis=1)[pos]
    sizes = test.counts.sum(axis=1)
    # Records of each test code judged right: those of its training majority's
    # class, or with ``batched`` the whole bucket when its own majority is that class.
    right = (np.where(test.counts.argmax(axis=1) == majority, sizes, 0) if batched
             else test.counts[np.arange(sizes.shape[0]), majority])
    overlapping = int(sizes[hit].sum())
    return CoverageMetrics.from_counts(
        train_incidence=train_incidence,
        n_train=train.total,
        errors=overlapping - int(right[hit].sum()),
        overlapping=overlapping,
        n_test=int(sizes.sum()),
    )


def compute_q_y(c: int) -> int:
    """Qubits needed for the class register: ceil(log2 c)."""
    if c < 2:
        raise ValueError(f"need at least 2 classes, got {c}")
    return (c - 1).bit_length()


@dataclass(frozen=True)
class QubitEstimate:
    """Coverage curve plus the derived qubit counts at one accuracy threshold.

    q_train / q_test are the first swept widths whose respective theoretical
    accuracy reaches the threshold (accuracy may dip afterwards; the first
    crossing is what counts). They are None when the sweep hit its cap
    without crossing, in which case the estimate is not covered.
    """

    curve: tuple[tuple[int, CoverageMetrics], ...]
    q_train: int | None
    q_test: int | None
    q_y: int
    q_dataset: int | None
    threshold: float

    @property
    def covered(self) -> bool:
        return self.q_dataset is not None


def estimate_from_curve(
    curve: Sequence[tuple[int, CoverageMetrics]], threshold: float, c: int
) -> QubitEstimate:
    """Derive first-crossing qubit counts from an already-computed curve."""
    _check_threshold(threshold)
    q_train = q_test = None
    for n_x, metrics in curve:
        if q_train is None and metrics.theoretical_train_accuracy >= threshold:
            q_train = n_x
        if q_test is None and metrics.theoretical_test_accuracy >= threshold:
            q_test = n_x
    q_y = compute_q_y(c)
    q_dataset = max(q_train, q_test) + q_y if q_train is not None and q_test is not None else None
    return QubitEstimate(
        curve=tuple(curve),
        q_train=q_train,
        q_test=q_test,
        q_y=q_y,
        q_dataset=q_dataset,
        threshold=threshold,
    )


def sweep_widths(importances: ImportanceScores, codes: Callable[[tuple[int, ...]], tuple[Iterable, Iterable]],
                 c: int, batched: bool, n_x_max: int, step: int) -> list[tuple[int, CoverageMetrics]]:
    """Coverage at widths 1, 1+step, ..., up to ``n_x_max``, stopping once the
    train and test accuracies have each reached 1.0. Only the bit allocation
    depends on the width: ``codes`` maps it to the training and test
    ``(pack_codes words, label ids)`` chunks, which are counted with
    ``count_table`` and judged by ``code_coverage`` with ``batched``."""
    check_sweep(n_x_max, step)
    curve: list[tuple[int, CoverageMetrics]] = []
    train_met = test_met = False
    for n_x in range(1, n_x_max + 1, step):
        splits = codes(allocate_bits(importances, n_x).bits)
        metrics = code_coverage(*(count_table(chunks, c, n_x) for chunks in splits), batched=batched)
        curve.append((n_x, metrics))
        train_met = train_met or metrics.theoretical_train_accuracy >= 1.0
        test_met = test_met or metrics.theoretical_test_accuracy >= 1.0
        if train_met and test_met:
            break
    return curve


def sweep_curve(train: Dataset, test: Dataset, spec: ReducerSpec, n_x_max: int,
                step: int) -> list[tuple[int, CoverageMetrics]]:
    """``sweep_widths`` over in-memory data with the per-sample rule: the
    encoder is fitted and both splits ranked once, then each width packs them."""
    check_sweep(n_x_max, step)
    model = fit_encoder(train, spec, 1)
    return sweep_widths(model.importances, split_codes(model, train, test), train.c, False, n_x_max, step)


def code_keys(words: np.ndarray) -> np.ndarray:
    """One sortable key per row of packed words."""
    return words[:, 0] if words.shape[1] == 1 else np.array(packed_values(words), dtype=object)


def sweep_qubits(train: Dataset, test: Dataset, spec: ReducerSpec, threshold: float = 1.0, n_x_max: int = 128,
                 step: int = 1) -> QubitEstimate:
    """Sweep encoder widths to full coverage and report the qubit requirement at ``threshold``."""
    _check_threshold(threshold)
    return estimate_from_curve(sweep_curve(train, test, spec, n_x_max, step), threshold, train.c)


def check_sweep(n_x_max: int, step: int) -> None:
    if step < 1:
        raise ValueError("step must be >= 1")
    if n_x_max < 1:
        raise ValueError("n_x_max must be >= 1")


def _check_threshold(threshold: float) -> None:
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"threshold must be in (0, 1], got {threshold}")
