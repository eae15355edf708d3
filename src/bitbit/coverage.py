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
    copula_units,
    fit_encoder,
    pack_codes,
    packed_values,
)


@dataclass
class BitstringTable:
    """Unique bitstrings with per-class sample counts."""

    entries: dict[Bitstring, np.ndarray]
    c: int
    width: int | None
    total: int

    def __contains__(self, z: Bitstring) -> bool:
        return z in self.entries


def build_table(encoded: Iterable[tuple[Bitstring, int]], c: int) -> BitstringTable:
    """Aggregate (bitstring, label) records into per-class counts."""
    if c < 1:
        raise ValueError("c must be positive")
    entries: dict[Bitstring, np.ndarray] = {}
    width: int | None = None
    total = 0
    for z, label in encoded:
        if width is None:
            width = z.width
        elif z.width != width:
            raise ValueError(f"mixed widths in input: {z.width} != {width}")
        label = int(label)
        if not 0 <= label < c:
            raise ValueError(f"label {label} out of range for c={c}")
        counts = entries.get(z)
        if counts is None:
            counts = np.zeros(c, dtype=np.int64)
            entries[z] = counts
        counts[label] += 1
        total += 1
    return BitstringTable(entries=entries, c=c, width=width, total=total)


def majority_label(t: BitstringTable, z: Bitstring) -> int:
    """Most frequent class for a bitstring; ties go to the smallest class id."""
    counts = t.entries.get(z)
    if counts is None:
        raise KeyError(f"bitstring {z.to_bits()} not present in the table")
    return int(np.argmax(counts))


def train_collision_incidence(t: BitstringTable) -> float:
    """Fraction of samples that do not belong to their bucket's majority class."""
    if t.total == 0:
        raise ValueError("empty table")
    colliding = sum(int(counts.sum() - counts.max()) for counts in t.entries.values())
    return colliding / t.total


def test_overlap_incidence(t: BitstringTable, encoded_test: Sequence[tuple[Bitstring, int]]) -> tuple[float, float]:
    """(incidence, overlap_fraction) for a test set against a training table.

    A test sample errs iff its bitstring occurs in training and its label is
    not the training bucket's majority; unseen bitstrings count as correct.
    """
    m = coverage_metrics(t, encoded_test)
    return m.test_overlap_incidence, m.test_train_overlap_fraction


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


def coverage_metrics(table: BitstringTable, encoded_test: Sequence[tuple[Bitstring, int]]) -> CoverageMetrics:
    """Per-sample rule: each test sample is judged against its training bucket."""
    values, labels = [], []
    for z, label in encoded_test:
        if table.width is not None and z.width != table.width:
            raise ValueError(f"test width {z.width} != table width {table.width}")
        values.append(z.value)
        labels.append(int(label))
    codes, counts = table_arrays(table)
    return code_coverage(codes, counts, _value_keys(values, table.width), np.array(labels, dtype=np.int64))


def table_arrays(t: BitstringTable) -> tuple[np.ndarray, np.ndarray]:
    """The table as sorted code keys and the matching (codes x classes) counts."""
    codes = _value_keys([z.value for z in t.entries], t.width)
    counts = np.array(list(t.entries.values()), dtype=np.int64).reshape(len(codes), t.c)
    order = np.argsort(codes)
    return codes[order], counts[order]


def _value_keys(values: list[int], width: int | None) -> np.ndarray:
    return np.array(values, dtype=np.uint64 if width is None or width <= 64 else object)


def count_codes(keys: np.ndarray, labels: np.ndarray, c: int) -> tuple[np.ndarray, np.ndarray]:
    """Sorted unique code keys and their (codes x classes) sample counts."""
    codes, inverse = np.unique(keys, return_inverse=True)
    counts = np.bincount(inverse * c + labels, minlength=codes.shape[0] * c)
    return codes, counts.reshape(codes.shape[0], c)


def merge_counts(tables: Sequence[tuple[np.ndarray, np.ndarray]], c: int) -> tuple[np.ndarray, np.ndarray]:
    """Sum ``count_codes`` tables into one: sorted unique codes and their counts."""
    codes, inverse = np.unique(np.concatenate([t[0] for t in tables]), return_inverse=True)
    counts = np.zeros((codes.shape[0], c), dtype=np.int64)
    np.add.at(counts, inverse, np.concatenate([t[1] for t in tables]))
    return codes, counts


def code_coverage(codes, counts, test_keys, test_labels, test_weights=None) -> CoverageMetrics:
    """Coverage of test records against a training count table (``count_codes``).

    A record found in training errs iff its label is not the training majority
    (ties go to the smallest class). Each record stands for ``test_weights``
    samples, default 1: the per-sample rule. Test buckets weighted by their
    size and labelled with their own majority give the batched streaming rule.
    """
    n_train = int(counts.sum())
    if n_train == 0:
        raise ValueError("empty table")
    weights = np.ones(test_keys.shape[0], dtype=np.int64) if test_weights is None else test_weights
    pos = np.minimum(np.searchsorted(codes, test_keys), codes.shape[0] - 1)
    hit = codes[pos] == test_keys
    wrong = hit & (counts.argmax(axis=1)[pos] != test_labels)
    return CoverageMetrics.from_counts(
        train_incidence=(n_train - int(counts.max(axis=1).sum())) / n_train,
        n_train=n_train,
        errors=int(weights[wrong].sum()),
        overlapping=int(weights[hit].sum()),
        n_test=int(weights.sum()),
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


def sweep_widths(
    importances: ImportanceScores,
    measure: Callable[[tuple[int, ...]], CoverageMetrics],
    stop_threshold: float,
    n_x_max: int,
    step: int,
) -> list[tuple[int, CoverageMetrics]]:
    """Coverage at widths 1, 1+step, ..., stopping early once the train and
    test accuracies have each crossed ``stop_threshold`` at least once.
    Only the bit allocation depends on the width: ``measure`` maps it to the
    coverage of codes packed with it."""
    _check_sweep(stop_threshold, n_x_max, step)
    curve: list[tuple[int, CoverageMetrics]] = []
    train_met = test_met = False
    for n_x in range(1, n_x_max + 1, step):
        metrics = measure(allocate_bits(importances, n_x).bits)
        curve.append((n_x, metrics))
        train_met = train_met or metrics.theoretical_train_accuracy >= stop_threshold
        test_met = test_met or metrics.theoretical_test_accuracy >= stop_threshold
        if train_met and test_met:
            break
    return curve


def sweep_curve(
    train: Dataset,
    test: Dataset,
    spec: ReducerSpec,
    stop_threshold: float,
    n_x_max: int,
    step: int,
) -> list[tuple[int, CoverageMetrics]]:
    """``sweep_widths`` over in-memory data: the encoder is fitted and both
    sets ranked once, then each width packs, counts and compares codes."""
    _check_sweep(stop_threshold, n_x_max, step)
    model = fit_encoder(train, spec, 1)
    unit_train = copula_units(model, train.features)
    unit_test = copula_units(model, test.features)

    def measure(bits):
        codes, counts = count_codes(code_keys(pack_codes(unit_train, bits)), train.labels, train.c)
        return code_coverage(codes, counts, code_keys(pack_codes(unit_test, bits)), test.labels)

    return sweep_widths(model.importances, measure, stop_threshold, n_x_max, step)


def code_keys(words: np.ndarray) -> np.ndarray:
    """One sortable key per row of packed words."""
    return words[:, 0] if words.shape[1] == 1 else np.array(packed_values(words), dtype=object)


def sweep_qubits(
    train: Dataset,
    test: Dataset,
    spec: ReducerSpec,
    threshold: float = 1.0,
    n_x_max: int = 128,
    step: int = 1,
) -> QubitEstimate:
    """Sweep encoder widths and report the qubit requirement at ``threshold``."""
    curve = sweep_curve(train, test, spec, threshold, n_x_max, step)
    return estimate_from_curve(curve, threshold, train.c)


def _check_sweep(stop_threshold: float, n_x_max: int, step: int) -> None:
    _check_threshold(stop_threshold)
    if step < 1:
        raise ValueError("step must be >= 1")
    if n_x_max < 1:
        raise ValueError("n_x_max must be >= 1")


def _check_threshold(threshold: float) -> None:
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"threshold must be in (0, 1], got {threshold}")
