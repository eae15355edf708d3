"""Seeded inputs and the command line of each workload.

The inputs are Gaussian blobs: labels ``arange(s) % c`` in a seeded random
order, features ``standard_normal((s, n)) + separation * label``. This is the
recipe of ``bitbit make-synthetic``, rewritten here with plain numpy so that a
change to the program cannot change what the benchmark feeds it. Values are
written with ``repr``, so the same seed gives byte-identical CSVs.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Blobs:
    rows: int
    features: int
    classes: int
    separation: float


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    blobs: Blobs
    # Rows of the generated set that go to a separate test CSV; 0 writes one CSV.
    test_rows: int
    # The bitbit command line, run in the directory that holds the inputs.
    command: tuple[str, ...]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "estimate-table1",
            "the paper's own traffic: a Table-1-sized estimate where per-width refits dominate, "
            "with two jobs on two cores",
            Blobs(569, 30, 2, 0.5),
            0,
            ("estimate", "--input", "data.csv", "--scheme", "pca", "--replicates", "10",
             "--jobs", "2", "--output", "out/report.json"),
        ),
        Workload(
            "stream-large",
            "streaming over 60k + 15k CSV rows: CSV ingest, repeated passes and .enc files dominate",
            Blobs(75_000, 8, 4, 1.0),
            15_000,
            ("stream-estimate", "--train-input", "train.csv", "--test-input",
             "test.csv", "--scheme", "pca", "--batch-size", "6000",
             "--output", "out/report.json"),
        ),
        Workload(
            "train-ceiling",
            "training at 8 qubits: the statevector simulator is nearly all the time, "
            "encoder and coverage run at one width",
            Blobs(2_000, 4, 4, 1.0),
            0,
            ("train", "--input", "data.csv", "--n-x", "6", "--layers", "4", "--sweeps", "3",
             "--seed", "1", "--output", "out/trace.csv"),
        ),
    )
}


def make_blobs(spec: Blobs, seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    labels = np.arange(spec.rows, dtype=np.int64) % spec.classes
    labels = labels[rng.permutation(spec.rows)]
    features = rng.standard_normal((spec.rows, spec.features)) + spec.separation * labels[:, None]
    return features, labels


def write_csv(path: Path, features: np.ndarray, labels: np.ndarray) -> int:
    """Write a headered CSV (f0..f<n-1>,label); returns its size in bytes."""
    header = ",".join([f"f{j}" for j in range(features.shape[1])] + ["label"])
    lines = [header]
    for row, label in zip(features.tolist(), labels.tolist()):
        lines.append(",".join(map(repr, row)) + f",{label}")
    data = ("\n".join(lines) + "\n").encode("utf-8")
    path.write_bytes(data)
    return len(data)


def generate(workload: Workload, seed: int, work: Path) -> dict:
    """Write the workload's CSVs into ``work``; returns what was written."""
    work.mkdir(parents=True, exist_ok=True)
    features, labels = make_blobs(workload.blobs, seed)
    if workload.test_rows:
        cut = workload.blobs.rows - workload.test_rows
        nbytes = write_csv(work / "train.csv", features[:cut], labels[:cut])
        nbytes += write_csv(work / "test.csv", features[cut:], labels[cut:])
    else:
        nbytes = write_csv(work / "data.csv", features, labels)
    return {
        "rows": workload.blobs.rows,
        "features": workload.blobs.features,
        "classes": workload.blobs.classes,
        "csv_bytes": nbytes,
    }
