import math

import numpy as np
import pytest

import bitbit.data
from bitbit.data import Dataset
from bitbit.encoder import ENCODED_FILE_MAGIC, Bitstring, hex_digits
from bitbit.qsim import _slice_update, evaluate_loss


def write_dataset_csv(path, dataset: Dataset) -> None:
    """Write a Dataset as a headered CSV with full-precision floats."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join([f"f{j}" for j in range(dataset.n_features)] + ["label"]) + "\n")
        for row, label in zip(dataset.features, dataset.labels.tolist()):
            fh.write(",".join(repr(v) for v in row.tolist()) + f",{label}\n")


def count_converted_rows(monkeypatch, on_call=None) -> list[int]:
    """Record the number of CSV rows in each batch that ``bitbit.data``
    converts to arrays, calling ``on_call()`` first if given."""
    counts: list[int] = []
    convert = bitbit.data._convert_rows

    def counting(rows, *args):
        if on_call is not None:
            on_call()
        counts.append(len(rows))
        return convert(rows, *args)

    monkeypatch.setattr(bitbit.data, "_convert_rows", counting)
    return counts


def iter_encoded(path):
    """Stream (Bitstring, label) records from an encoded-record file, one line
    at a time: the scalar oracle for ``read_packed``."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline()
        parts = header.split()
        width = parts[2].removeprefix("width=") if len(parts) == 3 and parts[2].startswith("width=") else ""
        if " ".join(parts[:2]) != ENCODED_FILE_MAGIC or not (width.isascii() and width.isdigit()):
            raise ValueError(f"{path}: not an encoded-record file (bad header {header.strip()!r})")
        width = int(width)
        digits = hex_digits(width)
        for line_no, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"{path}: malformed record at line {line_no}")
            try:
                if len(parts[0]) != digits:
                    raise ValueError(f"expected {digits} hex digits for width {width}, got {len(parts[0])}")
                yield Bitstring(width, int(parts[0], 16)), int(parts[1])
            except ValueError as exc:
                raise ValueError(f"{path}: malformed record at line {line_no}: {exc}") from None


def table_entries(table) -> dict:
    """A count table as ``{Bitstring: counts row}``, one entry per code."""
    return {Bitstring(table.width, z): row for z, row in zip(table.codes.tolist(), table.counts)}


def batch_records(batch) -> tuple:
    """A training batch as its ``(Bitstring, target, weight)`` records, in input order."""
    return tuple((Bitstring(batch.width, z), t, w)
                 for z, t, w in zip(batch.z_values.tolist(), batch.targets.tolist(), batch.weights.tolist()))


def probe_update(model, batch, j: int) -> tuple[float, float]:
    """``_slice_update`` on parameter j, its slice read from three ``evaluate_loss``
    probes at theta_j and theta_j +/- pi/2. Moves theta_j and returns
    (new theta_j, new loss), the loss read off the slice."""
    theta, t0 = model.theta, float(model.theta[j])
    loss_0 = evaluate_loss(model, batch)
    theta[j] = t0 + math.pi / 2
    plus = evaluate_loss(model, batch)
    theta[j] = t0 - math.pi / 2
    minus = evaluate_loss(model, batch)
    a = (plus + minus) / 2.0
    t_new, loss = _slice_update(t0, a, loss_0 - a, (plus - minus) / 2.0)
    theta[j] = t_new
    return t_new, loss


def all_pure_1d_dataset() -> tuple[Dataset, Dataset]:
    """Hand-enumerable 1-D pair: class 0 on [0, 0.5), class 1 on [0.5, 1),
    train balanced 3/3, test values chosen so each sits strictly inside its
    class's training value range (one bit covers both sides exactly)."""
    train = Dataset(
        features=np.array([[0.1], [0.6], [0.2], [0.7], [0.3], [0.8]]),
        labels=np.array([0, 1, 0, 1, 0, 1]),
        c=2,
    )
    test = Dataset(features=np.array([[0.15], [0.75]]), labels=np.array([0, 1]), c=2)
    return train, test


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
