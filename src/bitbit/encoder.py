"""Binary encoding core: importance scoring, bit allocation, copula, discretization.

A fitted encoder maps a feature row to a fixed-width bitstring: reduce,
min-max normalize with the training extrema (clamping), push each component
through its training empirical CDF, discretize component d to b_d bits, and
concatenate the codes with component 0 in the most significant position.

Everything fitted after the reducer comes from one pass of ``fit_batches``
over batches of training rows: ``fit_encoder`` is its one-batch case, and
``stream.stream_fit_base`` feeds it a training stream.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable

import numpy as np

from bitbit.data import Dataset, _first_non_utf8_line, check_train_count, open_text
from bitbit.dimred import FittedReducer, ReducerSpec, fit_reducer, transform

MODEL_FORMAT_VERSION = "1"
ENCODED_FILE_MAGIC = "bitbit v1"
ENCODING_FILES = ("model.json", "train.enc", "test.enc")


@dataclass(frozen=True)
class Bitstring:
    """A fixed-width bit sequence; ``value`` is the integer whose binary
    expansion (MSB first) is the sequence. Equality and hashing respect width."""

    width: int
    value: int

    def __post_init__(self):
        if self.width < 0:
            raise ValueError("width must be nonnegative")
        if not 0 <= self.value < (1 << self.width):
            raise ValueError(f"value {self.value} does not fit in {self.width} bits")

    @classmethod
    def from_bits(cls, bits: str) -> "Bitstring":
        return cls(width=len(bits), value=int(bits, 2) if bits else 0)

    def to_bits(self) -> str:
        return format(self.value, f"0{self.width}b") if self.width else ""

    def to_hex(self) -> str:
        return format(self.value, f"0{hex_digits(self.width)}x")


def hex_digits(width: int) -> int:
    """Hex digits needed for a packed bitstring of the given width."""
    return max(1, (width + 3) // 4)


@dataclass(frozen=True)
class ImportanceScores:
    """Per-component label relevance, in bits of mutual information."""

    scores: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.scores, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError("scores must be 1-D")
        if not np.all(np.isfinite(arr)) or np.any(arr < 0):
            raise ValueError("scores must be finite and nonnegative")
        arr.setflags(write=False)
        object.__setattr__(self, "scores", arr)

    def __len__(self) -> int:
        return self.scores.shape[0]


@dataclass(frozen=True)
class BitAllocation:
    """Integer bit budget per component; sums exactly to the total width."""

    bits: tuple[int, ...]
    n_x: int

    def __post_init__(self):
        bits = tuple(int(b) for b in self.bits)
        if any(b < 0 for b in bits):
            raise ValueError("bit counts must be nonnegative")
        if sum(bits) != self.n_x:
            raise ValueError(f"bit counts sum to {sum(bits)}, expected {self.n_x}")
        object.__setattr__(self, "bits", bits)

    def __len__(self) -> int:
        return len(self.bits)


@dataclass(frozen=True)
class CopulaModel:
    """Per-component sorted training values; maps a value to its empirical CDF."""

    columns: tuple[np.ndarray, ...]

    def __post_init__(self):
        cols = []
        for col in self.columns:
            arr = np.ascontiguousarray(np.asarray(col, dtype=np.float64))
            arr.setflags(write=False)
            cols.append(arr)
        object.__setattr__(self, "columns", tuple(cols))

    def __len__(self) -> int:
        return len(self.columns)


@dataclass(frozen=True)
class EncoderModel:
    reducer: FittedReducer
    mins: np.ndarray
    maxs: np.ndarray
    copula: CopulaModel
    allocation: BitAllocation
    importances: ImportanceScores

    def __post_init__(self):
        mins = np.ascontiguousarray(np.asarray(self.mins, dtype=np.float64))
        maxs = np.ascontiguousarray(np.asarray(self.maxs, dtype=np.float64))
        d = self.reducer.n_components
        if not (mins.shape == maxs.shape == (d,)):
            raise ValueError("mins/maxs must match the reducer output width")
        if np.any(mins > maxs):
            raise ValueError("every min must be <= the corresponding max")
        if len(self.copula) != d or len(self.allocation) != d or len(self.importances) != d:
            raise ValueError("copula, allocation, and importances must all have width D")
        mins.setflags(write=False)
        maxs.setflags(write=False)
        object.__setattr__(self, "mins", mins)
        object.__setattr__(self, "maxs", maxs)

    @property
    def width(self) -> int:
        return self.allocation.n_x

    def at_width(self, n_x: int) -> "EncoderModel":
        """The same fit with the bit allocation for ``n_x``; nothing else depends on the width."""
        return replace(self, allocation=allocate_bits(self.importances, n_x))


def estimate_mutual_information(column, labels, bins: int | None = None) -> float:
    """Histogram plug-in estimate of I(column; labels) in bits.

    The column is cut into at most ``bins`` equal-frequency bins (default
    clamp(floor(sqrt(s)), 8, 256)); the estimate is the plug-in mutual
    information of the (bin, label) contingency table. Constant columns
    give 0. Equal-frequency binning makes the estimate invariant under any
    strictly monotone transform of the column.
    """
    col = np.asarray(column, dtype=np.float64).ravel()
    labs = np.asarray(labels, dtype=np.int64).ravel()
    s = col.shape[0]
    if s < 2:
        raise ValueError("need at least 2 samples")
    if labs.shape[0] != s:
        raise ValueError("column and labels must have equal length")
    if labs.min() < 0:
        raise ValueError("labels must be nonnegative class ids")
    bins = _mi_bins(s) if bins is None else bins
    if bins < 1:
        raise ValueError("bins must be positive")
    return float(_mutual_information(col[:, None], labs, bins)[0])


def _mi_bins(s: int) -> int:
    return min(max(int(math.isqrt(s)), 8), 256)


def _quantile_cuts(ordered: np.ndarray, bins: int) -> np.ndarray:
    """``np.quantile(x, np.arange(1, bins) / bins, axis=0)`` from ``ordered``, the
    columns of ``x`` sorted: numpy's linear method and its ``_lerp``, written out."""
    n = ordered.shape[0]
    virtual = (n - 1) * (np.arange(1, bins) / bins)
    end = virtual >= n - 1  # numpy's rule: both neighbours are then the maximum
    below = np.where(end, -1, np.floor(virtual)).astype(np.intp)
    above = np.where(end, -1, below + 1)
    t = (virtual - below)[:, None]
    a, b = ordered[below], ordered[above]
    cuts = a + (b - a) * t
    np.subtract(b, (b - a) * (1 - t), out=cuts, where=t >= 0.5)
    return cuts


def _mutual_information(x: np.ndarray, labels: np.ndarray, bins: int) -> np.ndarray:
    """``estimate_mutual_information`` of each column of ``x``: one argsort, one ``np.bincount``
    over the stacked (bin, label) tables. Columns are binned in sorted order, where the binary
    search is cheap; the tables count (bin, label) pairs, which the order does not change.
    Bin ids count distinct cuts, as ``np.unique`` edges do. Sums stay per table, since numpy
    sums a one-class table pairwise."""
    s, d = x.shape
    n_classes = int(labels.max()) + 1
    cells = np.argsort(x, axis=0)  # the row order, then, column by column, the cells
    ordered = np.take_along_axis(x, cells, axis=0)
    constant = ordered[0] == ordered[-1]
    cuts = np.sort(_quantile_cuts(ordered, bins), axis=0)
    first = np.ones(cuts.shape, dtype=bool)
    first[1:] = cuts[1:] != cuts[:-1]
    distinct = np.vstack([np.zeros((1, d), dtype=np.int64), np.cumsum(first, axis=0)])  # among the first i cuts
    offsets = np.concatenate([[0], np.cumsum(distinct[-1] + 1)])  # table j is rows offsets[j]:offsets[j + 1]
    # The batch is held at most three times: as given, sorted, and as the order that becomes the cells.
    for j in range(d):
        bin_ids = distinct[np.searchsorted(cuts[:, j], ordered[:, j], side="right"), j] + offsets[j]
        cells[:, j] = bin_ids * n_classes + labels[cells[:, j]]
    joint = np.bincount(cells.ravel(), minlength=offsets[-1] * n_classes).reshape(-1, n_classes) / s
    by_class = np.repeat([joint[a:b].sum(axis=0) for a, b in zip(offsets[:-1], offsets[1:])], np.diff(offsets), axis=0)
    nz = joint > 0
    terms = joint[nz] * np.log2(joint[nz] / (joint.sum(axis=1)[:, None] * by_class)[nz])
    ends = np.concatenate([[0], np.cumsum(nz.sum(axis=1))])[offsets]
    scores = [max(float(np.sum(terms[a:b])), 0.0) for a, b in zip(ends[:-1], ends[1:])]
    return np.where(constant, 0.0, scores)


def allocate_bits(imp: ImportanceScores, n_x: int) -> BitAllocation:
    """Split ``n_x`` bits across components proportionally to their scores.

    Ideal shares are rounded half-to-even, then repaired to sum exactly to
    n_x by one stable sort: the largest shortfalls gain a bit (ties to the
    lowest index), or the largest surpluses lose one (ties to the highest).
    Rounding leaves every share within half a bit, so a repair moves a share
    a whole bit past every other and no component moves twice: the sort
    picks what a one-bit-at-a-time repair would. All-zero scores split as
    equal scores do, with the remainder on the lowest indices.
    """
    if n_x < 1:
        raise ValueError("n_x must be positive")
    scores = imp.scores if imp.scores.sum() > 0.0 else np.ones(len(imp))  # all zero: as equal scores
    ideal = np.round(n_x * (scores / scores.sum()), 9)  # above rounding noise: exact ties tie at any scale
    bits = np.rint(ideal).astype(np.int64)  # round half to even
    deficit = n_x - int(bits.sum())
    order = np.argsort(bits - ideal, kind="stable")  # largest shortfall first, ties in index order
    if deficit > 0:
        bits[order[:deficit]] += 1
    elif deficit < 0:
        bits[order[deficit:]] -= 1
    return BitAllocation(tuple(int(b) for b in bits), n_x)


def fit_copula(reduced_normalized_train: np.ndarray) -> CopulaModel:
    """Store each training column sorted ascending."""
    x = np.asarray(reduced_normalized_train, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 1:
        raise ValueError("need a 2-D matrix with at least one row")
    return CopulaModel(columns=tuple(np.sort(x[:, j]) for j in range(x.shape[1])))


def apply_copula(m: CopulaModel, value: float, component: int) -> float:
    """Empirical CDF with an (s+1) denominator: #(train <= value) / (s + 1)."""
    col = m.columns[component]
    rank = int(np.searchsorted(col, value, side="right"))
    return rank / (col.shape[0] + 1)


def rank_units(m: CopulaModel, ranks: np.ndarray) -> np.ndarray:
    """Copula values from integer ranks: rank / (s + 1) per component, as in ``apply_copula``."""
    return ranks / np.array([col.shape[0] + 1 for col in m.columns])


def discretize_value(x: float, b: int) -> int:
    """Floor-discretize a unit-interval value to b bits: min(floor(x * 2^b), 2^b - 1)."""
    if b < 0:
        raise ValueError("bit count must be nonnegative")
    if b == 0:
        return 0
    x = min(max(x, 0.0), 1.0)
    return min(int(x * float(1 << b)), (1 << b) - 1)


def _normalize(reduced: np.ndarray, mins: np.ndarray, maxs: np.ndarray) -> np.ndarray:
    """Min-max normalize the columns of ``reduced`` with the training extrema and
    clamp them to [0, 1], in place; every caller passes an array it owns."""
    span = maxs - mins
    reduced -= mins
    reduced /= np.where(span > 0, span, 1.0)
    reduced[:, span == 0] = 0.0  # constant training component: everything maps to 0
    np.clip(reduced, 0.0, 1.0, out=reduced)
    return reduced


class _Reservoir:
    """Uniform reservoir sample (algorithm R) of d-component rows, in one ``(d, capacity)``
    array. When the stream fits within capacity no randomness is consumed and the
    sample is the whole stream in arrival order, which is what makes small-data
    streaming exact. Past it, each component draws its own replacements, in
    component order. The buffer grows with the stream and never past ``capacity``."""

    def __init__(self, capacity: int, d: int, rng: np.random.Generator | None):
        if capacity < 1:
            raise ValueError("reservoir_size must be >= 1")
        self.capacity = capacity
        self.rng = rng
        self.values = np.empty((d, 0), dtype=np.float64)
        self.size = 0
        self.seen = 0

    def add(self, rows: np.ndarray) -> None:
        """Add a ``(rows, d)`` batch; a full buffer at least doubles, up to ``capacity``."""
        m = rows.shape[0]
        fill = min(self.capacity - self.size, m)
        d, held = self.values.shape
        if self.size + fill > held:
            grown = np.empty((d, min(self.capacity, max(self.size + fill, 2 * held))))
            grown[:, :self.size] = self.values[:, :self.size]
            self.values = grown
        self.values[:, self.size:self.size + fill] = rows[:fill].T
        self.size += fill
        self.seen += fill
        rest = m - fill
        if rest:
            highs = np.arange(self.seen + 1, self.seen + rest + 1)
            for values, column in zip(self.values, rows[fill:].T):
                draws = self.rng.integers(0, highs)
                hits = np.nonzero(draws < self.capacity)[0]
                # A slot drawn more than once keeps its last value; fancy assignment
                # leaves the order of repeated indices undefined, so keep only the
                # last hit on each slot.
                slots, from_end = np.unique(draws[hits][::-1], return_index=True)
                values[slots] = column[hits[hits.shape[0] - 1 - from_end]]
            self.seen += rest

    def result(self) -> np.ndarray:
        """The ``(size, d)`` sample, each column contiguous; a view, valid until the next add."""
        return self.values[:, :self.size].T


def fit_batches(reducer: FittedReducer, batches, reservoir_size: int,
                rng: np.random.Generator | None, weighted_mi: bool = False) -> EncoderModel:
    """Fit everything after the reducer in one pass over ``(features, labels)``
    batches: per-component min/max, importance scores averaged over batches of
    2 or more rows (weighted by row count with ``weighted_mi``), and the copula
    over a reservoir of at most ``reservoir_size`` values per component; ``rng``
    draws only once the stream outgrows it. ``reducer`` comes from
    ``fit_reducer`` over the same rows. The model comes back at width 1, and
    ``EncoderModel.at_width`` re-derives the allocation for any other width."""
    d = reducer.n_components
    reservoir = _Reservoir(reservoir_size, d, rng)
    mins, maxs, score_sum = np.full(d, np.inf), np.full(d, -np.inf), np.zeros(d)
    count, score_weight = 0, 0.0
    for x, y in batches:
        if x.shape[0] == 0:
            continue
        count += x.shape[0]
        reduced = transform(reducer, x)
        mins, maxs = np.minimum(mins, reduced.min(axis=0)), np.maximum(maxs, reduced.max(axis=0))
        reservoir.add(reduced)
        if x.shape[0] >= 2:  # single-row batches carry no label information
            w = float(x.shape[0]) if weighted_mi else 1.0
            score_sum += w * _mutual_information(reduced, y, _mi_bins(x.shape[0]))
            score_weight += w
    check_train_count(count)
    if score_weight == 0.0:
        raise ValueError("no batch held 2 or more samples; cannot score importances")
    importances = ImportanceScores(score_sum / score_weight)
    # The last batch is dropped first, so the copula fit holds at most two copies
    # of the sample: the reservoir, normalized in place, and the sorted columns.
    del reduced
    copula = fit_copula(_normalize(reservoir.result(), mins, maxs))
    return EncoderModel(reducer, mins, maxs, copula, allocate_bits(importances, 1), importances)


def fit_encoder(train: Dataset, spec: ReducerSpec, n_x: int) -> EncoderModel:
    """The single-batch streaming fit at width ``n_x``: ``fit_reducer``, then
    ``fit_batches`` over the whole set as one batch, with a reservoir that holds
    every row, so the copula keeps every training value and nothing is drawn."""
    reducer = fit_reducer(spec, [train.features])
    return fit_batches(reducer, [(train.features, train.labels)], train.n_samples, None).at_width(n_x)


def copula_ranks(model: EncoderModel, features: np.ndarray) -> np.ndarray:
    """Width-independent part of the encoding as integers: per row and component,
    the number of training copula values <= the normalized reduced value. Each
    column is searched in sorted order, where the binary search is cheap."""
    reduced = transform(model.reducer, np.asarray(features, dtype=np.float64))
    normalized = _normalize(reduced, model.mins, model.maxs)
    order = np.argsort(normalized, axis=0)
    ranks = np.empty(normalized.shape, dtype=np.int64)
    for j, col in enumerate(model.copula.columns):
        ranks[order[:, j], j] = np.searchsorted(col, normalized[order[:, j], j], side="right")
    return ranks


def copula_units(model: EncoderModel, features: np.ndarray) -> np.ndarray:
    """Width-independent part of the encoding: each row's copula value per component."""
    return rank_units(model.copula, copula_ranks(model, features))


def split_codes(model: EncoderModel, train: Dataset, test: Dataset):
    """``codes(bits)`` over in-memory splits, both ranked once: each call
    returns one ``(pack_codes words, label ids)`` chunk per split. Both splits'
    rows are packed in one call, so each width pays ``pack_codes``' fixed cost once."""
    units = np.concatenate([copula_units(model, train.features), copula_units(model, test.features)])

    def codes(bits):
        words = pack_codes(units, bits)
        return [(words[:train.n_samples], train.labels)], [(words[train.n_samples:], test.labels)]

    return codes


def pack_codes(unit: np.ndarray, bits) -> np.ndarray:
    """Floor-discretize column j of ``unit`` to ``bits[j]`` bits and concatenate the
    codes, component 0 first, into rows of uint64 words, most significant word
    first. Fields are cut into pieces inside 32-bit boundaries; each piece is the
    exact floor of the remaining fraction times a power of two, so any width works.
    Each round cuts the next piece of every field that has one left."""
    bits = np.asarray(bits, dtype=np.int64)
    width = int(bits.sum())
    words = np.zeros((max(1, -(-width // 64)), unit.shape[0]), dtype=np.uint64)
    live = np.flatnonzero(bits)
    low = (width - np.cumsum(bits))[live]
    top = low + bits[live]
    x = np.array(unit[:, live].T, dtype=np.float64, order="C")  # one row per field
    while top.size:
        cut = np.maximum(low, (top - 1) // 32 * 32)
        scale = np.ldexp(1.0, top - cut)[:, None]
        x *= scale
        piece = np.floor(x)
        np.minimum(piece, scale - 1.0, out=piece)  # x >= 1: all ones, and x stays >= 1 for the next piece
        x -= piece
        code = piece.astype(np.uint64) << (cut % 64).astype(np.uint64)[:, None]
        word = len(words) - 1 - cut // 64
        for w in set(word.tolist()):
            words[w] |= np.bitwise_or.reduce(code[word == w], axis=0)
        more = cut > low
        top, low, x = cut[more], low[more], x[more]
    return np.ascontiguousarray(words.T)


def packed_values(words: np.ndarray) -> list[int]:
    """The integer each row of packed words spells."""
    values = words[:, 0].tolist()
    for w in range(1, words.shape[1]):
        values = [(v << 64) | low for v, low in zip(values, words[:, w].tolist())]
    return values


def encode_samples(model: EncoderModel, features: np.ndarray) -> list[Bitstring]:
    """Encode feature rows to bitstrings of width ``model.width``."""
    words = pack_codes(copula_units(model, features), model.allocation.bits)
    return [Bitstring(model.width, v) for v in packed_values(words)]


# --- model persistence ---


def persist_model(model: EncoderModel, path) -> None:
    """Write the model as JSON; a round-tripped model encodes bit-identically.

    The bytes are those of ``json.dump(doc, fh, sort_keys=True)`` plus a
    newline. Each value goes through ``json.dumps``, which uses the C encoder
    where ``json.dump`` does not, and the copula one column at a time, so the
    whole document is never held as one string.
    """
    doc = {
        "version": MODEL_FORMAT_VERSION,
        "reducer": model.reducer.to_json_dict(),
        "mins": model.mins.tolist(),
        "maxs": model.maxs.tolist(),
        "copula": model.copula.columns,
        "importances": model.importances.scores.tolist(),
        "allocation": {"bits": list(model.allocation.bits), "n_x": model.allocation.n_x},
    }
    with open(path, "w", encoding="utf-8") as fh:
        for i, key in enumerate(sorted(doc)):
            fh.write(("{" if i == 0 else ", ") + json.dumps(key) + ": ")
            if key == "copula":
                fh.write("[")
                for j, col in enumerate(doc[key]):
                    fh.write((", " if j else "") + json.dumps(col.tolist()))
                fh.write("]")
            else:
                fh.write(json.dumps(doc[key], sort_keys=True))
        fh.write("}\n")


def load_model(path) -> EncoderModel:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"{path}: truncated or invalid model file ({exc})") from None
    version = doc.get("version") if isinstance(doc, dict) else None
    if version != MODEL_FORMAT_VERSION:
        raise ValueError(
            f"{path}: unsupported model format version {version!r}, "
            f"this reader handles version {MODEL_FORMAT_VERSION!r}"
        )
    try:
        return EncoderModel(
            reducer=FittedReducer.from_json_dict(doc["reducer"]),
            mins=np.asarray(doc["mins"], dtype=np.float64),
            maxs=np.asarray(doc["maxs"], dtype=np.float64),
            copula=CopulaModel(columns=tuple(np.asarray(c, dtype=np.float64) for c in doc["copula"])),
            allocation=BitAllocation(bits=tuple(doc["allocation"]["bits"]), n_x=int(doc["allocation"]["n_x"])),
            importances=ImportanceScores(np.asarray(doc["importances"], dtype=np.float64)),
        )
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None


# --- encoded-record files ---
#
# Line 1: "bitbit v1 width=<W>". Each record line: the packed bits as hex
# (most significant nibble first, zero padded to ceil(W/4) digits), a space,
# and the integer class label.


def write_encoded(path, width: int, records: Iterable[tuple[Bitstring, int]]) -> int:
    """``write_packed``'s scalar oracle over (Bitstring, label) records. The benchmark hooks it for
    ``encoder.bytes_written``; it moves to the tests once that hook points at ``write_packed``."""
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{ENCODED_FILE_MAGIC} width={width}\n")
        digits = hex_digits(width)
        for bs, label in records:
            if bs.width != width:
                raise ValueError(f"record {count}: width {bs.width} != file width {width}")
            fh.write(f"{bs.value:0{digits}x} {int(label)}\n")
            count += 1
    return count


# Row b holds the two hex digits of byte value b.
_HEX_PAIRS = np.array([list(f"{b:02x}".encode()) for b in range(256)], dtype=np.uint8)


def write_packed(path, width: int, chunks: Iterable[tuple[np.ndarray, np.ndarray]]) -> int:
    """``write_encoded`` for chunks of (``pack_codes`` words, labels): the same
    bytes, formatted from arrays, with each class's `` <label>\\n`` made once."""
    count = 0
    digits = hex_digits(width)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{ENCODED_FILE_MAGIC} width={width}\n")
        for words, labels in chunks:
            pairs = _HEX_PAIRS[words.astype(">u8").view(np.uint8)]  # top word first, each big-endian
            hexes = np.ascontiguousarray(pairs.reshape(words.shape[0], 16 * words.shape[1])[:, -digits:])
            classes, inverse = np.unique(labels, return_inverse=True)
            suffixes = np.array([f" {label}\n".encode() for label in classes.tolist()], dtype=bytes)
            lines = np.char.add(hexes.view(f"S{digits}").ravel(), suffixes[inverse.ravel()])
            # Fixed-width byte strings pad short lines with NULs, which no line holds.
            fh.write(lines.tobytes().replace(b"\0", b"").decode("ascii"))
            count += len(labels)
    return count


def write_encoding(directory, model: EncoderModel, codes) -> None:
    """Write ``ENCODING_FILES`` to ``directory``: the model, then the training and
    test records from the chunks ``codes(model.allocation.bits)`` gives each split."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    persist_model(model, directory / ENCODING_FILES[0])
    for name, chunks in zip(ENCODING_FILES[1:], codes(model.allocation.bits)):
        write_packed(directory / name, model.width, chunks)


def read_packed(path) -> tuple[int, np.ndarray, np.ndarray]:
    """The inverse of ``write_packed``, read whole into memory: the width, the ``pack_codes``
    words and the int64 labels. Blank lines are skipped; a malformed record names its line."""
    with open_text(path, "malformed record at line", "utf-8") as fh:
        try:
            header = fh.readline()
        except UnicodeDecodeError:  # raised for any line of the first chunk decoded
            if _first_non_utf8_line(path) != 1:
                raise
            with open(path, "rb") as raw:
                header = raw.readline().splitlines()[0].decode("utf-8", "backslashreplace")
        parts = header.split()
        if len(parts) != 3 or " ".join(parts[:2]) != ENCODED_FILE_MAGIC or not re.fullmatch("width=[0-9]+", parts[2]):
            raise ValueError(f"{path}: not an encoded-record file (bad header {header.strip()!r})")
        width = int(parts[2].removeprefix("width="))
        digits, n_bytes = hex_digits(width), 8 * max(1, -(-width // 64))
        rows, labels = [], []
        for line_no, line in enumerate(fh, start=2):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 2:
                raise ValueError(f"{path}: malformed record at line {line_no}")
            code, label = parts
            try:
                if len(code) != digits:
                    raise ValueError(f"expected {digits} hex digits for width {width}, got {len(code)}")
                value = int(code, 16)
                if not 0 <= value < 1 << width:
                    raise ValueError(f"value {value} does not fit in {width} bits")
                rows.append(value.to_bytes(n_bytes, "big"))
                labels.append(int(label))
                if not -(1 << 63) <= labels[-1] < 1 << 63:
                    raise ValueError(f"label {labels[-1]} does not fit in int64")
            except ValueError as exc:
                raise ValueError(f"{path}: malformed record at line {line_no}: {exc}") from None
    words = np.frombuffer(b"".join(rows), dtype=">u8").reshape(-1, n_bytes // 8).astype(np.uint64)
    return width, words, np.array(labels, dtype=np.int64)
