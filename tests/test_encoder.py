import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bitbit.data import Dataset, SplitSpec, make_synthetic, split_train_test
from bitbit.dimred import FittedReducer, ReducerSpec, fit_reducer
from bitbit.encoder import (
    BitAllocation,
    Bitstring,
    CopulaModel,
    EncoderModel,
    ImportanceScores,
    _quantile_cuts,
    allocate_bits,
    apply_copula,
    copula_ranks,
    copula_units,
    discretize_value,
    encode_samples,
    estimate_mutual_information,
    fit_batches,
    fit_copula,
    fit_encoder,
    load_model,
    pack_codes,
    packed_values,
    persist_model,
    rank_units,
    read_packed,
    split_codes,
    write_encoded,
    write_encoding,
    write_packed,
)
from bitbit.stream import DEFAULT_RESERVOIR_SIZE
from tests.conftest import iter_encoded


def unpack_codes(bs: Bitstring, bits) -> list[int]:
    """Split a packed bitstring back into per-component codes (component 0 first)."""
    remaining = bs.width
    codes = []
    for b in bits:
        remaining -= b
        codes.append((bs.value >> remaining) & ((1 << b) - 1) if b else 0)
    return codes


class TestBitstring:
    def test_equality_and_hash_respect_width(self):
        assert Bitstring(3, 5) == Bitstring(3, 5)
        assert Bitstring(3, 5) != Bitstring(4, 5)
        assert hash(Bitstring(3, 5)) != hash(Bitstring(4, 5)) or Bitstring(3, 5) != Bitstring(4, 5)

    def test_bits_round_trip(self):
        assert Bitstring.from_bits("101").to_bits() == "101"
        assert Bitstring.from_bits("101").value == 5

    def test_hex_padding(self):
        assert Bitstring(3, 5).to_hex() == "5"
        assert Bitstring(9, 5).to_hex() == "005"

    def test_wide_values_supported(self):
        wide = Bitstring(130, (1 << 129) | 1)
        assert wide.to_hex() == "2" + "0" * 31 + "1"

    def test_value_must_fit(self):
        with pytest.raises(ValueError):
            Bitstring(2, 4)


class TestMutualInformation:
    def test_deterministic_dependence_is_one_bit(self):
        labels = np.array([0, 1] * 500)
        column = labels.astype(float)
        assert abs(estimate_mutual_information(column, labels) - 1.0) < 1e-9

    def test_constant_column_is_zero(self):
        assert estimate_mutual_information(np.full(100, 3.3), np.arange(100) % 2) == 0.0

    def test_independent_column_is_near_zero(self):
        d = make_synthetic(10000, 1, 2, separation=0.0, seed=13)
        assert estimate_mutual_information(d.features[:, 0], d.labels) < 0.02

    def test_monotone_transform_invariance(self, rng):
        # equal-frequency binning only sees ranks
        col = rng.standard_normal(400)
        labels = (col + 0.3 * rng.standard_normal(400) > 0).astype(int)
        a = estimate_mutual_information(col, labels)
        b = estimate_mutual_information(np.exp(col), labels)
        assert abs(a - b) < 1e-12


def oracle_mutual_information(column, labels, bins: int | None = None) -> float:
    """Reference for ``estimate_mutual_information``, one column at a time: edges
    from ``np.quantile``, deduplicated by ``np.unique``, and a fresh (bin, label)
    table per column."""
    col = np.asarray(column, dtype=np.float64)
    labs = np.asarray(labels, dtype=np.int64)
    bins = min(max(math.isqrt(col.shape[0]), 8), 256) if bins is None else bins
    if col.max() == col.min():
        return 0.0
    edges = np.unique(np.quantile(col, np.arange(1, bins) / bins))
    n_classes = int(labs.max()) + 1
    cells = np.searchsorted(edges, col, side="right") * n_classes + labs
    joint = np.bincount(cells, minlength=(edges.shape[0] + 1) * n_classes).reshape(-1, n_classes) / col.shape[0]
    nz = joint > 0
    ratio = joint[nz] / np.outer(joint.sum(axis=1), joint.sum(axis=0))[nz]
    return max(float(np.sum(joint[nz] * np.log2(ratio))), 0.0)


def _mi_matrix(rng, s: int) -> np.ndarray:
    """Columns with ties, a constant column, continuous columns and signed zeros."""
    return np.column_stack([
        rng.integers(0, 3, s).astype(float),
        rng.integers(0, max(2, s // 4), s) * 0.5,
        np.full(s, 1.25),
        rng.standard_normal(s),
        np.round(rng.standard_normal(s), 1),
        rng.choice([-0.0, 0.0, 1.0], s),
    ])


def identity(x):
    """The scheme 'none' reducer at the width of ``x``."""
    return fit_reducer(ReducerSpec("none"), [x])


def per_column_oracle(x, y, bins=None) -> np.ndarray:
    return np.array([oracle_mutual_information(x[:, j], y, bins) for j in range(x.shape[1])])


class TestQuantileCuts:
    """The MI bin edges come from one sort per batch and numpy's own linear
    interpolation; they must equal ``np.quantile``'s, value for value."""

    @pytest.mark.parametrize("n", [2, 3, 63, 64, 65, 455, 6000])
    def test_equal_to_np_quantile(self, n):
        rng = np.random.default_rng(n)
        x = np.column_stack([_mi_matrix(rng, n), rng.choice([-0.0, 0.0], n), rng.standard_normal(n) * 1e-300])
        for bins in sorted({1, 2, 3, 8, 21, 77, 256, min(max(math.isqrt(n), 8), 256)}):
            q = np.arange(1, bins) / bins
            cuts = _quantile_cuts(np.sort(x, axis=0), bins)
            assert cuts.shape == (bins - 1, x.shape[1])
            assert (cuts == np.quantile(x, q, axis=0)).all(), bins

    def test_random_matrices(self):
        rng = np.random.default_rng(18)
        for _ in range(300):
            n, d = int(rng.integers(2, 400)), int(rng.integers(1, 4))
            x = rng.integers(-3, 4, (n, d)) * rng.choice([1.0, 0.1, 1e-9, 1e9]) + rng.choice([0.0, 1.0]) * rng.random((n, d))
            bins = int(rng.integers(1, 40))
            assert (_quantile_cuts(np.sort(x, axis=0), bins) == np.quantile(x, np.arange(1, bins) / bins, axis=0)).all()


class TestBatchedMutualInformation:
    """``fit_batches`` scores every component of a batch in one pass: one sort
    for the bin edges and one ``np.bincount`` for all the (bin, label) tables.
    Each score must equal the per-column ``np.quantile`` oracle bit for bit."""

    def test_single_column_function_matches_oracle(self, rng):
        for s in (2, 3, 10, 100, 455):
            x = _mi_matrix(rng, s)
            y = rng.integers(0, 3, s)
            for j in range(x.shape[1]):
                for bins in (None, 1, 2, 5):
                    assert estimate_mutual_information(x[:, j], y, bins) == oracle_mutual_information(x[:, j], y, bins)

    @pytest.mark.parametrize("s", [2, 3, 63, 64, 65, 455, 1000, 70000])
    def test_one_batch_equals_per_column_calls(self, s):
        rng = np.random.default_rng(s)
        for _ in range(3 if s < 70000 else 1):
            x = _mi_matrix(rng, s)
            y = rng.integers(0, 3, s)
            scores = fit_batches(identity(x), [(x, y)], s, None).importances.scores
            assert scores.tolist() == per_column_oracle(x, y).tolist()
            assert scores[2] == 0.0

    def test_default_bins_clamp_at_8_and_256(self):
        rng = np.random.default_rng(4)
        for s, bins in [(63, 8), (64, 8), (65, 8), (70000, 256)]:
            x = _mi_matrix(rng, s)
            y = rng.integers(0, 4, s)
            scores = fit_batches(identity(x), [(x, y)], s, None).importances.scores
            assert scores.tolist() == per_column_oracle(x, y, bins).tolist()

    def test_class_absent_from_a_batch(self):
        rng = np.random.default_rng(5)
        batches = [
            (_mi_matrix(rng, 200), rng.integers(0, 3, 200)),
            (_mi_matrix(rng, 150), 2 * rng.integers(0, 2, 150)),  # class 1 absent
            (_mi_matrix(rng, 90), rng.integers(0, 2, 90)),  # the top class absent
            (_mi_matrix(rng, 120), np.zeros(120, dtype=np.int64)),  # one class: a one-column table
            (_mi_matrix(rng, 80), np.full(80, 2)),  # one class, the lower ones absent
        ]
        scores = fit_batches(identity(batches[0][0]), batches, 1000, None).importances.scores
        per_batch = [per_column_oracle(x, y) for x, y in batches]
        assert scores.tolist() == (sum(per_batch) / len(batches)).tolist()

    def test_one_class_batches_keep_their_rounding(self):
        # numpy sums a one-column table pairwise and a wider one row by row, so
        # empty bins padded into the tables would move these scores.
        rng = np.random.default_rng(7)
        nonzero = 0
        for _ in range(200):
            s = int(rng.integers(2, 300))
            x = rng.integers(0, int(rng.integers(2, 40)), (s, 3)) * 0.25
            y = np.zeros(s, dtype=np.int64)
            scores = fit_batches(identity(x), [(x, y)], s, None).importances.scores
            assert scores.tolist() == per_column_oracle(x, y).tolist()
            nonzero += int(np.count_nonzero(scores))
        assert nonzero > 0  # some one-class scores round above zero

    def test_weighted_mi_weights_batches_by_rows(self):
        rng = np.random.default_rng(6)
        batches = [(_mi_matrix(rng, s), rng.integers(0, 3, s)) for s in (300, 40, 9)]
        per_batch = np.array([per_column_oracle(x, y) for x, y in batches])
        rows = np.array([len(y) for _, y in batches], dtype=float)
        weighted = fit_batches(identity(batches[0][0]), batches, 1000, None, weighted_mi=True).importances.scores
        assert np.abs(weighted - rows @ per_batch / rows.sum()).max() < 1e-12
        assert np.abs(weighted - per_batch.mean(axis=0)).max() > 1e-3


def _loop_allocate_bits(scores: np.ndarray, n_x: int) -> tuple[int, ...]:
    """``allocate_bits`` as it was, kept as the oracle for its sorted repair: an
    even split for all-zero scores, else one bit per ``argmax`` call."""
    d = scores.shape[0]
    total = float(scores.sum())
    if total <= 0.0:
        base, rem = divmod(n_x, d)
        return tuple(base + (1 if i < rem else 0) for i in range(d))
    ideal = n_x * (scores / total)
    bits = np.rint(ideal).astype(np.int64)
    deficit = n_x - int(bits.sum())
    while deficit > 0:
        j = int(np.argmax(ideal - bits))
        bits[j] += 1
        deficit -= 1
    while deficit < 0:
        surplus = bits - ideal
        j = d - 1 - int(np.argmax(surplus[::-1]))
        bits[j] -= 1
        deficit += 1
    return tuple(int(b) for b in bits)


def _score_vectors(d: int):
    """Scores with zeros, ties and shares of exactly x.5 (small integers), all-equal scores, and any scores."""
    return st.one_of(
        st.lists(st.sampled_from([0.0, 1.0, 2.0, 3.0]), min_size=d, max_size=d),
        st.floats(min_value=0.0, max_value=100.0).map(lambda v: [v] * d),
        st.lists(st.just(0.0) | st.floats(min_value=0.0, max_value=100.0), min_size=d, max_size=d),
    )


class TestAllocateBits:
    @pytest.mark.parametrize(
        "scores,n_x,expected",
        [
            ([1.0, 1.0], 4, (2, 2)),
            ([0.5, 0.25, 0.25], 8, (4, 2, 2)),
            ([0.5, 0.5], 3, (2, 1)),  # surplus removed from the highest tied index
            ([0.0, 0.0, 0.0], 4, (2, 1, 1)),  # uniform fallback, remainder to low indices
        ],
    )
    def test_spec_examples(self, scores, n_x, expected):
        assert allocate_bits(ImportanceScores(np.array(scores)), n_x).bits == expected

    @given(
        st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=8),
        st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=200, deadline=None)
    def test_budget_is_exact(self, scores, n_x):
        alloc = allocate_bits(ImportanceScores(np.array(scores)), n_x)
        assert sum(alloc.bits) == n_x
        assert all(b >= 0 for b in alloc.bits)

    @given(
        st.lists(st.floats(min_value=1e-3, max_value=10.0), min_size=1, max_size=6),
        st.integers(min_value=1, max_value=32),
        st.floats(min_value=1e-3, max_value=1e3),
    )
    @example(scores=[10.0, 10.0, 2.0, 10.0], n_x=12, alpha=410.46497672026686)  # surpluses tie at 0.25
    @settings(max_examples=200, deadline=None)
    def test_scale_invariance(self, scores, n_x, alpha):
        base = allocate_bits(ImportanceScores(np.array(scores)), n_x)
        scaled = allocate_bits(ImportanceScores(alpha * np.array(scores)), n_x)
        assert base.bits == scaled.bits

    @given(st.data())
    @settings(max_examples=500, deadline=None)
    def test_matches_one_bit_at_a_time_repair(self, data):
        d = data.draw(st.integers(min_value=1, max_value=8))
        scores = np.array(data.draw(_score_vectors(d)))
        n_x = data.draw(st.integers(min_value=1, max_value=4 * d + 1))
        assert allocate_bits(ImportanceScores(scores), n_x).bits == _loop_allocate_bits(scores, n_x)

    def test_allocation_validates_total(self):
        with pytest.raises(ValueError, match="sum"):
            BitAllocation(bits=(1, 1), n_x=3)


class TestCopula:
    def test_fit_sorts(self):
        m = fit_copula(np.array([[3.0], [1.0], [2.0]]))
        assert m.columns[0].tolist() == [1.0, 2.0, 3.0]

    def test_duplicates_kept(self):
        m = fit_copula(np.array([[1.0], [1.0], [1.0], [2.0]]))
        assert m.columns[0].tolist() == [1.0, 1.0, 1.0, 2.0]

    def test_refit_identical(self, rng):
        x = rng.random((50, 3))
        a, b = fit_copula(x), fit_copula(x)
        assert all(np.array_equal(ca, cb) for ca, cb in zip(a.columns, b.columns))

    def test_rank_rule(self):
        m = CopulaModel(columns=(np.array([1.0, 2.0, 3.0, 4.0]),))
        assert apply_copula(m, 2.0, 0) == pytest.approx(0.4)
        assert apply_copula(m, 0.5, 0) == 0.0
        assert apply_copula(m, 10.0, 0) == pytest.approx(0.8)

    @given(st.lists(st.floats(min_value=-100, max_value=100), min_size=2, max_size=50),
           st.floats(min_value=-200, max_value=200), st.floats(min_value=0, max_value=50))
    @settings(max_examples=200, deadline=None)
    def test_monotone(self, train, v, delta):
        m = fit_copula(np.array(train).reshape(-1, 1))
        assert apply_copula(m, v, 0) <= apply_copula(m, v + delta, 0)

    def test_batched_ranks_equal_the_scalar_rule(self, rng):
        """``copula_ranks`` searches each column in sorted order; its units equal ``apply_copula``
        on every value: ties, queries equal to copula values, and values normalized past 0 or 1."""
        x = np.column_stack([rng.integers(0, 5, 40), rng.standard_normal(40), np.full(40, 2.0)])
        model = fit_encoder(Dataset(features=x, labels=np.arange(40) % 2, c=2), ReducerSpec("none"), 6)
        lo, hi = model.mins, model.maxs
        queries = np.vstack([x, x[::-1], lo - 1.0, hi + 1.0, rng.normal(0.0, 3.0, (30, 3))])
        units = rank_units(model.copula, copula_ranks(model, queries))
        for i, j in np.ndindex(queries.shape):
            normalized = min(max((queries[i, j] - lo[j]) / (hi[j] - lo[j]), 0.0), 1.0) if hi[j] > lo[j] else 0.0
            assert units[i, j] == apply_copula(model.copula, normalized, j)

    def test_uniformity_on_own_training_column(self, rng):
        s = 1000
        col = rng.standard_normal(s)
        m = fit_copula(col.reshape(-1, 1))
        u = np.sort([apply_copula(m, v, 0) for v in col])
        grid = np.arange(1, s + 1) / s
        ks = max(np.abs(u - grid).max(), np.abs(u - (grid - 1 / s)).max())
        assert ks <= 2 / np.sqrt(s) + 0.01


class TestDiscretize:
    @pytest.mark.parametrize("x,b,code", [(0.5, 3, 4), (1.0, 2, 3), (0.0, 4, 0), (0.3, 0, 0)])
    def test_spec_examples(self, x, b, code):
        assert discretize_value(x, b) == code

    @given(st.floats(min_value=-2, max_value=3), st.integers(min_value=0, max_value=64))
    @settings(max_examples=300, deadline=None)
    def test_output_in_range(self, x, b):
        assert 0 <= discretize_value(x, b) < (1 << b) if b else discretize_value(x, b) == 0


def manual_model(bits, copula_columns, n_features=None):
    d = len(bits)
    n = n_features or d
    reducer = FittedReducer(scheme="none", center=np.zeros(n), components=np.eye(n),
                            explained_variance=np.zeros(n))
    return EncoderModel(
        reducer=reducer,
        mins=np.zeros(d),
        maxs=np.ones(d),
        copula=CopulaModel(columns=tuple(np.asarray(c, dtype=float) for c in copula_columns)),
        allocation=BitAllocation(bits=tuple(bits), n_x=sum(bits)),
        importances=ImportanceScores(np.ones(d)),
    )


class TestEncodeSamples:
    def test_concatenation_order(self):
        # codes (2, 1) under allocation (2, 1) pack as '101' with component 0 leading
        col = [0.1, 0.2, 0.3]  # value 0.25 -> rank 2 -> u = 0.5
        model = manual_model([2, 1], [col, col])
        (bs,) = encode_samples(model, np.array([[0.25, 0.25]]))
        assert bs.to_bits() == "101"

    def test_train_sample_reencodes_identically(self):
        train = make_synthetic(60, 3, 2, 2.0, seed=3)
        model = fit_encoder(train, ReducerSpec("pca"), 6)
        enc_train = encode_samples(model, train.features)
        again = encode_samples(model, train.features[10:11])
        assert again[0] == enc_train[10]

    def test_zero_bit_components_drop_out(self):
        col = [0.1, 0.9]
        model = manual_model([2, 0], [col, col])
        (bs,) = encode_samples(model, np.array([[0.5, 0.5]]))
        assert bs.width == 2

    def test_inverse_quantization_brackets_value(self, rng):
        # decoding each code must bracket the copula value within one step
        train = Dataset(features=rng.random((100, 5)), labels=rng.integers(0, 2, 100), c=2)
        model = fit_encoder(train, ReducerSpec("none"), 11)
        samples = rng.random((40, 5))
        from bitbit.encoder import copula_units

        unit = copula_units(model, samples)
        for i, bs in enumerate(encode_samples(model, samples)):
            for code, b, u in zip(unpack_codes(bs, model.allocation.bits), model.allocation.bits, unit[i]):
                if b == 0:
                    continue
                assert code / (1 << b) <= u + 1e-12
                assert u < (code + 1) / (1 << b) + 1e-12

    def test_wide_encoding_path_matches_narrow_semantics(self, rng):
        # same codes whether the packer uses machine words or big integers
        col = sorted(rng.random(31).tolist())
        narrow = manual_model([5, 5], [col, col])
        wide = manual_model([40, 40], [col, col])
        x = rng.random((20, 2))
        enc_n = encode_samples(narrow, x)
        enc_w = encode_samples(wide, x)
        for bn, bw in zip(enc_n, enc_w):
            for cn, cw, b_n, b_w in zip(
                unpack_codes(bn, narrow.allocation.bits),
                unpack_codes(bw, wide.allocation.bits),
                narrow.allocation.bits,
                wide.allocation.bits,
            ):
                assert cn == cw >> (b_w - b_n)


def reference_pack(unit, bits) -> list[int]:
    """Scalar oracle: discretize each value alone and concatenate with Python ints."""
    values = []
    for row in unit.tolist():
        v = 0
        for u, b in zip(row, bits):
            v = (v << b) | discretize_value(u, b)
        values.append(v)
    return values


def loop_pack_codes(unit, bits) -> np.ndarray:
    """Reference for ``pack_codes``: one field at a time, one 32-bit-bounded piece at a time."""
    width = sum(bits)
    n_words = max(1, -(-width // 64))
    words = np.zeros((unit.shape[0], n_words), dtype=np.uint64)
    top = width
    for j, b in enumerate(bits):
        x = unit[:, j]
        saturated = x >= 1.0
        low = top - b
        while top > low:
            cut = max(low, (top - 1) // 32 * 32)
            x = x * float(1 << (top - cut))
            piece = np.floor(x)
            x -= piece
            code = piece.astype(np.uint64)
            code[saturated] = (1 << (top - cut)) - 1
            words[:, n_words - 1 - cut // 64] |= code << np.uint64(cut % 64)
            top = cut
    return words


class TestPackCodes:
    @pytest.mark.parametrize("field", [31, 32, 33, 63, 64, 65, 128, 129, 191])
    def test_equal_to_the_field_loop(self, rng, field):
        edges = [0.0, 1.0, np.nextafter(1.0, 0.0), 2.0 ** -40, 0.5, 1.0 - 2.0 ** -33]
        unit = np.vstack([rng.random((30, 5)), np.array(edges)[:, None].repeat(5, axis=1)])
        unit[rng.random(unit.shape) < 0.1] = 1.0  # saturated
        for bits in [(0, field, 3, field, 0), (field, 0, 0, 1, field), (0, 0, field, 0, 0), (5, field, 7, 0, 2)]:
            for rows in (unit, unit[:0]):
                words = pack_codes(rows, bits)
                assert words.flags.c_contiguous and words.dtype == np.uint64
                assert np.array_equal(words, loop_pack_codes(rows, bits)), bits
            assert packed_values(pack_codes(unit, bits)) == reference_pack(unit, bits), bits

    def test_matches_scalar_oracle_at_any_width(self, rng):
        edges = [0.0, 1.0, np.nextafter(1.0, 0.0), 2.0 ** -40, 0.5, 0.75]
        unit = np.vstack([rng.random((40, 4)), np.array(edges)[:, None].repeat(4, axis=1)])
        for bits in [(1, 0, 0, 0), (3, 5, 0, 2), (30, 4, 0, 30), (32, 32, 0, 0), (40, 24, 1, 0),
                     (63, 0, 0, 0), (0, 64, 0, 0), (65, 0, 0, 0), (100, 0, 0, 0), (33, 70, 2, 90),
                     (0, 0, 0, 200), (17, 47, 64, 1)]:
            words = pack_codes(unit, bits)
            assert words.dtype == np.uint64
            assert words.shape == (unit.shape[0], max(1, -(-sum(bits) // 64)))
            assert packed_values(words) == reference_pack(unit, bits), bits

    def test_random_allocations(self, rng):
        unit = rng.random((25, 6))
        for _ in range(50):
            bits = tuple(int(b) for b in rng.integers(0, 80, 6))
            assert packed_values(pack_codes(unit, bits)) == reference_pack(unit, bits), bits

    def test_words_are_most_significant_first(self):
        words = pack_codes(np.array([[0.5, 0.0]]), (1, 64))
        assert words.tolist() == [[1, 0]]


class TestMonotoneRefinement:
    def test_dominating_allocation_refines(self, rng):
        col = sorted(rng.random(63).tolist())
        coarse = manual_model([2, 1, 0], [col, col, col])
        fine = manual_model([4, 2, 1], [col, col, col])
        x = rng.random((50, 3))
        enc_c = encode_samples(coarse, x)
        enc_f = encode_samples(fine, x)
        for bc, bf in zip(enc_c, enc_f):
            truncated = 0
            for code_f, b_c, b_f in zip(unpack_codes(bf, fine.allocation.bits), (2, 1, 0), (4, 2, 1)):
                truncated = (truncated << b_c) | (code_f >> (b_f - b_c))
            assert truncated == bc.value

    def test_collision_structure_is_order_invariant(self, rng):
        col = sorted(rng.random(40).tolist())
        forward = manual_model([2, 3], [col, col])
        backward = manual_model([3, 2], [col, col])
        x = rng.random((120, 2))
        def partition_sizes(encoded):
            groups = {}
            for bs in encoded:
                groups[bs] = groups.get(bs, 0) + 1
            return sorted(groups.values())
        # distinct inputs collide iff all per-component codes match, so the
        # collision partition is the same under either concatenation order
        x_swapped = x[:, ::-1]
        assert partition_sizes(encode_samples(forward, x)) == partition_sizes(
            encode_samples(backward, x_swapped)
        )


class TestFitEncoder:
    def test_one_dimensional_single_bit(self):
        train = Dataset(features=np.linspace(0.1, 0.9, 9).reshape(-1, 1),
                        labels=np.array([0, 0, 0, 0, 1, 1, 1, 1, 1]), c=2)
        model = fit_encoder(train, ReducerSpec("none"), 1)
        assert model.allocation.bits == (1,)

    def test_single_bit_budget(self):
        train = make_synthetic(50, 4, 2, 1.0, seed=5)
        model = fit_encoder(train, ReducerSpec("pca"), 1)
        assert sum(model.allocation.bits) == 1
        assert sorted(model.allocation.bits)[-1] == 1

    def test_refit_serializes_identically(self, tmp_path):
        train = make_synthetic(40, 3, 2, 2.0, seed=6)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        persist_model(fit_encoder(train, ReducerSpec("pca"), 5), p1)
        persist_model(fit_encoder(train, ReducerSpec("pca"), 5), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_constant_component_gets_zero_importance(self):
        features = np.hstack([np.linspace(0, 1, 20).reshape(-1, 1), np.full((20, 1), 2.0)])
        train = Dataset(features=features, labels=(np.arange(20) >= 10).astype(int), c=2)
        model = fit_encoder(train, ReducerSpec("none"), 4)
        assert model.importances.scores[1] == 0.0
        assert model.allocation.bits == (4, 0)

    def test_copula_keeps_every_value_beyond_the_streaming_reservoir(self):
        s = DEFAULT_RESERVOIR_SIZE + 1
        features = np.random.default_rng(3).standard_normal((s, 1))
        train = Dataset(features=features, labels=np.arange(s) % 2, c=2)
        (col,) = fit_encoder(train, ReducerSpec("none"), 4).copula.columns
        assert len(col) == s
        lo, hi = features.min(), features.max()
        assert np.array_equal(col, np.sort((features[:, 0] - lo) / (hi - lo)))


class TestPersistence:
    def test_round_trip_encodes_identically(self, tmp_path, rng):
        train = make_synthetic(80, 4, 3, 2.0, seed=7)
        model = fit_encoder(train, ReducerSpec("pca"), 9)
        persist_model(model, tmp_path / "m.json")
        loaded = load_model(tmp_path / "m.json")
        samples = rng.standard_normal((1000, 4))
        assert encode_samples(model, samples) == encode_samples(loaded, samples)

    @pytest.mark.parametrize("scheme", ["none", "pca", "lsa"])
    def test_bytes_equal_json_dump(self, tmp_path, scheme):
        train = make_synthetic(60, 4, 3, 2.0, seed=9)
        fitted = fit_encoder(train, ReducerSpec(scheme), 7)
        odd = np.array([-0.0, 5e-324, 0.1, 1 / 3, 1e16, 123456789.125, -2.5e-8])
        columns = (odd, np.array([]), *fitted.copula.columns[2:])
        for model in (fitted, dataclasses.replace(fitted, copula=CopulaModel(columns=columns))):
            doc = {
                "version": "1",
                "reducer": model.reducer.to_json_dict(),
                "mins": model.mins.tolist(),
                "maxs": model.maxs.tolist(),
                "copula": [col.tolist() for col in model.copula.columns],
                "importances": model.importances.scores.tolist(),
                "allocation": {"bits": list(model.allocation.bits), "n_x": model.allocation.n_x},
            }
            with open(tmp_path / "oracle.json", "w", encoding="utf-8") as fh:
                json.dump(doc, fh, sort_keys=True)
                fh.write("\n")
            persist_model(model, tmp_path / "m.json")
            assert (tmp_path / "m.json").read_bytes() == (tmp_path / "oracle.json").read_bytes()

    def test_truncated_file_rejected(self, tmp_path):
        train = make_synthetic(20, 2, 2, 2.0, seed=8)
        path = tmp_path / "m.json"
        persist_model(fit_encoder(train, ReducerSpec("none"), 3), path)
        path.write_bytes(path.read_bytes()[:40])
        with pytest.raises(ValueError, match="truncated or invalid"):
            load_model(path)

    def test_non_utf8_file_rejected(self, tmp_path):
        train = make_synthetic(20, 2, 2, 2.0, seed=8)
        path = tmp_path / "m.json"
        persist_model(fit_encoder(train, ReducerSpec("none"), 3), path)
        data = path.read_bytes()
        path.write_bytes(data[:40] + b"\xff" + data[41:])
        with pytest.raises(ValueError) as got:
            load_model(path)
        assert str(got.value).startswith(f"{path}: truncated or invalid model file (")

    def test_version_mismatch_rejected(self, tmp_path):
        train = make_synthetic(20, 2, 2, 2.0, seed=8)
        path = tmp_path / "m.json"
        persist_model(fit_encoder(train, ReducerSpec("none"), 3), path)
        doc = json.loads(path.read_text())
        doc["version"] = "2"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="version '2'"):
            load_model(path)


    @pytest.mark.parametrize("edit,message", [
        (lambda doc: doc["mins"].pop(), "mins/maxs must match the reducer output width"),
        (lambda doc: doc["mins"].__setitem__(0, doc["maxs"][0] + 1.0), "every min must be <= the corresponding max"),
        (lambda doc: doc["importances"].pop(), "copula, allocation, and importances must all have width D"),
    ], ids=["bounds-width", "min-above-max", "parts-width"])
    def test_hand_edited_file_rejected(self, tmp_path, edit, message):
        train = make_synthetic(20, 2, 2, 2.0, seed=8)
        path = tmp_path / "m.json"
        persist_model(fit_encoder(train, ReducerSpec("none"), 3), path)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}$"):
            load_model(path)

    @pytest.mark.parametrize("edit,message", [
        (lambda doc: doc.pop("allocation"), "missing key 'allocation'"),
        (lambda doc: doc["mins"].pop(), "mins/maxs must match the reducer output width"),
        (lambda doc: doc["maxs"].__setitem__(0, "x"), "could not convert string to float: 'x'"),
    ], ids=["missing-key", "short-mins", "string-in-maxs"])
    def test_malformed_file_named(self, tmp_path, edit, message):
        # every malformed model is one ValueError that starts with the file it came from
        train = make_synthetic(20, 2, 2, 2.0, seed=8)
        path = tmp_path / "m.json"
        persist_model(fit_encoder(train, ReducerSpec("none"), 3), path)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError) as got:
            load_model(path)
        assert str(got.value) == f"{path}: {message}"

class TestEncodedFiles:
    def test_round_trip(self, tmp_path):
        records = [(Bitstring(5, 3), 0), (Bitstring(5, 31), 2), (Bitstring(5, 0), 1)]
        path = tmp_path / "r.enc"
        assert write_encoded(path, 5, records) == 3
        width, words, labels = read_packed(path)
        assert width == 5 and words.dtype == np.uint64 and labels.dtype == np.int64
        assert words.tolist() == [[3], [31], [0]] and labels.tolist() == [0, 2, 1]

    def test_header_line(self, tmp_path):
        path = tmp_path / "r.enc"
        write_encoded(path, 6, [(Bitstring(6, 9), 1)])
        lines = path.read_text().splitlines()
        assert lines[0] == "bitbit v1 width=6"
        assert lines[1] == "09 1"

    @pytest.mark.parametrize("record,detail", [("zz 1", "expected 1 hex digits for width 4, got 2"),
                                               (f"3 {1 << 63}", f"label {1 << 63} does not fit in int64")])
    def test_malformed_record_names_line(self, tmp_path, record, detail):
        path = tmp_path / "r.enc"
        path.write_text(f"bitbit v1 width=4\n3 0\n{record}\n")
        with pytest.raises(ValueError, match=f"malformed record at line 3: {detail}"):
            read_packed(path)

    @pytest.mark.parametrize("text,error", [
        ("bitbit v1 width=6\n09 1\n09\n", "at line 3$"),
        ("bitbit v1 width=6\n09 1 2\n", "at line 2$"),
        ("bitbit v1 width=6\n9 1\n", "line 2: expected 2 hex digits for width 6, got 1"),
        ("bitbit v1 width=6\n009 1\n", "line 2: expected 2 hex digits"),
        ("bitbit v1 width=6\n0g 1\n", "line 2: invalid literal"),
        ("bitbit v1 width=6\n40 1\n", "line 2: value 64 does not fit in 6 bits"),
        ("bitbit v1 width=6\n09 x\n", "line 2: invalid literal"),
        ("bitbit v1 width=6\n09 1.0\n", "line 2: invalid literal"),
        ("bitbit v1 width=abc\n09 1\n", "bad header"),
        ("bitbit v1 width=-3\n09 1\n", "bad header"),
        ("bitbit v1 width=\n", "bad header"),
        ("bitbit v2 width=6\n09 1\n", "bad header"),
        ("bitbit v1 width=6 x\n", "bad header"),
        ("", "bad header"),
        ("bitbit v1 width=6\n\n09 1\n   \n3f 0\n\n", None),
        ("bitbit v1 width=6\n3F 0\n0a 2\n", None),
        ("bitbit  v1\twidth=06 \r\n  09\t-1  \r\n3f 0", None),
        ("bitbit v1 width=6\n", None),
        ("bitbit v1 width=130\n3" + "f" * 32 + " 1\n2" + "0" * 31 + "1 0\n", None),
    ], ids=["fields-1", "fields-3", "short-hex", "long-hex", "non-hex", "too-wide", "bad-label", "float-label",
            "width-abc", "width-negative", "width-empty", "bad-magic", "header-fields", "empty-file",
            "blank-lines", "uppercase-hex", "whitespace", "no-records", "wide"])
    def test_read_packed_matches_scalar_reader(self, tmp_path, text, error):
        """read_packed accepts what the line-at-a-time oracle accepts, with the
        same records, and rejects the rest with the oracle's message."""
        path = tmp_path / "r.enc"
        path.write_bytes(text.encode())
        if error is not None:
            with pytest.raises(ValueError, match=error) as expected:
                list(iter_encoded(path))
            with pytest.raises(ValueError) as got:
                read_packed(path)
            assert str(got.value) == str(expected.value) and str(path) in str(got.value)
            return
        records = list(iter_encoded(path))
        width, words, labels = read_packed(path)
        assert words.shape == (len(records), max(1, -(-width // 64)))
        assert [(Bitstring(width, v), label) for v, label in zip(packed_values(words), labels.tolist())] == records

    @pytest.mark.parametrize("text,line", [
        (b"bitbit v1 width=4\n\xff 1\n", 2),
        (b"bitbit v1 width=4\n3 0\n\xff 1\n", 3),
        (b"bitbit v1 width=4\r3 0\r\n\r\n3 \xfe\n", 4),
        (b"bitbit v1 width=4\n" + b"3 0\n" * 3000 + b"3 \xc3\n", 3002),  # past the first chunk decoded
    ], ids=["line-2", "line-3", "carriage-returns", "late"])
    def test_non_utf8_record_names_line(self, tmp_path, text, line):
        path = tmp_path / "r.enc"
        path.write_bytes(text)
        with pytest.raises(ValueError) as got:
            read_packed(path)
        assert str(got.value) == f"{path}: malformed record at line {line}: not UTF-8 text"

    @pytest.mark.parametrize("text,header", [
        (b"bitbit v1 width=\xff\n3 0\n", "bitbit v1 width=\\xff"),
        (b"\xfebitbit v1 width=4\r3 0\r\n", "\\xfebitbit v1 width=4"),
        (b"bitbit v1 width=4 \xc3\n3 \xff\n" + b"3 0\n" * 3000, "bitbit v1 width=4 \\xc3"),
    ], ids=["width", "carriage-return", "later-line-too"])
    def test_non_utf8_header_is_bad_header(self, tmp_path, text, header):
        path = tmp_path / "r.enc"
        path.write_bytes(text)
        with pytest.raises(ValueError) as got:
            read_packed(path)
        assert str(got.value) == f"{path}: not an encoded-record file (bad header {header!r})"

    def test_wrong_width_record_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="width"):
            write_encoded(tmp_path / "r.enc", 4, [(Bitstring(5, 1), 0)])

    @pytest.mark.parametrize("width", [1, 4, 63, 64, 65, 128, 129, 130])
    def test_packed_writer_matches_bitstring_writer(self, tmp_path, width):
        """write_packed's array formatting gives write_encoded's bytes over
        Bitstrings, across word edges, for labels up to 12 and an empty chunk;
        read_packed gives back the words and labels, of a file without records too."""
        rng = np.random.default_rng(width)
        n_words = -(-width // 64)
        words = rng.integers(0, 2**64, size=(300, n_words), dtype=np.uint64)
        words[0] = 0
        words[1] = np.iinfo(np.uint64).max
        words[:, 0] >>= np.uint64(64 * n_words - width)  # the top word holds the bits past the others
        labels = rng.integers(0, 13, size=300)
        chunks = [(words[:120], labels[:120]), (words[:0], labels[:0]), (words[120:], labels[120:])]
        assert write_packed(tmp_path / "packed.enc", width, chunks) == 300
        records = [(Bitstring(width, v), label) for v, label in zip(packed_values(words), labels.tolist())]
        write_encoded(tmp_path / "bitstrings.enc", width, records)
        assert (tmp_path / "packed.enc").read_bytes() == (tmp_path / "bitstrings.enc").read_bytes()
        back_width, back_words, back_labels = read_packed(tmp_path / "packed.enc")
        assert back_width == width and np.array_equal(back_words, words) and np.array_equal(back_labels, labels)
        assert write_packed(tmp_path / "empty.enc", width, [(words[:0], labels[:0])]) == 0
        _, empty_words, empty_labels = read_packed(tmp_path / "empty.enc")
        assert empty_words.shape == (0, n_words) and empty_labels.shape == (0,)


class TestSplitCodes:
    """Both splits' codes at a bit allocation: the one producer of in-memory
    words for the sweep, ``encode`` and ``train``, and the one writer."""

    @staticmethod
    def fitted_split():
        d = make_synthetic(90, 3, 3, 1.0, seed=17)
        train, test = split_train_test(d, SplitSpec(0.7, seed=3))
        return fit_encoder(train, ReducerSpec("pca"), 1), train, test

    @pytest.mark.parametrize("n_x", [1, 64, 65, 130])
    def test_matches_per_split_packing(self, n_x):
        model, train, test = self.fitted_split()
        bits = allocate_bits(model.importances, n_x).bits
        for chunks, split in zip(split_codes(model, train, test)(bits), (train, test)):
            [(words, labels)] = chunks
            assert np.array_equal(words, pack_codes(copula_units(model, split.features), bits))
            assert words.shape[1] == -(-n_x // 64) and np.array_equal(labels, split.labels)

    @pytest.mark.parametrize("n_x", [5, 70])
    def test_write_encoding_matches_bitstring_writers(self, tmp_path, n_x):
        model, train, test = self.fitted_split()
        model = model.at_width(n_x)
        write_encoding(tmp_path / "new" / "enc", model, split_codes(model, train, test))
        (tmp_path / "old").mkdir()
        persist_model(model, tmp_path / "old" / "model.json")
        for name, split in (("train", train), ("test", test)):
            records = zip(encode_samples(model, split.features), split.labels.tolist())
            write_encoded(tmp_path / "old" / f"{name}.enc", model.width, records)
        assert sorted(p.name for p in (tmp_path / "new" / "enc").iterdir()) == ["model.json", "test.enc", "train.enc"]
        for name in ("model.json", "train.enc", "test.enc"):
            assert (tmp_path / "new" / "enc" / name).read_bytes() == (tmp_path / "old" / name).read_bytes()
