import csv
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bitbit.data
import bitbit.stream
from bitbit.coverage import build_table, code_coverage
from bitbit.data import Dataset, load_csv, make_synthetic, parse_csv_row
from bitbit.dimred import ReducerSpec
from bitbit.encoder import (
    Bitstring,
    _Reservoir,
    copula_ranks,
    encode_samples,
    fit_encoder,
    packed_values,
    persist_model,
    read_packed,
    write_encoded,
    write_packed,
)
from bitbit.stream import (
    ArrayBatchSource,
    CsvBatchSource,
    Spill,
    _spill_codes,
    stream_fit_base,
    stream_sweep_curve,
)
from tests.conftest import count_converted_rows, iter_encoded, write_dataset_csv


def bs(bits):
    return Bitstring.from_bits(bits)


def source(dataset):
    return ArrayBatchSource(dataset.features, dataset.labels)


class TestSources:
    def test_array_source_batch_shapes(self):
        d = make_synthetic(25, 3, 2, 1.0, seed=0)
        src = ArrayBatchSource(d.features, d.labels)
        sizes = [x.shape[0] for x, _ in src.batches(10)]
        assert sizes == [10, 10, 5]

    def test_csv_source_matches_array_source(self, tmp_path):
        d = make_synthetic(40, 2, 3, 1.0, seed=1)
        path = tmp_path / "d.csv"
        write_dataset_csv(path, d)
        src = CsvBatchSource(path, "label")
        xs, ys = zip(*src.batches(16))
        assert np.array_equal(np.vstack(xs), d.features)
        # ids follow first appearance in the file, not the original values
        remap = {orig: src.label_mapping[str(orig)] for orig in set(d.labels.tolist())}
        expected = np.array([remap[lab] for lab in d.labels.tolist()])
        assert np.array_equal(np.concatenate(ys), expected)

    def test_csv_source_is_restartable_with_stable_mapping(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,label\n1.0,x\n2.0,y\n3.0,x\n", encoding="utf-8")
        src = CsvBatchSource(path, "label")
        list(src.batches(2))
        first = dict(src.label_mapping)
        list(src.batches(2))
        assert src.label_mapping == first == {"x": 0, "y": 1}

    def test_strict_mapping_rejects_unseen_label(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,label\n1.0,x\n2.0,z\n", encoding="utf-8")
        src = CsvBatchSource(path, "label", label_mapping={"x": 0, "y": 1})
        with pytest.raises(ValueError, match="'z' was not seen in training"):
            list(src.batches(10))

    def test_malformed_record_names_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,label\n1.0,x\noops,y\n", encoding="utf-8")
        src = CsvBatchSource(path, "label")
        with pytest.raises(ValueError, match="line 3"):
            list(src.batches(10))


def assert_same_batches(got, expected, batch_size, dtype):
    """``Spill.batches`` chunks against a source's batches: equal values and
    labels, then one short chunk that is empty when ``batch_size`` divides
    the record count."""
    records = sum(len(y) for _, y in expected)
    assert len(got) == records // batch_size + 1 and len(got[-1][1]) == records % batch_size
    for (x, y), (x0, y0) in zip(got, expected):
        assert np.array_equal(x, x0) and np.array_equal(y, y0)
    for x, y in got:
        assert x.dtype == dtype and y.dtype == np.int64 and x.flags.c_contiguous


def write_spill_csv(tmp_path, rows=40):
    path = tmp_path / "d.csv"
    write_dataset_csv(path, make_synthetic(rows, 3, 3, 1.0, seed=21))
    return path


class TestRowSpill:
    """The training CSV's row spill, a float64 ``Spill``: one pass over the CSV
    writes it, and every read yields what the CSV source yields."""

    @pytest.mark.parametrize("batch_size", [1, 7, 40, 41, 100])
    def test_later_passes_match_the_first(self, tmp_path, monkeypatch, batch_size):
        path = write_spill_csv(tmp_path)
        direct = list(CsvBatchSource(path, "label").batches(batch_size))
        counts = count_converted_rows(monkeypatch)
        csv_source = CsvBatchSource(path, "label")
        spill = Spill(tmp_path / "d.rows", np.float64, 4)
        assert spill.write(csv_source.batches(batch_size)) == 40
        passes = [list(spill.batches(batch_size)) for _ in range(3)]
        assert sum(counts) == 40  # the write only
        for batches in passes:
            assert_same_batches(batches, direct, batch_size, np.float64)
        assert len(csv_source.label_mapping) == 3
        assert (tmp_path / "d.rows").stat().st_size == 8 * 4 * 40

    def test_any_batch_size_reads_the_spill(self, tmp_path, monkeypatch):
        path = write_spill_csv(tmp_path)
        counts = count_converted_rows(monkeypatch)
        spill = Spill(tmp_path / "d.rows", np.float64, 4)
        spill.write(CsvBatchSource(path, "label").batches(7))
        for batch_size in (1, 5, 40, 41):
            assert_same_batches(list(spill.batches(batch_size)),
                                list(CsvBatchSource(path, "label").batches(batch_size)), batch_size, np.float64)
        assert sum(counts) == 40 * 5

    def test_strict_mapping_unchanged(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,label\n1.0,y\n2.0,x\n3.0,y\n", encoding="utf-8")
        source = CsvBatchSource(path, "label", label_mapping={"x": 0, "y": 1})
        spill = Spill(tmp_path / "d.rows", np.float64, 2)
        assert spill.write(source.batches(2)) == 3
        for _ in range(2):
            assert [y.tolist() for _, y in spill.batches(2)] == [[1, 0], [1]]
        assert source.label_mapping == {"x": 0, "y": 1}
        path.write_text("a,label\n1.0,x\n2.0,z\n", encoding="utf-8")
        source = CsvBatchSource(path, "label", label_mapping={"x": 0, "y": 1})
        with pytest.raises(ValueError, match="line 3: label 'z' was not seen in training"):
            spill.write(source.batches(1))
        assert source.label_mapping == {"x": 0, "y": 1}

    def test_empty_source(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,label\n", encoding="utf-8")
        spill = Spill(tmp_path / "d.rows", np.float64, 2)
        assert spill.write(CsvBatchSource(path, "label").batches(4)) == 0
        assert spill.path.stat().st_size == 0
        (x, y), = spill.batches(4)
        assert x.shape == (0, 1) and y.shape == (0,)
        for scheme in ("none", "pca"):
            with pytest.raises(ValueError, match="^train source must yield at least 2 samples, got 0$"):
                stream_fit_base(spill, ReducerSpec(scheme), 4)

    def test_batch_size_checked(self, tmp_path):
        spill = Spill(tmp_path / "d.rows", np.float64, 4)
        spill.write(CsvBatchSource(write_spill_csv(tmp_path), "label").batches(8))
        with pytest.raises(ValueError, match="batch_size must be >= 1"):
            list(spill.batches(0))


class TestRankSpill:
    """A split's rank spill, a uint32 ``Spill`` of ``copula_ranks`` and labels."""

    @pytest.mark.parametrize("batch_size", [1, 7, 40, 41, 100])
    def test_round_trip(self, tmp_path, batch_size):
        source = CsvBatchSource(write_spill_csv(tmp_path), "label")
        model = fit_encoder(load_csv(source.path, "label"), ReducerSpec("pca"), 5)
        n_columns = len(model.copula) + 1
        spill = Spill(tmp_path / "d.ranks", np.uint32, n_columns)
        expected = [(copula_ranks(model, x), y) for x, y in source.batches(batch_size)]
        assert spill.write(expected) == 40
        assert spill.path.stat().st_size == 4 * n_columns * 40
        assert_same_batches(list(spill.batches(batch_size)), expected, batch_size, np.uint32)


class _ColumnReservoir:
    """The one-column reservoir that ``_Reservoir`` replaced, kept as its oracle:
    d of these, fed column by column from one generator, are the ``(d, capacity)`` reservoir."""

    def __init__(self, capacity: int, rng: np.random.Generator | None):
        self.capacity = capacity
        self.rng = rng
        self.values = np.empty(0, dtype=np.float64)
        self.size = 0
        self.seen = 0

    def grow(self, fill: int) -> None:
        """Make room for ``fill`` more values, at least doubling the buffer, up to ``capacity``."""
        if self.size + fill > self.values.shape[0]:
            grown = np.empty(min(self.capacity, max(self.size + fill, 2 * self.values.shape[0])))
            grown[:self.size] = self.values[:self.size]
            self.values = grown

    def add(self, vals: np.ndarray) -> None:
        m = vals.shape[0]
        fill = min(self.capacity - self.size, m)
        if fill:
            self.grow(fill)
            self.values[self.size:self.size + fill] = vals[:fill]
            self.size += fill
            self.seen += fill
        rest = m - fill
        if rest:
            highs = np.arange(self.seen + 1, self.seen + rest + 1)
            draws = self.rng.integers(0, highs)
            hits = np.nonzero(draws < self.capacity)[0]
            slots, from_end = np.unique(draws[hits][::-1], return_index=True)
            self.values[slots] = vals[fill + hits[hits.shape[0] - 1 - from_end]]
            self.seen += rest

    def result(self) -> np.ndarray:
        return self.values[:self.size]


class _RecordingGenerator:
    """A generator whose ``integers`` draws are kept, to count repeated slots."""

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.draws = []

    def integers(self, low, high):
        self.draws.append(self.rng.integers(low, high))
        return self.draws[-1]


class TestReservoir:
    def test_identity_below_capacity(self, rng):
        res = _Reservoir(100, 1, rng)
        res.add(np.arange(30.0)[:, None])
        res.add(np.arange(30.0, 60.0)[:, None])
        assert np.array_equal(res.result(), np.arange(60.0)[:, None])

    def test_capacity_bound(self, rng):
        res = _Reservoir(50, 1, rng)
        for lo in range(0, 1000, 100):
            res.add(np.arange(float(lo), float(lo + 100))[:, None])
        out = res.result()
        assert out.shape == (50, 1)
        assert set(out.ravel().tolist()) <= set(np.arange(1000.0).tolist())

    def test_deterministic_for_fixed_seed(self):
        a = _Reservoir(20, 1, np.random.default_rng(7))
        b = _Reservoir(20, 1, np.random.default_rng(7))
        for lo in range(0, 200, 37):
            chunk = np.arange(float(lo), float(min(lo + 37, 200)))[:, None]
            a.add(chunk)
            b.add(chunk)
        assert np.array_equal(a.result(), b.result())

    @staticmethod
    def _loop_add(res, vals) -> int:
        """The per-replacement loop (algorithm R, one value at a time in arrival
        order) over a ``_ColumnReservoir``, kept as the oracle for the vectorized
        add; returns how many replacements hit a slot already replaced in the same call."""
        m = vals.shape[0]
        fill = min(res.capacity - res.size, m)
        res.grow(fill)
        res.values[res.size:res.size + fill] = vals[:fill]
        res.size += fill
        res.seen += fill
        rest = m - fill
        repeats = 0
        if rest:
            draws = res.rng.integers(0, np.arange(res.seen + 1, res.seen + rest + 1))
            hits = np.nonzero(draws < res.capacity)[0].tolist()
            repeats = len(hits) - len(set(draws[hits].tolist()))
            for offset in hits:
                res.values[draws[offset]] = vals[fill + offset]
            res.seen += rest
        return repeats

    @pytest.mark.parametrize("capacity,chunk", [(1, 50), (3, 40), (3, 1), (5, 7), (40, 300)])
    def test_matches_loop_with_repeated_slots(self, capacity, chunk):
        fast = _Reservoir(capacity, 1, np.random.default_rng(11))
        slow = _ColumnReservoir(capacity, np.random.default_rng(11))
        stream = np.random.default_rng(12).standard_normal(2000)
        repeats = 0
        for lo in range(0, stream.shape[0], chunk):
            vals = stream[lo:lo + chunk]
            fast.add(vals[:, None])
            repeats += self._loop_add(slow, vals)
            assert np.array_equal(fast.result()[:, 0], slow.result())
            assert (fast.size, fast.seen) == (slow.size, slow.seen)
        assert fast.rng.integers(0, 2**62) == slow.rng.integers(0, 2**62)
        assert repeats > 0 or chunk == 1

    @pytest.mark.parametrize("capacity", [1, 3, 40])
    @pytest.mark.parametrize("batch", [1, 7, 300])
    def test_matches_one_column_reservoirs(self, capacity, batch):
        """The ``(d, capacity)`` reservoir is d one-column reservoirs fed column by
        column in component order, value for value, and consumes the generator as they do."""
        d = 3
        stream = np.random.default_rng(14).standard_normal((2000, d))
        res = _Reservoir(capacity, d, np.random.default_rng(13))
        oracle = _RecordingGenerator(13)
        columns = [_ColumnReservoir(capacity, oracle) for _ in range(d)]
        for lo in range(0, stream.shape[0], batch):
            res.add(stream[lo:lo + batch])
            for j, column in enumerate(columns):
                column.add(stream[lo:lo + batch, j])
            assert np.array_equal(res.result(), np.column_stack([column.result() for column in columns]))
            assert all((res.size, res.seen) == (column.size, column.seen) for column in columns)
        assert res.result().shape == (capacity, d) and res.result()[:, 0].flags.c_contiguous
        assert res.rng.integers(0, 2**62) == oracle.rng.integers(0, 2**62)
        repeats = sum(hits.size - np.unique(hits).size for hits in (draws[draws < capacity] for draws in oracle.draws))
        assert repeats > 0 or batch == 1


class TestStreamFit:
    def test_single_batch_matches_in_memory_fit_exactly(self, tmp_path):
        d = make_synthetic(80, 4, 2, 3.0, seed=2)
        for scheme in ("none", "pca"):
            streamed = stream_fit_base(source(d), ReducerSpec(scheme), 200).at_width(6)
            in_memory = fit_encoder(d, ReducerSpec(scheme), 6)
            p1, p2 = tmp_path / "s.json", tmp_path / "m.json"
            persist_model(streamed, p1)
            persist_model(in_memory, p2)
            assert p1.read_bytes() == p2.read_bytes()

    def test_batch_size_does_not_change_reducer_or_extrema(self):
        d = make_synthetic(100, 3, 2, 2.0, seed=3)
        for scheme, exact in (("none", True), ("pca", False)):
            models = []
            for batch_size in (50, 100):
                models.append(stream_fit_base(source(d), ReducerSpec(scheme), batch_size)
                              .at_width(5 if scheme == "pca" else 3))
            a, b = models
            assert np.abs(a.reducer.components - b.reducer.components).max() < 1e-6
            if exact:
                # identity reducer: extrema are batch-partition invariant bit for bit
                assert np.array_equal(a.mins, b.mins)
                assert np.array_equal(a.maxs, b.maxs)
            else:
                # pca components differ by summation order, so extrema track them
                assert np.abs(a.mins - b.mins).max() < 1e-6
                assert np.abs(a.maxs - b.maxs).max() < 1e-6

    def test_empty_source_rejected(self):
        src = ArrayBatchSource(np.empty((0, 3)), np.empty(0, dtype=int))
        with pytest.raises(ValueError, match="at least 2 samples"):
            stream_fit_base(src, ReducerSpec("pca"), 10)

    def test_lsa_not_streamable(self):
        d = make_synthetic(20, 2, 2, 1.0, seed=4)
        with pytest.raises(ValueError, match="^lsa fits one batch, got a second non-empty batch$"):
            stream_fit_base(source(d), ReducerSpec("lsa"), 10)

    def test_work_dir_artifacts_written(self, tmp_path):
        d = make_synthetic(30, 2, 2, 2.0, seed=5)
        base = stream_fit_base(source(d), ReducerSpec("pca"), 8)
        curve = stream_sweep_curve(source(d), ArrayBatchSource(d.features[:10], d.labels[:10]), base, 2, 8,
                                   tmp_path / "work", 4, 3)
        assert (tmp_path / "work" / "model.json").exists()
        width, words, labels = read_packed(tmp_path / "work" / "train.enc")
        assert width == curve[-1][0] == 4 and words.shape == (30, 1) and len(labels) == 30
        assert sorted(p.name for p in (tmp_path / "work").iterdir()) == ["model.json", "test.enc", "train.enc"]


class TestStreamEncode:
    @staticmethod
    def rank_spill(path, model, source, batch_size):
        spill = Spill(path, np.uint32, len(model.copula) + 1)
        spill.write((copula_ranks(model, x), y) for x, y in source.batches(batch_size))
        return spill

    def test_reencoding_is_byte_identical(self, tmp_path):
        d = make_synthetic(50, 3, 2, 2.0, seed=6)
        model = fit_encoder(d, ReducerSpec("pca"), 5)
        src = ArrayBatchSource(d.features, d.labels)
        counts = []
        for name in ("a", "b"):
            spill = self.rank_spill(tmp_path / f"{name}.ranks", model, src, 7)
            codes = _spill_codes(spill, model.copula, model.allocation.bits, 7)
            counts.append(write_packed(tmp_path / f"{name}.enc", model.width, codes))
        assert counts == [50, 50]
        assert (tmp_path / "a.enc").read_bytes() == (tmp_path / "b.enc").read_bytes()

    def test_matches_in_memory_encoding(self, tmp_path):
        d = make_synthetic(50, 3, 2, 2.0, seed=7)
        model = fit_encoder(d, ReducerSpec("none"), 4)
        path = tmp_path / "x.enc"
        spill = self.rank_spill(tmp_path / "x.ranks", model, ArrayBatchSource(d.features, d.labels), 13)
        write_packed(path, model.width, _spill_codes(spill, model.copula, model.allocation.bits, 13))
        width, words, labels = read_packed(path)
        assert [Bitstring(width, v) for v in packed_values(words)] == encode_samples(model, d.features)
        assert np.array_equal(labels, d.labels)


class TestStreamCoverage:
    def test_batched_rule_hand_count(self):
        train = [(bs("01"), 0)] * 3 + [(bs("01"), 1)]
        test = [(bs("01"), 1), (bs("01"), 1), (bs("01"), 0)]
        m = code_coverage(build_table(train, 2), build_table(test, 2), batched=True)
        # test majority at 01 is 1, train majority is 0: the whole bucket errs
        assert m.test_overlap_incidence == 1.0
        assert m.theoretical_test_accuracy == 0.0

    def test_disjoint_test(self):
        m = code_coverage(build_table([(bs("00"), 0), (bs("01"), 1)], 2),
                          build_table([(bs("10"), 0), (bs("11"), 1)], 2), batched=True)
        assert m.test_overlap_incidence == 0.0
        assert m.test_train_overlap_fraction == 0.0

    def test_single_label_buckets_match_per_sample_rule(self, rng):
        # one test record per bitstring: the per-bucket majority IS the label
        train = [(Bitstring(3, int(v)), int(l))
                 for v, l in zip(rng.integers(0, 8, 40), rng.integers(0, 2, 40))]
        values = rng.permutation(8)[:5]
        test = [(Bitstring(3, int(v)), int(rng.integers(0, 2))) for v in values]
        table = build_table(train, 2)
        streamed = code_coverage(table, build_table(test, 2), batched=True)
        in_memory = code_coverage(table, build_table(test, table.c))
        assert streamed == in_memory

    def test_table_memory_tracks_unique_codes(self):
        # many records, few distinct codes: entry count stays at the distinct count
        records = [(Bitstring(4, v % 8), v % 2) for v in range(10_000)]
        table = build_table(records, 2)
        assert table.codes.shape[0] == 8
        assert table.total == 10_000


class TestStreamEquivalence:
    def test_full_metric_equality_when_buckets_are_single_label(self, tmp_path):
        # duplicated-center data with balanced training counts keeps every
        # encoded bucket single-label, where the streamed and per-sample test
        # rules provably coincide
        rng = np.random.default_rng(8)
        centers = rng.normal(scale=4.0, size=(2, 3))
        train_rows = np.repeat(centers, 20, axis=0)
        train_labels = np.repeat([0, 1], 20)
        test_rows = np.repeat(centers, 5, axis=0)
        test_labels = np.repeat([0, 1], 5)
        train = Dataset(features=train_rows, labels=train_labels, c=2)

        with pytest.warns(UserWarning, match="rank"):
            model = fit_encoder(train, ReducerSpec("pca"), 4)
        encoded_test = list(zip(encode_samples(model, test_rows), test_labels.tolist()))
        table = build_table(
            zip(encode_samples(model, train_rows), train_labels.tolist()), 2
        )
        in_memory = code_coverage(table, build_table(encoded_test, table.c))
        streamed = code_coverage(table, build_table(encoded_test, 2), batched=True)
        assert streamed == in_memory


class CountingSource:
    """Wraps a source and counts the passes made over it."""

    def __init__(self, source):
        self.source = source
        self.passes = 0

    def batches(self, batch_size):
        self.passes += 1
        return self.source.batches(batch_size)


class TestFitPasses:
    @pytest.mark.parametrize("scheme,passes", [("none", 2), ("pca", 2)])
    def test_pass_count(self, scheme, passes):
        d = make_synthetic(40, 3, 2, 2.0, seed=9)
        src = CountingSource(ArrayBatchSource(d.features, d.labels))
        model = stream_fit_base(src, ReducerSpec(scheme), 16)
        assert src.passes == passes
        assert model.reducer.n_features == 3

    @pytest.mark.parametrize("scheme", ["none", "pca"])
    @pytest.mark.parametrize("rows", [0, 1])
    def test_fewer_than_two_samples(self, scheme, rows):
        d = make_synthetic(2, 3, 2, 2.0, seed=9)
        src = ArrayBatchSource(d.features[:rows], d.labels[:rows])
        with pytest.raises(ValueError, match=f"^train source must yield at least 2 samples, got {rows}$"):
            stream_fit_base(src, ReducerSpec(scheme), 16)

    @pytest.mark.parametrize("scheme", ["none", "pca"])
    def test_single_row_batches_rejected(self, scheme):
        d = make_synthetic(20, 3, 2, 2.0, seed=9)
        with pytest.raises(ValueError, match="^no batch held 2 or more samples; cannot score importances$"):
            stream_fit_base(source(d), ReducerSpec(scheme), 1)

    def test_none_component_mismatch(self):
        d = make_synthetic(20, 3, 2, 2.0, seed=9)
        src = CountingSource(source(d))
        with pytest.raises(ValueError, match=r"requires n_components == n \(3\), got 2"):
            stream_fit_base(src, ReducerSpec("none", 2), 8)
        assert src.passes == 1  # rejected by the reducer fit, before the second pass

    @pytest.mark.parametrize("scheme", ["none", "pca"])
    def test_empty_reservoir_rejected(self, scheme):
        d = make_synthetic(20, 3, 2, 2.0, seed=9)
        with pytest.raises(ValueError, match="^reservoir_size must be >= 1$"):
            stream_fit_base(source(d), ReducerSpec(scheme), 8, reservoir_size=0)


def oracle_sweep(base, train_source, test_source, c, batch_size, n_x_max, step, work):
    """The per-width path the spill sweep replaces: encode both splits to
    files with one Bitstring per record, then the batched ``code_coverage`` over the
    tables read back from them."""
    work.mkdir(parents=True, exist_ok=True)
    curve = []
    train_met = test_met = False
    for n_x in range(1, n_x_max + 1, step):
        model = base.at_width(n_x)
        for name, source in (("train", train_source), ("test", test_source)):
            records = ((z, label) for x, y in source.batches(batch_size)
                       for z, label in zip(encode_samples(model, x), y.tolist()))
            write_encoded(work / f"{name}.enc", model.width, records)
        metrics = code_coverage(build_table(iter_encoded(work / "train.enc"), c),
                                build_table(iter_encoded(work / "test.enc"), c), batched=True)
        curve.append((n_x, metrics))
        train_met = train_met or metrics.theoretical_train_accuracy >= 1.0
        test_met = test_met or metrics.theoretical_test_accuracy >= 1.0
        if train_met and test_met:
            break
    persist_model(model, work / "model.json")
    return curve


def separable_split():
    d = make_synthetic(60, 3, 2, 2.0, seed=12)
    t = make_synthetic(20, 3, 2, 2.0, seed=13)
    return ArrayBatchSource(d.features, d.labels), ArrayBatchSource(t.features, t.labels)


def conflicting_split():
    """3 classes with duplicated rows under conflicting labels, so training
    accuracy never reaches 1 and the sweep runs to its cap; test rows repeat
    training rows, so test buckets overlap and hold mixed labels."""
    d = make_synthetic(70, 3, 3, 1.0, seed=11)
    x = np.vstack([d.features, d.features[:10]])
    y = np.concatenate([d.labels, (d.labels[:10] + 1) % 3])
    tx = np.vstack([d.features[50:70], d.features[:6]])
    ty = np.concatenate([d.labels[50:70], (d.labels[:6] + 2) % 3])
    return ArrayBatchSource(x, y), ArrayBatchSource(tx, ty)


class TestStreamSweep:
    """The spill sweep against the per-width oracle: equal metrics at every
    width and byte-identical final outputs."""

    @pytest.mark.parametrize("scheme", ["none", "pca"])
    @pytest.mark.parametrize("batch_size", [1, 7, 500])
    @pytest.mark.parametrize("split,n_x_max,step,reservoir", [
        (separable_split, 40, 3, 100_000),  # stops early
        (conflicting_split, 100, 11, 100_000),  # runs to the cap, past 64 bits: object keys
        (conflicting_split, 30, 4, 25),  # the reservoir samples the train stream
    ])
    def test_matches_per_width_oracle(self, tmp_path, scheme, batch_size, split, n_x_max, step, reservoir):
        train_source, test_source = split()
        # The fit needs batches of 2+ rows; the sweep does not.
        base = stream_fit_base(train_source, ReducerSpec(scheme), 7, reservoir_size=reservoir)
        c = int(train_source.labels.max()) + 1
        curve = stream_sweep_curve(train_source, test_source, base, c, batch_size, tmp_path / "new",
                                   n_x_max, step)
        expected = oracle_sweep(base, train_source, test_source, c, batch_size, n_x_max, step, tmp_path / "old")
        assert curve == expected
        last = range(1, n_x_max + 1, step)[-1]
        assert (curve[-1][0] < last) if split is separable_split else (curve[-1][0] == last)
        for name in ("model.json", "train.enc", "test.enc"):
            assert (tmp_path / "new" / name).read_bytes() == (tmp_path / "old" / name).read_bytes()
        assert sorted(p.name for p in (tmp_path / "new").iterdir()) == ["model.json", "test.enc", "train.enc"]

    def test_empty_test_split(self, tmp_path):
        d = make_synthetic(30, 2, 2, 2.0, seed=14)
        empty = ArrayBatchSource(np.empty((0, 2)), np.empty(0, dtype=np.int64))
        base = stream_fit_base(source(d), ReducerSpec("pca"), 10)
        curve = stream_sweep_curve(source(d), empty, base, 2, 10, tmp_path / "new", 12, 5)
        assert curve == oracle_sweep(base, source(d), empty, 2, 10, 12, 5, tmp_path / "old")

    def test_failure_at_test_source_leaves_no_spill(self, tmp_path):
        d = make_synthetic(30, 2, 2, 2.0, seed=15)
        path = tmp_path / "test.csv"
        path.write_text("f0,f1,label\n0.5,0.5,0\n0.1,0.2,7\n", encoding="utf-8")
        work = tmp_path / "work"
        test_source = CsvBatchSource(path, "label", label_mapping={"0": 0, "1": 1})
        base = stream_fit_base(source(d), ReducerSpec("pca"), 10)
        with pytest.raises(ValueError, match="line 3: label '7' was not seen in training"):
            stream_sweep_curve(source(d), test_source, base, 2, 10, work, 12, 5)
        assert list(work.iterdir()) == []

    @pytest.mark.parametrize("n_x_max,step,message", [(12, 0, "step must be >= 1"), (0, 5, "n_x_max must be >= 1")])
    def test_sweep_arguments_checked_before_the_rank_pass(self, tmp_path, monkeypatch, n_x_max, step, message):
        d = make_synthetic(30, 2, 2, 2.0, seed=16)
        base = stream_fit_base(source(d), ReducerSpec("pca"), 10)

        def never(*args):
            raise AssertionError("ranked before the sweep arguments were checked")

        monkeypatch.setattr(bitbit.stream, "copula_ranks", never)
        with pytest.raises(ValueError, match=message):
            stream_sweep_curve(source(d), source(d), base, 2, 10, tmp_path / "work", n_x_max, step)
        assert list(tmp_path.iterdir()) == []

    def test_batch_size_checked_before_the_work_dir_is_made(self, tmp_path):
        d = make_synthetic(30, 2, 2, 2.0, seed=16)
        base = stream_fit_base(source(d), ReducerSpec("pca"), 10)
        with pytest.raises(ValueError, match="batch_size must be >= 1"):
            stream_sweep_curve(source(d), source(d), base, 2, 0, tmp_path / "work", 12, 5)
        assert list(tmp_path.iterdir()) == []


FLOAT_CELLS = st.floats(allow_nan=False, allow_infinity=False).map(repr)  # shortest repr
ODD_FEATURE_CELLS = ["1_000", " 1.5 ", "\xa01.5", "\u0661\u0662", "nan", "inf", "-inf", "", " ", "-0.0", "1e-3",
                     "abc", "#1", '"2.5"', '" 3"', '"1\n.5"', "1\x00", "1" * 60]
LABEL_CELLS = ["x", "y", " y ", "z", "", "  ", "#x", '"x"', '"x\ny"', '"a,b"', '"x\n\ny"', "x\x00", "w" * 60]
# Half of all odd cells come from these: a non-finite value and cells over the
# field size limit that test_batches_match_csv_reader_oracle sets. Each is caught
# by one check only, so the draws alone must hold them often.
ODD_CELLS_WEIGHTED = (st.sampled_from(["nan", "inf", "-inf", "1" * 60]) | st.sampled_from(ODD_FEATURE_CELLS),
                      st.sampled_from(["w" * 60]) | st.sampled_from(LABEL_CELLS))
LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def csv_files(draw):
    """(label column index, file text): two feature columns and a label, then
    rows of shortest-repr floats, blank and whitespace-only lines and, in
    about half the files, some of: an odd feature or label cell (one of each
    per file), quoted cells (some holding a newline), lines that begin with
    ``#``, rows with a field too few (some with two cells quoted as one) or
    too many."""
    label_idx = draw(st.integers(0, 2))
    names = ["f0", "f1"]
    names.insert(label_idx, "label")
    clean = draw(st.booleans())
    odd_cells = [draw(cells) for cells in ODD_CELLS_WEIGHTED]
    kinds = ["row"] * 4 + ["blank", "space"] + 3 * [
        kind for kind in ("odd", "quoted", "comment", "short", "long") if not clean and draw(st.booleans())]
    text = ",".join(names) + draw(LINE_ENDS)
    for _ in range(draw(st.integers(0, 14))):
        kind = draw(st.sampled_from(kinds))
        if kind == "blank":
            body = ""
        elif kind == "space":
            body = draw(st.sampled_from([" ", "\t", "  "]))
        else:
            cells = [draw(FLOAT_CELLS) for _ in range(2)]
            cells.insert(label_idx, draw(st.sampled_from(["x", "y", " y ", "z"])))
            j = draw(st.integers(0, 2))
            if kind == "odd":
                cells[j] = odd_cells[j == label_idx]
            elif kind == "quoted":
                cells[j] = '"' + cells[j] + ("\n" if draw(st.booleans()) else "") + '"'
            elif kind == "short" and draw(st.booleans()):  # a comma too few, but not a character
                cells[:2] = ['"' + ",".join(cells[:2]) + '"']
            elif kind == "short":
                cells.pop(j)
            elif kind == "long":
                cells.append(draw(FLOAT_CELLS))
            body = ("#" if kind == "comment" else "") + ",".join(cells)
        text += body + draw(LINE_ENDS)
    return label_idx, text


def oracle_batches(path, label_idx, batch_size, mapping, strict):
    """``csv.reader`` + ``parse_csv_row``, row by row: the (features, label ids)
    batches yielded before the first error, and its message (None if none).
    A batch's rows are all read before the first is converted."""
    batches = []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = [h.strip() for h in next(reader)]
        feature_idx = [j for j in range(3) if j != label_idx]

        def convert(rows):
            values, ids = [], []
            for line_no, row in rows:
                v, label = parse_csv_row(row, header, label_idx, feature_idx, path, line_no)
                if label not in mapping:
                    if strict:
                        raise ValueError(f"{path}: line {line_no}: label {label!r} was not seen in training")
                    mapping[label] = len(mapping)
                values.append(v)
                ids.append(mapping[label])
            return np.asarray(values, dtype=np.float64), ids

        rows, line_no = [], 1
        try:
            while True:
                line_no += 1
                try:
                    row = next(reader)
                except StopIteration:
                    break
                except csv.Error as exc:
                    raise ValueError(f"{path}: line {line_no}: {exc}") from None
                if row:
                    rows.append((line_no, row))
                if len(rows) == batch_size:
                    batches.append(convert(rows))
                    rows = []
            if rows:
                batches.append(convert(rows))
        except ValueError as exc:
            return batches, str(exc)
    return batches, None


GOOD_ROWS = ["0.5,1.5,x", "-2.0,3.25,y", "1e-3,4,x", "7,8,z", "0.0,-0.0,y", "2,3,x", "9,9,y", "4,5,z",
             "1,1,x", "2,2,y", "3,3,z"]

BAD_ROWS = [
    "1.0,x",  # wrong field count
    "1.0,2.0,3.0,x",
    "1.0,,x",  # empty cell
    "abc,1.0,x",
    "nan,1.0,x",
    "1.0,inf,x",
    "-inf,1.0,x",
    "1.0,2.0,",  # empty label
    "1.0,2.0,  ",
    "1.0,2.0,w",  # label not seen in training (strict source only)
]


class TestCsvIngestParity:
    """Batch conversion, in CsvBatchSource and in load_csv, gives parse_csv_row's
    arrays, and parse_csv_row's error for the first bad row, wherever the row
    sits in its batch."""

    @staticmethod
    def expected_error(path, line, line_no, strict):
        header = ["f0", "f1", "label"]
        (row,) = csv.reader([line])
        try:
            _, label = parse_csv_row(row, header, 2, [0, 1], path, line_no)
        except ValueError as exc:
            return str(exc)
        assert strict and label == "w"
        return f"{path}: line {line_no}: label 'w' was not seen in training"

    @pytest.mark.parametrize("bad", BAD_ROWS)
    @pytest.mark.parametrize("position", [0, 3, 7])  # first row, mid-batch, last of the first batch
    def test_error_matches_row_parser(self, tmp_path, monkeypatch, bad, position):
        rows = list(GOOD_ROWS)
        rows.insert(position, bad)
        path = tmp_path / "d.csv"
        path.write_text("f0,f1,label\n" + "\n".join(rows) + "\n", encoding="utf-8")
        strict = bad.endswith(",w")
        src = CsvBatchSource(path, "label", label_mapping={"x": 0, "y": 1, "z": 2} if strict else None)
        expected = self.expected_error(path, bad, position + 2, strict)
        with pytest.raises(ValueError) as info:
            list(src.batches(8))
        assert str(info.value) == expected
        if not strict:  # load_csv maps every label it meets
            monkeypatch.setattr(bitbit.data, "LOAD_BATCH_ROWS", 8)
            with pytest.raises(ValueError) as info:
                load_csv(str(path), "label")
            assert str(info.value) == self.expected_error(str(path), bad, position + 2, strict)

    @pytest.mark.parametrize("label_column,header,lines", [
        ("label", "f0,f1,label", [" 0.5 ,\t1.5,x ", "-2.0, 3.25 ,  y", "1e-3,4,x"]),
        ("label", "label,f0,f1", ["x, 0.5,1.5", " y ,-2.0,3.25", "z,1e-3, 4"]),
        ("1", "f0,label,f1", ["0.5,x,1.5", "-2.0,y , 3.25", "1e-3,x,4"]),
    ])
    def test_arrays_match_row_parser(self, tmp_path, monkeypatch, label_column, header, lines):
        path = tmp_path / "d.csv"
        path.write_text(header + "\n" + "\n".join(lines) + "\n\n", encoding="utf-8")
        names = header.split(",")
        label_idx = names.index("label")
        feature_idx = [j for j in range(3) if j != label_idx]
        parsed = [parse_csv_row(next(csv.reader([line])), names, label_idx, feature_idx, path, i + 2)
                  for i, line in enumerate(lines)]
        mapping = {}
        expected_y = [mapping.setdefault(label, len(mapping)) for _, label in parsed]

        calls = []
        monkeypatch.setattr(bitbit.data, "parse_csv_row", lambda *a: calls.append(a))
        src = CsvBatchSource(path, label_column)
        for batch_size in (1, 2, 10):
            xs, ys = zip(*src.batches(batch_size))
            assert np.array_equal(np.vstack(xs), np.array([v for v, _ in parsed]))
            assert np.concatenate(ys).tolist() == expected_y
            monkeypatch.setattr(bitbit.data, "LOAD_BATCH_ROWS", batch_size)
            d = load_csv(path, label_column)
            assert np.array_equal(d.features, np.array([v for v, _ in parsed]))
            assert d.labels.tolist() == expected_y and d.label_names == tuple(mapping)
        assert src.label_mapping == mapping
        assert calls == []  # good batches never fall back to the row parser

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(case=csv_files(), strict=st.booleans())
    @example(case=(2, 'f0,f1,label\n1,2,x\n3,4,"x\ny"\n5,6,y\n7,8,x\n'), strict=False)  # a quoted newline on a batch edge
    @example(case=(0, "label,f0,f1\r\nx,1,2\r\ny\x00,3,4\r\nx,5,6\r\n"), strict=False)  # NUL in a label
    @example(case=(1, "f0,label,f1\r1,x,2\r3\x00,y,4\r5,y,6\r"), strict=True)  # NUL in a feature cell
    @example(case=(2, 'f0,f1,label\n"1,2",x\n3,4,y\n'), strict=False)  # a field short, its comma quoted
    @example(case=(2, 'f0,f1,label\n1,2,x\n""\n3,4,y\n'), strict=False)  # a quoted empty record
    @example(case=(1, "f0,label,f1\n1,x,2\n" + "1" * 60 + ",y,2\n3,x,4\n"), strict=False)  # a field over the limit
    @example(case=(0, "label,f0,f1\nx,1,2\ny,nan,2\nx,3,4\n"), strict=False)  # a non-finite cell
    def test_batches_match_csv_reader_oracle(self, tmp_path_factory, case, strict):
        """Row by row against csv.reader + parse_csv_row, under CsvBatchSource
        and load_csv: features bit-equal, equal label ids, batch sizes and
        errors. The field size limit is lowered so that a 60-character cell
        exceeds it."""
        label_idx, text = case
        path = tmp_path_factory.getbasetemp() / "oracle.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        known = {"x": 0, "y": 1} if strict else {}
        limit = csv.field_size_limit(50)
        try:
            for batch_size in (1, 2, 7, 256):
                mapping = dict(known)
                expected, expected_error = oracle_batches(path, label_idx, batch_size, mapping, strict)
                src = CsvBatchSource(path, "label", label_mapping=known if strict else None)
                got, error = [], None
                try:
                    got.extend(src.batches(batch_size))
                except ValueError as exc:
                    error = str(exc)
                assert error == expected_error
                assert [y.tolist() for _, y in got] == [ids for _, ids in expected]
                for (x, _), (ex, _) in zip(got, expected):
                    assert x.shape == ex.shape and x.tobytes() == ex.tobytes()

                n_rows = sum(len(ids) for _, ids in expected)
                least = 1 if strict else 2  # a test CSV (known labels) may hold one row
                if expected_error is None and n_rows < least:
                    expected_error = f"{path}: need at least {least} data row{'s' * (least > 1)}, got {n_rows}"
                elif expected_error is None and len(mapping) < 2:
                    expected_error = f"{path}: fewer than 2 classes in column 'label'"
                with mock.patch.object(bitbit.data, "LOAD_BATCH_ROWS", batch_size), warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    try:
                        d = load_csv(path, "label", tuple(known) if strict else None)
                    except ValueError as exc:
                        assert str(exc) == expected_error
                    else:
                        assert expected_error is None
                        assert d.features.tobytes() == np.concatenate([x for x, _ in expected]).tobytes()
                        assert d.labels.tolist() == [i for _, ids in expected for i in ids]
        finally:
            csv.field_size_limit(limit)
