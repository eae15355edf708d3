import csv
from dataclasses import replace

import numpy as np
import pytest

import bitbit.data
from bitbit.coverage import build_table, coverage_metrics
from bitbit.data import Dataset, load_csv, make_synthetic, parse_csv_row
from bitbit.dimred import ReducerSpec
from bitbit.encoder import (
    Bitstring,
    encode_samples,
    fit_encoder,
    iter_encoded,
    persist_model,
    read_encoded,
    write_encoded,
)
from bitbit.stream import (
    ArrayBatchSource,
    CsvBatchSource,
    StreamConfig,
    _Reservoir,
    stream_coverage,
    stream_coverage_from_tables,
    stream_encode,
    stream_fit_base,
    stream_fit_encoder,
    stream_sweep_curve,
)
from tests.conftest import write_dataset_csv


def bs(bits):
    return Bitstring.from_bits(bits)


def make_config(dataset, tmp_path, batch_size, **kwargs):
    return StreamConfig(
        train_source=ArrayBatchSource(dataset.features, dataset.labels),
        test_source=None,
        batch_size=batch_size,
        work_dir=tmp_path / "work",
        **kwargs,
    )


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


class TestReservoir:
    def test_identity_below_capacity(self, rng):
        res = _Reservoir(100, rng)
        res.add(np.arange(30.0))
        res.add(np.arange(30.0, 60.0))
        assert np.array_equal(res.result(), np.arange(60.0))

    def test_capacity_bound(self, rng):
        res = _Reservoir(50, rng)
        for lo in range(0, 1000, 100):
            res.add(np.arange(float(lo), float(lo + 100)))
        out = res.result()
        assert out.shape == (50,)
        assert set(out.tolist()) <= set(np.arange(1000.0).tolist())

    def test_deterministic_for_fixed_seed(self):
        a = _Reservoir(20, np.random.default_rng(7))
        b = _Reservoir(20, np.random.default_rng(7))
        for lo in range(0, 200, 37):
            chunk = np.arange(float(lo), float(min(lo + 37, 200)))
            a.add(chunk)
            b.add(chunk)
        assert np.array_equal(a.result(), b.result())


class TestStreamFit:
    def test_single_batch_matches_in_memory_fit_exactly(self, tmp_path):
        d = make_synthetic(80, 4, 2, 3.0, seed=2)
        for scheme in ("none", "pca"):
            cfg = make_config(d, tmp_path, batch_size=200)
            streamed = stream_fit_encoder(cfg, ReducerSpec(scheme), 6)
            in_memory = fit_encoder(d, ReducerSpec(scheme), 6)
            p1, p2 = tmp_path / "s.json", tmp_path / "m.json"
            persist_model(streamed, p1)
            persist_model(in_memory, p2)
            assert p1.read_bytes() == p2.read_bytes()

    def test_batch_size_does_not_change_reducer_or_extrema(self, tmp_path):
        d = make_synthetic(100, 3, 2, 2.0, seed=3)
        for scheme, exact in (("none", True), ("pca", False)):
            models = []
            for batch_size in (50, 100):
                cfg = make_config(d, tmp_path, batch_size=batch_size)
                models.append(stream_fit_encoder(cfg, ReducerSpec(scheme), 5 if scheme == "pca" else 3))
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

    def test_empty_source_rejected(self, tmp_path):
        src = ArrayBatchSource(np.empty((0, 3)), np.empty(0, dtype=int))
        cfg = StreamConfig(train_source=src, test_source=None, batch_size=10,
                           work_dir=tmp_path / "w")
        with pytest.raises(ValueError, match="at least 2 samples"):
            stream_fit_base(cfg, ReducerSpec("pca"))

    def test_lsa_not_streamable(self, tmp_path):
        d = make_synthetic(20, 2, 2, 1.0, seed=4)
        cfg = make_config(d, tmp_path, batch_size=10)
        with pytest.raises(ValueError, match="'none' and 'pca'"):
            stream_fit_base(cfg, ReducerSpec("lsa"))

    def test_work_dir_artifacts_written(self, tmp_path):
        d = make_synthetic(30, 2, 2, 2.0, seed=5)
        cfg = make_config(d, tmp_path, batch_size=8)
        stream_fit_encoder(cfg, ReducerSpec("pca"), 4)
        assert (tmp_path / "work" / "model.json").exists()
        width, records = read_encoded(tmp_path / "work" / "train.enc")
        assert width == 4 and len(records) == 30


class TestStreamEncode:
    def test_reencoding_is_byte_identical(self, tmp_path):
        d = make_synthetic(50, 3, 2, 2.0, seed=6)
        model = fit_encoder(d, ReducerSpec("pca"), 5)
        src = ArrayBatchSource(d.features, d.labels)
        p1, p2 = tmp_path / "a.enc", tmp_path / "b.enc"
        n1 = stream_encode(model, src, p1, batch_size=7)
        n2 = stream_encode(model, src, p2, batch_size=7)
        assert n1 == n2 == 50
        assert p1.read_bytes() == p2.read_bytes()

    def test_matches_in_memory_encoding(self, tmp_path):
        d = make_synthetic(50, 3, 2, 2.0, seed=7)
        model = fit_encoder(d, ReducerSpec("none"), 4)
        path = tmp_path / "x.enc"
        stream_encode(model, ArrayBatchSource(d.features, d.labels), path, batch_size=13)
        _, records = read_encoded(path)
        direct = list(zip(encode_samples(model, d.features), d.labels.tolist()))
        assert records == direct


class TestStreamCoverage:
    def test_batched_rule_hand_count(self, tmp_path):
        train = [(bs("01"), 0)] * 3 + [(bs("01"), 1)]
        test = [(bs("01"), 1), (bs("01"), 1), (bs("01"), 0)]
        p_train, p_test = tmp_path / "train.enc", tmp_path / "test.enc"
        write_encoded(p_train, 2, train)
        write_encoded(p_test, 2, test)
        m = stream_coverage(p_train, p_test, 2)
        # test majority at 01 is 1, train majority is 0: the whole bucket errs
        assert m.test_overlap_incidence == 1.0
        assert m.theoretical_test_accuracy == 0.0

    def test_disjoint_test(self, tmp_path):
        write_encoded(tmp_path / "train.enc", 2, [(bs("00"), 0), (bs("01"), 1)])
        write_encoded(tmp_path / "test.enc", 2, [(bs("10"), 0), (bs("11"), 1)])
        m = stream_coverage(tmp_path / "train.enc", tmp_path / "test.enc", 2)
        assert m.test_overlap_incidence == 0.0
        assert m.test_train_overlap_fraction == 0.0

    def test_single_label_buckets_match_per_sample_rule(self, tmp_path, rng):
        # one test record per bitstring: the per-bucket majority IS the label
        train = [(Bitstring(3, int(v)), int(l))
                 for v, l in zip(rng.integers(0, 8, 40), rng.integers(0, 2, 40))]
        values = rng.permutation(8)[:5]
        test = [(Bitstring(3, int(v)), int(rng.integers(0, 2))) for v in values]
        write_encoded(tmp_path / "train.enc", 3, train)
        write_encoded(tmp_path / "test.enc", 3, test)
        streamed = stream_coverage(tmp_path / "train.enc", tmp_path / "test.enc", 2)
        table = build_table(train, 2)
        in_memory = coverage_metrics(table, test)
        assert streamed == in_memory

    def test_width_mismatch_rejected(self, tmp_path):
        write_encoded(tmp_path / "train.enc", 2, [(bs("00"), 0)])
        write_encoded(tmp_path / "test.enc", 3, [(bs("000"), 0)])
        with pytest.raises(ValueError, match="width mismatch"):
            stream_coverage(tmp_path / "train.enc", tmp_path / "test.enc", 2)

    def test_table_memory_tracks_unique_codes(self):
        # many records, few distinct codes: entry count stays at the distinct count
        records = [(Bitstring(4, v % 8), v % 2) for v in range(10_000)]
        table = build_table(records, 2)
        assert len(table.entries) == 8
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
        in_memory = coverage_metrics(table, encoded_test)
        streamed = stream_coverage_from_tables(table, build_table(encoded_test, 2))
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
    @pytest.mark.parametrize("scheme,passes", [("none", 1), ("pca", 2)])
    def test_pass_count(self, tmp_path, scheme, passes):
        d = make_synthetic(40, 3, 2, 2.0, seed=9)
        src = CountingSource(ArrayBatchSource(d.features, d.labels))
        cfg = StreamConfig(train_source=src, test_source=None, batch_size=16, work_dir=tmp_path)
        model = stream_fit_base(cfg, ReducerSpec(scheme))
        assert src.passes == passes
        assert model.reducer.n_features == 3

    @pytest.mark.parametrize("scheme", ["none", "pca"])
    @pytest.mark.parametrize("rows", [0, 1])
    def test_fewer_than_two_samples(self, tmp_path, scheme, rows):
        d = make_synthetic(2, 3, 2, 2.0, seed=9)
        src = ArrayBatchSource(d.features[:rows], d.labels[:rows])
        cfg = StreamConfig(train_source=src, test_source=None, batch_size=16, work_dir=tmp_path)
        with pytest.raises(ValueError, match=f"^train source must yield at least 2 samples, got {rows}$"):
            stream_fit_base(cfg, ReducerSpec(scheme))

    def test_none_component_mismatch(self, tmp_path):
        d = make_synthetic(20, 3, 2, 2.0, seed=9)
        cfg = make_config(d, tmp_path, batch_size=8)
        with pytest.raises(ValueError, match=r"requires n_components == n \(3\), got 2"):
            stream_fit_base(cfg, ReducerSpec("none", 2))


def oracle_sweep(base, train_source, test_source, c, batch_size, n_x_max, step, work):
    """The per-width path the spill sweep replaces: encode both splits to
    files with one Bitstring per record, then ``stream_coverage``."""
    work.mkdir(parents=True, exist_ok=True)
    curve = []
    train_met = test_met = False
    for n_x in range(1, n_x_max + 1, step):
        model = base.at_width(n_x)
        for name, source in (("train", train_source), ("test", test_source)):
            records = ((z, label) for x, y in source.batches(batch_size)
                       for z, label in zip(encode_samples(model, x), y.tolist()))
            write_encoded(work / f"{name}.enc", model.width, records)
        metrics = stream_coverage(work / "train.enc", work / "test.enc", c)
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
        cfg = StreamConfig(train_source=train_source, test_source=test_source, batch_size=7,
                           work_dir=tmp_path / "new", reservoir_size=reservoir)
        base = stream_fit_base(cfg, ReducerSpec(scheme))
        c = train_source.n_classes
        cfg = replace(cfg, batch_size=batch_size)  # the fit needs batches of 2+ rows; the sweep does not
        curve = stream_sweep_curve(cfg, base, c, 1.0, n_x_max, step)
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
        cfg = StreamConfig(train_source=ArrayBatchSource(d.features, d.labels), test_source=empty,
                           batch_size=10, work_dir=tmp_path / "new")
        base = stream_fit_base(cfg, ReducerSpec("pca"))
        curve = stream_sweep_curve(cfg, base, 2, 1.0, 12, 5)
        assert curve == oracle_sweep(base, cfg.train_source, empty, 2, 10, 12, 5, tmp_path / "old")

    def test_failure_at_test_source_leaves_no_spill(self, tmp_path):
        d = make_synthetic(30, 2, 2, 2.0, seed=15)
        path = tmp_path / "test.csv"
        path.write_text("f0,f1,label\n0.5,0.5,0\n0.1,0.2,7\n", encoding="utf-8")
        work = tmp_path / "work"
        cfg = StreamConfig(train_source=ArrayBatchSource(d.features, d.labels),
                           test_source=CsvBatchSource(path, "label", label_mapping={"0": 0, "1": 1}),
                           batch_size=10, work_dir=work)
        base = stream_fit_base(cfg, ReducerSpec("pca"))
        with pytest.raises(ValueError, match="line 3: label '7' was not seen in training"):
            stream_sweep_curve(cfg, base, 2, 1.0, 12, 5)
        assert list(work.iterdir()) == []


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
