import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitbit.data import (
    Dataset,
    SplitSpec,
    _warn_on_conflicting_duplicates,
    load_csv,
    make_synthetic,
    split_train_test,
)
from bitbit.encoder import estimate_mutual_information
from bitbit.stream import CsvBatchSource


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadCsv:
    def test_first_appearance_relabeling(self, tmp_path):
        path = write(tmp_path, "a,b,y\n0.1,0.2,cat\n0.3,0.4,dog\n0.5,0.6,cat\n")
        d = load_csv(path, "y")
        assert d.n_samples == 3 and d.n_features == 2 and d.c == 2
        assert d.labels.tolist() == [0, 1, 0]
        assert d.label_names == ("cat", "dog")
        assert d.feature_names == ("a", "b")

    def test_label_column_by_index(self, tmp_path):
        path = write(tmp_path, "a,b\ncat,0.1\ndog,0.2\n")
        d = load_csv(path, 0)
        assert d.labels.tolist() == [0, 1]
        assert d.feature_names == ("b",)

    def test_nan_cell_reports_row_and_column(self, tmp_path):
        path = write(tmp_path, "a,b,y\n0.1,nan,cat\n0.3,0.4,dog\n")
        with pytest.raises(ValueError, match=r"line 2.*'b'"):
            load_csv(path, "y")

    def test_unparseable_cell_reports_row_and_column(self, tmp_path):
        path = write(tmp_path, "a,b,y\n0.1,0.2,cat\n0.3,oops,dog\n")
        with pytest.raises(ValueError, match=r"'oops'.*line 3.*'b'"):
            load_csv(path, "y")

    def test_missing_value(self, tmp_path):
        path = write(tmp_path, "a,b,y\n0.1,,cat\n0.3,0.4,dog\n")
        with pytest.raises(ValueError, match="missing value"):
            load_csv(path, "y")

    def test_single_class_rejected(self, tmp_path):
        path = write(tmp_path, "a,y\n0.1,cat\n0.2,cat\n")
        with pytest.raises(ValueError, match="fewer than 2 classes"):
            load_csv(path, "y")

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(tmp_path / "nope.csv", "y")

    def test_unknown_label_column(self, tmp_path):
        path = write(tmp_path, "a,y\n0.1,cat\n0.2,dog\n")
        with pytest.raises(ValueError, match="no column named"):
            load_csv(path, "z")

    def test_conflicting_duplicate_rows_warn(self, tmp_path):
        path = write(tmp_path, "a,y\n1.0,cat\n1.0,dog\n2.0,cat\n")
        with pytest.warns(UserWarning, match="conflicting labels"):
            load_csv(path, "y")

    def test_byte_order_mark_skipped(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_text("y,a\ncat,0.1\ndog,0.2\n", encoding="utf-8-sig")
        d = load_csv(path, "y")
        assert d.label_names == ("cat", "dog") and d.feature_names == ("a",)

    @pytest.mark.parametrize("text,line", [
        (b"a,y\n0.1,cat\n0.2,dog\n0.3,\xffcat\n", 4),
        (b"a,y\r0.1,cat\r\n\r\n0.2,d\xc3og\r", 4),  # lines end as with newline=""; a cut-off sequence
        (b"\xef\xbb\xbfa,y\n" + b"0.1,cat\n0.2,dog\n" * 1000 + b"0.2,\xe9\n", 2002),  # past the first chunk
    ], ids=["line-4", "carriage-returns", "late"])
    def test_non_utf8_byte_names_line(self, tmp_path, text, line):
        path = tmp_path / "bad.csv"
        path.write_bytes(text)
        with pytest.raises(ValueError) as got:
            load_csv(path, "y")
        assert str(got.value) == f"{path}: line {line}: not UTF-8 text"


def conflicts_by_loop(features, labels) -> int:
    """Rows whose label differs from the first label of their group of equal
    feature rows, counted one row at a time."""
    _, inverse = np.unique(features, axis=0, return_inverse=True)
    conflicts = 0
    seen: dict[int, int] = {}
    for g, lab in zip(inverse.tolist(), labels.tolist()):
        if g in seen and seen[g] != lab:
            conflicts += 1
        else:
            seen.setdefault(g, lab)
    return conflicts


@st.composite
def small_rows(draw):
    s, n = draw(st.integers(2, 12)), draw(st.integers(1, 2))
    features = draw(st.lists(st.integers(0, 2), min_size=s * n, max_size=s * n))
    labels = draw(st.lists(st.integers(0, 2), min_size=s, max_size=s))
    return np.array(features, dtype=np.float64).reshape(s, n), np.array(labels, dtype=np.int64)


class TestConflictingDuplicates:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(rows=small_rows())
    def test_count_matches_row_loop(self, rows):
        features, labels = rows
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            _warn_on_conflicting_duplicates(features, labels)
        expected = conflicts_by_loop(features, labels)
        assert [str(w.message) for w in caught] == ([
            f"{expected} duplicate feature rows carry conflicting labels; "
            "full training coverage is unreachable at any width"
        ] if expected else [])


class TestSplit:
    def test_deterministic(self):
        d = make_synthetic(10, 2, 2, 1.0, seed=0)
        spec = SplitSpec(0.8, seed=7)
        with pytest.warns(UserWarning, match=r"classes \[0\] absent from the test split"):
            a = split_train_test(d, spec)
        with pytest.warns(UserWarning, match=r"classes \[0\] absent from the test split"):
            b = split_train_test(d, spec)
        assert a[0].n_samples == 8 and a[1].n_samples == 2
        assert np.array_equal(a[0].features, b[0].features)
        assert np.array_equal(a[1].labels, b[1].labels)

    def test_boundary_two_samples(self):
        d = Dataset(features=np.array([[0.0], [1.0]]), labels=np.array([0, 1]), c=2)
        with pytest.warns(UserWarning):  # one class per side is inevitable here
            train, test = split_train_test(d, SplitSpec(0.5, seed=0))
        assert train.n_samples == 1 and test.n_samples == 1

    def test_partition_property(self):
        d = make_synthetic(57, 3, 3, 1.0, seed=2)
        train, test = split_train_test(d, SplitSpec(0.8, seed=3))
        combined = np.vstack([train.features, test.features])
        assert combined.shape[0] == d.n_samples
        # every original row appears exactly once across the two sides
        orig = sorted(map(tuple, d.features.tolist()))
        got = sorted(map(tuple, combined.tolist()))
        assert orig == got

    def test_different_seeds_differ(self):
        d = make_synthetic(100, 2, 2, 1.0, seed=1)
        a_train, _ = split_train_test(d, SplitSpec(0.8, seed=1))
        b_train, _ = split_train_test(d, SplitSpec(0.8, seed=2))
        assert not np.array_equal(a_train.features, b_train.features)

    def test_degenerate_fraction_rejected(self):
        d = make_synthetic(10, 2, 2, 1.0, seed=0)
        with pytest.raises(ValueError, match="empty split"):
            split_train_test(d, SplitSpec(0.05, seed=0))

    def test_stratified_empty_split_rejected(self):
        # Each class of 2 rows floors to 0 train rows, though 0.4 * 10 rows is 4.
        d = Dataset(features=np.arange(10.0)[:, None], labels=np.arange(10) % 5, c=5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="train_fraction 0.4 leaves an empty split for 10 samples"):
                split_train_test(d, SplitSpec(0.4, seed=0, stratify=True))

    def test_stratified_keeps_class_ratio(self):
        d = make_synthetic(100, 2, 2, 1.0, seed=4)
        train, test = split_train_test(d, SplitSpec(0.8, seed=5, stratify=True))
        assert np.bincount(train.labels).tolist() == [40, 40]
        assert np.bincount(test.labels).tolist() == [10, 10]


class TestMakeSynthetic:
    def test_reproducible(self):
        a = make_synthetic(50, 3, 2, 2.0, seed=9)
        b = make_synthetic(50, 3, 2, 2.0, seed=9)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_zero_separation_is_label_independent(self):
        d = make_synthetic(10000, 3, 2, 0.0, seed=8)
        for j in range(d.n_features):
            assert estimate_mutual_information(d.features[:, j], d.labels) < 0.05

    def test_high_separation_threshold_classifies(self):
        d = make_synthetic(1000, 1, 2, 10.0, seed=7)
        # best 1-D threshold found by sort-and-scan
        order = np.argsort(d.features[:, 0])
        labels = d.labels[order]
        best = 0
        for cut in range(d.n_samples + 1):
            acc = (np.sum(labels[:cut] == 0) + np.sum(labels[cut:] == 1)) / d.n_samples
            best = max(best, acc, 1 - acc)
        assert best >= 0.99

    def test_requires_s_at_least_c(self):
        with pytest.raises(ValueError):
            make_synthetic(2, 1, 3, 1.0, seed=0)

    @pytest.mark.parametrize("separation,c", [(math.inf, 2), (1e308, 3)])
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                "ignore:invalid value encountered:RuntimeWarning")
    def test_non_finite_features_refused(self, separation, c):
        with pytest.raises(ValueError, match="gives non-finite features"):
            make_synthetic(10, 2, c, separation, seed=0)


class TestValidate:
    """What ``load_csv`` checks in the file it loads."""

    def test_infinite_feature_named(self, tmp_path):
        path = write(tmp_path, "alpha,beta,y\n1.0,inf,cat\n0.0,1.0,dog\n")
        with pytest.raises(ValueError, match=r"non-finite value 'inf' at line 2, column 'beta'"):
            load_csv(path, "y")

    @pytest.mark.parametrize("text,header", [("y\ncat\ndog\n", ["y"]), ("y\n", ["y"]), ("\ncat\n", [])],
                             ids=["rows", "header-only", "blank-header"])
    def test_no_feature_column_rejected(self, tmp_path, text, header):
        path = write(tmp_path, text)
        message = f"^{re.escape(f'{path}: no feature column in header {header!r}')}$"
        source = CsvBatchSource(path, "y")
        for read in (lambda: load_csv(path, "y"), source.feature_names, lambda: next(source.batches(4))):
            with pytest.raises(ValueError, match=message):
                read()

    def test_label_contiguity_after_load(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,y\n1,z\n2,q\n3,z\n4,m\n", encoding="utf-8")
        d = load_csv(path, "y")
        assert int(d.labels.min()) == 0 and int(d.labels.max()) == d.c - 1


class TestRelabel:
    """A test CSV loaded with a training set's ``label_names`` takes its class ids."""

    def test_alignment(self, tmp_path):
        path = write(tmp_path, "a,y\n0.1,dog\n0.2,cat\n")
        b = load_csv(path, "y", ("cat", "dog"))
        assert b.labels.tolist() == [1, 0]
        assert b.c == 2 and b.label_names == ("cat", "dog")

    def test_unknown_label_rejected(self, tmp_path):
        path = write(tmp_path, "a,y\n0.1,dog\n0.2,bird\n")
        with pytest.raises(ValueError, match="line 3: label 'bird' was not seen in training"):
            load_csv(path, "y", ("cat", "dog"))

    def test_single_class_accepted(self, tmp_path):
        path = write(tmp_path, "a,y\n0.1,dog\n0.2,dog\n")
        b = load_csv(path, "y", ("cat", "dog"))
        assert b.labels.tolist() == [1, 1] and b.c == 2


class TestImmutability:
    def test_arrays_are_read_only(self):
        d = make_synthetic(10, 2, 2, 1.0, seed=0)
        with pytest.raises(ValueError):
            d.features[0, 0] = 99.0
        with pytest.raises(ValueError):
            d.labels[0] = 1
