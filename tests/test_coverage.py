from collections import Counter

import numpy as np
import pytest

from bitbit.coverage import (
    build_table,
    compute_q_y,
    coverage_metrics,
    estimate_from_curve,
    majority_label,
    sweep_curve,
    sweep_qubits,
    test_overlap_incidence as overlap_incidence,
    train_collision_incidence,
)
from bitbit.data import Dataset, make_synthetic, split_train_test, SplitSpec
from bitbit.dimred import ReducerSpec
from bitbit.encoder import Bitstring, copula_units, discretize_value, encode_samples, fit_encoder
from tests.conftest import all_pure_1d_dataset


def bs(bits):
    return Bitstring.from_bits(bits)


def brute_majority(labels) -> int:
    counts = Counter(labels)
    return min(counts.items(), key=lambda kv: (-kv[1], kv[0]))[0]


def brute_train_incidence(encoded) -> float:
    """O(n^2) oracle: compare every sample against its bucket's majority."""
    errors = 0
    for z, label in encoded:
        bucket = [lab for z2, lab in encoded if z2 == z]
        if label != brute_majority(bucket):
            errors += 1
    return errors / len(encoded)


def brute_test_incidence(encoded_train, encoded_test):
    errors = overlap = 0
    for z, label in encoded_test:
        bucket = [lab for z2, lab in encoded_train if z2 == z]
        if bucket:
            overlap += 1
            if label != brute_majority(bucket):
                errors += 1
    return errors / len(encoded_test), overlap / len(encoded_test)


def encode_pair(train, test, spec, n_x):
    model = fit_encoder(train, spec, n_x)
    enc_train = list(zip(encode_samples(model, train.features), train.labels.tolist()))
    enc_test = list(zip(encode_samples(model, test.features), test.labels.tolist()))
    return enc_train, enc_test


class TestBuildTable:
    def test_counting(self):
        t = build_table([(bs("01"), 0), (bs("01"), 0), (bs("01"), 1), (bs("10"), 1)], 2)
        assert t.total == 4
        assert t.entries[bs("01")].tolist() == [2, 1]
        assert t.entries[bs("10")].tolist() == [0, 1]

    def test_empty(self):
        t = build_table([], 2)
        assert t.total == 0 and t.entries == {}

    def test_large_recount(self, rng):
        records = [(Bitstring(6, int(v)), int(lab))
                   for v, lab in zip(rng.integers(0, 64, 100_000), rng.integers(0, 3, 100_000))]
        t = build_table(records, 3)
        assert t.total == len(records)
        naive = Counter(records)
        for (z, lab), n in naive.items():
            assert t.entries[z][lab] >= 1
        for z, counts in t.entries.items():
            for lab in range(3):
                assert counts[lab] == naive.get((z, lab), 0)

    def test_mixed_widths_rejected(self):
        with pytest.raises(ValueError, match="mixed widths"):
            build_table([(bs("01"), 0), (bs("011"), 1)], 2)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            build_table([(bs("0"), 5)], 2)


class TestMajorityLabel:
    def test_plain_majority(self):
        t = build_table([(bs("0"), 0), (bs("0"), 0), (bs("0"), 1)], 2)
        assert majority_label(t, bs("0")) == 0

    def test_tie_goes_to_smallest_class(self):
        t = build_table([(bs("0"), 0)] * 3 + [(bs("0"), 1)] * 3, 2)
        assert majority_label(t, bs("0")) == 0

    def test_zero_prefix_classes_skipped(self):
        t = build_table([(bs("0"), 2)] * 5, 3)
        assert majority_label(t, bs("0")) == 2

    def test_absent_bitstring(self):
        t = build_table([(bs("0"), 0)], 2)
        with pytest.raises(KeyError):
            majority_label(t, bs("1"))


class TestTrainCollisionIncidence:
    def test_hand_count(self):
        t = build_table(
            [(bs("01"), 0)] * 3 + [(bs("01"), 1)] + [(bs("10"), 1)] * 2, 2
        )
        assert train_collision_incidence(t) == pytest.approx(1 / 6)

    def test_pure_buckets(self):
        t = build_table([(bs("00"), 0), (bs("01"), 1), (bs("01"), 1)], 2)
        assert train_collision_incidence(t) == 0.0

    def test_matches_brute_force_exactly(self, rng):
        for trial in range(20):
            records = [
                (Bitstring(3, int(v)), int(lab))
                for v, lab in zip(rng.integers(0, 8, 60), rng.integers(0, 3, 60))
            ]
            t = build_table(records, 3)
            assert train_collision_incidence(t) == brute_train_incidence(records)

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            train_collision_incidence(build_table([], 2))


class TestTestOverlapIncidence:
    def test_hand_count(self):
        t = build_table([(bs("01"), 0)] * 3 + [(bs("01"), 1)], 2)
        incidence, overlap = overlap_incidence(t, [(bs("01"), 1), (bs("11"), 0)])
        assert incidence == 0.5 and overlap == 0.5

    def test_disjoint_test(self):
        t = build_table([(bs("00"), 0)], 2)
        incidence, overlap = overlap_incidence(t, [(bs("01"), 0), (bs("11"), 1)])
        assert incidence == 0.0 and overlap == 0.0

    def test_test_equals_train(self, rng):
        records = [
            (Bitstring(2, int(v)), int(lab))
            for v, lab in zip(rng.integers(0, 4, 40), rng.integers(0, 2, 40))
        ]
        t = build_table(records, 2)
        incidence, overlap = overlap_incidence(t, records)
        assert incidence == train_collision_incidence(t)
        assert overlap == 1.0

    def test_matches_brute_force_exactly(self, rng):
        for trial in range(20):
            train = [
                (Bitstring(3, int(v)), int(lab))
                for v, lab in zip(rng.integers(0, 8, 50), rng.integers(0, 2, 50))
            ]
            test = [
                (Bitstring(3, int(v)), int(lab))
                for v, lab in zip(rng.integers(0, 8, 30), rng.integers(0, 2, 30))
            ]
            t = build_table(train, 2)
            assert overlap_incidence(t, test) == brute_test_incidence(train, test)

    def test_width_mismatch(self):
        t = build_table([(bs("01"), 0)], 2)
        with pytest.raises(ValueError, match="width"):
            overlap_incidence(t, [(bs("011"), 0)])


class TestQy:
    @pytest.mark.parametrize("c,expected", [(2, 1), (10, 4), (65, 7), (4, 2), (5, 3)])
    def test_values(self, c, expected):
        assert compute_q_y(c) == expected

    def test_rejects_single_class(self):
        with pytest.raises(ValueError):
            compute_q_y(1)


class TestSweep:
    def test_hand_enumerated_one_dimensional(self):
        train, test = all_pure_1d_dataset()
        est = sweep_qubits(train, test, ReducerSpec("none"), threshold=1.0)
        assert est.q_train == 1 and est.q_test == 1
        assert est.q_y == 1 and est.q_dataset == 2
        assert est.covered

    def test_threshold_nesting(self):
        d = make_synthetic(80, 2, 2, 4.0, seed=21)
        train, test = split_train_test(d, SplitSpec(0.8, seed=2))
        strict = sweep_qubits(train, test, ReducerSpec("pca"), threshold=1.0)
        loose = estimate_from_curve(strict.curve, 0.99, train.c)
        assert loose.q_dataset <= strict.q_dataset

    def test_not_covered_flagged(self):
        # duplicate feature rows with conflicting labels can never be separated
        from bitbit.data import Dataset

        features = np.vstack([np.ones((4, 1)), np.zeros((4, 1))])
        train = Dataset(features=features, labels=np.array([0, 0, 1, 1, 0, 0, 1, 1]), c=2)
        test = Dataset(features=np.array([[1.0], [0.0]]), labels=np.array([0, 1]), c=2)
        est = sweep_qubits(train, test, ReducerSpec("none"), threshold=1.0, n_x_max=6)
        assert est.q_train is None
        assert est.q_dataset is None
        assert not est.covered
        assert len(est.curve) == 6

    def test_first_crossing_semantics(self):
        d = make_synthetic(60, 3, 2, 5.0, seed=33)
        train, test = split_train_test(d, SplitSpec(0.8, seed=4))
        est = sweep_qubits(train, test, ReducerSpec("pca"), threshold=1.0)
        curve = dict(est.curve)
        assert curve[est.q_train].theoretical_train_accuracy >= 1.0
        for n_x in range(1, est.q_train):
            assert curve[n_x].theoretical_train_accuracy < 1.0
        assert est.q_dataset == max(est.q_train, est.q_test) + est.q_y

    def test_oracle_equivalence_at_pipeline_level(self, rng):
        for trial in range(5):
            d = make_synthetic(60, 3, 2, float(rng.uniform(0, 3)), seed=100 + trial)
            train, test = split_train_test(d, SplitSpec(0.7, seed=trial))
            for n_x in (1, 3, 5):
                enc_train, enc_test = encode_pair(train, test, ReducerSpec("pca"), n_x)
                t = build_table(enc_train, d.c)
                m = coverage_metrics(t, enc_test)
                assert m.train_collision_incidence == brute_train_incidence(enc_train)
                brute = brute_test_incidence(enc_train, enc_test)
                assert (m.test_overlap_incidence, m.test_train_overlap_fraction) == brute

    def test_accuracy_is_exact_complement(self):
        train, test = all_pure_1d_dataset()
        est = sweep_qubits(train, test, ReducerSpec("none"), threshold=1.0)
        for _, m in est.curve:
            assert m.theoretical_train_accuracy == 1.0 - m.train_collision_incidence
            assert m.theoretical_test_accuracy == 1.0 - m.test_overlap_incidence


def per_width_oracle(train, test, spec, n_x_max, step):
    """The sweep with everything refitted and re-encoded at each width, stopping
    once train and test accuracy have each reached 1.0."""
    curve = []
    train_met = test_met = False
    for n_x in range(1, n_x_max + 1, step):
        model = fit_encoder(train, spec, n_x)
        table = build_table(zip(encode_samples(model, train.features), train.labels.tolist()), train.c)
        encoded_test = list(zip(encode_samples(model, test.features), test.labels.tolist()))
        m = coverage_metrics(table, encoded_test)
        curve.append((n_x, m))
        train_met = train_met or m.theoretical_train_accuracy >= 1.0
        test_met = test_met or m.theoretical_test_accuracy >= 1.0
        if train_met and test_met:
            break
    return curve


def conflicting_dataset(n_features, seed):
    """Random rows plus one duplicated row with both labels: never covered, and
    its bucket is a 1-1 majority tie at every width."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(40, n_features))
    labels = rng.integers(0, 2, 40)
    x[1] = x[0]
    labels[:2] = (0, 1)
    train = Dataset(features=x, labels=labels, c=2)
    test_x = np.vstack([x[:1], x[:1], rng.normal(size=(10, n_features))])
    test = Dataset(features=test_x, labels=np.concatenate([[0, 1], rng.integers(0, 2, 10)]), c=2)
    return train, test


class TestFitOnceSweep:
    """The fit-once, packed-code sweep equals refitting and re-encoding per width."""

    @pytest.mark.parametrize("scheme", ["none", "pca", "lsa"])
    @pytest.mark.parametrize("step", [1, 3])
    def test_matches_per_width_oracle(self, scheme, step):
        d = make_synthetic(150, 4, 3, 1.0, seed=5)
        train, test = split_train_test(d, SplitSpec(0.8, seed=2))
        spec = ReducerSpec(scheme)
        curve = sweep_curve(train, test, spec, 1.0, 128, step)
        assert curve == per_width_oracle(train, test, spec, 128, step)

    @pytest.mark.parametrize("step", [1, 3])
    def test_curve_crossing_64_bits(self, step):
        train, test = conflicting_dataset(3, seed=7)
        spec = ReducerSpec("none")
        curve = sweep_curve(train, test, spec, 1.0, 80, step)
        assert curve[-1][0] > 64
        assert curve == per_width_oracle(train, test, spec, 80, step)

    def test_one_component_at_100_bits(self):
        train, test = conflicting_dataset(1, seed=9)
        spec = ReducerSpec("none")
        model = fit_encoder(train, spec, 100)
        assert model.allocation.bits == (100,)
        unit = copula_units(model, test.features)
        python_ints = [discretize_value(u, 100) for u in unit[:, 0].tolist()]
        assert [z.value for z in encode_samples(model, test.features)] == python_ints
        assert max(python_ints) >= 1 << 64
        assert sweep_curve(train, test, spec, 1.0, 100, 33) == per_width_oracle(train, test, spec, 100, 33)

    def test_majority_tie_goes_to_smallest_class(self):
        train, test = conflicting_dataset(2, seed=11)
        spec = ReducerSpec("none")
        curve = sweep_curve(train, test, spec, 1.0, 20, 1)
        assert curve == per_width_oracle(train, test, spec, 20, 1)
        for n_x, m in curve:
            enc_train, enc_test = encode_pair(train, test, spec, n_x)
            assert m.train_collision_incidence == brute_train_incidence(enc_train)
            assert (m.test_overlap_incidence, m.test_train_overlap_fraction) == brute_test_incidence(
                enc_train, enc_test
            )
        # at the widest point the duplicated rows form a bucket of their own, tied 1-1
        table = build_table(enc_train, 2)
        z = enc_test[0][0]
        assert table.entries[z].tolist() == [1, 1] and majority_label(table, z) == 0
