import random
from collections import Counter
from dataclasses import dataclass

import numpy as np
import pytest

from bitbit.coverage import (
    CoverageMetrics,
    build_table,
    code_coverage,
    compute_q_y,
    count_table,
    estimate_from_curve,
    merge_counts,
    sweep_curve,
    sweep_qubits,
    sweep_widths,
    train_collision_incidence,
)
from bitbit.data import Dataset, make_synthetic, split_train_test, SplitSpec
from bitbit.dimred import ReducerSpec
from bitbit.encoder import (
    Bitstring,
    ImportanceScores,
    copula_units,
    discretize_value,
    encode_samples,
    fit_encoder,
    split_codes,
)
from bitbit.qsim import TrainingBatch, classification_accuracies, fresh_model, predict_many, training_batch_from_table
from tests.conftest import all_pure_1d_dataset, batch_records, table_entries


def bs(bits):
    return Bitstring(len(bits), int(bits, 2))


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


def majority_errs(table, z, label) -> bool:
    """Whether the per-sample rule counts a test record (z, label) as wrong:
    z occurs in training and label is not its training majority."""
    return code_coverage(table, build_table([(z, label)], table.c)).n_test_overlap_errors == 1


def encode_pair(train, test, spec, n_x):
    model = fit_encoder(train, spec, n_x)
    enc_train = list(zip(encode_samples(model, train.features), train.labels.tolist()))
    enc_test = list(zip(encode_samples(model, test.features), test.labels.tolist()))
    return enc_train, enc_test


class TestBuildTable:
    def test_counting(self):
        t = build_table([(bs("01"), 0), (bs("01"), 0), (bs("01"), 1), (bs("10"), 1)], 2)
        assert t.total == 4
        assert table_entries(t)[bs("01")].tolist() == [2, 1]
        assert table_entries(t)[bs("10")].tolist() == [0, 1]

    def test_empty(self):
        t = build_table([], 2)
        assert t.total == 0 and table_entries(t) == {}

    def test_large_recount(self, rng):
        records = [(Bitstring(6, int(v)), int(lab))
                   for v, lab in zip(rng.integers(0, 64, 100_000), rng.integers(0, 3, 100_000))]
        t = build_table(records, 3)
        assert t.total == len(records)
        naive = Counter(records)
        entries = table_entries(t)
        for (z, lab), n in naive.items():
            assert entries[z][lab] >= 1
        for z, counts in entries.items():
            for lab in range(3):
                assert counts[lab] == naive.get((z, lab), 0)

    def test_mixed_widths_rejected(self):
        with pytest.raises(ValueError, match="mixed widths"):
            build_table([(bs("01"), 0), (bs("011"), 1)], 2)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            build_table([(bs("0"), 5)], 2)


class TestMajorityLabel:
    """The training majority a test record is judged against."""

    def test_plain_majority(self):
        t = build_table([(bs("0"), 0), (bs("0"), 0), (bs("0"), 1)], 2)
        assert not majority_errs(t, bs("0"), 0) and majority_errs(t, bs("0"), 1)

    def test_tie_goes_to_smallest_class(self):
        t = build_table([(bs("0"), 0)] * 3 + [(bs("0"), 1)] * 3, 2)
        assert not majority_errs(t, bs("0"), 0) and majority_errs(t, bs("0"), 1)

    def test_zero_prefix_classes_skipped(self):
        t = build_table([(bs("0"), 2)] * 5, 3)
        assert [majority_errs(t, bs("0"), k) for k in range(3)] == [True, True, False]

    def test_absent_bitstring(self):
        t = build_table([(bs("0"), 0)], 2)
        m = code_coverage(t, build_table([(bs("1"), 1)], t.c))
        assert m.n_test_overlapping == 0 and m.n_test_overlap_errors == 0


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
        m = code_coverage(t, build_table([(bs("01"), 1), (bs("11"), 0)], t.c))
        assert m.test_overlap_incidence == 0.5 and m.test_train_overlap_fraction == 0.5

    def test_disjoint_test(self):
        t = build_table([(bs("00"), 0)], 2)
        m = code_coverage(t, build_table([(bs("01"), 0), (bs("11"), 1)], t.c))
        assert m.test_overlap_incidence == 0.0 and m.test_train_overlap_fraction == 0.0

    def test_test_equals_train(self, rng):
        records = [
            (Bitstring(2, int(v)), int(lab))
            for v, lab in zip(rng.integers(0, 4, 40), rng.integers(0, 2, 40))
        ]
        t = build_table(records, 2)
        m = code_coverage(t, build_table(records, t.c))
        assert m.test_overlap_incidence == train_collision_incidence(t)
        assert m.test_train_overlap_fraction == 1.0

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
            m = code_coverage(t, build_table(test, t.c))
            assert (m.test_overlap_incidence, m.test_train_overlap_fraction) == brute_test_incidence(train, test)

    def test_width_mismatch(self):
        t = build_table([(bs("01"), 0)], 2)
        with pytest.raises(ValueError, match="width"):
            code_coverage(t, build_table([(bs("011"), 0)], t.c))


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
                m = code_coverage(t, build_table(enc_test, t.c))
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
        m = code_coverage(table, build_table(encoded_test, table.c))
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
        curve = sweep_curve(train, test, spec, 128, step)
        assert curve == per_width_oracle(train, test, spec, 128, step)

    @pytest.mark.parametrize("step", [1, 3])
    def test_curve_crossing_64_bits(self, step):
        train, test = conflicting_dataset(3, seed=7)
        spec = ReducerSpec("none")
        curve = sweep_curve(train, test, spec, 80, step)
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
        assert sweep_curve(train, test, spec, 100, 33) == per_width_oracle(train, test, spec, 100, 33)

    def test_majority_tie_goes_to_smallest_class(self):
        train, test = conflicting_dataset(2, seed=11)
        spec = ReducerSpec("none")
        curve = sweep_curve(train, test, spec, 20, 1)
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
        assert table_entries(table)[z].tolist() == [1, 1]
        assert not majority_errs(table, z, 0) and majority_errs(table, z, 1)


def scheduled_codes(train_from, test_at, calls):
    """``codes(bits)`` for one component: two training records that share a
    code with labels 0 and 1 below width ``train_from`` and part from it on,
    and one test record on the first training code, labelled 0 (right) at
    the widths in ``test_at`` and 1 (wrong) elsewhere. Records each call."""
    def codes(bits):
        calls.append(bits)
        (n_x,) = bits
        train = np.array([[0], [int(n_x >= train_from)]], dtype=np.uint64), np.array([0, 1])
        test = np.array([[0]], dtype=np.uint64), np.array([int(n_x not in test_at)])
        return [train], [test]

    return codes


class TestSweepWidths:
    """The one width step: count both splits, judge them, stop at full coverage."""

    @pytest.mark.parametrize("train_from,test_at,stop", [
        (3, range(5, 99), 5),  # train reaches 1.0 first
        (6, range(2, 99), 6),  # test reaches 1.0 first
        (4, {1}, 4),  # test reaches 1.0 at width 1 only, then dips: a first crossing still counts
        (2, range(2, 99), 2),  # both at once
    ])
    @pytest.mark.parametrize("batched", [False, True])
    def test_stops_once_both_accuracies_reached_one(self, train_from, test_at, stop, batched):
        calls = []
        curve = sweep_widths(ImportanceScores([1.0]), scheduled_codes(train_from, test_at, calls), 2, batched, 40, 1)
        assert [n_x for n_x, _ in curve] == list(range(1, stop + 1))
        assert calls == [(n_x,) for n_x in range(1, stop + 1)]
        train_acc = [m.theoretical_train_accuracy for _, m in curve]
        test_acc = [m.theoretical_test_accuracy for _, m in curve]
        assert train_acc == [0.5] * (min(train_from, stop + 1) - 1) + [1.0] * (stop + 1 - train_from)
        assert test_acc == [1.0 if n_x in test_at else 0.0 for n_x in range(1, stop + 1)]

    @pytest.mark.parametrize("batched", [False, True])
    @pytest.mark.parametrize("step", [1, 3])
    def test_conflicting_rows_run_to_the_cap(self, batched, step):
        train, test = conflicting_dataset(2, seed=13)
        model = fit_encoder(train, ReducerSpec("none"), 1)
        curve = sweep_widths(model.importances, split_codes(model, train, test), 2, batched, 20, step)
        assert [n_x for n_x, _ in curve] == list(range(1, 21, step))
        assert all(m.theoretical_train_accuracy < 1.0 for _, m in curve)
        if not batched:
            assert curve == per_width_oracle(train, test, ReducerSpec("none"), 20, step)

    @pytest.mark.parametrize("n_x_max,step,message", [(10, 0, "step must be >= 1"), (0, 1, "n_x_max must be >= 1")])
    def test_bad_arguments(self, n_x_max, step, message):
        with pytest.raises(ValueError, match=message):
            sweep_widths(ImportanceScores([1.0]), scheduled_codes(1, (), []), 2, False, n_x_max, step)

    def test_sweep_qubits_sweeps_to_full_coverage(self):
        d = make_synthetic(120, 3, 3, 2.0, seed=0)
        train, test = split_train_test(d, SplitSpec(0.8, seed=1))
        full = sweep_curve(train, test, ReducerSpec("pca"), 128, 1)
        expected = estimate_from_curve(full, 0.9, train.c)
        est = sweep_qubits(train, test, ReducerSpec("pca"), threshold=0.9)
        assert (est.q_train, est.q_test, est.q_dataset) == (expected.q_train, expected.q_test, expected.q_dataset)
        assert est.curve == tuple(full)
        # The 0.9 crossings come well before the full-coverage stop.
        assert est.q_dataset is not None and max(est.q_train, est.q_test) < len(full) - 1


@dataclass
class DictTable:
    """The dict storage the array table replaced, kept as the oracle."""

    entries: dict[Bitstring, np.ndarray]
    c: int
    width: int | None
    total: int


def dict_build_table(encoded, c) -> DictTable:
    entries: dict[Bitstring, np.ndarray] = {}
    width = None
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
    return DictTable(entries=entries, c=c, width=width, total=total)


def dict_table_arrays(t: DictTable):
    codes = np.array([z.value for z in t.entries], dtype=np.uint64 if t.width is None or t.width <= 64 else object)
    counts = np.array(list(t.entries.values()), dtype=np.int64).reshape(len(codes), t.c)
    order = np.argsort(codes)
    return codes[order], counts[order]


def dict_majority_label(t: DictTable, z) -> int:
    return int(np.argmax(t.entries[z]))


def dict_train_collision_incidence(t: DictTable) -> float:
    if t.total == 0:
        raise ValueError("empty table")
    return sum(int(counts.sum() - counts.max()) for counts in t.entries.values()) / t.total


def dict_coverage(t: DictTable, test_buckets) -> CoverageMetrics:
    """Coverage of (bitstring, label, weight) test buckets, one dict lookup each."""
    errors = overlapping = n_test = 0
    for z, label, weight in test_buckets:
        n_test += weight
        if z in t.entries:
            overlapping += weight
            errors += weight if dict_majority_label(t, z) != label else 0
    return CoverageMetrics.from_counts(dict_train_collision_incidence(t), t.total, errors, overlapping, n_test)


def dict_training_batch(t: DictTable, weighting: str) -> TrainingBatch:
    if t.total == 0:
        raise ValueError("empty table")
    items = sorted(t.entries.items(), key=lambda kv: kv[0].value)
    records = []
    for z, counts in items:
        weight = int(counts.sum()) / t.total if weighting == "frequency" else 1.0 / len(items)
        records.append((z.value, int(np.argmax(counts)), weight))
    return TrainingBatch(t.width, *zip(*records))


def dict_classification_accuracy(model, t: DictTable) -> float:
    if t.total == 0:
        raise ValueError("empty table")
    items = sorted(t.entries.items(), key=lambda kv: kv[0].value)
    preds = predict_many(model, np.array([z.value for z, _ in items], dtype=np.int64))
    correct = 0
    for (z, counts), pred in zip(items, preds.tolist()):
        if pred < counts.shape[0]:
            correct += int(counts[pred])
    return correct / t.total


def record_sets(width, seed):
    """Train and test records over a few shared codes (all-zeros and all-ones
    among them), 3 classes, plus a code whose training bucket is a 1-1 tie."""
    r = random.Random(seed)
    pool = sorted({r.getrandbits(width) for _ in range(6)} | {0, (1 << width) - 1})
    tie = pool.pop(r.randrange(len(pool))) if len(pool) > 1 else None
    train = [(Bitstring(width, r.choice(pool)), r.randrange(3)) for _ in range(300)]
    test = [(Bitstring(width, r.choice(pool + [r.getrandbits(width)])), r.randrange(3)) for _ in range(100)]
    if tie is not None:
        train += [(Bitstring(width, tie), 1), (Bitstring(width, tie), 0)]
        test += [(Bitstring(width, tie), 0), (Bitstring(width, tie), 1)]
    return train, test


class TestArrayTable:
    """The array table against the dict table it replaced: exact equality."""

    @pytest.mark.parametrize("width", [1, 64, 65, 130])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_dict_oracle(self, width, seed):
        train, test = record_sets(width, seed)
        t, o = build_table(train, 3), dict_build_table(train, 3)
        codes, counts = dict_table_arrays(o)
        assert t.codes.dtype == codes.dtype and t.codes.tolist() == codes.tolist()
        assert np.array_equal(t.counts, counts)
        assert (t.c, t.width, t.total) == (o.c, o.width, o.total)
        assert table_entries(t).keys() == o.entries.keys()
        assert all(np.array_equal(table_entries(t)[z], o.entries[z]) for z in o.entries)

        half = len(train) // 2
        merged = merge_counts([build_table(train[:half], 3), build_table(train[half:], 3)])
        assert merged.codes.tolist() == codes.tolist() and np.array_equal(merged.counts, counts)

        for z in {z for z, _ in train + test}:
            for label in range(3):
                assert code_coverage(t, build_table([(z, label)], t.c)) == dict_coverage(o, [(z, label, 1)])
        assert train_collision_incidence(t) == dict_train_collision_incidence(o)
        assert code_coverage(t, build_table(test, t.c)) == dict_coverage(o, [(z, label, 1) for z, label in test])
        test_dict = dict_build_table(test, 3)
        batched = [(z, dict_majority_label(test_dict, z), int(n.sum())) for z, n in test_dict.entries.items()]
        assert code_coverage(t, build_table(test, 3), batched=True) == dict_coverage(o, batched)

    @pytest.mark.parametrize("width", [1, 64, 65, 130])
    def test_chunked_count_table_matches_build_table(self, width):
        """``count_table`` over packed-word chunks, merging as it goes, equals one table of every record."""
        train, test = record_sets(width, seed=width)
        records = train + test
        n_words = -(-width // 64)
        words = np.array([[(z.value >> 64 * (n_words - 1 - w)) & (2**64 - 1) for w in range(n_words)]
                          for z, _ in records], dtype=np.uint64)
        labels = np.array([label for _, label in records], dtype=np.int64)
        expected = build_table(records, 3)
        for cuts in ([], [0], [1, 2, 50], [200, 399, 400], list(range(0, len(records), 7))):
            t = count_table(zip(np.split(words, cuts), np.split(labels, cuts)), 3, width)
            assert t.codes.dtype == expected.codes.dtype and t.codes.tolist() == expected.codes.tolist()
            assert np.array_equal(t.counts, expected.counts) and t.width == width

    def test_majority_tie_goes_to_smallest_class(self):
        for width in (1, 64, 65, 130):
            z = Bitstring(width, (1 << width) - 1)
            t = build_table([(z, 1), (z, 0)], 2)
            assert t.counts.tolist() == [[1, 1]]
            assert not majority_errs(t, z, 0) and majority_errs(t, z, 1)
            assert train_collision_incidence(t) == 0.5

    @pytest.mark.parametrize("width", [1, 5])
    @pytest.mark.parametrize("weighting", ["frequency", "uniform"])
    def test_qsim_readers_match_dict_oracle(self, width, weighting):
        train, test = record_sets(width, seed=width)
        predicted = set()
        for records in (train, test):
            t, o = build_table(records, 3), dict_build_table(records, 3)
            batch, oracle = training_batch_from_table(t, weighting), dict_training_batch(o, weighting)
            assert batch_records(batch) == batch_records(oracle)
            for init_seed in range(16):
                model = fresh_model(width, 2, 2, init_seed=init_seed)
                assert classification_accuracies(model, [t]) == [dict_classification_accuracy(model, o)]
                predicted.update(predict_many(model, t.codes.astype(np.int64)).tolist())
        assert predicted == {0, 1, 2, 3}  # every class, and a readout (3) that is no class

    def test_empty_tables_raise_as_before(self):
        empty, full = build_table([], 2), build_table([(bs("01"), 0)], 2)
        assert empty.width is None and empty.codes.shape == (0,) and empty.counts.shape == (0, 2)
        for call in (
            lambda: train_collision_incidence(empty),
            lambda: code_coverage(empty, build_table([(bs("01"), 0)], empty.c)),
            lambda: code_coverage(empty, full, batched=True),
            lambda: training_batch_from_table(empty),
            lambda: classification_accuracies(fresh_model(2, 1, 1), [empty]),
        ):
            with pytest.raises(ValueError, match="^empty table$"):
                call()

    def test_counts_are_read_only(self):
        t = build_table([(bs("01"), 0), (bs("01"), 1)], 2)
        with pytest.raises(ValueError):
            t.counts[0, 0] = 5
        assert t.counts.tolist() == [[1, 1]]
