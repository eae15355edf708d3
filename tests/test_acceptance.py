"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v` for a pass/fail line per
criterion (add -s to see the explicit PASS prints). Criterion 4 needs the
wdbc and diabetes datasets: drop CSVs into tests/data/ (or point
BITBIT_DATA_DIR at them); the wdbc half falls back to scikit-learn's bundled
copy of the same dataset when no CSV is given. Criterion 5 needs a local
collection of OpenML-style CSVs and is skipped otherwise.
"""

import contextlib
import io
import json
import math
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from bitbit.cli import _check_flags, build_parser, main, run_estimate, run_stream_estimate
from bitbit.coverage import build_table, code_coverage, estimate_from_curve, sweep_curve
from bitbit.data import Dataset, SplitSpec, load_csv, make_synthetic, split_train_test
from bitbit.dimred import ReducerSpec, fit_reducer
from bitbit.encoder import apply_copula, copula_ranks, encode_samples, fit_copula, fit_encoder, write_packed
from bitbit.qsim import (
    TrainingBatch,
    build_exact_classifier,
    classification_accuracies,
    evaluate_loss,
    fresh_model,
    train_sweeps,
    training_batch_from_table,
)
from bitbit.stream import Spill, _spill_codes
from tests.conftest import probe_update, write_dataset_csv
from tests.test_coverage import brute_test_incidence, brute_train_incidence

DATA_DIR = Path(os.environ.get("BITBIT_DATA_DIR", Path(__file__).parent / "data"))


def report_body(path) -> dict:
    doc = json.loads(Path(path).read_text())
    doc.pop("timestamp")
    return doc


def quiet(func, *args, **kwargs):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        return func(*args, **kwargs)


# --- criterion 1 ---


@pytest.mark.filterwarnings("ignore:classes .* absent")
def test_criterion_01_coverage_oracle_equivalence(rng):
    """Table-path incidences equal naive per-sample recomputation exactly."""
    for trial in range(100):
        s = int(rng.integers(20, 201))
        n = int(rng.integers(1, 6))
        c = int(rng.integers(2, 4))
        n_x = int(rng.integers(1, 13))
        d = make_synthetic(s, n, c, float(rng.uniform(0.0, 4.0)), seed=trial)
        train, test = split_train_test(d, SplitSpec(0.75, seed=trial))
        model = fit_encoder(train, ReducerSpec("none"), n_x)
        enc_train = list(zip(encode_samples(model, train.features), train.labels.tolist()))
        enc_test = list(zip(encode_samples(model, test.features), test.labels.tolist()))
        metrics = code_coverage(build_table(enc_train, c), build_table(enc_test, c))
        assert metrics.train_collision_incidence == brute_train_incidence(enc_train)
        assert (
            metrics.test_overlap_incidence,
            metrics.test_train_overlap_fraction,
        ) == brute_test_incidence(enc_train, enc_test)
    print("ACCEPTANCE criterion 1 (coverage oracle equivalence, exact): PASS")


# --- criterion 2 ---


def write_rows(path, rows, n_features):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join([f"f{j}" for j in range(n_features)] + ["label"]) + "\n")
        for vals, lab in rows:
            fh.write(",".join(repr(float(v)) for v in vals) + f",{lab}\n")


def two_center_pair(seed, train_path, test_path):
    """Two duplicated class centers, class 0 at most as frequent as class 1 in
    training: every encoded bucket is single-label at every width, where the
    streamed and per-sample test rules provably coincide."""
    r = np.random.default_rng(seed)
    n = int(r.integers(1, 5))
    centers = r.normal(scale=5.0, size=(2, n))
    n0 = int(r.integers(8, 15))
    n1 = n0 + int(r.integers(0, 6))
    train = [(centers[0], 0)] * n0 + [(centers[1], 1)] * n1
    test = [(centers[0], 0)] * int(r.integers(2, 6)) + [(centers[1], 1)] * int(r.integers(2, 6))
    r.shuffle(train)
    r.shuffle(test)
    write_rows(train_path, train, n)
    write_rows(test_path, test, n)
    return len(train)


def interleaved_1d_pair(seed, train_path, test_path):
    """1-D duplicated grid with an interleaved class boundary (so coverage
    needs several bits) and test copies only on centers whose empirical ranks
    sit safely inside one half: overlapping test buckets stay single-label
    because 0.5 is a bucket boundary at every width."""
    r = np.random.default_rng(seed)
    low, mid, high = int(r.integers(3, 6)), int(r.integers(2, 4)), int(r.integers(3, 6))
    count = low + 2 * mid + high
    values = np.sort(r.uniform(0, 10, count))
    labels = [0] * low + [0, 1] * mid + [1] * high
    dups = r.integers(1, 5, count)
    train = [([values[i]], labels[i]) for i in range(count) for _ in range(int(dups[i]))]
    ranks = np.cumsum(dups)
    test = []
    for i in range(count):
        u = ranks[i] / (len(train) + 1)
        if labels[i] == 0 and u < 0.45:
            test += [([values[i]], 0)] * int(r.integers(1, 4))
        if labels[i] == 1 and u > 0.55:
            test += [([values[i]], 1)] * int(r.integers(1, 4))
    r.shuffle(train)
    r.shuffle(test)
    write_rows(train_path, train, 1)
    write_rows(test_path, test, 1)
    return len(train)


def run_both_paths(tmp_path, scheme, batch_size, n_x_max=40):
    flags = ["--train-input", str(tmp_path / "train.csv"), "--test-input", str(tmp_path / "test.csv"),
             "--label-column", "label", "--scheme", scheme, "--step", "1", "--n-x-max", str(n_x_max)]
    in_memory = build_parser().parse_args(["estimate", *flags, "--output", str(tmp_path / "a.json")])
    streamed = build_parser().parse_args(["stream-estimate", *flags, "--batch-size", str(batch_size),
                                          "--output", str(tmp_path / "b.json")])
    quiet(run_estimate, in_memory, _check_flags(in_memory))
    quiet(run_stream_estimate, streamed, _check_flags(streamed))
    a = json.loads((tmp_path / "a.json").read_text())["replicates"][0]
    b = json.loads((tmp_path / "b.json").read_text())["replicates"][0]
    return a, b


def test_criterion_02_streaming_equivalence(tmp_path):
    """Single-batch streaming is bit-for-bit the in-memory pipeline; tenth-size
    batches move Q_dataset by at most 2 qubits on separable synthetics."""
    # bit-for-bit half: 20 datasets whose overlapping test buckets are
    # single-label by construction (the two test-side rules agree there)
    for i in range(20):
        if i < 10:
            s = two_center_pair(1000 + i, tmp_path / "train.csv", tmp_path / "test.csv")
            scheme = "pca" if i % 2 else "none"
        else:
            s = interleaved_1d_pair(2000 + i, tmp_path / "train.csv", tmp_path / "test.csv")
            scheme = "none"
        a, b = run_both_paths(tmp_path, scheme, batch_size=10 * s)
        assert a["curve"] == b["curve"], f"dataset {i}: curves differ"
        assert a["thresholds"] == b["thresholds"], f"dataset {i}: estimates differ"

    # tenth-size batches with batch-averaged importances: Q within 2 qubits
    for seed in (0, 1, 2):
        d = make_synthetic(200, 2, 2, 10.0, seed=seed)
        train, test = split_train_test(d, SplitSpec(0.8, seed=seed, stratify=True))
        write_dataset_csv(tmp_path / "train.csv", train)
        write_dataset_csv(tmp_path / "test.csv", test)
        a, b = run_both_paths(tmp_path, "none", batch_size=train.n_samples // 10)
        qa = a["thresholds"]["1.0"]["q_dataset"]
        qb = b["thresholds"]["1.0"]["q_dataset"]
        assert qa is not None and qb is not None and abs(qa - qb) <= 2
    print("ACCEPTANCE criterion 2 (streaming equivalence, bit-for-bit / <=2 qubits): PASS")


# --- criterion 3 ---


def test_criterion_03_incremental_pca_exactness(rng):
    """A fit over a batch partition matches the one-batch fit within 1e-6."""
    for trial in range(50):
        s = int(rng.integers(20, 200))
        n = int(rng.integers(2, 9))
        x = rng.standard_normal((s, n)) * rng.uniform(0.5, 3.0) + rng.normal(size=n)
        splits = np.sort(rng.choice(np.arange(1, s), size=min(int(rng.integers(1, 7)), s - 1), replace=False))
        streamed = fit_reducer(ReducerSpec("pca"), (x[lo:hi] for lo, hi in zip([0, *splits], [*splits, s])))
        batch = fit_reducer(ReducerSpec("pca"), [x])
        assert np.abs(streamed.components - batch.components).max() < 1e-6
        assert np.abs(streamed.center - batch.center).max() < 1e-6
        assert np.abs(streamed.explained_variance - batch.explained_variance).max() < 1e-6
    print("ACCEPTANCE criterion 3 (incremental PCA exactness, 1e-6): PASS")


# --- criterion 4 ---


def table1_run(dataset: Dataset):
    q10, q99 = [], []
    for r in range(10):
        train, test = split_train_test(dataset, SplitSpec(0.8, seed=r))
        curve = sweep_curve(train, test, ReducerSpec("pca"), 128, 1)
        est10 = estimate_from_curve(curve, 1.0, dataset.c)
        est99 = estimate_from_curve(curve, 0.99, dataset.c)
        assert est10.covered and est99.covered
        assert est99.q_dataset <= est10.q_dataset
        q10.append(est10.q_dataset)
        q99.append(est99.q_dataset)
    return float(np.mean(q10)), float(np.mean(q99))


def load_reference_csv(name: str) -> Dataset | None:
    path = DATA_DIR / f"{name}.csv"
    if path.exists():
        return load_csv(path, "label" if "label" in path.read_text().splitlines()[0] else -1)
    return None


def test_criterion_04_table1_wdbc():
    """Mean Q_dataset(1.0) over 10 replicates within +/-8 of the reference value 18."""
    dataset = load_reference_csv("wdbc")
    if dataset is None:
        sklearn_datasets = pytest.importorskip(
            "sklearn.datasets", reason="wdbc CSV not provided and scikit-learn unavailable"
        )
        raw = sklearn_datasets.load_breast_cancer()
        dataset = Dataset(features=raw.data, labels=raw.target, c=2)
    mean10, mean99 = table1_run(dataset)
    assert 18 - 8 <= mean10 <= 18 + 8, f"wdbc mean Q_dataset(1.0) {mean10} outside 18 +/- 8"
    print(f"ACCEPTANCE criterion 4 (wdbc): PASS mean Q(1.0)={mean10:.1f} Q(0.99)={mean99:.1f} (reference 18 / 14)")


def test_criterion_04_table1_diabetes():
    dataset = load_reference_csv("diabetes")
    if dataset is None:
        pytest.skip("diabetes CSV not provided (tests/data/diabetes.csv); cannot fetch offline")
    mean10, mean99 = table1_run(dataset)
    assert 21 - 8 <= mean10 <= 21 + 8, f"diabetes mean Q_dataset(1.0) {mean10} outside 21 +/- 8"
    print(f"ACCEPTANCE criterion 4 (diabetes): PASS mean Q(1.0)={mean10:.1f} Q(0.99)={mean99:.1f} (reference 21 / 18)")


# --- criterion 5 (optional, needs local OpenML-style data) ---


def test_criterion_05_openml_statistic():
    csvs = sorted(DATA_DIR.glob("openml_*.csv")) if DATA_DIR.exists() else []
    if len(csvs) < 5:
        pytest.skip("optional: needs >= 5 OpenML-style CSVs under tests/data/openml_*.csv")
    means = []
    for path in csvs:
        dataset = load_csv(path, "label")
        mean10, _ = table1_run(dataset)
        means.append(mean10)
    overall = float(np.mean(means))
    assert 12 <= overall <= 30, f"mean Q_dataset(1.0) {overall} outside [12, 30]"
    print(f"ACCEPTANCE criterion 5 (OpenML statistic): PASS mean={overall:.2f}")


# --- criterion 6 ---


def test_criterion_06_copula_uniformity(rng):
    """Post-copula training marginals are uniform within KS <= 2/sqrt(s) + 0.01."""
    s = 1000
    bound = 2 / math.sqrt(s) + 0.01
    for trial in range(50):
        scale = rng.uniform(0.1, 10.0)
        col = rng.standard_normal(s) * scale + rng.uniform(-5, 5)
        if trial % 3 == 0:
            col = np.exp(col / (3 * scale))  # heavy-tailed variety
        model = fit_copula(col.reshape(-1, 1))
        u = np.sort(np.searchsorted(model.columns[0], col, side="right") / (s + 1))
        grid = np.arange(1, s + 1) / s
        ks = max(np.abs(u - grid).max(), np.abs(u - (grid - 1 / s)).max())
        assert ks <= bound, f"trial {trial}: KS {ks} > {bound}"
        assert apply_copula(model, float(col[0]), 0) == u[np.searchsorted(u, apply_copula(model, float(col[0]), 0))]
    print(f"ACCEPTANCE criterion 6 (copula uniformity, KS <= {bound:.4f}): PASS")


# --- criterion 7 ---


def test_criterion_07_exact_classifier_witness(rng):
    """The reversible-oracle construction is a basis permutation with zero loss
    on every batch consistent with its classifier."""
    for trial in range(20):
        n_x = int(rng.integers(1, 6))
        n_y = int(rng.integers(1, 3))
        targets = np.array([int(rng.integers(0, 1 << n_y)) for _ in range(1 << n_x)])
        ec = build_exact_classifier(targets, n_x, n_y)
        assert sorted(ec.perm.tolist()) == list(range(1 << (n_x + n_y)))
        size = 1 << n_x
        weights = rng.random(size)
        weights /= weights.sum()
        batch = TrainingBatch(n_x, np.arange(size), targets, weights)
        assert evaluate_loss(ec, batch) <= 1e-12
    print("ACCEPTANCE criterion 7 (exact-classifier witness, loss <= 1e-12): PASS")


# --- criterion 8 ---


def random_triple(rng):
    n_x = int(rng.integers(1, 4))
    n_y = int(rng.integers(1, 3))
    layers = int(rng.integers(1, 3))
    model = fresh_model(n_x, n_y, layers)
    model.theta[:] = rng.uniform(-math.pi, math.pi, model.theta.shape[0])
    k = int(rng.integers(1, min(1 << n_x, 4) + 1))
    values = rng.choice(1 << n_x, size=k, replace=False)
    weights = rng.random(k)
    weights /= weights.sum()
    batch = TrainingBatch(n_x, values, [int(rng.integers(0, 1 << n_y)) for _ in values], weights)
    j = int(rng.integers(0, model.theta.shape[0]))
    return model, batch, j


def test_criterion_08_exact_coordinate_update(rng):
    """Over 1000 random (model, batch, parameter) triples: sinusoidal slices,
    and monotone, idempotent steps of ``_slice_update`` on the slice read from
    three probes."""
    for trial in range(1000):
        model, batch, j = random_triple(rng)

        angles = model.theta[j] + 2 * math.pi * np.arange(5) / 5
        losses = np.empty(5)
        saved = model.theta[j]
        for i, a in enumerate(angles):
            model.theta[j] = a
            losses[i] = evaluate_loss(model, batch)
        model.theta[j] = saved
        design = np.stack([np.ones(5), np.cos(angles), np.sin(angles)], axis=1)
        coef, *_ = np.linalg.lstsq(design, losses, rcond=None)
        assert np.abs(design @ coef - losses).max() < 1e-9, f"trial {trial}: slice not sinusoidal"

        before = evaluate_loss(model, batch)
        theta_1, after = probe_update(model, batch, j)
        assert after <= before + 1e-10, f"trial {trial}: loss increased"

        theta_2, _ = probe_update(model, batch, j)
        # the parameter is an angle: a 2*pi flip at the +/-pi boundary is the
        # same gate, so idempotence is angular distance
        drift = abs(math.remainder(theta_2 - theta_1, 2 * math.pi))
        assert drift < 1e-9, f"trial {trial}: step not idempotent (drift {drift})"
    print("ACCEPTANCE criterion 8 (coordinate update: residual<1e-9, monotone, idempotent): PASS")


# --- criterion 9 ---


def test_criterion_09_convergence_ceiling():
    """Training on the collision-resolved 4-class encoding reaches the
    coverage-derived accuracy ceiling within 0.02 and never exceeds it."""
    d = make_synthetic(1600, 4, 4, 5.0, seed=11)
    train, test = split_train_test(d, SplitSpec(0.8, seed=1))
    for n_x, sweeps in ((4, 12), (6, 12)):
        enc = fit_encoder(train, ReducerSpec("pca"), n_x)
        table = build_table(
            zip(encode_samples(enc, train.features), train.labels.tolist()), d.c
        )
        theoretical = 1.0 - (
            sum(int(v.sum() - v.max()) for v in table.counts) / table.total
        )
        batch = training_batch_from_table(table)
        model = fresh_model(n_x, 2, layers=4, init_seed=1)
        final_acc = None
        for _ in range(sweeps):
            train_sweeps(model, batch, 1)
            final_acc = classification_accuracies(model, [table])[0]
            assert final_acc <= theoretical + 1e-9, f"n_x={n_x}: accuracy above the ceiling"
        assert final_acc >= theoretical - 0.02, (
            f"n_x={n_x}: final accuracy {final_acc} below ceiling {theoretical} - 0.02"
        )
        test_table = build_table(
            zip(encode_samples(enc, test.features), test.labels.tolist()), d.c
        )
        test_acc = classification_accuracies(model, [test_table])[0]
        print(
            f"ACCEPTANCE criterion 9 (n_x={n_x}): PASS train_acc={final_acc:.4f} "
            f"ceiling={theoretical:.4f} test_acc={test_acc:.4f}"
        )


# --- criterion 10 ---


def test_criterion_10_cli_determinism(tmp_path, capsys):
    """Every CLI command, run twice with a fixed seed, produces byte-identical
    outputs apart from the report timestamp field."""
    data_csv = tmp_path / "data.csv"
    assert main(["make-synthetic", "--samples", "100", "--features", "2", "--separation",
                 "8", "--seed", "1", "--output", str(data_csv)]) == 0
    again = tmp_path / "data2.csv"
    main(["make-synthetic", "--samples", "100", "--features", "2", "--separation",
          "8", "--seed", "1", "--output", str(again)])
    assert data_csv.read_bytes() == again.read_bytes()

    d = load_csv(data_csv, "label")
    train, test = split_train_test(d, SplitSpec(0.8, seed=2, stratify=True))
    write_dataset_csv(tmp_path / "train.csv", train)
    write_dataset_csv(tmp_path / "test.csv", test)

    reports = []
    for name in ("e1", "e2"):
        out = tmp_path / f"{name}.json"
        assert main(["estimate", "--input", str(data_csv), "--label-column", "label",
                     "--replicates", "2", "--seed", "3", "--stratify", "--n-x-max", "24",
                     "--output", str(out)]) == 0
        reports.append(out)
    assert report_body(reports[0]) == report_body(reports[1])
    assert reports[0].with_suffix(".curves.csv").read_bytes() == reports[1].with_suffix(".curves.csv").read_bytes()

    stream_outs = []
    for name in ("s1", "s2"):
        out = tmp_path / f"{name}.json"
        assert main(["stream-estimate", "--train-input", str(tmp_path / "train.csv"),
                     "--test-input", str(tmp_path / "test.csv"), "--label-column", "label",
                     "--scheme", "pca", "--step", "1", "--batch-size", "16",
                     "--n-x-max", "24", "--seed", "4", "--work-dir", str(tmp_path / f"{name}.work"),
                     "--output", str(out)]) == 0
        stream_outs.append(out)
    body1, body2 = report_body(stream_outs[0]), report_body(stream_outs[1])
    body1["config"].pop("work_dir")
    body2["config"].pop("work_dir")
    assert body1 == body2
    for artifact in ("model.json", "train.enc", "test.enc"):
        assert (tmp_path / "s1.work" / artifact).read_bytes() == (tmp_path / "s2.work" / artifact).read_bytes()

    for name in ("c1", "c2"):
        assert main(["encode", "--input", str(data_csv), "--label-column", "label",
                     "--n-x", "4", "--seed", "5", "--output-dir", str(tmp_path / name)]) == 0
    for artifact in ("model.json", "train.enc", "test.enc", "labels.json"):
        assert (tmp_path / "c1" / artifact).read_bytes() == (tmp_path / "c2" / artifact).read_bytes()

    for name in ("t1.csv", "t2.csv"):
        assert main(["train", "--input", str(data_csv), "--label-column", "label",
                     "--n-x", "2", "--layers", "3", "--sweeps", "5", "--seed", "6",
                     "--output", str(tmp_path / name)]) == 0
    assert (tmp_path / "t1.csv").read_bytes() == (tmp_path / "t2.csv").read_bytes()
    assert (tmp_path / "t1.model.json").read_bytes() == (tmp_path / "t2.model.json").read_bytes()

    capsys.readouterr()
    assert main(["report", "--input", str(reports[0])]) == 0
    first = capsys.readouterr().out
    assert main(["report", "--input", str(reports[0])]) == 0
    assert capsys.readouterr().out == first
    print("ACCEPTANCE criterion 10 (CLI determinism modulo timestamp): PASS")


# --- documented scaling smoke test (billion-record corpora are out of desk reach) ---


class SyntheticSource:
    """Restartable generator source: batches are recomputed per pass, so the
    source itself holds no data."""

    def __init__(self, total, n_features, n_classes, seed):
        self.total, self.n, self.c, self.seed = total, n_features, n_classes, seed

    def batches(self, batch_size):
        r = np.random.default_rng(self.seed)
        remaining = self.total
        while remaining > 0:
            m = min(batch_size, remaining)
            labels = r.integers(0, self.c, m)
            features = r.standard_normal((m, self.n)) + 3.0 * labels[:, None]
            yield features, labels
            remaining -= m


def test_scaling_smoke_stream_encode_constant_memory(tmp_path):
    """Encoding a million-record stream (the rank pass to a spill, then codes
    packed from it) allocates O(batch + model), not O(records)."""
    fit_data = make_synthetic(2000, 4, 2, 3.0, seed=1)
    model = fit_encoder(fit_data, ReducerSpec("pca"), 24)
    source = SyntheticSource(1_000_000, 4, 2, seed=9)
    sink = tmp_path / "big.enc"
    tracemalloc.start()
    try:
        spill = Spill(tmp_path / "big.ranks", np.uint32, len(model.copula) + 1)
        spill.write((copula_ranks(model, x), y) for x, y in source.batches(10_000))
        count = write_packed(sink, model.width, _spill_codes(spill, model.copula, model.allocation.bits, 10_000))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert count == 1_000_000
    assert peak < 64 * 2**20, f"peak traced allocation {peak / 2**20:.1f} MB exceeds 64 MB"
    print(f"ACCEPTANCE scaling smoke: PASS 1e6 records, peak {peak / 2**20:.1f} MB")
