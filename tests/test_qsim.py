import math
import re
import tracemalloc

import numpy as np
import pytest

from bitbit import qsim
from bitbit.coverage import build_table, code_coverage, count_codes
from bitbit.data import make_synthetic, split_train_test, SplitSpec
from bitbit.dimred import ReducerSpec
from bitbit.encoder import Bitstring, encode_samples, fit_encoder
from tests.conftest import batch_records, probe_update
from bitbit.qsim import (
    Ansatz,
    QuantumModel,
    TrainingBatch,
    _class_probs_batch,
    build_exact_classifier,
    classification_accuracies,
    evaluate_loss,
    fresh_model,
    predict_many,
    train_sweeps,
    training_batch_from_table,
)


def _apply_ry(states, qubit, angle):
    """RY on one qubit in place: one real 2x2 product on the float64 view,
    which turns the real and imaginary parts alike. The per-qubit oracle for
    the layer plan's RY blocks."""
    c, s = math.cos(angle / 2), math.sin(angle / 2)
    view = states.view(np.float64).reshape(1 << qubit, 2, -1)
    np.matmul(np.array([[c, -s], [s, c]]), view, out=view)


def _apply_rz(states, qubit, angle):
    """RZ on one qubit in place: the phase e^(-i angle/2) on its 0 half and
    e^(+i angle/2) on its 1 half. The oracle for the layer plan's diagonal."""
    view = states.reshape(1 << qubit, 2, -1)
    view[:, 0] *= complex(math.cos(angle / 2), -math.sin(angle / 2))
    view[:, 1] *= complex(math.cos(angle / 2), math.sin(angle / 2))


def _apply_cnot(states, n_qubits, control, target):
    """CNOT in place: swaps the target's halves of the control-1 half. The
    oracle for the ring permutation."""
    view = states.reshape((2,) * n_qubits + (-1,))
    rest = [q for q in range(n_qubits + 1) if q not in (control, target)]
    pair = view.transpose([control, target] + rest)[1]  # the control-1 half, by target bit
    pair[[0, 1]] = pair[[1, 0]]


class SingleRyOnClass:
    """Minimal one-parameter circuit (an RY on the class qubit) whose loss has
    the closed form 1 - sin^2(theta/2) for the record (z=0, target=1)."""

    def __init__(self, n_x=1, n_y=1):
        self.n_x = n_x
        self.n_y = n_y
        self.theta = np.zeros(1)

    def apply_batch(self, states):
        _apply_ry(states, 0, self.theta[0])


def random_model(rng, n_x=2, n_y=1, layers=2):
    model = fresh_model(n_x, n_y, layers)
    model.theta[:] = rng.uniform(-math.pi, math.pi, model.theta.shape[0])
    return model


def random_batch(rng, n_x=2, n_classes=2, k=4):
    values = rng.choice(1 << n_x, size=min(k, 1 << n_x), replace=False)
    weights = rng.random(values.shape[0])
    weights /= weights.sum()
    return TrainingBatch(n_x, values, [int(rng.integers(0, n_classes)) for _ in values], weights)


class RecordingModel:
    """Identity circuit that keeps a copy of every state batch it is applied to."""

    def __init__(self, n_x, n_y):
        self.n_x = n_x
        self.n_y = n_y
        self.seen = []

    def apply_batch(self, states):
        self.seen.append(states.copy())


class TestStatevector:
    """The basis states the batched readers prepare: input z enters as |0>|z>."""

    def test_basis_state_all_zero(self):
        model = RecordingModel(1, 1)
        assert predict_many(model, np.array([0])).tolist() == [0]
        assert model.seen[0].tolist() == [[1], [0], [0], [0]]

    def test_basis_state_ordering(self):
        model = RecordingModel(2, 1)
        predict_many(model, np.array([int("10", 2)]))
        assert model.seen[0][2, 0] == 1.0 and np.count_nonzero(model.seen[0]) == 1

    def test_norm_is_one(self):
        model = RecordingModel(3, 1)
        batch = TrainingBatch(3, [int("101", 2)], [0], [1.0])
        assert evaluate_loss(model, batch) == 0.0
        assert np.sum(np.abs(model.seen[0]) ** 2) == 1.0


class TestClassProbabilities:
    def test_basis_state_class_readout(self):
        states = np.zeros((8, 1), dtype=complex)
        states[int("011", 2), 0] = 1.0  # class bits 01
        assert _class_probs_batch(fresh_model(1, 2, 1), states).tolist() == [[0, 1, 0, 0]]

    def test_uniform_superposition(self):
        n = 4
        states = np.full((1 << n, 1), (1 << n) ** -0.5, dtype=complex)
        assert np.allclose(_class_probs_batch(fresh_model(2, 2, 1), states), 0.25)

    def test_random_state_sums_to_one(self, rng):
        amps = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        amps /= np.linalg.norm(amps)
        assert abs(_class_probs_batch(fresh_model(2, 1, 1), amps[:, None]).sum() - 1.0) < 1e-10


class TestGateKernels:
    def test_norm_preserved_by_random_circuit(self, rng):
        n = 4
        states = np.zeros((1 << n, 3), dtype=complex)
        states[[0, 5, 9], np.arange(3)] = 1.0
        for _ in range(60):
            kind = rng.integers(0, 3)
            q = int(rng.integers(0, n))
            if kind == 0:
                _apply_ry(states, q, float(rng.uniform(-math.pi, math.pi)))
            elif kind == 1:
                _apply_rz(states, q, float(rng.uniform(-math.pi, math.pi)))
            else:
                t = int(rng.integers(0, n - 1))
                _apply_cnot(states, n, q, t if t < q else t + 1)
            norms = np.sum(np.abs(states) ** 2, axis=0)
            assert np.abs(norms - 1.0).max() < 1e-12

    def test_ry_matches_its_matrix_at_any_angle(self, rng):
        n = 3
        angles = [0.0, 1e-9, math.pi, -math.pi, 1.5 * math.pi, 2 * math.pi, -2 * math.pi + 1e-12,
                  3 * math.pi, 4 * math.pi, 100.0, *rng.uniform(-20, 20, 10)]
        for angle in angles:
            for q in range(n):
                states = rng.standard_normal((1 << n, 4)) + 1j * rng.standard_normal((1 << n, 4))
                c, s = math.cos(angle / 2), math.sin(angle / 2)
                gate = np.kron(np.kron(np.eye(1 << q), [[c, -s], [s, c]]), np.eye(1 << (n - q - 1)))
                expected = gate @ states
                _apply_ry(states, q, angle)
                assert np.abs(states - expected).max() < 1e-13

    def test_cnot_truth_table(self):
        states = np.zeros((4, 4), dtype=complex)
        states[np.arange(4), np.arange(4)] = 1.0
        _apply_cnot(states, 2, 0, 1)
        images = np.argmax(np.abs(states), axis=0)
        assert images.tolist() == [0, 1, 3, 2]


_I2, _X = np.eye(2), np.array([[0, 1], [1, 0]])
_P0, _P1 = np.diag([1, 0]), np.diag([0, 1])


def _on(n, factors):
    """The dense 2^n x 2^n operator with factors[q] on qubit q (qubit 0 is the
    most significant) and the identity on every other qubit."""
    op = np.eye(1)
    for q in range(n):
        op = np.kron(op, factors.get(q, _I2))
    return op


def _ry_matrix(angle):
    c, s = math.cos(angle / 2), math.sin(angle / 2)
    return np.array([[c, -s], [s, c]])


def _rz_matrix(angle):
    return np.diag([np.exp(-0.5j * angle), np.exp(0.5j * angle)])


def _cnot_matrix(n, control, target):
    return _on(n, {control: _P0}) + _on(n, {control: _P1, target: _X})


def _random_states(rng, n, k):
    return rng.standard_normal((1 << n, k)) + 1j * rng.standard_normal((1 << n, k))


class TestCircuitOracle:
    """Every kernel and the whole ansatz against dense np.kron matrices acting
    on (2^n, k) states, one column per state."""

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_rotations_at_every_qubit(self, rng, n, k):
        for q in range(n):
            for kernel, matrix in ((_apply_ry, _ry_matrix), (_apply_rz, _rz_matrix)):
                angle = float(rng.uniform(-2 * math.pi, 2 * math.pi))
                states = _random_states(rng, n, k)
                expected = _on(n, {q: matrix(angle)}) @ states
                kernel(states, q, angle)
                assert np.abs(states - expected).max() < 1e-12

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_cnot_every_ordered_pair(self, rng, n, k):
        for control in range(n):
            for target in range(n):
                if control == target:
                    continue
                states = _random_states(rng, n, k)
                expected = _cnot_matrix(n, control, target) @ states
                _apply_cnot(states, n, control, target)
                assert np.abs(states - expected).max() < 1e-12

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("layers", [1, 2])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_ansatz_matches_its_matrix(self, rng, n, layers, k):
        ansatz = Ansatz(n_qubits=n, layers=layers)
        theta = rng.uniform(-math.pi, math.pi, ansatz.parameter_count)
        # per layer an RY then an RZ on every qubit, then the CNOT ring
        unitary = np.eye(1 << n, dtype=complex)
        for layer in range(layers):
            p = 2 * n * layer
            for q in range(n):
                unitary = _on(n, {q: _ry_matrix(theta[p + 2 * q])}) @ unitary
                unitary = _on(n, {q: _rz_matrix(theta[p + 2 * q + 1])}) @ unitary
            if n > 1:
                for i in range(n):
                    unitary = _cnot_matrix(n, i, (i + 1) % n) @ unitary
        states = _random_states(rng, n, k)
        expected = unitary @ states
        ansatz.apply_batch(states, theta)
        assert np.abs(states - expected).max() < 1e-12


class ChunkWidths:
    """Delegates to a model and records the batch width of every call."""

    def __init__(self, model):
        self.model, self.n_x, self.n_y = model, model.n_x, model.n_y
        self.widths = []

    def apply_batch(self, states):
        self.widths.append(states.shape[1])
        self.model.apply_batch(states)


class TestChunkedReadout:
    def test_chunks_match_one_chunk_bit_for_bit(self, rng, monkeypatch):
        model = random_model(rng, 3, 2, 2)
        batch = random_batch(rng, 3, n_classes=4, k=5)
        z_values = batch.z_values
        one = ChunkWidths(model)
        loss, preds = evaluate_loss(one, batch), predict_many(one, z_values)
        probs = qsim._basis_class_probs(model, z_values)
        assert one.widths == [5, 5]

        # two inputs per chunk: chunks of 2, 2 and a 1-input tail
        monkeypatch.setattr(qsim, "_CHUNK_AMPLITUDES", 2 << model.n_qubits)
        chunked = ChunkWidths(model)
        assert evaluate_loss(chunked, batch) == loss
        assert np.array_equal(predict_many(chunked, z_values), preds)
        assert chunked.widths == [2, 2, 1, 2, 2, 1]
        assert np.array_equal(qsim._basis_class_probs(model, z_values), probs)

    @pytest.mark.parametrize("k", [1, 7, 64])
    def test_rows_match_one_input_readouts(self, rng, k):
        # 8 qubits: two full 4-qubit blocks, were readouts to use them
        model = random_model(rng, 6, 2, 4)
        z_values = rng.choice(1 << 6, size=k, replace=False)
        probs = qsim._basis_class_probs(model, z_values)
        for i in range(k):
            assert probs[i].tobytes() == qsim._basis_class_probs(model, z_values[i:i + 1])[0].tobytes()


class TestEvaluateLoss:
    def test_identity_point_on_zero_input(self):
        model = fresh_model(2, 1, 1)
        batch = TrainingBatch(2, [0], [0], [1.0])
        assert evaluate_loss(model, batch) == pytest.approx(0.0, abs=1e-15)

    def test_closed_form_single_rotation(self):
        model = SingleRyOnClass()
        batch = TrainingBatch(1, [0], [1], [1.0])
        for theta in (0.0, 0.7, math.pi / 2, math.pi, -1.2):
            model.theta[0] = theta
            expected = 1.0 - math.sin(theta / 2) ** 2
            assert evaluate_loss(model, batch) == pytest.approx(expected, abs=1e-12)

    def test_loss_bounds(self, rng):
        for _ in range(20):
            model = random_model(rng)
            batch = random_batch(rng)
            assert 0.0 <= evaluate_loss(model, batch) <= 1.0

    def test_width_mismatch(self):
        model = fresh_model(2, 1, 1)
        batch = TrainingBatch(3, [0], [0], [1.0])
        with pytest.raises(ValueError, match="width"):
            evaluate_loss(model, batch)


class TestTrainingBatch:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            TrainingBatch(1, [0], [0], [0.4])

    def test_duplicate_inputs_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            TrainingBatch(1, [0, 0], [0, 1], [0.5, 0.5])

    def test_from_table_frequency_weighting(self):
        t = build_table([(Bitstring(2, 0), 0)] * 3 + [(Bitstring(2, 1), 1)], 2)
        batch = training_batch_from_table(t)
        assert batch_records(batch) == ((Bitstring(2, 0), 0, 0.75), (Bitstring(2, 1), 1, 0.25))

    def test_from_table_uniform_weighting(self):
        t = build_table([(Bitstring(2, 0), 0)] * 3 + [(Bitstring(2, 1), 1)], 2)
        batch = training_batch_from_table(t, weighting="uniform")
        assert [w for _, _, w in batch_records(batch)] == [0.5, 0.5]

    def test_from_table_resolves_collisions_to_majority(self):
        t = build_table([(Bitstring(1, 0), 1)] * 3 + [(Bitstring(1, 0), 0)], 2)
        batch = training_batch_from_table(t)
        assert batch_records(batch)[0][1] == 1

    def test_arrays_are_read_only_copies(self):
        z_values, targets, weights = np.array([2, 0]), np.array([1, 0]), np.array([0.25, 0.75])
        batch = TrainingBatch(2, z_values, targets, weights)
        z_values[0], targets[0], weights[0] = 3, 0, 0.0
        assert batch_records(batch) == ((Bitstring(2, 2), 1, 0.25), (Bitstring(2, 0), 0, 0.75))
        assert [a.dtype for a in (batch.z_values, batch.targets, batch.weights)] == [np.int64, np.int64, np.float64]
        for array in (batch.z_values, batch.targets, batch.weights):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1
        assert len(batch) == 2 and batch != TrainingBatch(2, [2, 0], [1, 0], [0.25, 0.75]) and batch == batch


class TestErrorMessages:
    """Each message of TrainingBatch and build_exact_classifier, and the width
    check of code_coverage, as the one line a fault raises."""

    @pytest.mark.parametrize("call,message", [
        (lambda: TrainingBatch(2, [], [], []), "batch must be nonempty"),
        (lambda: TrainingBatch(2, [0, 1], [0], [0.5, 0.5]),
         "batch arrays must be 1-D of one length, got (2,), (1,), (2,)"),
        (lambda: TrainingBatch(2, [[0]], [[0]], [[1.0]]),
         "batch arrays must be 1-D of one length, got (1, 1), (1, 1), (1, 1)"),
        (lambda: TrainingBatch(2, [0, 4], [0, 1], [0.5, 0.5]), "inputs must fit in 2 bits, got 4"),
        (lambda: TrainingBatch(2, [-1, 0], [0, 1], [0.5, 0.5]), "inputs must fit in 2 bits, got -1"),
        (lambda: TrainingBatch(3, [5, 1, 5], [0, 1, 1], [0.2, 0.4, 0.4]),
         "duplicate input 101; collisions must be pre-resolved"),
        (lambda: TrainingBatch(1, [0, 1], [0, 1], [1.5, -0.5]), "weights must be nonnegative"),
        (lambda: TrainingBatch(1, [0, 1], [0, -1], [0.5, 0.5]), "targets must be nonnegative class ids"),
        (lambda: TrainingBatch(1, [0, 1], [0, 1], [0.5, 0.25]), "weights must sum to 1, got 0.75"),
        (lambda: TrainingBatch(1, [0], [0], [math.nan]), "weights must sum to 1, got nan"),
        (lambda: build_exact_classifier([0, 1], 19, 2), "21 qubits exceeds the simulator cap 20"),
        (lambda: build_exact_classifier([0, 1, 1], 2, 1), "classifier is not total: need 4 targets, got shape (3,)"),
        (lambda: build_exact_classifier([[0, 1], [1, 0]], 2, 1),
         "classifier is not total: need 4 targets, got shape (2, 2)"),
        (lambda: build_exact_classifier([0, 1, 4, 3], 2, 2), "class 4 does not fit in 2 qubits"),
        (lambda: build_exact_classifier([0, -1], 1, 1), "class -1 does not fit in 1 qubits"),
        (lambda: code_coverage(build_table([(Bitstring(2, 1), 0)], 2), build_table([(Bitstring(3, 1), 0)], 2)),
         "test width 3 != table width 2"),
    ], ids=["empty", "lengths", "two-dimensional", "input-too-large", "input-negative", "duplicate",
            "negative-weight", "negative-target", "weight-sum", "nan-weight", "cap", "not-total",
            "not-one-dimensional", "class-too-large", "class-negative", "coverage-widths"])
    def test_one_line_names_the_fault(self, call, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()

    @pytest.mark.parametrize("z", [2**63, 2**63 + 1, 2**64 - 1])
    def test_input_past_int64_named_unwrapped(self, z):
        table = count_codes(np.array([1, z], dtype=np.uint64), np.array([0, 1]), 2, 64)
        # From a table's uint64 codes, and from a list that np.asarray would make float64.
        for call in (lambda: training_batch_from_table(table), lambda: TrainingBatch(64, [1, z], [0, 1], [0.5, 0.5])):
            with pytest.raises(ValueError, match=f"^inputs must fit in 63 bits, got {z}$"):
                call()


class TestRotosolve:
    """``_slice_update``, the update ``train_sweeps`` runs, on slices read from three probes (``probe_update``)."""

    def test_closed_form_minimizer(self):
        model = SingleRyOnClass()
        batch = TrainingBatch(1, [0], [1], [1.0])
        theta, loss = probe_update(model, batch, 0)
        assert theta == pytest.approx(math.pi, abs=1e-12)
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_sinusoid_fit_residual(self, rng):
        for _ in range(50):
            model = random_model(rng)
            batch = random_batch(rng)
            j = int(rng.integers(0, model.theta.shape[0]))
            angles = model.theta[j] + 2 * math.pi * np.arange(5) / 5
            losses = []
            for a in angles:
                model.theta[j] = a
                losses.append(evaluate_loss(model, batch))
            design = np.stack([np.ones(5), np.cos(angles), np.sin(angles)], axis=1)
            _, residual, _, _ = np.linalg.lstsq(design, np.array(losses), rcond=None)
            assert (residual[0] if residual.size else 0.0) < 1e-18  # squared residual

    def test_step_never_increases_loss(self, rng):
        for _ in range(50):
            model = random_model(rng)
            batch = random_batch(rng)
            j = int(rng.integers(0, model.theta.shape[0]))
            before = evaluate_loss(model, batch)
            _, after = probe_update(model, batch, j)
            assert after <= before + 1e-10

    def test_repeat_leaves_parameter_fixed(self, rng):
        for _ in range(25):
            model = random_model(rng)
            batch = random_batch(rng)
            j = int(rng.integers(0, model.theta.shape[0]))
            first, _ = probe_update(model, batch, j)
            second, _ = probe_update(model, batch, j)
            # angular distance: a 2*pi flip at the +/-pi boundary is the same gate
            assert abs(math.remainder(second - first, 2 * math.pi)) < 1e-9

    def test_wrapped_to_half_open_interval(self, rng):
        for _ in range(25):
            model = random_model(rng)
            batch = random_batch(rng)
            j = int(rng.integers(0, model.theta.shape[0]))
            theta, _ = probe_update(model, batch, j)
            assert -math.pi < theta <= math.pi


class TestTrainSweeps:
    def test_single_record_converges_fast(self):
        model = fresh_model(2, 1, 2)
        batch = TrainingBatch(2, [2], [1], [1.0])
        history = train_sweeps(model, batch, 5)
        assert history[-1] < 1e-6

    def test_zero_sweeps_rejected(self):
        model = fresh_model(1, 1, 1)
        batch = TrainingBatch(1, [0], [0], [1.0])
        with pytest.raises(ValueError):
            train_sweeps(model, batch, 0)

    def test_history_non_increasing(self, rng):
        for _ in range(10):
            model = random_model(rng)
            batch = random_batch(rng)
            history = train_sweeps(model, batch, 3)
            for earlier, later in zip(history, history[1:]):
                assert later <= earlier + 1e-10


class TestExactClassifier:
    def test_single_bit_identity_map_is_cnot(self):
        ec = build_exact_classifier([0, 1], 1, 1)
        assert ec.perm.tolist() == [0, 3, 2, 1]

    def test_constant_zero_fixes_ready_sector(self):
        ec = build_exact_classifier(np.zeros(4, dtype=np.int64), 2, 1)
        assert ec.perm[:4].tolist() == [0, 1, 2, 3]

    def test_random_classifier_is_bijective(self, rng):
        for _ in range(5):
            targets = np.array([int(rng.integers(0, 4)) for _ in range(32)])
            ec = build_exact_classifier(targets, 5, 2)
            assert sorted(ec.perm.tolist()) == list(range(1 << 7))

    def test_zero_loss_on_consistent_batch(self, rng):
        targets = np.array([int(rng.integers(0, 2)) for _ in range(8)])
        ec = build_exact_classifier(targets, 3, 1)
        assert evaluate_loss(ec, TrainingBatch(3, np.arange(8), targets, np.full(8, 1 / 8))) <= 1e-12

    def test_predictions_match_map(self, rng):
        targets = np.array([int(rng.integers(0, 3)) for _ in range(16)])
        ec = build_exact_classifier(targets, 4, 2)
        z_values = np.arange(16, dtype=np.int64)
        assert predict_many(ec, z_values).tolist() == targets.tolist()

    def test_partial_map_rejected(self):
        with pytest.raises(ValueError, match="total"):
            build_exact_classifier([0], 2, 1)

    def test_class_must_fit_register(self):
        with pytest.raises(ValueError, match="fit"):
            build_exact_classifier([0, 3], 1, 1)


class TestQubitCap:
    """fresh_model refuses more than max_qubits qubits, and build_exact_classifier more than
    DEFAULT_QUBIT_CAP, each before it allocates anything."""

    @pytest.mark.parametrize("build,message", [
        (lambda: fresh_model(20, 1, 1), "21 qubits exceeds max_qubits=20"),
        (lambda: fresh_model(4, 2, 1, max_qubits=5), "6 qubits exceeds max_qubits=5"),
        (lambda: build_exact_classifier([], 20, 1), "21 qubits exceeds the simulator cap 20"),
    ], ids=["fresh_model-default", "fresh_model-5", "build_exact_classifier"])
    def test_refused_before_allocating(self, build, message):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=re.escape(message)):
                build()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20  # 2^20 int64 targets alone would take 8 MiB

    def test_raised_cap_is_per_model(self):
        assert fresh_model(20, 1, 1, max_qubits=21).n_qubits == 21
        with pytest.raises(ValueError, match="max_qubits=20"):
            fresh_model(20, 1, 1)


class TestPredict:
    def test_identity_point_zero_input_gives_class_zero(self):
        model = fresh_model(2, 1, 1)
        assert predict_many(model, np.array([Bitstring(2, 0).value])).tolist() == [0]

    def test_end_to_end_toy_training_reaches_ceiling(self):
        d = make_synthetic(300, 3, 2, 4.0, seed=77)
        train, test = split_train_test(d, SplitSpec(0.8, seed=5))
        enc_model = fit_encoder(train, ReducerSpec("pca"), 3)
        train_table = build_table(
            zip(encode_samples(enc_model, train.features), train.labels.tolist()), 2
        )
        encoded_test = list(zip(encode_samples(enc_model, test.features), test.labels.tolist()))
        test_table = build_table(encoded_test, 2)
        ceiling = code_coverage(train_table, build_table(encoded_test, train_table.c))

        # depth must cover the ring routing distance (about N_q - 1 layers)
        # and a seeded random start avoids the classical-point plateau
        qmodel = fresh_model(3, 1, 3, init_seed=1)
        batch = training_batch_from_table(train_table)
        train_sweeps(qmodel, batch, 12)

        train_acc = classification_accuracies(qmodel, [train_table])[0]
        test_acc = classification_accuracies(qmodel, [test_table])[0]
        assert train_acc <= ceiling.theoretical_train_accuracy + 1e-9
        assert train_acc >= ceiling.theoretical_train_accuracy - 0.02
        assert test_acc >= ceiling.theoretical_test_accuracy - 0.02


def probe_loop_sweeps(model, batch, sweeps):
    """The three-probe coordinate loop that train_sweeps ran before it cached
    prefix states: two extra full-circuit losses per parameter, and the loss
    after each update evaluated again. Kept as the oracle for train_sweeps."""
    history = []
    last = evaluate_loss(model, batch)
    for _ in range(sweeps):
        for j in range(model.theta.shape[0]):
            t0 = float(model.theta[j])
            model.theta[j] = t0 + math.pi / 2
            plus = evaluate_loss(model, batch)
            model.theta[j] = t0 - math.pi / 2
            minus = evaluate_loss(model, batch)
            model.theta[j] = t0
            a = (plus + minus) / 2.0
            u, v = last - a, (plus - minus) / 2.0
            b = u * math.cos(t0) - v * math.sin(t0)
            c = u * math.sin(t0) + v * math.cos(t0)
            if math.hypot(b, c) > 1e-13:
                t_star = math.atan2(-c, -b)
                model.theta[j] = t_star + 2.0 * math.pi if t_star <= -math.pi else t_star
                last = evaluate_loss(model, batch)
        history.append(last)
    return history


class TestCachedSweep:
    """train_sweeps against the probe loop: per-sweep losses to 1e-10, and the
    loss it reports after every sweep against evaluate_loss to 1e-12."""

    @staticmethod
    def _check(model, batch, sweeps):
        oracle = QuantumModel(model.n_x, model.n_y, model.ansatz, model.theta.copy())
        expected = probe_loop_sweeps(oracle, batch, sweeps)
        for want in expected:
            got = train_sweeps(model, batch, 1)
            assert len(got) == 1 and abs(got[0] - want) <= 1e-10
            assert abs(got[0] - evaluate_loss(model, batch)) <= 1e-12
        return oracle

    @staticmethod
    def _batch(n_x, targets, weights=None):
        k = len(targets)
        weights = np.full(k, 1.0 / k) if weights is None else weights
        values = np.random.default_rng(k).choice(1 << n_x, size=k, replace=False)
        return TrainingBatch(n_x, values, targets, weights)

    @pytest.mark.parametrize("layers", [1, 2, 3])
    @pytest.mark.parametrize("n_qubits", range(2, 13))
    def test_matches_probe_loop(self, rng, n_qubits, layers):
        n_y = 1 if n_qubits < 4 else 2
        model = random_model(rng, n_qubits - n_y, n_y, layers)
        batch = random_batch(rng, n_qubits - n_y, n_classes=1 << n_y, k=8)
        self._check(model, batch, 2 if n_qubits <= 8 else 1)

    def test_zero_angle_start_with_flat_slices(self):
        model = fresh_model(3, 1, 2)
        oracle = self._check(model, self._batch(3, [0, 1, 0, 1]), 3)
        # parameters whose slices stayed flat are left exactly at zero
        assert 0 < np.count_nonzero(oracle.theta) < oracle.theta.shape[0]
        assert np.array_equal(model.theta == 0.0, oracle.theta == 0.0)

    def test_one_record(self, rng):
        model = random_model(rng, 4, 2, 2)
        self._check(model, self._batch(4, [3]), 3)

    def test_uniform_weights(self, rng):
        model = random_model(rng, 5, 2, 2)
        self._check(model, self._batch(5, [0, 1, 2, 3, 0, 1, 2, 3, 1, 1]), 3)

    def test_target_class_no_sample_has(self, rng):
        model = random_model(rng, 4, 2, 2)
        weights = rng.random(6)
        self._check(model, self._batch(4, [0, 2, 2, 0, 2, 0], weights / weights.sum()), 3)

    @pytest.mark.parametrize("n_x", [3, 10])
    def test_no_probes_at_any_size(self, rng, monkeypatch, n_x):
        def refuse(*args, **kwargs):
            raise AssertionError("train_sweeps probed a full circuit")

        monkeypatch.setattr(qsim, "evaluate_loss", refuse)
        model = random_model(rng, n_x, 1, 2)
        self._check(model, self._batch(n_x, [0, 1, 1, 0]), 2)

    def test_target_beyond_class_register_rejected(self):
        model = fresh_model(2, 1, 1)
        batch = TrainingBatch(2, [0], [2], [1.0])
        with pytest.raises(ValueError, match="does not fit"):
            train_sweeps(model, batch, 1)

    def test_zero_weight_records(self, rng):
        # a zero weight gives its sample a zero prefix column
        model = random_model(rng, 4, 2, 2)
        self._check(model, self._batch(4, [0, 1, 2, 3, 1, 0], np.array([0.3, 0.0, 0.2, 0.0, 0.5, 0.0])), 3)

    def test_peak_memory_does_not_grow_with_layers(self, rng):
        # Each layer's start advances chi through the sweep's own buffers.
        peaks = []
        for layers in (1, 2, 3):
            model, batch = random_model(rng, 9, 1, layers), random_batch(rng, 9, k=64)
            train_sweeps(model, batch, 1)  # warms the caches of ring permutations
            tracemalloc.start()
            try:
                train_sweeps(model, batch, 1)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks.append(peak / (16 * 2**10 * 64))  # in (2^10, 64) complex arrays
        assert peaks[-1] - peaks[0] <= 0.25, peaks
        # chi, u, two suffix buffers, alpha, two betas and the readout index: no copy of chi
        assert max(peaks) <= 6.0, peaks

    @pytest.mark.parametrize("layers", [1, 2])
    @pytest.mark.parametrize("n_qubits", range(2, 13))
    def test_last_layer_rz_angles_kept(self, rng, n_qubits, layers):
        n_y = 1 if n_qubits < 4 else 2
        model = random_model(rng, n_qubits - n_y, n_y, layers)
        before = model.theta.copy()
        train_sweeps(model, random_batch(rng, n_qubits - n_y, n_classes=1 << n_y, k=8), 1)
        last_rz = slice(model.theta.shape[0] - 2 * n_qubits + 1, None, 2)
        assert model.theta[last_rz].tobytes() == before[last_rz].tobytes()
        assert not np.array_equal(model.theta, before)


class TestLayerPlan:
    """The ring and the RZ diagonals that ``_layer_plan`` computes from index
    bits, bit for bit against the gate kernels walked over index arrays."""

    @pytest.mark.parametrize("n", range(1, 13))
    def test_ring_and_diagonals_match_gate_walk(self, rng, n):
        rows = np.arange(1 << n)[:, None]
        for i in range(n if n > 1 else 0):
            _apply_cnot(rows, n, i, (i + 1) % n)
        assert np.array_equal(qsim._ring(n), rows[:, 0])
        theta = rng.uniform(-2 * math.pi, 2 * math.pi, 2 * n * 3)
        for p, (_, diagonal) in zip(range(0, theta.shape[0], 2 * n), qsim._layer_plan(theta, n)):
            want = np.ones((1 << n, 1), dtype=np.complex128)
            for q in range(n):
                _apply_rz(want, q, theta[p + 2 * q + 1])
            assert diagonal.shape == want.shape and np.array_equal(diagonal, want[rows[:, 0]])


class TestSuffixKernels:
    """The sweep's suffix kernels against the single-qubit ones and the circuit."""

    @pytest.mark.parametrize("n", [5, 7, 10])
    def test_ry_blocks_match_single_rys(self, rng, n):
        states = rng.normal(size=(1 << n, 3)) + 1j * rng.normal(size=(1 << n, 3))
        theta = rng.uniform(-math.pi, math.pi, 2 * n)
        angles, blocks = theta[::2], qsim._layer_plan(theta, n)[0][0]
        assert [first for first, _ in blocks] == list(range(0, n, 4))
        want, got = states.copy(), states.copy()
        for first, block in blocks:
            width = block.shape[0].bit_length() - 1
            assert width == min(4, n - first)
            for q in range(first, first + width):
                _apply_ry(want, q, angles[q])
            view = got.view(np.float64).reshape(1 << first, block.shape[0], -1)
            view[:] = block @ view
            assert np.abs(got - want).max() <= 1e-12

    @pytest.mark.parametrize("layers", [1, 3])
    @pytest.mark.parametrize("n", range(2, 11))
    def test_suffix_run_matches_circuit(self, rng, n, layers):
        # the last layer's ring and RZ diagonal are left to the reader
        model = random_model(rng, n - 1, 1, layers)
        plan, ring = qsim._layer_plan(model.theta, n), qsim._ring(n)
        states = _random_states(rng, n, 3)
        before = states.copy()
        buffers = (np.empty_like(states), np.empty_like(states))
        got = qsim._run_layers(states, plan, buffers)
        assert states.tobytes() == before.tobytes() and any(got is b for b in buffers)
        want = states.copy()
        model.apply_batch(want)
        want = (want / plan[-1][1])[np.argsort(ring)]
        assert np.abs(got - want).max() <= 1e-12


class TestTurn:
    """``_turn`` against the gate walk: the turn of a layer's output for a
    parameter is the layer with that angle moved by pi, since
    R(t + pi) = cos(t/2 + pi/2) + sin(t/2 + pi/2) G = G R(t)."""

    @pytest.mark.parametrize("layers", [1, 2, 3])
    @pytest.mark.parametrize("n", range(2, 11))
    def test_turn_is_the_layer_moved_by_pi(self, rng, n, layers):
        model = random_model(rng, n - 1, 1, layers)
        count, ring, one_layer = model.theta.shape[0], qsim._ring(n), Ansatz(n, 1)
        for p in range(0, count, 2 * n):
            last = p + 2 * n == count  # the last layer's chi is the batch after its RYs
            kinds = ("ry",) if last else ("ry", "rz", "cnot")
            angles, psi = model.theta[p:p + 2 * n], _random_states(rng, n, 3)
            chi = psi.copy()
            gate_walk(one_layer, chi, angles, kinds)
            for j in range(p, p + 2 * n):
                if qsim._flat_rz(j, n, count):
                    continue
                kind, q = ("ry", "rz")[j % 2], (j - p) // 2
                moved, want = angles.copy(), psi.copy()
                moved[j - p] += math.pi
                gate_walk(one_layer, want, moved, kinds)
                got = np.empty_like(chi)
                frame, b = (np.arange(1 << n), 0.0) if last else (ring, float(angles[2 * q + 1]))
                qsim._turn(got, chi, frame, kind, q, b)
                assert np.abs(got - want).max() <= 1e-12, (j, kind)


def gates(ansatz):
    """The circuit in application order: ("ry" or "rz", qubit, parameter
    index) for a rotation, ("cnot", control, target) for a CNOT. Parameters
    appear in index order."""
    n = ansatz.n_qubits
    out = []
    for layer in range(ansatz.layers):
        p = 2 * n * layer
        for q in range(n):
            out += [("ry", q, p + 2 * q), ("rz", q, p + 2 * q + 1)]
        if n > 1:
            out += [("cnot", i, (i + 1) % n) for i in range(n)]
    return out


def shear_ry(states, n_qubits, qubit, angle):
    """RY as three shears in place: each pair turns by phi = angle / 2, and
    -R(phi) = R(phi - pi) keeps |phi| <= pi / 2, so the shear factor
    tan(phi / 2) stays within [-1, 1]."""
    view = states.reshape(1 << qubit, 2, -1)
    a0, a1 = view[:, 0], view[:, 1]
    phi = math.remainder(angle / 2, 2 * math.pi)
    if abs(phi) > math.pi / 2:
        states *= -1
        phi -= math.copysign(math.pi, phi)
    t, s = math.tan(phi / 2), math.sin(phi)
    scratch = a1 * t
    a0 -= scratch
    np.multiply(a0, s, out=scratch)
    a1 += scratch
    np.multiply(a1, t, out=scratch)
    a0 -= scratch


def gate_walk(ansatz, states, theta, kinds=("ry", "rz", "cnot")):
    """The ansatz one gate at a time, in ``gates`` order: the oracle for the
    layer-fused ``Ansatz.apply_batch``. Only gates of the given kinds run."""
    n = ansatz.n_qubits
    for kind, a, b in gates(ansatz):
        if kind not in kinds:
            continue
        if kind == "cnot":
            _apply_cnot(states, n, a, b)
        elif kind == "ry":
            shear_ry(states, n, a, theta[b])
        else:
            _apply_rz(states, a, theta[b])


class TestLayerFusion:
    """apply_batch (per layer: the RYs, then the RZs as one diagonal and the
    ring as one permutation) against the gate-by-gate walk."""

    def test_walk_order(self):
        assert gates(Ansatz(1, 1)) == [("ry", 0, 0), ("rz", 0, 1)]
        assert gates(Ansatz(2, 1)) == [("ry", 0, 0), ("rz", 0, 1), ("ry", 1, 2), ("rz", 1, 3),
                                       ("cnot", 0, 1), ("cnot", 1, 0)]

    @pytest.mark.parametrize("k", [1, 3, 64])
    @pytest.mark.parametrize("n", range(1, 11))
    def test_matches_gate_walk(self, rng, n, k):
        for layers in range(1, 5):
            ansatz = Ansatz(n_qubits=n, layers=layers)
            theta = rng.uniform(-2 * math.pi, 2 * math.pi, ansatz.parameter_count)
            states = _random_states(rng, n, k)
            expected = states.copy()
            gate_walk(ansatz, expected, theta)
            ansatz.apply_batch(states, theta)
            assert np.abs(states - expected).max() < 1e-12


class TestApplyBatchPreconditions:
    """A batch the float64 view cannot advance as it stands is refused, never
    advanced into a wrong result."""

    @staticmethod
    def _both(model, states, match):
        for apply in (model.apply_batch, lambda s: model.ansatz.apply_batch(s, model.theta)):
            before = states.copy()
            with pytest.raises(ValueError, match=match):
                apply(states)
            assert np.array_equal(states, before)

    def test_fortran_order(self):
        model = fresh_model(2, 1, 2, init_seed=0)
        states = np.asfortranarray(_random_states(np.random.default_rng(1), 3, 3))
        self._both(model, states, "not C-contiguous")

    def test_strided_column_view(self):
        model = fresh_model(2, 1, 2, init_seed=0)
        self._both(model, _random_states(np.random.default_rng(1), 3, 4)[:, ::2], "not C-contiguous")

    def test_complex64(self):
        model = fresh_model(2, 1, 2, init_seed=0)
        self._both(model, _random_states(np.random.default_rng(1), 3, 3).astype(np.complex64), "dtype complex64")

    def test_wrong_row_count(self):
        model = fresh_model(2, 1, 2, init_seed=0)
        self._both(model, _random_states(np.random.default_rng(1), 2, 3), r"shape \(4, 3\)")
        self._both(model, np.zeros(8, dtype=np.complex128), r"shape \(8,\)")

    def test_every_fault_named_at_once(self):
        model = fresh_model(2, 1, 2, init_seed=0)
        states = np.asfortranarray(_random_states(np.random.default_rng(1), 2, 3).astype(np.complex64))
        self._both(model, states, r"got shape \(4, 3\), dtype complex64, not C-contiguous$")

    @pytest.mark.parametrize("entries", [11, 13, 24])
    def test_theta_of_another_length(self, entries):
        # a partial or extra layer is refused, never run
        states = _random_states(np.random.default_rng(1), 3, 3)
        before = states.copy()
        with pytest.raises(ValueError, match=f"^theta must have 12 entries, got {entries}$"):
            Ansatz(3, 2).apply_batch(states, np.zeros(entries))
        assert np.array_equal(states, before)

    def test_c_ordered_batch_advances(self):
        model = fresh_model(2, 1, 2, init_seed=0)
        states = _random_states(np.random.default_rng(1), 3, 3)
        expected = states.copy()
        gate_walk(model.ansatz, expected, model.theta)
        model.apply_batch(states)
        assert np.abs(states - expected).max() < 1e-12


class TestReadoutWidths:
    """Readouts refuse inputs outside the data register instead of reading
    their high bits as class bits."""

    @pytest.mark.parametrize("width", [1, 3, 4])
    def test_table_of_another_width_refused(self, width):
        model = fresh_model(2, 1, 1, init_seed=3)
        matching = count_codes(np.array([1], dtype=np.uint64), np.array([0]), 2, 2)
        table = count_codes(np.array([1, 5, 6], dtype=np.uint64) % (1 << width), np.array([0, 1, 1]), 2, width)
        for call in (lambda: classification_accuracies(model, [table]),
                     lambda: classification_accuracies(model, [matching, table])):
            with pytest.raises(ValueError, match=f"^table width {width} != model data width 2$"):
                call()

    @pytest.mark.parametrize("z", [-1, 4, 7, 12])
    def test_inputs_outside_the_data_register_refused(self, z):
        with pytest.raises(ValueError, match=f"^inputs must fit in 2 bits, got {z}$"):
            predict_many(fresh_model(2, 1, 1, init_seed=3), np.array([0, 3, z]))


class TestOneReadout:
    @pytest.mark.parametrize("chunk_inputs", [None, 2])
    @pytest.mark.parametrize("seed", range(5))
    def test_union_readout_equals_separate_calls(self, seed, chunk_inputs, monkeypatch):
        rng = np.random.default_rng(seed)
        model = random_model(rng, 4, 2, 3)
        if chunk_inputs:
            monkeypatch.setattr(qsim, "_CHUNK_AMPLITUDES", chunk_inputs << model.n_qubits)
        tables = [build_table([(Bitstring(4, int(z)), int(y)) for z, y in
                               zip(rng.integers(0, 16, size), rng.integers(0, 3, size))], 4)
                  for size in (40, 7, 1)]
        separate = [classification_accuracies(model, [t])[0] for t in tables]
        assert classification_accuracies(model, tables) == separate
        assert classification_accuracies(model, tables[::-1]) == separate[::-1]
        assert classification_accuracies(model, [tables[0], tables[0]]) == [separate[0]] * 2

    def test_empty_table_rejected(self):
        full = build_table([(Bitstring(2, 1), 0)], 2)
        with pytest.raises(ValueError, match="empty"):
            classification_accuracies(fresh_model(2, 1, 1), [full, build_table([], 2)])
