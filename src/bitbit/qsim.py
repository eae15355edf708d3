"""Desk-scale statevector simulation of basis-state classification circuits.

Conventions, used everywhere in this module:

- Qubit 0 is the most significant bit of a basis index. The class register is
  the N_y most significant qubits, the data register the remaining N_x, so
  the basis index of |y>|z> is y * 2^N_x + z.
- Every parameterized gate is a rotation exp(-i * theta * G / 2) with G^2 = I
  (RY or RZ), which makes the loss restricted to any single parameter an
  exact sinusoid a + b*cos(theta) + c*sin(theta); the coordinate update
  solves that sinusoid in closed form.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from bitbit.coverage import BitstringTable
from bitbit.encoder import Bitstring

# Statevectors above this qubit count are refused by default (16 MB of complex
# doubles at 20 qubits; each step up doubles it). Raise via set_qubit_cap.
DEFAULT_QUBIT_CAP = 20
_qubit_cap = DEFAULT_QUBIT_CAP

# Below this slice amplitude a coordinate update is numerically meaningless
# (the three probes differ only by rounding noise), so the parameter is left
# untouched.
_FLAT_SLICE = 1e-13


def set_qubit_cap(n_qubits: int) -> None:
    global _qubit_cap
    if n_qubits < 1:
        raise ValueError("qubit cap must be positive")
    if n_qubits > DEFAULT_QUBIT_CAP:
        warnings.warn(
            f"raising the qubit cap to {n_qubits}: statevectors take "
            f"{(2 ** n_qubits * 16) / 2**20:.0f} MB each",
            stacklevel=2,
        )
    _qubit_cap = n_qubits


def get_qubit_cap() -> int:
    return _qubit_cap


def _check_cap(n_qubits: int) -> None:
    if n_qubits > _qubit_cap:
        raise ValueError(
            f"{n_qubits} qubits exceeds the simulator cap {_qubit_cap}; "
            "raise it with set_qubit_cap() if you accept the memory cost"
        )


@dataclass(frozen=True)
class Statevector:
    """Normalized amplitudes over the 2^n computational basis states."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.ascontiguousarray(np.asarray(self.amplitudes, dtype=np.complex128))
        if amps.shape != (1 << self.n_qubits,):
            raise ValueError(f"expected {1 << self.n_qubits} amplitudes, got shape {amps.shape}")
        norm = float(np.sum(np.abs(amps) ** 2))
        if abs(norm - 1.0) > 1e-10:
            raise ValueError(f"statevector norm^2 = {norm!r}, must be 1 within 1e-10")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)


def prepare_basis_state(n_qubits: int, bits: Bitstring) -> Statevector:
    """The computational basis state whose index is the bitstring's value."""
    if bits.width != n_qubits:
        raise ValueError(f"bitstring width {bits.width} != qubit count {n_qubits}")
    _check_cap(n_qubits)
    amps = np.zeros(1 << n_qubits, dtype=np.complex128)
    amps[bits.value] = 1.0
    return Statevector(n_qubits=n_qubits, amplitudes=amps)


def class_probabilities(state: Statevector, n_y: int) -> np.ndarray:
    """Probability of each class-register outcome (the top n_y qubits)."""
    if not 0 <= n_y <= state.n_qubits:
        raise ValueError(f"n_y must be in [0, {state.n_qubits}]")
    probs = np.abs(state.amplitudes) ** 2
    return probs.reshape(1 << n_y, -1).sum(axis=1)


# --- gate kernels (in place, batched over the leading axis) ---


def _apply_ry(states: np.ndarray, n_qubits: int, qubit: int, angle: float) -> None:
    k = states.shape[0]
    view = states.reshape(k, 1 << qubit, 2, 1 << (n_qubits - qubit - 1))
    c, s = math.cos(angle / 2), math.sin(angle / 2)
    a0 = view[:, :, 0, :].copy()
    a1 = view[:, :, 1, :]
    view[:, :, 0, :] = c * a0 - s * a1
    view[:, :, 1, :] = s * a0 + c * a1


def _apply_rz(states: np.ndarray, n_qubits: int, qubit: int, angle: float) -> None:
    k = states.shape[0]
    view = states.reshape(k, 1 << qubit, 2, 1 << (n_qubits - qubit - 1))
    view[:, :, 0, :] *= complex(math.cos(angle / 2), -math.sin(angle / 2))
    view[:, :, 1, :] *= complex(math.cos(angle / 2), math.sin(angle / 2))


def _apply_cnot(states: np.ndarray, n_qubits: int, control: int, target: int) -> None:
    k = states.shape[0]
    view = states.reshape((k,) + (2,) * n_qubits)
    idx10 = [slice(None)] * (n_qubits + 1)
    idx10[1 + control] = 1
    idx10[1 + target] = 0
    idx11 = list(idx10)
    idx11[1 + target] = 1
    tmp = view[tuple(idx10)].copy()
    view[tuple(idx10)] = view[tuple(idx11)]
    view[tuple(idx11)] = tmp


@dataclass(frozen=True)
class Ansatz:
    """Hardware-efficient circuit: per layer, an RY and an RZ on every qubit,
    then a ring of CNOTs (qubit i controls i+1 mod n). 2 * n * layers parameters."""

    n_qubits: int
    layers: int

    def __post_init__(self):
        if self.n_qubits < 1 or self.layers < 1:
            raise ValueError("n_qubits and layers must be positive")

    @property
    def parameter_count(self) -> int:
        return 2 * self.n_qubits * self.layers

    def apply_batch(self, states: np.ndarray, theta: np.ndarray) -> None:
        n = self.n_qubits
        p = 0
        for _ in range(self.layers):
            for q in range(n):
                _apply_ry(states, n, q, theta[p])
                _apply_rz(states, n, q, theta[p + 1])
                p += 2
            if n > 1:
                for i in range(n):
                    _apply_cnot(states, n, i, (i + 1) % n)


@dataclass(frozen=True)
class QuantumModel:
    """An ansatz over n_x data qubits and n_y class qubits with parameters theta.

    theta is mutable in place (coordinate updates write single entries);
    everything else is frozen.
    """

    n_x: int
    n_y: int
    ansatz: Ansatz
    theta: np.ndarray

    def __post_init__(self):
        if self.n_x < 1 or self.n_y < 1:
            raise ValueError("n_x and n_y must be positive")
        if self.ansatz.n_qubits != self.n_x + self.n_y:
            raise ValueError("ansatz width must equal n_x + n_y")
        _check_cap(self.n_qubits)
        theta = np.asarray(self.theta, dtype=np.float64)
        if theta.shape != (self.ansatz.parameter_count,):
            raise ValueError(
                f"theta must have {self.ansatz.parameter_count} entries, got shape {theta.shape}"
            )
        object.__setattr__(self, "theta", theta)

    @property
    def n_qubits(self) -> int:
        return self.n_x + self.n_y

    def apply_batch(self, states: np.ndarray) -> None:
        self.ansatz.apply_batch(states, self.theta)

    def apply(self, state: Statevector) -> Statevector:
        if state.n_qubits != self.n_qubits:
            raise ValueError("statevector width mismatch")
        amps = state.amplitudes.copy().reshape(1, -1)
        self.apply_batch(amps)
        return Statevector(n_qubits=self.n_qubits, amplitudes=amps[0])


def fresh_model(n_x: int, n_y: int, layers: int, init_seed: int | None = None) -> QuantumModel:
    """A new model: angles all zero, or seeded uniform in (-pi, pi).

    The zero point makes the circuit purely classical (X/CNOT level), which
    leaves coordinate descent stranded on flat slices for batches with
    symmetric targets; seeded random angles are the reliable starting point
    for actual training runs.
    """
    ansatz = Ansatz(n_qubits=n_x + n_y, layers=layers)
    if init_seed is None:
        theta = np.zeros(ansatz.parameter_count)
    else:
        theta = np.random.default_rng(init_seed).uniform(-math.pi, math.pi, ansatz.parameter_count)
    return QuantumModel(n_x=n_x, n_y=n_y, ansatz=ansatz, theta=theta)


@dataclass(frozen=True)
class ExactClassifier:
    """The reversible oracle |y>|z> -> |y XOR C(z)>|z> as a basis permutation."""

    n_x: int
    n_y: int
    perm: np.ndarray  # perm[i] = image of basis index i

    def __post_init__(self):
        perm = np.asarray(self.perm, dtype=np.int64)
        if perm.shape != (1 << self.n_qubits,):
            raise ValueError("permutation must cover every basis index")
        perm.setflags(write=False)
        object.__setattr__(self, "perm", perm)

    @property
    def n_qubits(self) -> int:
        return self.n_x + self.n_y

    def apply_batch(self, states: np.ndarray) -> None:
        states[:, self.perm] = states.copy()

    def apply(self, state: Statevector) -> Statevector:
        amps = state.amplitudes.copy().reshape(1, -1)
        self.apply_batch(amps)
        return Statevector(n_qubits=self.n_qubits, amplitudes=amps[0])


def build_exact_classifier(c_map: Mapping[Bitstring, int], n_x: int, n_y: int) -> ExactClassifier:
    """Basis permutation (y, z) -> (y XOR C(z), z) for a total classifier C.

    Applied to |0...0>|z> it yields |C(z)>|z>, so its loss on any batch
    consistent with C vanishes.
    """
    n_q = n_x + n_y
    _check_cap(n_q)
    targets = np.empty(1 << n_x, dtype=np.int64)
    for z in range(1 << n_x):
        key = Bitstring(n_x, z)
        if key not in c_map:
            raise ValueError(f"classifier map is not total: missing input {key.to_bits()}")
        t = int(c_map[key])
        if not 0 <= t < (1 << n_y):
            raise ValueError(f"class {t} does not fit in {n_y} qubits")
        targets[z] = t
    y = np.arange(1 << n_y, dtype=np.int64)
    z = np.arange(1 << n_x, dtype=np.int64)
    perm = ((y[:, None] ^ targets[None, :]) << n_x) + z[None, :]
    return ExactClassifier(n_x=n_x, n_y=n_y, perm=perm.ravel())


@dataclass(frozen=True)
class TrainingBatch:
    """Distinct encoded inputs with a target class and a nonnegative weight each;
    weights sum to 1 and collisions are already resolved."""

    records: tuple[tuple[Bitstring, int, float], ...]
    _z_values: np.ndarray = field(repr=False, compare=False, default=None)
    _targets: np.ndarray = field(repr=False, compare=False, default=None)
    _weights: np.ndarray = field(repr=False, compare=False, default=None)

    def __post_init__(self):
        if not self.records:
            raise ValueError("batch must be nonempty")
        width = self.records[0][0].width
        seen = set()
        for z, target, weight in self.records:
            if z.width != width:
                raise ValueError("all batch bitstrings must share one width")
            if z in seen:
                raise ValueError(f"duplicate input {z.to_bits()}; collisions must be pre-resolved")
            if weight < 0:
                raise ValueError("weights must be nonnegative")
            if target < 0:
                raise ValueError("targets must be nonnegative class ids")
            seen.add(z)
        total = math.fsum(w for _, _, w in self.records)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"weights must sum to 1, got {total!r}")
        object.__setattr__(self, "_z_values", np.array([z.value for z, _, _ in self.records], dtype=np.int64))
        object.__setattr__(self, "_targets", np.array([t for _, t, _ in self.records], dtype=np.int64))
        object.__setattr__(self, "_weights", np.array([w for _, _, w in self.records], dtype=np.float64))

    @property
    def width(self) -> int:
        return self.records[0][0].width

    def __len__(self) -> int:
        return len(self.records)


def training_batch_from_table(table: BitstringTable, weighting: str = "frequency") -> TrainingBatch:
    """Collision-resolved batch from a count table: one record per bitstring,
    target = majority class, weight = frequency (or uniform over the uniques)."""
    if weighting not in ("frequency", "uniform"):
        raise ValueError("weighting must be 'frequency' or 'uniform'")
    total = table.total
    if total == 0:
        raise ValueError("empty table")
    sizes = table.counts.sum(axis=1)
    weights = sizes / total if weighting == "frequency" else np.full(sizes.shape[0], 1.0 / sizes.shape[0])
    targets = table.counts.argmax(axis=1)
    return TrainingBatch(records=tuple(zip(table.bitstrings(), targets.tolist(), weights.tolist())))


def _class_probs_batch(model, states: np.ndarray) -> np.ndarray:
    k = states.shape[0]
    probs = np.abs(states) ** 2
    return probs.reshape(k, 1 << model.n_y, -1).sum(axis=2)


def _target_probabilities(model, z_values: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """P(class register reads targets[i] | input basis state z_values[i]), batched
    and chunked so scratch memory stays bounded."""
    n_q = model.n_x + model.n_y
    dim = 1 << n_q
    k = z_values.shape[0]
    out = np.empty(k, dtype=np.float64)
    chunk = max(1, (1 << 21) // dim)
    for lo in range(0, k, chunk):
        hi = min(lo + chunk, k)
        states = np.zeros((hi - lo, dim), dtype=np.complex128)
        states[np.arange(hi - lo), z_values[lo:hi]] = 1.0
        model.apply_batch(states)
        probs = _class_probs_batch(model, states)
        out[lo:hi] = probs[np.arange(hi - lo), targets[lo:hi]]
    return out


def evaluate_loss(model, batch: TrainingBatch) -> float:
    """1 - sum_z f(z) * P(correct class | z): the probability the model answers
    a weighted random query wrongly."""
    if batch.width != model.n_x:
        raise ValueError(f"batch width {batch.width} != model data width {model.n_x}")
    p_correct = _target_probabilities(model, batch._z_values, batch._targets)
    loss = 1.0 - float(batch._weights @ p_correct)
    return min(max(loss, 0.0), 1.0)


def rotosolve_step(
    model: QuantumModel, batch: TrainingBatch, j: int, loss_0: float | None = None
) -> tuple[float, float]:
    """Move parameter j to the global minimum of its loss slice.

    The slice is L(t) = a + b*cos(t) + c*sin(t); three probes (current, +pi/2,
    -pi/2) identify a, b, c exactly, and the minimizer is atan2(-c, -b),
    wrapped to (-pi, pi]. Returns (new theta_j, new loss). Near-flat slices
    (amplitude below 1e-13) leave the parameter untouched. Pass ``loss_0``
    when the loss at the current point is already known.
    """
    theta = model.theta
    if not 0 <= j < theta.shape[0]:
        raise IndexError(f"parameter index {j} out of range")
    t0 = float(theta[j])
    if loss_0 is None:
        loss_0 = evaluate_loss(model, batch)
    theta[j] = t0 + math.pi / 2
    loss_plus = evaluate_loss(model, batch)
    theta[j] = t0 - math.pi / 2
    loss_minus = evaluate_loss(model, batch)

    a = (loss_plus + loss_minus) / 2.0
    u = loss_0 - a
    v = (loss_plus - loss_minus) / 2.0
    b = u * math.cos(t0) - v * math.sin(t0)
    c = u * math.sin(t0) + v * math.cos(t0)
    if math.hypot(b, c) <= _FLAT_SLICE:
        theta[j] = t0
        return t0, loss_0

    t_star = math.atan2(-c, -b)
    if t_star <= -math.pi:
        t_star += 2.0 * math.pi
    theta[j] = t_star
    return t_star, evaluate_loss(model, batch)


def train_sweeps(model: QuantumModel, batch: TrainingBatch, sweeps: int) -> list[float]:
    """Cycle coordinate updates over all parameters in index order; returns the
    loss after each sweep. The loss never increases beyond rounding noise."""
    if sweeps < 1:
        raise ValueError("sweeps must be >= 1")
    history = []
    last = evaluate_loss(model, batch)
    for _ in range(sweeps):
        for j in range(model.theta.shape[0]):
            _, last = rotosolve_step(model, batch, j, loss_0=last)
        history.append(last)
    return history


def predict(model, z: Bitstring) -> int:
    """Most probable class-register readout for input |z>; ties to the smallest id."""
    if z.width != model.n_x:
        raise ValueError(f"bitstring width {z.width} != model data width {model.n_x}")
    return int(predict_many(model, np.array([z.value], dtype=np.int64))[0])


def predict_many(model, z_values: np.ndarray) -> np.ndarray:
    """Batched argmax class prediction for basis-state inputs."""
    n_q = model.n_x + model.n_y
    dim = 1 << n_q
    k = z_values.shape[0]
    out = np.empty(k, dtype=np.int64)
    chunk = max(1, (1 << 21) // dim)
    for lo in range(0, k, chunk):
        hi = min(lo + chunk, k)
        states = np.zeros((hi - lo, dim), dtype=np.complex128)
        states[np.arange(hi - lo), z_values[lo:hi]] = 1.0
        model.apply_batch(states)
        out[lo:hi] = np.argmax(_class_probs_batch(model, states), axis=1)
    return out


def classification_accuracy(model, table: BitstringTable) -> float:
    """Per-sample accuracy of the model over the multiset behind a count table.

    Equals sum_z count(z, predict(z)) / total, so it can never exceed the
    table's theoretical accuracy (attained exactly when the model reproduces
    every majority label).
    """
    total = table.total
    if total == 0:
        raise ValueError("empty table")
    preds = predict_many(model, table.codes.astype(np.int64))
    rows = np.nonzero(preds < table.c)[0]
    return int(table.counts[rows, preds[rows]].sum()) / total
