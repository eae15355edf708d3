"""Desk-scale statevector simulation of basis-state classification circuits.

Conventions, used everywhere in this module:

- Qubit 0 is the most significant bit of a basis index. The class register is
  the N_y most significant qubits, the data register the remaining N_x, so
  the basis index of |y>|z> is y * 2^N_x + z.
- A batch of k statevectors is a (2^n, k) array, one column per state, so
  every kernel's inner loop runs over at least k contiguous amplitudes.
- A layer of the ansatz takes three kinds of pass, all planned by
  ``_layer_plan`` and run by ``_run_layers``: the RYs are real Kronecker
  blocks applied to the float64 view of the states; the layer's RZs, which
  commute with the other qubits' RYs, are one length-2^n diagonal; the CNOT
  ring is one row permutation. The training sweep takes the RYs of up to 4
  qubits as one block; readouts keep one 2x2 product per RY, so each readout
  column is independent of the batch width.
- Every parameterized gate is a rotation exp(-i * theta * G / 2) with G^2 = I
  (RY or RZ), which makes the loss restricted to any single parameter an
  exact sinusoid a + b*cos(theta) + c*sin(theta); the coordinate update
  solves that sinusoid in closed form.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from bitbit.coverage import BitstringTable

# Models above this qubit count are refused by default (16 MB of complex
# doubles per statevector at 20 qubits; each step up doubles it). Raise it
# per model with fresh_model's max_qubits.
DEFAULT_QUBIT_CAP = 20

# Below this slice amplitude a coordinate update is numerically meaningless
# (the slice's coefficients are rounding noise), so the parameter is left
# untouched.
_FLAT_SLICE = 1e-13

# Readouts run at most this many amplitudes (32 MB) through the circuit at once.
_CHUNK_AMPLITUDES = 1 << 21


# --- gate kernels (in place, batched over the trailing axis) ---


def _apply_ry(states: np.ndarray, qubit: int, angle: float, out: np.ndarray | None = None) -> None:
    # RY is real, so it turns the real and imaginary parts alike: one real
    # 2x2 product on the float64 view, written to out (in place by default).
    c, s = math.cos(angle / 2), math.sin(angle / 2)
    view = states.view(np.float64).reshape(1 << qubit, 2, -1)
    target = view if out is None else out.view(np.float64).reshape(1 << qubit, 2, -1)
    np.matmul(np.array([[c, -s], [s, c]]), view, out=target)


def _apply_rz(states: np.ndarray, qubit: int, angle: float) -> None:
    view = states.reshape(1 << qubit, 2, -1)
    view[:, 0] *= complex(math.cos(angle / 2), -math.sin(angle / 2))
    view[:, 1] *= complex(math.cos(angle / 2), math.sin(angle / 2))


def _layer_plan(theta, n_qubits: int, size: int = 4) -> list:
    """Every layer of theta as (its RYs as (first qubit, block) pairs, its RZs
    as one ring-permuted (2^n, 1) diagonal). Each block is the real Kronecker
    product of the RYs on qubits first to first + size - 1 (or the last)."""
    ring, plan = _ring(n_qubits), []
    for p in range(0, len(theta), 2 * n_qubits):
        rys = [np.array([[math.cos(t / 2), -math.sin(t / 2)], [math.sin(t / 2), math.cos(t / 2)]])
               for t in theta[p:p + 2 * n_qubits:2]]
        diagonal = np.ones((1 << n_qubits, 1), dtype=np.complex128)
        for q, angle in enumerate(theta[p + 1:p + 2 * n_qubits:2]):
            _apply_rz(diagonal, q, angle)
        blocks = [(first, functools.reduce(np.kron, rys[first:first + size])) for first in range(0, n_qubits, size)]
        plan.append((blocks, diagonal[ring]))
    return plan


def _minus_i_pauli(out: np.ndarray, states: np.ndarray, kind: str, qubit: int) -> None:
    """out = -iP states, with P = Y for "ry" and Z for "rz" on one qubit; a
    rotation is exp(-i t P / 2) = cos(t/2) + sin(t/2) (-iP)."""
    src, dst = states.reshape(1 << qubit, 2, -1), out.reshape(1 << qubit, 2, -1)
    if kind == "ry":  # -iY = [[0, -1], [1, 0]]
        np.negative(src[:, 1], out=dst[:, 0])
        dst[:, 1] = src[:, 0]
    else:  # -iZ = diag(-i, i)
        np.multiply(src[:, 0], -1j, out=dst[:, 0])
        np.multiply(src[:, 1], 1j, out=dst[:, 1])


def _apply_cnot(states: np.ndarray, n_qubits: int, control: int, target: int) -> None:
    view = states.reshape((2,) * n_qubits + (-1,))
    rest = [q for q in range(n_qubits + 1) if q not in (control, target)]
    pair = view.transpose([control, target] + rest)[1]  # the control-1 half, by target bit
    pair[[0, 1]] = pair[[1, 0]]


@functools.cache
def _ring(n_qubits: int) -> np.ndarray:
    """The CNOT ring (qubit i controls i+1 mod n, in order of i) as a row
    permutation: it maps states to states[_ring(n)]. One qubit has no ring."""
    rows = np.arange(1 << n_qubits)[:, None]
    for i in range(n_qubits if n_qubits > 1 else 0):
        _apply_cnot(rows, n_qubits, i, (i + 1) % n_qubits)
    rows.setflags(write=False)
    return rows[:, 0]


@dataclass(frozen=True)
class Ansatz:
    """Hardware-efficient circuit: per layer, an RY and an RZ on every qubit,
    then a ring of CNOTs (qubit i controls i+1 mod n). 2 * n * layers parameters;
    parameter 2 * n * layer + 2 * q is qubit q's RY angle, the next its RZ angle."""

    n_qubits: int
    layers: int

    def __post_init__(self):
        if self.n_qubits < 1 or self.layers < 1:
            raise ValueError("n_qubits and layers must be positive")

    @property
    def parameter_count(self) -> int:
        return 2 * self.n_qubits * self.layers

    def apply_batch(self, states: np.ndarray, theta: np.ndarray) -> None:
        """Advance a (2^n, k) batch in place: ``_run_layers`` over the
        ``_layer_plan`` of one-qubit RY blocks, with a spare buffer of the
        batch's shape. The kernels reinterpret the buffer as float64 pairs, so
        C order and complex128 are preconditions."""
        n = self.n_qubits
        wrong = [f"shape {states.shape}"] if states.ndim != 2 or states.shape[0] != 1 << n else []
        wrong += [f"dtype {states.dtype}"] if states.dtype != np.complex128 else []
        wrong += [] if states.flags.c_contiguous else ["not C-contiguous"]
        if wrong:
            raise ValueError(
                f"states must be a C-contiguous complex128 array of shape ({1 << n}, k); got {', '.join(wrong)}")
        if len(theta) != self.parameter_count:
            raise ValueError(f"theta must have {self.parameter_count} entries, got {len(theta)}")
        result = _run_layers(states, _layer_plan(theta, n, 1) + [([], None)], (states, np.empty_like(states)))
        if result is not states:
            states[...] = result


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
        theta = np.asarray(self.theta, dtype=np.float64)
        if theta.shape != (self.ansatz.parameter_count,):
            raise ValueError(f"theta must have {self.ansatz.parameter_count} entries, got shape {theta.shape}")
        object.__setattr__(self, "theta", theta)

    @property
    def n_qubits(self) -> int:
        return self.n_x + self.n_y

    def apply_batch(self, states: np.ndarray) -> None:
        self.ansatz.apply_batch(states, self.theta)


def fresh_model(
    n_x: int, n_y: int, layers: int, init_seed: int | None = None, max_qubits: int = DEFAULT_QUBIT_CAP
) -> QuantumModel:
    """A new model: angles all zero, or seeded uniform in (-pi, pi). More
    than ``max_qubits`` qubits are refused before anything is allocated.

    The zero point makes the circuit purely classical (X/CNOT level), which
    leaves coordinate descent stranded on flat slices for batches with
    symmetric targets; seeded random angles are the reliable starting point
    for actual training runs.
    """
    if n_x + n_y > max_qubits:
        raise ValueError(f"{n_x + n_y} qubits exceeds max_qubits={max_qubits}; raise it if you accept the memory cost")
    ansatz = Ansatz(n_qubits=n_x + n_y, layers=layers)
    count = ansatz.parameter_count
    theta = np.zeros(count) if init_seed is None else np.random.default_rng(init_seed).uniform(-math.pi, math.pi, count)
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
        states[self.perm] = states.copy()


def build_exact_classifier(targets, n_x: int, n_y: int) -> ExactClassifier:
    """Basis permutation (y, z) -> (y XOR C(z), z) for a total classifier C,
    given as the length-2^n_x array ``targets[z] = C(z)``.

    Applied to |0...0>|z> it yields |C(z)>|z>, so its loss on any batch
    consistent with C vanishes.
    """
    if n_x + n_y > DEFAULT_QUBIT_CAP:
        raise ValueError(f"{n_x + n_y} qubits exceeds the simulator cap {DEFAULT_QUBIT_CAP}")
    targets = np.asarray(targets, dtype=np.int64)
    if targets.shape != (1 << n_x,):
        raise ValueError(f"classifier is not total: need {1 << n_x} targets, got shape {targets.shape}")
    bad = targets[(targets < 0) | (targets >= 1 << n_y)]
    if bad.size:
        raise ValueError(f"class {bad[0]} does not fit in {n_y} qubits")
    y = np.arange(1 << n_y, dtype=np.int64)
    z = np.arange(1 << n_x, dtype=np.int64)
    perm = ((y[:, None] ^ targets[None, :]) << n_x) + z[None, :]
    return ExactClassifier(n_x=n_x, n_y=n_y, perm=perm.ravel())


def _check_inputs(z_values: np.ndarray, width: int) -> None:
    # An input past 2^width would read data bits as class bits.
    bad = z_values[(z_values < 0) | (z_values >= 1 << width)]
    if bad.size:
        raise ValueError(f"inputs must fit in {width} bits, got {bad[0]}")


@dataclass(frozen=True, eq=False)
class TrainingBatch:
    """Distinct ``width``-bit inputs, each with a target class and a nonnegative
    weight; weights sum to 1 and collisions are already resolved. The arrays
    are kept as read-only int64, int64 and float64 copies."""

    width: int
    z_values: np.ndarray
    targets: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        _check_inputs(np.asarray(self.z_values), min(self.width, 63))  # before the int64 copy could wrap one
        for name, dtype in (("z_values", np.int64), ("targets", np.int64), ("weights", np.float64)):
            array = np.array(getattr(self, name), dtype=dtype)
            array.setflags(write=False)
            object.__setattr__(self, name, array)
        z, targets, weights = self.z_values, self.targets, self.weights
        if z.ndim != 1 or targets.shape != z.shape or weights.shape != z.shape:
            raise ValueError(f"batch arrays must be 1-D of one length, got {z.shape}, {targets.shape}, {weights.shape}")
        if z.shape[0] == 0:
            raise ValueError("batch must be nonempty")
        values, counts = np.unique(z, return_counts=True)
        if counts.max() > 1:
            raise ValueError(f"duplicate input {values[counts > 1][0]:0{self.width}b}; collisions must be pre-resolved")
        if weights.min() < 0:
            raise ValueError("weights must be nonnegative")
        if targets.min() < 0:
            raise ValueError("targets must be nonnegative class ids")
        total = math.fsum(weights.tolist())
        if not abs(total - 1.0) <= 1e-9:
            raise ValueError(f"weights must sum to 1, got {total!r}")

    def __len__(self) -> int:
        return self.z_values.shape[0]


def training_batch_from_table(table: BitstringTable, weighting: str = "frequency") -> TrainingBatch:
    """Collision-resolved batch from a count table: one input per code,
    target = majority class, weight = frequency (or uniform over the uniques)."""
    if weighting not in ("frequency", "uniform"):
        raise ValueError("weighting must be 'frequency' or 'uniform'")
    total = table.total
    if total == 0:
        raise ValueError("empty table")
    sizes = table.counts.sum(axis=1)
    weights = sizes / total if weighting == "frequency" else np.full(sizes.shape[0], 1.0 / sizes.shape[0])
    targets = table.counts.argmax(axis=1)
    return TrainingBatch(table.width, table.codes, targets, weights)


def _class_probs_batch(model, states: np.ndarray) -> np.ndarray:
    # Row i: state i's class-register distribution. Each class block is summed
    # along a contiguous row, so the sums do not depend on the batch width.
    probs = np.abs(states.T, order="C") ** 2
    return probs.reshape(states.shape[1], 1 << model.n_y, -1).sum(axis=2)


def _basis_class_probs(model, z_values: np.ndarray) -> np.ndarray:
    """Row i: the class-register readout distribution of input basis state |z_values[i]>."""
    dim = 1 << (model.n_x + model.n_y)
    out = np.empty((z_values.shape[0], 1 << model.n_y), dtype=np.float64)
    chunk = max(1, _CHUNK_AMPLITUDES // dim)
    for lo in range(0, z_values.shape[0], chunk):
        part = z_values[lo:lo + chunk]
        states = np.zeros((dim, part.shape[0]), dtype=np.complex128)
        states[part, np.arange(part.shape[0])] = 1.0
        model.apply_batch(states)
        out[lo:lo + chunk] = _class_probs_batch(model, states)
    return out


def _check_batch(model, batch: TrainingBatch) -> None:
    if batch.width != model.n_x:
        raise ValueError(f"batch width {batch.width} != model data width {model.n_x}")
    if batch.targets.max() >= 1 << model.n_y:
        raise ValueError(f"target class {batch.targets.max()} does not fit in {model.n_y} class qubit(s)")


def evaluate_loss(model, batch: TrainingBatch) -> float:
    """1 - sum_z f(z) * P(correct class | z): the probability the model answers
    a weighted random query wrongly."""
    _check_batch(model, batch)
    probs = _basis_class_probs(model, batch.z_values)
    p_correct = probs[np.arange(probs.shape[0]), batch.targets]
    loss = 1.0 - float(batch.weights @ p_correct)
    return min(max(loss, 0.0), 1.0)


def _slice_update(t0: float, a: float, u: float, v: float) -> tuple[float, float]:
    """The coordinate update on the loss slice around the current angle t0,
    L(t0 + d) = a + u*cos(d) + v*sin(d). In absolute terms the slice is
    a + b*cos(t) + c*sin(t); its minimizer atan2(-c, -b) is wrapped to
    (-pi, pi] and its minimum is a - hypot(b, c). Returns (new angle, new
    loss); a near-flat slice (amplitude at most _FLAT_SLICE) keeps t0."""
    b = u * math.cos(t0) - v * math.sin(t0)
    c = u * math.sin(t0) + v * math.cos(t0)
    amplitude = math.hypot(b, c)
    if amplitude <= _FLAT_SLICE:
        return t0, a + u
    t_star = math.atan2(-c, -b)
    if t_star <= -math.pi:
        t_star += 2.0 * math.pi
    return t_star, min(max(a - amplitude, 0.0), 1.0)


def rotosolve_step(
    model: QuantumModel, batch: TrainingBatch, j: int, loss_0: float | None = None
) -> tuple[float, float]:
    """Move parameter j to the global minimum of its loss slice.

    Three probes (current, +pi/2, -pi/2) identify the sinusoidal slice
    exactly, and ``_slice_update`` moves the parameter. Returns
    (new theta_j, new loss), the loss read off the slice. Pass ``loss_0``
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
    t_new, loss = _slice_update(t0, a, loss_0 - a, (loss_plus - loss_minus) / 2.0)
    theta[j] = t_new
    return t_new, loss


def _flat_rz(j: int, n_qubits: int, count: int) -> bool:
    """Whether parameter j is a last-layer RZ. Only the ring (a permutation) and the basis
    readout follow those diagonal phases, so their slices are exactly flat: no sweep visits them."""
    return j % 2 == 1 and j >= count - 2 * n_qubits


def _run_layers(states: np.ndarray, layers, buffers) -> np.ndarray:
    """The layers, each a ``_layer_plan`` entry (its RY blocks, its
    ring-permuted RZ diagonal), over a (2^n, k) batch that is left as it is
    unless it is one of the buffers. Every pass writes into the one of the two
    buffers it does not read. The last layer stops after its RYs. Returns the
    buffer that holds the result."""
    ring, (one, other) = _ring(states.shape[0].bit_length() - 1), buffers
    for i, (blocks, diagonal) in enumerate(layers):
        for first, block in blocks:
            out = other if states is one else one
            view = states.view(np.float64).reshape(1 << first, block.shape[0], -1)
            np.matmul(block, view, out=out.view(np.float64).reshape(view.shape))
            states = out
        if i + 1 < len(layers):
            out = other if states is one else one
            np.take(states, ring, axis=0, out=out, mode="clip")  # "raise" would buffer out
            states = np.multiply(out, diagonal, out=out)
    return states


def _rotosolve_sweep(model: QuantumModel, batch: TrainingBatch) -> float:
    """One sweep of ``_slice_update`` over every parameter but the last
    layer's RZs (``_flat_rz``), without probes; returns the loss after it.

    At a layer's start the circuit splits into prefix states psi, one per
    sample and scaled by the square root of its weight, and a suffix X: the
    layer at its old angles, then the later layers. The prefix is carried as
    psi~ = K^-1 psi, K the layer's gates visited so far at their old angles,
    so X psi~ is the output at the new angles. Moving a rotation
    R(t) = cos(t/2) + sin(t/2)(-iP) from t0 to t0 + d turns psi~ into
    cos(d/2) psi~ + sin(d/2) u, u = K^-1 (-iP) K psi~. K acts on other qubits
    but for an RZ's own RY, at old angle a, and RY(-a)(-iZ)RY(a) = (-iZ)RY(2a);
    so u = -iY psi~ for an RY and u = (-iZ)RY(2a) psi~ for an RZ. With
    alpha = X_y psi~ and beta = X_y u, X_y the rows of X in the sample's
    target class, the summed probability of reading the targets at t0 + d is
    A + B cos d + C sin d: A = (|alpha|^2 + |beta|^2) / 2,
    B = (|alpha|^2 - |beta|^2) / 2 and C = Re <alpha, beta>. beta runs X as a
    circuit over u (``_run_layers``); alpha moves as psi~ does. X leaves out
    the last layer's RZ diagonal, a phase per row that alpha and beta share.
    At the layer's end psi takes the layer at its old angles. The last layer
    has no end: its RZs are skipped and nothing follows it.
    """
    theta, count, n = model.theta, model.theta.shape[0], model.n_qubits
    ring, k = _ring(n), len(batch)
    layers = _layer_plan(theta, n)  # the old angles of the layers not yet visited
    prefix = np.zeros((1 << n, k), dtype=np.complex128)
    prefix[batch.z_values, np.arange(k)] = np.sqrt(batch.weights)
    turned, buffers = np.empty_like(prefix), (np.empty_like(prefix), np.empty_like(prefix))  # u
    # Each sample's target-class output rows, as flat indices into the state before the last ring.
    readout = ring[(batch.targets << model.n_x) + np.arange(1 << model.n_x)[:, None]] * k + np.arange(k)
    alpha = np.take(_run_layers(prefix, layers, buffers), readout)

    for layer, p in enumerate(range(0, count, 2 * n)):
        old = theta[p:p + 2 * n].copy()
        for j in range(p, p + 2 * n):
            if _flat_rz(j, n, count):
                continue
            kind, q = ("ry", "rz")[j % 2], (j - p) // 2
            if kind == "ry":
                _minus_i_pauli(turned, prefix, kind, q)
            else:  # (-iZ)RY(2a) psi~, a the old angle of this qubit's RY
                _apply_ry(prefix, q, 2.0 * old[2 * q], out=turned)
                _minus_i_pauli(turned, turned, kind, q)
            beta = np.take(_run_layers(turned, layers[layer:], buffers), readout)
            alpha2, beta2 = float(np.vdot(alpha, alpha).real), float(np.vdot(beta, beta).real)
            overlap = float(np.vdot(alpha, beta).real)
            t0 = float(theta[j])
            # L(t0 + d) = 1 - sum_i w_i p_i(t0 + d)
            t_new, loss = _slice_update(t0, 1.0 - (alpha2 + beta2) / 2.0, (beta2 - alpha2) / 2.0, -overlap)
            if t_new != t0:
                theta[j] = t_new
                c, s = math.cos((t_new - t0) / 2), math.sin((t_new - t0) / 2)
                for carried, step in ((alpha, beta), (prefix, turned)):
                    carried *= c
                    step *= s
                    carried += step
        if p + 2 * n < count:  # the layer at its old angles, through the idle buffers
            advanced = _run_layers(prefix, [layers[layer], ([], None)], (prefix, buffers[0]))
            if advanced is not prefix:
                prefix, buffers = advanced, (prefix, buffers[1])
    return loss


def train_sweeps(model: QuantumModel, batch: TrainingBatch, sweeps: int) -> list[float]:
    """Cycle coordinate updates over all parameters in index order, but the
    last layer's RZs (``_flat_rz``), one ``_rotosolve_sweep`` at a time;
    returns the loss after each sweep. The loss never increases beyond
    rounding noise."""
    if sweeps < 1:
        raise ValueError("sweeps must be >= 1")
    _check_batch(model, batch)
    return [_rotosolve_sweep(model, batch) for _ in range(sweeps)]


def predict_many(model, z_values: np.ndarray) -> np.ndarray:
    """Most probable class-register readout for each basis-state input |z>,
    z in [0, 2^n_x); ties go to the smallest class id."""
    _check_inputs(z_values, model.n_x)
    return np.argmax(_basis_class_probs(model, z_values), axis=1)


def classification_accuracy(model, table: BitstringTable) -> float:
    """``classification_accuracies`` of one table."""
    return classification_accuracies(model, [table])[0]


def classification_accuracies(model, tables) -> list[float]:
    """Per-sample accuracy of the model over the multiset behind each count
    table: sum_z count(z, predict(z)) / total, so it can never exceed the
    table's theoretical accuracy (attained exactly when the model reproduces
    every majority label). One readout serves the union of the tables' codes;
    readout columns are independent, so each accuracy equals its table's alone."""
    if any(table.total == 0 for table in tables):
        raise ValueError("empty table")
    for table in tables:
        if table.width != model.n_x:
            raise ValueError(f"table width {table.width} != model data width {model.n_x}")
    # Sorted and deduplicated by hand: a plain np.unique imports numpy.ma under numpy 2.4.6.
    codes = np.sort(np.concatenate([table.codes.astype(np.int64) for table in tables]))
    union = codes[np.concatenate(([True], codes[1:] != codes[:-1]))]
    union_preds = predict_many(model, union)
    accuracies = []
    for table in tables:
        preds = union_preds[np.searchsorted(union, table.codes.astype(np.int64))]
        rows = np.nonzero(preds < table.c)[0]
        accuracies.append(int(table.counts[rows, preds[rows]].sum()) / table.total)
    return accuracies
