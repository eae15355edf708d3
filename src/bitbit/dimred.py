"""Pluggable dimensionality reduction: identity, PCA, and truncated SVD.

PCA is computed by exact covariance accumulation (an n x n Gram matrix), and
the batch fit routes through the same accumulator as the streaming fit, so
streaming-over-batches and fitting in one shot agree to float reordering
noise. Cost of that choice: O(n^2) accumulator memory, fine at desk scale.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

SCHEMES = ("none", "pca", "lsa")

# Relative eigenvalue/singular-value cutoff below which a direction is treated
# as numerically rank-deficient and replaced by a deterministic completion.
_RANK_RTOL = 1e-12


@dataclass(frozen=True)
class ReducerSpec:
    """Reduction scheme and output width D. n_components=None resolves at fit time
    (n for 'none', min(s, n) otherwise)."""

    scheme: str
    n_components: int | None = None

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if self.n_components is not None and self.n_components < 1:
            raise ValueError("n_components must be positive")


@dataclass(frozen=True)
class FittedReducer:
    """A fitted linear map x -> (x - center) @ components.T with orthonormal rows.

    Rows follow a fixed sign convention: the entry of largest magnitude in each
    row is positive (ties resolved toward the lowest index), which makes
    repeated fits on identical data bit-identical.
    """

    scheme: str
    center: np.ndarray  # (n,)
    components: np.ndarray  # (D, n), orthonormal rows
    explained_variance: np.ndarray  # (D,), non-increasing, >= 0

    def __post_init__(self):
        for name in ("center", "components", "explained_variance"):
            arr = np.ascontiguousarray(np.asarray(getattr(self, name), dtype=np.float64))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_components(self) -> int:
        return self.components.shape[0]

    @property
    def n_features(self) -> int:
        return self.components.shape[1]

    def to_json_dict(self) -> dict:
        return {
            "scheme": self.scheme,
            "n_components": self.n_components,
            "center": self.center.tolist(),
            "components": self.components.ravel().tolist(),  # row-major
            "explained_variance": self.explained_variance.tolist(),
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "FittedReducer":
        d = int(obj["n_components"])
        center = np.asarray(obj["center"], dtype=np.float64)
        components = np.asarray(obj["components"], dtype=np.float64).reshape(d, center.size)
        return cls(
            scheme=obj["scheme"],
            center=center,
            components=components,
            explained_variance=np.asarray(obj["explained_variance"], dtype=np.float64),
        )


@dataclass(frozen=True)
class IncrementalPcaState:
    """Streaming accumulator for PCA: row count, column sums, and sum of x^T x."""

    count: int
    sum: np.ndarray  # (n,)
    gram: np.ndarray  # (n, n)

    @classmethod
    def empty(cls, n_features: int) -> "IncrementalPcaState":
        return cls(count=0, sum=np.zeros(n_features), gram=np.zeros((n_features, n_features)))

    @property
    def n_features(self) -> int:
        return self.sum.shape[0]


def incremental_update(state: IncrementalPcaState, batch: np.ndarray) -> IncrementalPcaState:
    """Absorb a batch of rows. Any batch partition of the same rows yields the
    same final state up to float summation order."""
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 2 or batch.shape[1] != state.n_features:
        raise ValueError(
            f"batch must have {state.n_features} columns, got shape {batch.shape}"
        )
    if batch.shape[0] == 0:
        return state
    return IncrementalPcaState(
        count=state.count + batch.shape[0],
        sum=state.sum + batch.sum(axis=0),
        gram=state.gram + batch.T @ batch,
    )


def finalize_incremental(state: IncrementalPcaState, n_components: int) -> FittedReducer:
    """Turn an accumulator into a fitted PCA reducer.

    Covariance is (gram - count * mean mean^T) / (count - 1), eigendecomposed
    with the same sign convention as a direct fit.
    """
    if state.count < 2:
        raise ValueError(f"need at least 2 absorbed samples, got {state.count}")
    n = state.n_features
    if not 1 <= n_components <= min(state.count, n):
        raise ValueError(
            f"n_components must be in [1, min(count, n)] = [1, {min(state.count, n)}]"
        )
    mean = state.sum / state.count
    cov = (state.gram - state.count * np.outer(mean, mean)) / (state.count - 1)
    cov = (cov + cov.T) / 2.0
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    eigvals = eigvals[order]
    rows = eigvecs[:, order].T
    variances = np.clip(eigvals, 0.0, None)
    components, variances = _pad_rank_deficient(rows, variances, n_components, "pca")
    return FittedReducer(
        scheme="pca",
        center=mean,
        components=_fix_signs(components),
        explained_variance=variances,
    )


def fit_reducer(spec: ReducerSpec, train_features: np.ndarray) -> FittedReducer:
    """Fit a reducer on training data.

    none: identity map. pca: eigenvectors of the sample covariance (descending
    eigenvalue), via the same accumulator as the streaming path. lsa: right
    singular vectors of the uncentered matrix (no centering, standard
    truncated-SVD semantics).
    """
    x = np.asarray(train_features, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"train_features must be 2-D, got shape {x.shape}")
    s, n = x.shape
    if s < 2:
        raise ValueError(f"need at least 2 samples to fit, got {s}")

    if spec.scheme == "none":
        d = n if spec.n_components is None else spec.n_components
        if d != n:
            raise ValueError(f"scheme 'none' requires n_components == n ({n}), got {d}")
        return identity_reducer(n)

    d = min(s, n) if spec.n_components is None else spec.n_components
    if d > min(s, n):
        raise ValueError(f"n_components={d} exceeds min(s, n)={min(s, n)} for {spec.scheme}")

    if spec.scheme == "pca":
        state = incremental_update(IncrementalPcaState.empty(n), x)
        return finalize_incremental(state, d)

    # lsa
    _, sigma, vt = np.linalg.svd(x, full_matrices=False)
    variances = sigma**2 / (s - 1)
    components, variances = _pad_rank_deficient(vt, variances, d, "lsa")
    return FittedReducer(
        scheme="lsa",
        center=np.zeros(n),
        components=_fix_signs(components),
        explained_variance=variances,
    )


def identity_reducer(n: int) -> FittedReducer:
    """The scheme 'none' reducer over n feature columns."""
    return FittedReducer(scheme="none", center=np.zeros(n), components=np.eye(n), explained_variance=np.zeros(n))


def transform(reducer: FittedReducer, features: np.ndarray) -> np.ndarray:
    """Project rows: (features - center) @ components.T."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != reducer.n_features:
        raise ValueError(
            f"features must have {reducer.n_features} columns, got shape {x.shape}"
        )
    if reducer.scheme == "none":
        return x.copy()
    return (x - reducer.center) @ reducer.components.T


def _fix_signs(components: np.ndarray) -> np.ndarray:
    out = components.copy()
    for row in out:
        j = int(np.argmax(np.abs(row)))  # first max wins ties: lowest index
        if row[j] < 0:
            row *= -1.0
    return out


def _pad_rank_deficient(rows, variances, n_components, scheme):
    """Keep directions with non-negligible variance; complete the rest by
    Gram-Schmidt against canonical basis vectors so padding is reproducible."""
    vmax = float(variances[0]) if variances.size else 0.0
    kept = int(np.sum(variances > vmax * _RANK_RTOL)) if vmax > 0 else 0
    if kept >= n_components:
        return rows[:n_components].copy(), variances[:n_components].copy()

    warnings.warn(
        f"{scheme}: training data has numerical rank {kept} < {n_components} requested "
        "components; padding with a deterministic orthonormal completion",
        stacklevel=3,
    )
    n = rows.shape[1]
    basis = [rows[i] for i in range(kept)]
    for j in range(n):
        if len(basis) == n_components:
            break
        v = np.zeros(n)
        v[j] = 1.0
        for b in basis:
            v = v - (b @ v) * b
        norm = np.linalg.norm(v)
        if norm > 1e-6:
            basis.append(v / norm)
    out_vars = np.zeros(n_components)
    out_vars[:kept] = variances[:kept]
    return np.asarray(basis), out_vars
