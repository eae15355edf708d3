"""Pluggable dimensionality reduction: identity, PCA, and truncated SVD.

``fit_reducer`` is the one fit, over an iterable of feature batches. PCA and
LSA add each batch's column sums and n x n Gram matrix, so streaming over
batches and fitting in one shot agree to float reordering noise. Cost of that
choice: O(n^2) accumulator memory, fine at desk scale.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from bitbit.data import check_train_count

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


def fit_reducer(spec: ReducerSpec, batches) -> FittedReducer:
    """Fit a reducer over ``batches``, an iterable of 2-D training feature
    arrays of one width; an in-memory set is ``[x]``.

    none: identity map. pca and lsa add column sums and x^T x batch by batch in
    arrival order, so a batch partition changes the fit only by float summation
    order, and take eigenvectors (descending eigenvalue) of
    (x^T x - count c c^T) / (count - 1): c is the mean for pca (the sample
    covariance) and 0 for lsa (uncentered right singular vectors, standard
    truncated-SVD semantics). lsa holds its first non-empty batch and adds it
    only when a second one arrives; on exactly one, as in every in-memory fit,
    it takes that batch's SVD instead and builds no Gram.
    """
    count, n, whole = 0, None, None
    for batch in batches:
        x = np.asarray(batch, dtype=np.float64)
        if x.ndim != 2 or n not in (None, x.shape[1]):
            raise ValueError(f"batches must be 2-D arrays with the same number of columns, got shape {x.shape}")
        n = x.shape[1]
        if x.shape[0] == 0:
            continue
        if count == 0:
            total, gram = np.zeros(n), np.zeros((n, n))
        if count == 0 and spec.scheme == "lsa":
            whole = x  # held: it joins the Gram only if a second non-empty batch arrives
        elif spec.scheme != "none":
            for y in (x,) if whole is None else (whole, x):
                total, gram = total + y.sum(axis=0), gram + y.T @ y
            whole = None
        count += x.shape[0]
    check_train_count(count)

    if spec.scheme == "none":
        d = n if spec.n_components is None else spec.n_components
        if d != n:
            raise ValueError(f"scheme 'none' requires n_components == n ({n}), got {d}")
        return FittedReducer(scheme="none", center=np.zeros(n), components=np.eye(n), explained_variance=np.zeros(n))

    d = min(count, n) if spec.n_components is None else spec.n_components
    if d > min(count, n):
        raise ValueError(f"n_components={d} exceeds min(s, n)={min(count, n)} for {spec.scheme}")

    center = total / count if spec.scheme == "pca" else np.zeros(n)
    if whole is not None:
        _, sigma, rows = np.linalg.svd(whole, full_matrices=False)
        variances = sigma**2 / (count - 1)
    else:
        cov = (gram - count * np.outer(center, center)) / (count - 1)
        cov = (cov + cov.T) / 2.0
        eigvals, eigvecs = np.linalg.eigh(cov)
        order = np.argsort(eigvals)[::-1]
        rows, variances = eigvecs[:, order].T, np.clip(eigvals[order], 0.0, None)
    components, variances = _pad_rank_deficient(rows, variances, d, spec.scheme)
    return FittedReducer(scheme=spec.scheme, center=center, components=_fix_signs(components),
                         explained_variance=variances)


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
