import numpy as np
import pytest

from bitbit.dimred import FittedReducer, ReducerSpec, fit_reducer, transform

ORTHO_TOL = 1e-8


def random_matrix(rng, s, n, scale=1.0):
    return scale * rng.standard_normal((s, n)) + rng.normal(size=n)


class TestFitReducer:
    def test_none_is_identity(self, rng):
        x = random_matrix(rng, 20, 4)
        r = fit_reducer(ReducerSpec("none"), [x])
        assert np.array_equal(transform(r, x), x)

    def test_pca_on_diagonal_line(self):
        t = np.linspace(-1, 1, 30)
        x = np.stack([t, t], axis=1)
        with pytest.warns(UserWarning, match="rank"):
            r = fit_reducer(ReducerSpec("pca"), [x])
        expected = np.array([1.0, 1.0]) / np.sqrt(2)
        assert np.allclose(r.components[0], expected, atol=1e-12)
        assert r.explained_variance[1] <= 1e-12

    def test_components_match_direct_eigendecomposition(self, rng):
        # independent oracle: eigh of np.cov on the centered data
        x = random_matrix(rng, 50, 6)
        r = fit_reducer(ReducerSpec("pca"), [x])
        eigvals, eigvecs = np.linalg.eigh(np.cov(x.T))
        order = np.argsort(eigvals)[::-1]
        oracle_vals = eigvals[order]
        oracle_vecs = eigvecs[:, order].T
        assert np.allclose(r.explained_variance, oracle_vals, rtol=1e-9, atol=1e-12)
        for row, oracle in zip(r.components, oracle_vecs):
            j = int(np.argmax(np.abs(oracle)))
            if oracle[j] < 0:
                oracle = -oracle
            assert np.allclose(row, oracle, atol=1e-8)

    def test_orthonormal_rows_all_schemes(self, rng):
        x = random_matrix(rng, 50, 6)
        for scheme in ("none", "pca", "lsa"):
            r = fit_reducer(ReducerSpec(scheme), [x])
            gram = r.components @ r.components.T
            assert np.abs(gram - np.eye(r.n_components)).max() < ORTHO_TOL

    def test_projection_decorrelation(self, rng):
        x = random_matrix(rng, 80, 5)
        r = fit_reducer(ReducerSpec("pca"), [x])
        proj = transform(r, x)
        cov = np.cov(proj.T)
        off = cov - np.diag(np.diag(cov))
        assert np.abs(off).max() <= ORTHO_TOL * max(np.diag(cov).max(), 1.0)

    def test_training_projection_is_centered(self, rng):
        x = random_matrix(rng, 40, 3)
        r = fit_reducer(ReducerSpec("pca"), [x])
        assert np.abs(transform(r, x).mean(axis=0)).max() < 1e-8

    def test_sign_convention_deterministic(self, rng):
        x = random_matrix(rng, 30, 4)
        a = fit_reducer(ReducerSpec("pca"), [x])
        b = fit_reducer(ReducerSpec("pca"), [x])
        assert np.array_equal(a.components, b.components)
        for row in a.components:
            j = int(np.argmax(np.abs(row)))
            assert row[j] > 0

    def test_lsa_matches_svd(self, rng):
        x = random_matrix(rng, 30, 4)
        r = fit_reducer(ReducerSpec("lsa", 2), [x])
        assert np.array_equal(r.center, np.zeros(4))
        _, sigma, vt = np.linalg.svd(x, full_matrices=False)
        assert np.allclose(np.abs(r.components), np.abs(vt[:2]), atol=1e-8)
        assert np.allclose(r.explained_variance, sigma[:2] ** 2 / 29, rtol=1e-9)

    def test_d_exceeding_rank_pads(self, rng):
        base = random_matrix(rng, 30, 2)
        x = np.hstack([base, base[:, :1] + base[:, 1:]])  # rank 2, n = 3
        with pytest.warns(UserWarning, match="rank"):
            r = fit_reducer(ReducerSpec("pca", 3), [x])
        gram = r.components @ r.components.T
        assert np.abs(gram - np.eye(3)).max() < ORTHO_TOL
        assert r.explained_variance[2] == 0.0

    def test_d_larger_than_min_sn_rejected(self, rng):
        with pytest.raises(ValueError, match="exceeds"):
            fit_reducer(ReducerSpec("pca", 5), [random_matrix(rng, 30, 4)])

    def test_transform_dimension_mismatch(self, rng):
        r = fit_reducer(ReducerSpec("pca"), [random_matrix(rng, 30, 4)])
        with pytest.raises(ValueError, match="columns"):
            transform(r, np.zeros((3, 5)))


class TestIncremental:
    """``fit_reducer`` over several batches against the one-batch fit ``[x]``."""

    def test_batch_partition_accumulates_identically(self, rng):
        x = random_matrix(rng, 70, 4)
        whole = fit_reducer(ReducerSpec("pca"), [x])
        bounds = sorted(rng.choice(np.arange(1, 70), size=6, replace=False).tolist())
        parts = fit_reducer(ReducerSpec("pca"), (x[lo:hi] for lo, hi in zip([0] + bounds, bounds + [70])))
        assert np.abs(parts.center - whole.center).max() < 1e-10
        assert np.abs(parts.explained_variance - whole.explained_variance).max() < 1e-10

    def test_stream_matches_batch_within_tolerance(self, rng):
        x = random_matrix(rng, 500, 8)
        stream = fit_reducer(ReducerSpec("pca"), [x[lo:lo + 50] for lo in range(0, 500, 50)])
        batch = fit_reducer(ReducerSpec("pca"), [x])
        assert np.abs(stream.components - batch.components).max() < 1e-6
        assert np.abs(stream.explained_variance - batch.explained_variance).max() < 1e-6

    def test_zero_row_batch_is_identity(self, rng):
        x = random_matrix(rng, 30, 3)
        empty = np.empty((0, 3))
        for scheme in ("none", "pca", "lsa"):
            one = fit_reducer(ReducerSpec(scheme), [x])
            for batches in ([empty, x], [x, empty], [empty, x, empty, empty]):
                other = fit_reducer(ReducerSpec(scheme), batches)
                for name in ("center", "components", "explained_variance"):
                    assert np.array_equal(getattr(other, name), getattr(one, name))
        halves = [x[:12], x[12:]]
        split = fit_reducer(ReducerSpec("pca"), halves)
        padded = fit_reducer(ReducerSpec("pca"), [empty, halves[0], empty, halves[1], empty])
        for name in ("center", "components", "explained_variance"):
            assert np.array_equal(getattr(padded, name), getattr(split, name))

    def test_count_below_two_rejected(self):
        for scheme in ("none", "pca", "lsa"):
            for batches in ([], [np.empty((0, 2))], [np.ones((1, 2))], [np.ones((1, 2)), np.empty((0, 2))]):
                count = sum(b.shape[0] for b in batches)
                with pytest.raises(ValueError, match=f"^train source must yield at least 2 samples, got {count}$"):
                    fit_reducer(ReducerSpec(scheme), batches)

    def test_dimension_mismatch_rejected(self):
        for batches in ([np.ones((2, 3)), np.ones((2, 4))], [np.empty((0, 3)), np.ones((2, 4))], [np.ones(3)]):
            with pytest.raises(ValueError, match="columns"):
                fit_reducer(ReducerSpec("pca"), batches)

    def test_lsa_needs_one_non_empty_batch(self, rng):
        x = random_matrix(rng, 20, 3)
        with pytest.raises(ValueError, match="^lsa fits one batch, got a second non-empty batch$"):
            fit_reducer(ReducerSpec("lsa"), [x[:10], np.empty((0, 3)), x[10:]])


class TestSerialization:
    def test_json_round_trip(self, rng):
        r = fit_reducer(ReducerSpec("pca"), [random_matrix(rng, 30, 4)])
        back = FittedReducer.from_json_dict(r.to_json_dict())
        assert back.scheme == r.scheme
        assert np.array_equal(back.components, r.components)
        assert np.array_equal(back.center, r.center)
        assert np.array_equal(back.explained_variance, r.explained_variance)
