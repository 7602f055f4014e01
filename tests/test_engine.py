"""engine._gemm, the scipy-BLAS matrix product, against numpy's matmul, and
the factored blocks of engine.build_system."""

from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from wsmgp import engine, kernels
from wsmgp.bounds import build_cvb_system
from wsmgp.checks import random_instance


def _strided(x):
    """x as a view with neither axis contiguous."""
    buf = np.zeros((2 * x.shape[0] + 1, 3 * x.shape[1] + 1))
    view = buf[::2, ::3][: x.shape[0], : x.shape[1]]
    view[...] = x
    return view


LAYOUTS = {
    "C": np.ascontiguousarray,
    "F": np.asfortranarray,
    "transposed": lambda x: np.ascontiguousarray(x.T).T,
    "strided": _strided,
    "strided-transposed": lambda x: _strided(x.T).T,
}

# (a.shape, b.shape); the large ones are big enough for a threaded gemm
MATRIX_SHAPES = [
    ((2, 2), (2, 2)),
    ((5, 7), (7, 3)),
    ((400, 30), (30, 30)),
    ((30, 400), (400, 30)),
    ((300, 500), (500, 3)),
]
ZERO_SIZE_SHAPES = [((0, 30), (30, 30)), ((30, 30), (30, 0)), ((3, 0), (0, 4))]
VECTOR_SHAPES = [((1, 30), (30, 30)), ((30, 100), (100, 1)), ((1, 7), (7, 1))]


def _operands(shapes, layout_a, layout_b, seed=0):
    rng = np.random.default_rng(seed)
    a0, b0 = rng.normal(size=shapes[0]), rng.normal(size=shapes[1])
    a, b = LAYOUTS[layout_a](a0), LAYOUTS[layout_b](b0)
    assert np.array_equal(a, a0) and np.array_equal(b, b0)
    return a, b


@pytest.mark.parametrize("layout_b", LAYOUTS)
@pytest.mark.parametrize("layout_a", LAYOUTS)
@pytest.mark.parametrize("shapes", MATRIX_SHAPES + ZERO_SIZE_SHAPES)
def test_equals_matmul_bit_for_bit(shapes, layout_a, layout_b):
    a, b = _operands(shapes, layout_a, layout_b)
    got = engine._gemm(a, b)
    assert got.shape == (a.shape[0], b.shape[1])
    np.testing.assert_array_equal(got, a @ b)


@pytest.mark.parametrize("layout_b", LAYOUTS)
@pytest.mark.parametrize("layout_a", LAYOUTS)
@pytest.mark.parametrize("shapes", VECTOR_SHAPES)
def test_vector_shaped_result_within_a_few_ulp(shapes, layout_a, layout_b):
    # numpy computes these with gemv or dot, which sum in another order
    a, b = _operands(shapes, layout_a, layout_b)
    scale = np.abs(a) @ np.abs(b)
    err = np.abs(engine._gemm(a, b) - a @ b)
    assert np.all(err <= 4 * np.finfo(float).eps * scale)



def test_build_system_factors_residual_plus_noise():
    # in precision form: P_m = I + S_m B_m S_m is what gets factored, with
    # S_m = diag(sqrt(w_m)); B_blocks keeps the residual
    ds, cfg, hp, state = random_instance(3, n=25, M=2, Q=6)
    sys = build_cvb_system(ds, cfg, hp, state)
    for m, out in enumerate(hp.outputs):
        X = ds.X[sys.rows[m]]
        Kfu = kernels.kfu_matrix(X, hp.inducing.W, out, hp.latent)
        Kff = kernels.kff_matrix(X, X, out, out, hp.latent)
        resid = Kff - Kfu @ cho_solve(sys.cho_Kuu, Kfu.T)
        np.testing.assert_allclose(sys.B_blocks[m], 0.5 * (resid + resid.T),
                                   rtol=0, atol=1e-12)
        s_m = sys.s_blocks[m]
        np.testing.assert_array_equal(s_m, np.sqrt(state.pi_hat[sys.rows[m], m]
                                                   / hp.noise.sigma[m] ** 2))
        P_m = sys.B_blocks[m] * s_m * s_m[:, None] + np.eye(len(s_m))
        expect = cho_factor(P_m, lower=True)[0]
        np.testing.assert_array_equal(sys.cho_P[m][0], expect)


def _spd(n, seed):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, n))
    return A @ A.T / n + np.eye(n)


def _factors(n, seed):
    """Factors of one SPD matrix as the package makes them: (name, (c, lower))."""
    K = _spd(n, seed)
    return [
        ("cho_factor lower", cho_factor(K, lower=True)),
        ("cho_factor upper", cho_factor(K, lower=False)),
        ("chol_jitter", kernels.chol_jitter(K)[0]),
    ]


@pytest.mark.parametrize("n", [1, 2, 30, 144])
def test_cho_inverse_equals_the_solve_and_is_symmetric(n):
    for name, cho in _factors(n, n):
        if n > 1 and name != "cho_factor upper":
            # the factored matrix is still above the diagonal; only the factor is read
            assert np.any(np.triu(cho[0], 1) != 0.0), name
        factor = cho[0].copy()
        inv = engine.cho_inverse(cho)
        ref = cho_solve(cho, np.eye(n))
        np.testing.assert_array_equal(inv, inv.T, err_msg=name)
        assert np.abs(inv - ref).max() <= 1e-13 * np.abs(ref).max(), name
        np.testing.assert_array_equal(cho[0], factor, err_msg=name)


class TestFactorGuards:
    """build_system's factors keep scipy's guards: ValueError on non-finite input,
    LinAlgError with cho_factor's message when not positive definite."""

    @staticmethod
    def _instance():
        ds, cfg, hp, state = random_instance(4, n=20, M=2, Q=5)
        rows, w_blocks = [np.arange(ds.n)] * cfg.M, [np.full(ds.n, 10.0)] * cfg.M
        return ds, hp, rows, w_blocks

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_e_raises_value_error(self, bad):
        ds, hp, rows, w_blocks = self._instance()
        w_blocks[1] = w_blocks[1].copy()
        w_blocks[1][7] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            engine.build_system(ds.X, ds.y, hp, rows, w_blocks)

    def test_non_positive_definite_e_raises_cho_factors_error(self):
        # P_m = I + S_m B_m S_m is positive definite for a residual B_m; a
        # kernel half whose B_1 is far from positive semi-definite spoils it
        ds, hp, rows, w_blocks = self._instance()
        half = engine.build_system(ds.X, ds.y, hp, rows, w_blocks)
        spoiled = replace(half, B_blocks=[half.B_blocks[0], -np.eye(ds.n)])
        with pytest.raises(np.linalg.LinAlgError) as ref:
            cho_factor(np.eye(ds.n) - 10.0 * np.eye(ds.n), lower=True)
        with pytest.raises(np.linalg.LinAlgError) as got:
            engine.build_system(ds.X, ds.y, hp, rows, w_blocks, kernel=spoiled)
        assert str(got.value) == str(ref.value)

    @pytest.mark.parametrize("kuu_scale, error", [(np.nan, ValueError),
                                                  (-1e6, np.linalg.LinAlgError)])
    def test_bad_a_raises_the_same_errors(self, kuu_scale, error, monkeypatch):
        # A = Kuu + sum_m Kfu_m' V_m is factored by the same helper; a Kuu
        # that is not finite, or far from positive definite, spoils it
        ds, hp, rows, w_blocks = self._instance()
        jittered = kernels.jittered

        def spoiled(K):
            Kuu, cho = jittered(K)
            return kuu_scale * np.eye(len(Kuu)), cho

        monkeypatch.setattr(kernels, "jittered", spoiled)
        with pytest.raises(error, match="infs or NaNs|leading minor of the array is not"):
            engine.build_system(ds.X, ds.y, hp, rows, w_blocks)
