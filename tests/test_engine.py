"""engine._gemm, the scipy-BLAS matrix product, against numpy's matmul, and
the factored blocks of engine.build_system."""

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
    # E_m = B_m + diag(d_m) is what gets factored; B_blocks keeps the residual
    ds, cfg, hp, state = random_instance(3, n=25, M=2, Q=6)
    sys = build_cvb_system(ds, cfg, hp, state)
    for m, out in enumerate(hp.outputs):
        Kfu = kernels.kfu_matrix(ds.X, hp.inducing.W, out, hp.latent)
        Kff = kernels.kff_matrix(ds.X, ds.X, out, out, hp.latent)
        resid = Kff - Kfu @ cho_solve(sys.cho_Kuu, Kfu.T)
        np.testing.assert_allclose(sys.B_blocks[m], 0.5 * (resid + resid.T),
                                   rtol=0, atol=1e-12)
        expect = cho_factor(sys.B_blocks[m] + np.diag(sys.d_blocks[m]), lower=True)[0]
        np.testing.assert_array_equal(sys.cho_E[m][0], expect)


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
        rows, d_blocks = [np.arange(ds.n)] * cfg.M, [np.full(ds.n, 0.1)] * cfg.M
        return ds, hp, rows, d_blocks

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_e_raises_value_error(self, bad):
        ds, hp, rows, d_blocks = self._instance()
        d_blocks[1] = d_blocks[1].copy()
        d_blocks[1][7] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            engine.build_system(ds.X, ds.y, hp, rows, d_blocks)

    def test_non_positive_definite_e_raises_cho_factors_error(self):
        ds, hp, rows, d_blocks = self._instance()
        B_1 = engine.build_system(ds.X, ds.y, hp, rows, d_blocks).B_blocks[1]
        d_blocks[1] = np.full(ds.n, -1.0)
        with pytest.raises(np.linalg.LinAlgError) as ref:
            cho_factor(B_1 + np.diag(d_blocks[1]), lower=True)
        with pytest.raises(np.linalg.LinAlgError) as got:
            engine.build_system(ds.X, ds.y, hp, rows, d_blocks)
        assert str(got.value) == str(ref.value)

    @pytest.mark.parametrize("kuu_scale, error", [(np.nan, ValueError),
                                                  (-1e6, np.linalg.LinAlgError)])
    def test_bad_a_raises_the_same_errors(self, kuu_scale, error, monkeypatch):
        # A = Kuu + sum_m Kfu_m' V_m is factored by the same helper; a Kuu
        # that is not finite, or far from positive definite, spoils it
        ds, hp, rows, d_blocks = self._instance()
        jittered = kernels.jittered

        def spoiled(K):
            Kuu, cho = jittered(K)
            return kuu_scale * np.eye(len(Kuu)), cho

        monkeypatch.setattr(kernels, "jittered", spoiled)
        with pytest.raises(error, match="infs or NaNs|leading minor of the array is not"):
            engine.build_system(ds.X, ds.y, hp, rows, d_blocks)
