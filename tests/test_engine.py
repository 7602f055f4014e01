"""engine._gemm, the scipy-BLAS matrix product, against numpy's matmul, the
factored blocks of engine.build_system, and the explicit inverses only
engine.gauss_loglik_grads forms."""

from dataclasses import fields, replace

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from wsmgp import bounds, engine, gradients, kernels
from wsmgp.bounds import build_cvb_system, cvb_selection
from wsmgp.checks import random_instance
from wsmgp.trainer import default_hyperparams


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
        cho = cho_factor(P_m, lower=True)
        assert sys.logdet_P[m] == 2.0 * np.sum(np.log(np.diag(cho[0])))
        assert sys.cho_P[m][1] is True
        np.testing.assert_array_equal(sys.cho_P[m][0], cho[0])


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

    @pytest.mark.parametrize("scale, error", [(np.nan, ValueError),
                                              (-1e6, np.linalg.LinAlgError)])
    def test_bad_a_raises_the_same_errors(self, scale, error, monkeypatch):
        # A = I + sum_m (S_m Psi_m)' P_m^-1 S_m Psi_m is factored by the same
        # helper; a solve P_m^-1 [S_m Psi_m | S_m y_m] that is not finite, or
        # that makes A far from positive definite, spoils it (P_m's own factor
        # is sound)
        ds, hp, rows, w_blocks = self._instance()
        cho_solve_ = engine.cho_solve

        def spoiled(cho, b):
            return scale * cho_solve_(cho, b)

        monkeypatch.setattr(engine, "cho_solve", spoiled)
        with pytest.raises(error, match="infs or NaNs|leading minor of the array is not"):
            engine.build_system(ds.X, ds.y, hp, rows, w_blocks)


class TestExplicitInverse:
    """P_m's factor, its solves and the gradient's P_m^-1 against a dense reference.

    The reference is the stacked Gaussian over the rows with w > 0,
    Sigma = Kfu Kuu^-1 Kuf + bdiag(B_m) + W^-1 with the jittered Kuu,
    written out densely and solved with numpy; the engine's whitened
    pieces are checked against Psi = Kfu L^-T from numpy's Cholesky
    factor L of that Kuu.  The instances are well conditioned
    (cond(A) <= 1e4), so everything agrees to 1e-12 of its largest entry;
    each has rows with w = 0 and labeled rows outside an output's rows.
    """

    SEEDS = [0, 8]

    @staticmethod
    def _instance(seed):
        ds, cfg, hp, state = random_instance(seed, n=30, M=2, Q=4)
        sys = build_cvb_system(ds, cfg, hp, state)
        assert np.linalg.cond(sys.A) <= 1e4
        assert any(np.any(s_m == 0.0) for s_m in sys.s_blocks)
        assert any(len(r) < ds.n for r in sys.rows)
        return sys

    @staticmethod
    def _dense(sys):
        """(blocks, Kfu, Kuu^-1, Psi, K, w, y, pos, dSigma, mean, var, loglik) over all rows."""
        start = np.cumsum([0] + [len(r) for r in sys.rows])
        blocks = [slice(a, b) for a, b in zip(start[:-1], start[1:])]
        Kfu = np.vstack([b.K for b in sys.fu_blocks])
        Kuu = sys.kuu_block.K + kernels.chol_jitter(sys.kuu_block.K)[1] * np.eye(Kfu.shape[1])
        Kuu_inv = np.linalg.inv(Kuu)
        Psi = np.linalg.solve(np.linalg.cholesky(Kuu), Kfu.T).T
        K = Kfu @ Kuu_inv @ Kfu.T
        for blk, B_m in zip(blocks, sys.B_blocks):
            K[blk, blk] += B_m
        w = np.concatenate(sys.s_blocks) ** 2
        y = np.concatenate(sys.y_blocks)
        pos = w > 0
        Sigma = K[np.ix_(pos, pos)] + np.diag(1.0 / w[pos])
        Si = np.linalg.inv(Sigma)
        a = Si @ y[pos]
        dSigma = np.zeros_like(K)
        dSigma[np.ix_(pos, pos)] = 0.5 * (np.outer(a, a) - Si)
        mean = K[:, pos] @ a
        var = np.diag(K) - np.einsum("ij,ij->i", K[:, pos] @ Si, K[:, pos])
        _, logdet = np.linalg.slogdet(Sigma)
        # without the noise normaliser, as gauss_loglik
        loglik = -0.5 * (logdet + y[pos] @ a + np.sum(np.log(w[pos])))
        return blocks, Kfu, Kuu_inv, Psi, K, w, y, pos, dSigma, mean, var, loglik

    @staticmethod
    def _close(got, ref, name, scale=None):
        """got within 1e-12 of scale, by default ref's largest entry."""
        scale = np.abs(ref).max() if scale is None else scale
        err = np.abs(np.asarray(got) - ref).max()
        assert err <= 1e-12 * scale, "%s: %.3g of %.3g" % (name, err, scale)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_solves_and_moments(self, seed):
        sys = self._instance(seed)
        blocks, _, _, Psi, K, w, y, pos, _, mean, var, loglik = self._dense(sys)
        assert engine.gauss_loglik(sys) == pytest.approx(loglik, rel=1e-12)
        means, variances = engine.posterior_moments(sys)
        for m, blk in enumerate(blocks):
            # alpha_m = P_m^-1 S_m y_m and V_m = P_m^-1 S_m Psi_m: S_m^-1 E_m^-1 (y_m, Psi_m)
            # on the rows with w > 0, 0 on the others, with E_m = B_m + W_m^-1
            p, s_m = pos[blk], sys.s_blocks[m]
            self._close(sys.Psi[m], Psi[blk], "Psi")
            E = sys.B_blocks[m][np.ix_(p, p)] + np.diag(1.0 / w[blk][p])
            alpha, V = np.zeros(len(s_m)), np.zeros((len(s_m), Psi.shape[1]))
            alpha[p] = np.linalg.solve(E, y[blk][p]) / s_m[p]
            V[p] = np.linalg.solve(E, Psi[blk][p]) / s_m[p, None]
            self._close(sys.alpha[m], alpha, "alpha")
            self._close(sys.V[m], V, "V")
            P = sys.B_blocks[m] * s_m * s_m[:, None] + np.eye(len(s_m))
            np.testing.assert_array_equal(sys.cho_P[m][0], cho_factor(P, lower=True)[0])
            self._close(engine.cho_inverse(sys.cho_P[m]), np.linalg.inv(P), "P^-1")
            assert sys.logdet_P[m] == pytest.approx(np.linalg.slogdet(P)[1], rel=1e-12)
            self._close(sys.M1[m], (s_m[:, None] * Psi[blk]).T @ V, "M1")
            self._close(means[m], mean[blk], "mean")
            # the variance is the prior variance less a term of its own size
            self._close(variances[m], var[blk], "var", scale=np.diag(K).max())
        self._close(sys.A - np.eye(len(sys.c)), sum(sys.M1), "A - I")

    @pytest.mark.parametrize("seed", SEEDS)
    def test_matrix_grads(self, seed):
        sys = self._instance(seed)
        blocks, Kfu, Kuu_inv, Psi, _, w, y, _, dSigma, mean, var, _ = self._dense(sys)
        mg = engine.gauss_loglik_grads(sys)
        G = -2.0 * dSigma  # Sigma^-1 - Sigma^-1 y y' Sigma^-1, 0 on the rows with w = 0
        Ainv = np.linalg.inv(sys.A)
        kr = sys.c  # Psi' Sigma^-1 y
        M1 = sys.A - np.eye(len(sys.c))
        partial = np.zeros_like(Kuu_inv)
        for m, blk in enumerate(blocks):
            s_m = sys.s_blocks[m]
            self._close(mg.dE_blocks[m], dSigma[blk, blk], "dE")
            # the total derivative w.r.t. Kfu_m, the residual path of B_m included
            ref = 2.0 * (dSigma[blk] @ Kfu - dSigma[blk, blk] @ Kfu[blk]) @ Kuu_inv
            self._close(mg.dKfu_blocks[m], ref, "dKfu")
            # the identity the engine uses in place of an n_m x n_m product:
            # S_m [V_m A^-1 (M1 - M1_m) - r_m (kr_m - kr)'] = G_mm Psi_m - (G Psi)_m
            r = sys.alpha[m] - sys.V[m] @ sys.c
            kr_m = (s_m[:, None] * Psi[blk]).T @ r
            lhs = s_m[:, None] * (sys.V[m] @ Ainv @ (M1 - sys.M1[m]) - np.outer(r, kr_m - kr))
            self._close(lhs, G[blk, blk] @ Psi[blk] - G[blk] @ Psi, "dKfu identity")
            self._close(mg.dlogw_blocks[m], -0.5 * w[blk] * ((y[blk] - mean[blk]) ** 2 + var[blk]),
                        "dlogw")
            partial += Kfu[blk].T @ dSigma[blk, blk] @ Kfu[blk]
        self._close(mg.dKuu, -Kuu_inv @ (Kfu.T @ dSigma @ Kfu - partial) @ Kuu_inv, "dKuu")

    @pytest.mark.parametrize("shared", [False, True])
    def test_handed_squared_differences_give_a_fresh_kernel_half(self, shared):
        ds, cfg, hp, state = random_instance(5, n=30, M=2, Q=5, d=2)
        rows, w_blocks = cvb_selection(ds, cfg, hp, state)
        if shared:
            rows = [np.arange(ds.n)] * cfg.M
            w_blocks = [np.full(ds.n, 4.0)] * cfg.M
        t2 = engine.row_sqdiffs(ds.X, rows, hp.inducing.W)
        assert (t2.ff[0] is t2.ff[1]) == shared
        got = engine.build_system(ds.X, ds.y, hp, rows, w_blocks, t2=t2)
        ref = engine.build_system(ds.X, ds.y, hp, rows, w_blocks)

        def same(a, b, name):
            if isinstance(b, (list, tuple)):  # GaussBlock and cho_Kuu included
                assert type(a) is type(b) and len(a) == len(b), name
                for x, z in zip(a, b):
                    same(x, z, name)
            elif isinstance(b, np.ndarray):
                np.testing.assert_array_equal(a, b, err_msg=name)
            else:
                assert a == b, name

        for f in fields(engine.StackedSystem):
            same(getattr(got, f.name), getattr(ref, f.name), f.name)
        assert all(b.t2 is t2_m for b, t2_m in zip(got.ff_blocks, t2.ff))

    def test_one_factor_and_one_inverse_per_output(self, monkeypatch):
        # the gradient inverts the factor the build formed: each P_m is
        # factored once and that factor is inverted once
        ds, cfg, hp, state = random_instance(8, n=30, M=2, Q=4)
        rows = cvb_selection(ds, cfg, hp, state)[0]
        sizes = {len(r) for r in rows}
        assert cfg.Q not in sizes
        factored, inverted = [], []
        cho_factor_, cho_inverse_ = engine.cho_factor, engine.cho_inverse

        def spy_factor(a, *args, **kwargs):
            cho = cho_factor_(a, *args, **kwargs)
            if cho[0].shape[0] in sizes:
                factored.append(cho[0])
            return cho

        def spy_inverse(cho, *args, **kwargs):
            if cho[0].shape[0] in sizes:
                inverted.append(cho[0])
            return cho_inverse_(cho, *args, **kwargs)

        monkeypatch.setattr(engine, "cho_factor", spy_factor)
        monkeypatch.setattr(engine, "cho_inverse", spy_inverse)
        gradients.elbo_cvb_with_grad(ds, cfg, hp, state)
        assert len(factored) == cfg.M and len(inverted) == cfg.M
        assert all(f is i for f, i in zip(factored, inverted))

    @pytest.mark.parametrize("independent", [False, True])
    @pytest.mark.parametrize("n", [12, 30, 90])
    def test_pi_path_forms_no_inverse(self, n, independent, monkeypatch):
        # pi steps, and the noise halves rebuilt after them, read only the
        # factors; the gradient then inverts each P_m, and A, once
        ds, cfg, hp, state = random_instance(8, n=n, M=2, Q=4)
        if independent:
            hp = default_hyperparams(ds, cfg, "independent")
        inverted = []
        cho_inverse_ = engine.cho_inverse

        def spy_inverse(cho):
            inverted.append(cho[0].shape[0])
            return cho_inverse_(cho)

        monkeypatch.setattr(engine, "cho_inverse", spy_inverse)
        sys = build_cvb_system(ds, cfg, hp, state)
        for _ in range(2):
            _, state.pi_hat = bounds.cvb_pi_step(ds, cfg, hp, state, sys)
            sys = build_cvb_system(ds, cfg, hp, state, kernel=sys)
        assert inverted == []
        gradients.elbo_cvb_with_grad(ds, cfg, hp, state, sys)
        sizes = [len(r) for r in sys.rows] + ([] if independent else [cfg.Q])
        assert sorted(inverted) == sorted(sizes)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_gradient_only_reads_the_system(self, seed):
        # the gradient inverts copies of the factors, so the value and the
        # moments a later pi step reads are those from before it, bit for bit
        sys = self._instance(seed)
        loglik, (means, variances) = engine.gauss_loglik(sys), engine.posterior_moments(sys)
        factors = [cho[0].copy() for cho in sys.cho_P]
        engine.gauss_loglik_grads(sys)
        for cho, factor in zip(sys.cho_P, factors):
            np.testing.assert_array_equal(cho[0], factor)
        assert engine.gauss_loglik(sys) == loglik
        for got, ref in zip(engine.posterior_moments(sys), (means, variances)):
            for g, r in zip(got, ref):
                np.testing.assert_array_equal(g, r)
