"""engine._gemm, the scipy-BLAS matrix product, against numpy's matmul, the
factored blocks of engine.build_system, the fixed rows it conditions out,
and the explicit inverses only engine.gauss_loglik_grads forms."""

from dataclasses import fields, replace

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from wsmgp import bounds, engine, experiments, gradients, kernels
from wsmgp.bounds import assignment_rows, build_cvb_system, cvb_pi_step, cvb_selection
from wsmgp.checks import random_instance
from wsmgp.kernels import IndependentSEHyperParams, NoiseParams, SEKernelParams
from wsmgp.model import ModelConfig, VariationalState, init_state, make_dataset
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
    # in precision form: P_m = I + S_m B_m S_m, with S_m = diag(sqrt(w_m));
    # B_blocks keeps the residual.  Its fixed rows F (first) are factored in
    # the kernel half and its moving rows U in the noise half, each bit for
    # bit as cho_factor factors that block, and together they are P_m's factor
    ds, cfg, hp, state = random_instance(3, n=25, M=2, Q=6)
    sys = build_cvb_system(ds, cfg, hp, state)
    assert all(0 < f.n_F < len(r) for f, r in zip(sys.fixed, sys.rows))
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
        f = sys.fixed[m]
        F, U = slice(0, f.n_F), slice(f.n_F, None)
        B_m = sys.B_blocks[m]
        P_F = B_m[F, F] * s_m[F] * s_m[F, None] + np.eye(f.n_F)
        np.testing.assert_array_equal(f.cho_F[0], cho_factor(P_F, lower=True)[0])
        P_U = np.asarray(f.B) * s_m[U] * s_m[U, None] + np.eye(len(s_m) - f.n_F)
        assert sys.cho_U[m][1] is True
        np.testing.assert_array_equal(sys.cho_U[m][0], cho_factor(P_U, lower=True)[0])
        P_m = B_m * s_m * s_m[:, None] + np.eye(len(s_m))
        L = np.tril(engine.factor_solves(sys, m)[0][0])
        np.testing.assert_allclose(L, np.linalg.cholesky(P_m), rtol=0, atol=1e-13)
        assert sys.logdet_P[m] == pytest.approx(np.linalg.slogdet(P_m)[1], rel=1e-13)


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
        # P~_m = I + S_U B~_m S_U is positive definite for a residual B_m; a
        # kernel half whose B~_1 is far from positive semi-definite spoils it
        # (every row sits under both outputs, so none is fixed and B~_m = B_m)
        ds, hp, rows, w_blocks = self._instance()
        half = engine.build_system(ds.X, ds.y, hp, rows, w_blocks)
        assert [f.n_F for f in half.fixed] == [0, 0]
        spoiled = replace(half, fixed=[half.fixed[0], half.fixed[1]._replace(B=-np.eye(ds.n))])
        with pytest.raises(np.linalg.LinAlgError) as ref:
            cho_factor(np.eye(ds.n) - 10.0 * np.eye(ds.n), lower=True)
        with pytest.raises(np.linalg.LinAlgError) as got:
            engine.build_system(ds.X, ds.y, hp, rows, w_blocks, kernel=spoiled)
        assert str(got.value) == str(ref.value)

    @pytest.mark.parametrize("amp, singular", [(1e3, False), (1e5, True)])
    def test_numerically_singular_p_raises_linalg_error(self, amp, singular):
        # amplitude 1e5 over weights 1e6 (noise 1e-3): P_m's largest entry
        # is 1e16, and n eps times it passes 1/2, so no factor of P_m tells
        # log|P_m|; amplitude 1e3 stays 1e4 times below that
        ds, _, rows, _ = self._instance()
        hp = IndependentSEHyperParams(outputs=[SEKernelParams(amp=amp, prec=np.array([4.0]))] * 2,
                                      noise=NoiseParams(sigma=np.full(2, 1e-3)))
        w_blocks = [np.full(ds.n, 1e6)] * 2
        if not singular:
            assert np.isfinite(engine.gauss_loglik(engine.build_system(ds.X, ds.y, hp, rows,
                                                                       w_blocks)))
            return
        with pytest.raises(np.linalg.LinAlgError, match="P_1 = I \\+ S B S is numerically"):
            engine.build_system(ds.X, ds.y, hp, rows, w_blocks)

    @pytest.mark.parametrize("scale, error", [(np.nan, ValueError),
                                              (-1e6, np.linalg.LinAlgError)])
    def test_bad_a_raises_the_same_errors(self, scale, error):
        # A = I + sum_m Z_m' Z_m is factored by the same helper; a kernel half
        # whose fixed rows' share Z_F' Z_F of output 1 is not finite, or makes
        # A far from positive definite, spoils it (P_m's own factors are sound)
        ds, hp, rows, w_blocks = self._instance()
        half = engine.build_system(ds.X, ds.y, hp, rows, w_blocks)
        ZZ = half.fixed[1].ZZ
        spoiled = replace(half, fixed=[half.fixed[0],
                                       half.fixed[1]._replace(ZZ=scale * np.eye(len(ZZ)))])
        with pytest.raises(error, match="infs or NaNs|leading minor of the array is not"):
            engine.build_system(ds.X, ds.y, hp, rows, w_blocks, kernel=spoiled)


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
            cho, solved = engine.factor_solves(sys, m)
            self._close(solved[:, -1], alpha, "alpha")
            self._close(solved[:, :-1], V, "V")
            P = sys.B_blocks[m] * s_m * s_m[:, None] + np.eye(len(s_m))
            self._close(np.tril(cho[0]), np.linalg.cholesky(P), "P's factor")
            self._close(engine.cho_inverse(cho), np.linalg.inv(P), "P^-1")
            assert sys.logdet_P[m] == pytest.approx(np.linalg.slogdet(P)[1], rel=1e-12)
            Q = len(sys.c)
            self._close(sys.ZZ[m][:Q, :Q], (s_m[:, None] * Psi[blk]).T @ V, "M1")
            # the pi step reads the moments at the moving rows alone
            U = np.arange(blk.start, blk.stop)[sys.fixed[m].n_F:]
            self._close(means[m], mean[U], "mean")
            # the variance is the prior variance less a term of its own size
            self._close(variances[m], var[U], "var", scale=np.diag(K).max())
        self._close(sys.A - np.eye(len(sys.c)), sum(Z[:Q, :Q] for Z in sys.ZZ), "A - I")

    @pytest.mark.parametrize("seed", SEEDS)
    def test_matrix_grads(self, seed):
        sys = self._instance(seed)
        blocks, Kfu, Kuu_inv, Psi, _, w, y, _, dSigma, mean, var, _ = self._dense(sys)
        mg = engine.gauss_loglik_grads(sys)
        G = -2.0 * dSigma  # Sigma^-1 - Sigma^-1 y y' Sigma^-1, 0 on the rows with w = 0
        Ainv = np.linalg.inv(sys.A)
        kr = sys.c  # Psi' Sigma^-1 y
        Q = len(sys.c)
        M1 = sys.A - np.eye(Q)
        partial = np.zeros_like(Kuu_inv)
        for m, blk in enumerate(blocks):
            s_m = sys.s_blocks[m]
            self._close(mg.dE_blocks[m], dSigma[blk, blk], "dE")
            # the total derivative w.r.t. Kfu_m, the residual path of B_m included
            ref = 2.0 * (dSigma[blk] @ Kfu - dSigma[blk, blk] @ Kfu[blk]) @ Kuu_inv
            self._close(mg.dKfu_blocks[m], ref, "dKfu")
            # the identity the engine uses in place of an n_m x n_m product:
            # S_m [V_m A^-1 (M1 - M1_m) - r_m (kr_m - kr)'] = G_mm Psi_m - (G Psi)_m
            solved = engine.factor_solves(sys, m)[1]
            V, r = solved[:, :-1], solved[:, -1] - solved[:, :-1] @ sys.c
            kr_m = (s_m[:, None] * Psi[blk]).T @ r
            lhs = s_m[:, None] * (V @ Ainv @ (M1 - sys.ZZ[m][:Q, :Q]) - np.outer(r, kr_m - kr))
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

    def test_one_factor_per_row_block_and_one_inverse_per_output(self, monkeypatch):
        # each output's fixed and moving rows are factored once each, and the
        # gradient inverts, once per output, the factor assembled from the two
        ds, cfg, hp, state = random_instance(8, n=30, M=2, Q=4)
        factored, inverted = [], []
        cho_factor_, cho_inverse_ = engine.cho_factor, engine.cho_inverse

        def spy_factor(a, *args, **kwargs):
            cho = cho_factor_(a, *args, **kwargs)
            factored.append(cho[0])
            return cho

        def spy_inverse(cho, *args, **kwargs):
            inverted.append(cho[0].copy())
            return cho_inverse_(cho, *args, **kwargs)

        monkeypatch.setattr(engine, "cho_factor", spy_factor)
        monkeypatch.setattr(engine, "cho_inverse", spy_inverse)
        sys = build_cvb_system(ds, cfg, hp, state)
        gradients.elbo_cvb_with_grad(ds, cfg, hp, state, sys)
        n_F = [f.n_F for f in sys.fixed]
        n = [len(r) for r in sys.rows]
        assert all(0 < a < b for a, b in zip(n_F, n))
        # L_F of each output (kernel half), L~ of each (noise half), then A's
        assert [f.shape[0] for f in factored] == n_F + [b - a for a, b in zip(n_F, n)] + [cfg.Q]
        assert [i.shape[0] for i in inverted] == [cfg.Q] + n
        for m, L in enumerate(inverted[1:]):
            F = slice(0, n_F[m])
            np.testing.assert_array_equal(np.tril(L[F, F]), np.tril(factored[m]))
            np.testing.assert_array_equal(np.tril(L[n_F[m]:, n_F[m]:]),
                                          np.tril(factored[cfg.M + m]))

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

        def spy_inverse(cho, **kwargs):
            inverted.append(cho[0].shape[0])
            return cho_inverse_(cho, **kwargs)

        monkeypatch.setattr(engine, "cho_inverse", spy_inverse)
        sys = build_cvb_system(ds, cfg, hp, state)
        for _ in range(2):
            _, state.pi_hat = bounds.cvb_pi_step(ds, cfg, hp, state, sys)
            sys = build_cvb_system(ds, cfg, hp, state, kernel=sys)
        assert inverted == []
        gradients.elbo_cvb_with_grad(ds, cfg, hp, state, sys)
        sizes = [len(r) for r in sys.rows] + [len(sys.c)]  # A is 0 x 0 without inducing inputs
        assert sorted(inverted) == sorted(sizes)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_gradient_only_reads_the_system(self, seed):
        # the gradient inverts a factor assembled from the two halves', so the
        # value and the moments a later pi step reads are those from before
        # it, bit for bit
        sys = self._instance(seed)
        loglik, (means, variances) = engine.gauss_loglik(sys), engine.posterior_moments(sys)
        chos = sys.cho_U + [f.cho_F for f in sys.fixed]
        factors = [cho[0].copy() for cho in chos]
        engine.gauss_loglik_grads(sys)
        for cho, factor in zip(chos, factors):
            np.testing.assert_array_equal(cho[0], factor)
        assert engine.gauss_loglik(sys) == loglik
        for got, ref in zip(engine.posterior_moments(sys), (means, variances)):
            for g, r in zip(got, ref):
                np.testing.assert_array_equal(g, r)


def _dense_reference(sys):
    """The stacked selection's Gaussian over the rows with w > 0, solved densely with numpy.

    Returns (blocks, loglik, mean, var, dE, dKfu, dKuu, dlogw): gauss_loglik
    (without the noise normaliser), q(f)'s moments at every selected row,
    and every gauss_loglik_grads block (dKfu and dKuu None without
    inducing inputs), over the engine's kernel blocks but none of its factors.
    """
    start = np.cumsum([0] + [len(r) for r in sys.rows])
    blocks = [slice(a, b) for a, b in zip(start[:-1], start[1:])]
    K = np.zeros((start[-1], start[-1]))
    if len(sys.c):
        Kfu = np.vstack([b.K for b in sys.fu_blocks])
        Q = Kfu.shape[1]
        Kuu_inv = np.linalg.inv(sys.kuu_block.K
                                + kernels.chol_jitter(sys.kuu_block.K)[1] * np.eye(Q))
        K += Kfu @ Kuu_inv @ Kfu.T
    for blk, B_m in zip(blocks, sys.B_blocks):
        K[blk, blk] += B_m
    w = np.concatenate(sys.s_blocks) ** 2
    y = np.concatenate(sys.y_blocks)
    pos = w > 0
    Si = np.linalg.inv(K[np.ix_(pos, pos)] + np.diag(1.0 / w[pos]))
    a = Si @ y[pos]
    loglik = -0.5 * (np.linalg.slogdet(Si)[1] * -1 + y[pos] @ a + np.sum(np.log(w[pos])))
    mean = K[:, pos] @ a
    var = np.diag(K) - np.einsum("ij,ij->i", K[:, pos] @ Si, K[:, pos])
    dSigma = np.zeros_like(K)
    dSigma[np.ix_(pos, pos)] = 0.5 * (np.outer(a, a) - Si)
    dE = [dSigma[blk, blk] for blk in blocks]
    dKfu = dKuu = None
    if len(sys.c):
        dKfu = [2.0 * (dSigma[blk] @ Kfu - dSigma[blk, blk] @ Kfu[blk]) @ Kuu_inv
                for blk in blocks]
        partial = sum(Kfu[blk].T @ dSigma[blk, blk] @ Kfu[blk] for blk in blocks)
        dKuu = -Kuu_inv @ (Kfu.T @ dSigma @ Kfu - partial) @ Kuu_inv
    dlogw = -0.5 * w * ((y - mean) ** 2 + var)
    return blocks, loglik, mean, var, dE, dKfu, dKuu, [dlogw[blk] for blk in blocks]


def _selection(name):
    """(ds, cfg, hp, state) of one model's selection on a random instance."""
    ds, cfg, hp, state = random_instance(45, n=40, M=2, Q=5)  # cond(Kuu) 1.3e2
    se = IndependentSEHyperParams(
        outputs=[SEKernelParams(amp=abs(o.S), prec=0.5 * o.Lm) for o in hp.outputs],
        noise=hp.noise)
    if name == "omgp":  # label-blind, independent kernels: every row under both outputs
        ds = make_dataset(ds.X, ds.y, n_outputs=cfg.M)
        return ds, cfg, se, init_state(ds, cfg, 45)
    if name == "omgp-ws":  # independent kernels, one-hot priors on the labeled rows
        ds = make_dataset(ds.X, ds.y, labels=ds.labels, n_outputs=cfg.M)
        cfg = ModelConfig(M=cfg.M, Q=cfg.Q, use_dirichlet=False)
        return ds, cfg, se, init_state(ds, cfg, 45)
    if name == "scmgp":  # the labeled rows, each under its label
        return ds, cfg, hp, None
    # WSMGP with exact zero weights: a fifth of the unlabeled rows at a one-hot pi
    rows = np.flatnonzero(~ds.labeled_mask)[1::5]
    state.pi_hat[rows] = np.eye(2)[np.arange(len(rows)) % 2]
    return ds, cfg, hp, state


class TestConditionedAgainstDense:
    """The conditioned engine against dense conditioning, for each model's selection.

    OMGP's selection has no fixed row, SCMGP's only fixed rows, and
    WSMGP's (with weights of exactly 0) and OMGP-WS's (independent SE
    kernels) both.  The value, every gauss_loglik_grads block and the
    moving rows' moments agree to 1e-10 of their largest entry, and the
    pi step equals one taken from the dense moments at every row.
    """

    SELECTIONS = ["omgp", "scmgp", "wsmgp", "omgp-ws"]

    @staticmethod
    def _close(got, ref, name):
        scale = max(np.abs(ref).max(), 1e-300) if np.size(ref) else 1.0
        err = np.abs(np.asarray(got) - ref).max() if np.size(ref) else 0.0
        assert err <= 1e-10 * scale, "%s: %.3g of %.3g" % (name, err, scale)

    @pytest.mark.parametrize("name", SELECTIONS)
    def test_value_gradients_and_moments(self, name):
        ds, cfg, hp, state = _selection(name)
        sys = build_cvb_system(ds, cfg, hp, state)
        n_F = [f.n_F for f in sys.fixed]
        n = [len(r) for r in sys.rows]
        fixed = {"omgp": n_F == [0, 0], "scmgp": n_F == n}.get(name, all(0 < a < b for a, b in
                                                                          zip(n_F, n)))
        assert fixed, (name, n_F, n)
        if name == "wsmgp":
            assert any(np.any(s_m[f.n_F:] == 0.0) for s_m, f in zip(sys.s_blocks, sys.fixed))
        blocks, loglik, mean, var, dE, dKfu, dKuu, dlogw = _dense_reference(sys)
        assert engine.gauss_loglik(sys) == pytest.approx(loglik, rel=1e-10)
        mg = engine.gauss_loglik_grads(sys)
        for m, blk in enumerate(blocks):
            self._close(mg.dE_blocks[m], dE[m], "dE")
            self._close(mg.dlogw_blocks[m], dlogw[m], "dlogw")
            if len(sys.c):
                self._close(mg.dKfu_blocks[m], dKfu[m], "dKfu")
        if len(sys.c):
            self._close(mg.dKuu, dKuu, "dKuu")
        means, variances = engine.posterior_moments(sys)
        moving = [np.arange(blk.start + f.n_F, blk.stop) for blk, f in zip(blocks, sys.fixed)]
        self._close(np.concatenate(means), mean[np.concatenate(moving)], "mean")
        self._close(np.concatenate(variances), var[np.concatenate(moving)], "var")

    @pytest.mark.parametrize("name", [s for s in SELECTIONS if s != "scmgp"])
    def test_pi_step_equals_one_from_the_dense_moments(self, name):
        ds, cfg, hp, state = _selection(name)
        sys = build_cvb_system(ds, cfg, hp, state)
        blocks, _, mean, var = _dense_reference(sys)[:4]
        mu, v = np.zeros((cfg.M, ds.n)), np.zeros((cfg.M, ds.n))
        for m, (r, blk) in enumerate(zip(sys.rows, blocks)):
            mu[m, r], v[m, r] = mean[blk], var[blk]
        ref = assignment_rows(mu, v, ds.y, hp.noise.sigma, state.pi_hat.copy(), ds.labeled_mask,
                              ds.log_prior, cfg)
        got = cvb_pi_step(ds, cfg, hp, VariationalState(pi_hat=state.pi_hat.copy()), sys)[1]
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-10)
        # a row one output holds alone steps to its one-hot prior exactly
        alone = np.concatenate([r[: f.n_F] for r, f in zip(sys.rows, sys.fixed)])
        np.testing.assert_array_equal(got[alone], ref[alone])
        assert (len(alone) > 0) == (name != "omgp")


def test_pi_path_factors_only_the_moving_rows(monkeypatch):
    # at the paper cell's start (N = 144, Q = 30) each output holds the 115
    # unlabeled rows and 5 or 24 labeled ones; two pi steps with their
    # noise-half rebuilds factor the two 115-row blocks and A, nothing else
    sc = experiments.SyntheticConfig(M=2, per_source_count=120, gamma=0.2, l_frac=0.2, seed=1)
    ds, _ = experiments.generate_synthetic(sc)
    cfg = ModelConfig(M=2, Q=30, alpha0=0.3)
    hp = default_hyperparams(ds, cfg)
    state = init_state(ds, cfg, 1)
    sys = build_cvb_system(ds, cfg, hp, state)
    assert [len(r) for r in sys.rows] == [120, 139]
    assert [f.n_F for f in sys.fixed] == [5, 24]
    sizes = []
    cho_factor_ = engine.cho_factor

    def spy_factor(a, *args, **kwargs):
        sizes.append(a.shape[0])
        return cho_factor_(a, *args, **kwargs)

    monkeypatch.setattr(engine, "cho_factor", spy_factor)
    for _ in range(2):
        _, state.pi_hat = cvb_pi_step(ds, cfg, hp, state, sys)
        sys = build_cvb_system(ds, cfg, hp, state, kernel=sys)
    assert sizes == [115, 115, cfg.Q] * 2
