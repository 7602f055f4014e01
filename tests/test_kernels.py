"""Kernel closed forms against quadrature oracles, and assembly invariants."""

import numpy as np
import pytest
from scipy import integrate
from scipy.linalg import cho_factor

from wsmgp import _backend, engine, kernels
from wsmgp.checks import _quad_ff, _quad_fu
from wsmgp.kernels import (
    HyperParams,
    IllConditionedKernelError,
    InducingInputs,
    LatentKernelParams,
    NoiseParams,
    OutputKernelParams,
    chol_jitter,
    eval_cross_ff,
    eval_cross_fu,
    eval_kuu,
    eval_smoothing,
)

LAT = LatentKernelParams(L=np.array([100.0]))
OUT1 = OutputKernelParams(S=4.0, Lm=np.array([120.0]))
OUT2 = OutputKernelParams(S=5.0, Lm=np.array([200.0]))


def random_hp(rng, M=2, Q=4, d=1):
    return HyperParams(
        latent=LatentKernelParams(L=rng.uniform(40, 200, d)),
        outputs=[
            OutputKernelParams(S=rng.uniform(0.5, 5) * rng.choice([-1, 1]),
                               Lm=rng.uniform(40, 300, d))
            for _ in range(M)
        ],
        noise=NoiseParams(sigma=rng.uniform(0.1, 0.5, M)),
        inducing=InducingInputs(W=rng.uniform(0, 1, (Q, d))),
    )


class TestPointwise:
    def test_kuu_zero_distance(self):
        w = np.array([0.3])
        assert eval_kuu(w, w, LAT) == 1.0

    def test_kuu_direct_value(self):
        assert eval_kuu([0.0], [0.1], LAT) == pytest.approx(np.exp(-0.5), rel=1e-12)

    def test_kuu_symmetric(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            w, w2 = rng.normal(size=2)
            assert eval_kuu([w], [w2], LAT) == eval_kuu([w2], [w], LAT)

    def test_kuu_range(self):
        rng = np.random.default_rng(1)
        vals = [eval_kuu([a], [b], LAT) for a, b in rng.normal(size=(50, 2))]
        assert all(0.0 < v <= 1.0 for v in vals)

    def test_smoothing_zero_amplitude(self):
        out = OutputKernelParams(S=0.0, Lm=np.array([120.0]))
        assert eval_smoothing([0.37], out) == 0.0

    def test_smoothing_direct_value(self):
        expect = 4.0 * np.sqrt(120.0) / np.sqrt(2 * np.pi)
        assert eval_smoothing([0.0], OUT1) == pytest.approx(expect, rel=1e-12)

    def test_smoothing_even(self):
        rng = np.random.default_rng(2)
        for tau in rng.normal(size=10):
            assert eval_smoothing([tau], OUT1) == eval_smoothing([-tau], OUT1)

    def test_smoothing_sign_follows_amplitude(self):
        neg = OutputKernelParams(S=-2.0, Lm=np.array([80.0]))
        assert eval_smoothing([0.1], neg) < 0


class TestCrossCovariances:
    def test_fu_matches_quadrature(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            x, w = rng.uniform(-0.2, 0.2, 2)
            closed = eval_cross_fu([x], [w], OUT1, LAT)
            oracle = _quad_fu(x, w, OUT1, LAT)
            assert closed == pytest.approx(oracle, rel=1e-6)

    def test_fu_linear_in_amplitude(self):
        out2 = OutputKernelParams(S=8.0, Lm=OUT1.Lm)
        a = eval_cross_fu([0.1], [0.0], OUT1, LAT)
        b = eval_cross_fu([0.1], [0.0], out2, LAT)
        assert b == pytest.approx(2 * a, rel=1e-12)

    def test_fu_even_in_separation(self):
        a = eval_cross_fu([0.13], [0.0], OUT1, LAT)
        b = eval_cross_fu([-0.13], [0.0], OUT1, LAT)
        assert a == pytest.approx(b, rel=1e-12)

    def test_ff_matches_nested_quadrature(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            x, x2 = rng.uniform(-0.15, 0.15, 2)
            closed = eval_cross_ff([x], [x2], OUT1, OUT2, LAT)
            oracle = _quad_ff(x, x2, OUT1, OUT2, LAT)
            assert closed == pytest.approx(oracle, rel=1e-6)

    def test_ff_zero_amplitude(self):
        out0 = OutputKernelParams(S=0.0, Lm=np.array([70.0]))
        assert eval_cross_ff([0.3], [0.1], out0, OUT2, LAT) == 0.0

    def test_ff_symmetric_same_params(self):
        a = eval_cross_ff([0.2], [-0.1], OUT1, OUT1, LAT)
        b = eval_cross_ff([-0.1], [0.2], OUT1, OUT1, LAT)
        assert a == pytest.approx(b, rel=1e-12)

    def test_ff_prior_variance_nonnegative(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            hp = random_hp(rng)
            x = rng.normal()
            for out in hp.outputs:
                assert eval_cross_ff([x], [x], out, out, hp.latent) >= 0.0


def build_system(X, hp):
    """The engine's system with every row of X under every output."""
    n = X.shape[0]
    rows = [np.arange(n)] * hp.n_outputs
    d_blocks = [np.full(n, s**2) for s in hp.noise.sigma]
    return engine.build_system(X, np.zeros(n), hp, rows, d_blocks)


class TestAssembly:
    def test_interpolation_case_zero_residual(self):
        # Q = N with W = X: the Nystrom residual of u itself vanishes; for
        # a convolved output it only nearly vanishes, so check the exact
        # identity on the latent kernel instead plus near-PSD of B.
        rng = np.random.default_rng(6)
        X = np.sort(rng.uniform(0, 1, 12))[:, None]
        hp = HyperParams(
            latent=LAT,
            outputs=[OUT1],
            noise=NoiseParams(sigma=np.array([0.25])),
            inducing=InducingInputs(W=X.copy()),
        )
        sys = build_system(X, hp)
        B = sys.B_blocks[0]
        # exact interpolation: residual of the *latent* kernel at W=X
        Kuu = kernels.kuu_matrix(X, LAT)
        resid = Kuu - Kuu @ np.linalg.solve(sys.Kuu, Kuu)
        assert np.max(np.abs(resid)) < 1e-4
        assert np.min(np.linalg.eigvalsh(B)) >= -1e-8 * np.trace(B) / len(B)

    def test_block_shapes(self):
        rng = np.random.default_rng(7)
        X = rng.uniform(0, 1, (10, 1))
        hp = random_hp(rng, M=2, Q=4)
        sys = build_system(X, hp)
        assert sys.Kuu.shape == (4, 4)
        assert np.vstack(sys.Kfu_blocks).shape == (20, 4)
        assert len(sys.B_blocks) == 2 and sys.B_blocks[0].shape == (10, 10)

    def test_assembled_covariance_psd(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            X = rng.uniform(0, 1, (10, 1))
            hp = random_hp(rng, M=2, Q=4)
            sys = build_system(X, hp)
            Kfu = np.vstack(sys.Kfu_blocks)
            nystrom = Kfu @ np.linalg.solve(sys.Kuu, Kfu.T)
            full = nystrom.copy()
            for m in range(2):
                full[m * 10 : (m + 1) * 10, m * 10 : (m + 1) * 10] += sys.B_blocks[m]
            full = 0.5 * (full + full.T)
            eigs = np.linalg.eigvalsh(full)
            assert eigs.min() >= -1e-8 * np.trace(full) / full.shape[0]

    def test_chol_jitter_error_names_condition(self):
        K = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
        with pytest.raises(IllConditionedKernelError, match="condition estimate"):
            chol_jitter(K)


def _needs_escalations(k, n=6, seed=0):
    """A symmetric K with mean(diag) = 1 on which the jitter escalates k times.

    Its smallest eigenvalue is -3e-6 * 10**(k - 1), so the first jitter
    that makes it positive definite is 1e-6 * 10**k; k = 0 gives a
    positive definite K.
    """
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    lowest = 0.1 if k == 0 else -3e-6 * 10.0 ** (k - 1)
    eigs = np.linspace(2.0, 0.5, n - 1)
    eigs = np.append(eigs * (n - lowest) / eigs.sum(), lowest)
    K = (Q * eigs) @ Q.T
    return 0.5 * (K + K.T)


def _reference_chol_jitter(K):
    """The escalation policy written with a fresh K + jitter * I per attempt."""
    base = float(np.mean(np.diag(K)))
    jitter = 1e-6 * base
    while jitter <= 1e-2 * base:
        try:
            return cho_factor(K + jitter * np.eye(K.shape[0]), lower=True), jitter
        except np.linalg.LinAlgError:
            jitter *= 10.0
    raise AssertionError("reference policy gave up")


class TestCholJitter:
    @pytest.mark.parametrize("escalations", [0, 1, 2])
    def test_factor_and_jitter_equal_the_reference(self, escalations):
        K = _needs_escalations(escalations)
        (c, lower), jitter = chol_jitter(K)
        (c_ref, lower_ref), jitter_ref = _reference_chol_jitter(K)
        base = float(np.mean(np.diag(K)))
        assert jitter == jitter_ref
        assert jitter == pytest.approx(1e-6 * 10.0**escalations * base, rel=1e-12)
        assert lower and lower_ref
        # bit for bit, the upper triangle LAPACK leaves untouched included
        np.testing.assert_array_equal(c, c_ref)
        L = np.tril(c)
        np.testing.assert_allclose(L @ L.T, K + jitter * np.eye(len(K)), atol=1e-12)

    def test_kuu_factor_equals_the_reference(self):
        W = np.linspace(-1.0, 1.0, 30)[:, None]
        K = kernels.kuu_matrix(W, LAT)
        (c, _), jitter = chol_jitter(K)
        (c_ref, _), jitter_ref = _reference_chol_jitter(K)
        assert jitter == jitter_ref
        np.testing.assert_array_equal(c, c_ref)

    @pytest.mark.parametrize("escalations", [0, 2])
    def test_input_unchanged(self, escalations):
        K = _needs_escalations(escalations)
        K_before = K.copy()
        (c, _), _ = chol_jitter(K)
        np.testing.assert_array_equal(K, K_before)
        assert not np.shares_memory(c, K)

    def test_input_unchanged_when_every_attempt_fails(self):
        K = np.array([[1.0, 2.0], [2.0, 1.0]])
        K_before = K.copy()
        with pytest.raises(IllConditionedKernelError):
            chol_jitter(K)
        np.testing.assert_array_equal(K, K_before)


class TestBackends:
    def test_gauss_gram_agrees(self):
        rng = np.random.default_rng(9)
        X1 = rng.normal(size=(7, 2))
        X2 = rng.normal(size=(5, 2))
        w = rng.uniform(0.5, 3.0, 2)
        a = _backend.gauss_gram_numpy(X1, X2, w, 1.7)
        if _backend.HAS_NUMBA:
            b = _backend.gauss_gram_numba(X1, X2, w, 1.7)
            np.testing.assert_allclose(a, b, rtol=1e-13)

    def test_sqdiff_agrees(self):
        rng = np.random.default_rng(10)
        X1 = rng.normal(size=(4, 3))
        X2 = rng.normal(size=(6, 3))
        a = _backend.sqdiff_dims_numpy(X1, X2)
        if _backend.HAS_NUMBA:
            b = _backend.sqdiff_dims_numba(X1, X2)
            np.testing.assert_allclose(a, b, rtol=1e-13)

    def test_enumerate_mixture_agrees(self):
        rng = np.random.default_rng(11)
        N, M = 5, 2
        base = rng.normal(size=(N, N))
        K0 = base @ base.T + N * np.eye(N)
        Kpair = np.empty((M, M, N, N))
        for a in range(M):
            for b in range(M):
                Kpair[a, b] = K0 * (0.5 if a != b else 1.0)
        sig2 = np.array([0.3, 0.5])
        y = rng.normal(size=N)
        logw = np.log(rng.dirichlet(np.ones(M), size=N))
        a = _backend.enumerate_mixture_numpy(Kpair, sig2, y, logw)
        if _backend.HAS_NUMBA:
            b = _backend.enumerate_mixture_numba(Kpair, sig2, y, logw)
            np.testing.assert_allclose(a, b, rtol=1e-10)


class TestDerivativeBuilders:
    """Spot-check the kernel derivative matrices by finite differences."""

    def test_kfu_grads(self):
        rng = np.random.default_rng(12)
        X = rng.uniform(0, 1, (5, 1))
        W = rng.uniform(0, 1, (3, 1))
        out = OutputKernelParams(S=2.0, Lm=np.array([80.0]))
        K, dS, dLm, dL = kernels.kfu_matrix_grads(X, W, out, LAT)
        h = 1e-6
        up = kernels.kfu_matrix(X, W, OutputKernelParams(S=2.0 + h, Lm=out.Lm), LAT)
        np.testing.assert_allclose((up - K) / h, dS, rtol=1e-4, atol=1e-8)
        up = kernels.kfu_matrix(X, W, OutputKernelParams(S=2.0, Lm=out.Lm + h), LAT)
        np.testing.assert_allclose((up - K) / h, dLm[0], rtol=1e-3, atol=1e-8)
        up = kernels.kfu_matrix(X, W, out, LatentKernelParams(L=LAT.L + h))
        np.testing.assert_allclose((up - K) / h, dL[0], rtol=1e-3, atol=1e-8)

    def test_kff_grads(self):
        rng = np.random.default_rng(13)
        X = rng.uniform(0, 1, (5, 1))
        out = OutputKernelParams(S=-1.5, Lm=np.array([60.0]))
        K, dS, dLm, dL = kernels.kff_matrix_grads(X, out, LAT)
        h = 1e-6
        up = kernels.kff_matrix(X, X, OutputKernelParams(S=-1.5 + h, Lm=out.Lm),
                                OutputKernelParams(S=-1.5 + h, Lm=out.Lm), LAT)
        np.testing.assert_allclose((up - K) / h, dS, rtol=1e-4, atol=1e-8)
        out_h = OutputKernelParams(S=-1.5, Lm=out.Lm + h)
        up = kernels.kff_matrix(X, X, out_h, out_h, LAT)
        np.testing.assert_allclose((up - K) / h, dLm[0], rtol=1e-3, atol=1e-8)
