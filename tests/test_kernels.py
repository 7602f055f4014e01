"""Kernel closed forms against quadrature oracles, and assembly invariants."""

import numpy as np
import pytest
from scipy import integrate
from scipy.linalg import cho_factor, cho_solve

from wsmgp import engine, kernels
from wsmgp.checks import _quad_ff, _quad_fu
from wsmgp.kernels import (
    HyperParams,
    IllConditionedKernelError,
    InducingInputs,
    LatentKernelParams,
    NoiseParams,
    OutputKernelParams,
    SEKernelParams,
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
    w_blocks = [np.full(n, s**-2) for s in hp.noise.sigma]
    return engine.build_system(X, np.zeros(n), hp, rows, w_blocks)


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
        # exact interpolation: residual of the *latent* kernel at W=X, in
        # whitened form Kuu - Psi Psi' with Psi = Kuu L^-T
        Kuu = kernels.kuu_matrix(X, LAT)
        psi = kernels.whiten(sys.cho_Kuu, Kuu)
        resid = Kuu - psi @ psi.T
        assert np.max(np.abs(resid)) < 1e-4
        assert np.min(np.linalg.eigvalsh(B)) >= -1e-8 * np.trace(B) / len(B)

    def test_block_shapes(self):
        rng = np.random.default_rng(7)
        X = rng.uniform(0, 1, (10, 1))
        hp = random_hp(rng, M=2, Q=4)
        sys = build_system(X, hp)
        assert sys.cho_Kuu[0].shape == (4, 4)
        assert np.vstack([b.K for b in sys.fu_blocks]).shape == (20, 4)
        assert np.vstack(sys.Psi).shape == (20, 4)
        assert len(sys.B_blocks) == 2 and sys.B_blocks[0].shape == (10, 10)

    def test_assembled_covariance_psd(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            X = rng.uniform(0, 1, (10, 1))
            hp = random_hp(rng, M=2, Q=4)
            sys = build_system(X, hp)
            psi = np.vstack(sys.Psi)
            nystrom = psi @ psi.T
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


class TestWhiten:
    """kernels.whiten's Psi = K L^-T and the chain of a gradient through it."""

    @staticmethod
    def _instance(seed, n=7, q=5):
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(q, q))
        kuu = A @ A.T / q + np.eye(q)
        return rng, kuu, rng.normal(size=(n, q))

    @pytest.mark.parametrize("n", [0, 1, 2, 7])
    def test_psi_solves_psi_l_transpose_equals_k(self, n):
        _, kuu, K = self._instance(n, n=n)
        cho = chol_jitter(kuu)[0]
        psi = kernels.whiten(cho, K)
        L = np.tril(cho[0])
        assert psi.shape == K.shape
        np.testing.assert_allclose(psi @ L.T, K, rtol=0, atol=1e-13)
        # each row on its own: the rows of a larger block are the rows' own Psi
        for i in range(n):
            np.testing.assert_array_equal(kernels.whiten(cho, K[i : i + 1]), psi[i : i + 1])

    def test_pullback_matches_finite_differences(self):
        # f(K, Kuu) = sum(G o Psi) + sum(H o Psi' Psi) with Psi = K chol(Kuu)^-T;
        # Psi_bar = G + Psi (2 H) for symmetric H, each term chained on its right factor
        rng, kuu, K = self._instance(3)
        q = kuu.shape[0]
        G = rng.normal(size=K.shape)
        H = rng.normal(size=(q, q))
        H = H + H.T

        def f(K, kuu):
            psi = K @ np.linalg.inv(np.linalg.cholesky(kuu)).T
            return np.sum(G * psi) + np.sum(H * (psi.T @ psi))

        cho = kernels.cho_factor(kuu)
        psi = kernels.whiten(cho, K)
        psi_bar = G + psi @ (2 * H)
        dK = kernels.whiten_grad_k(cho, G) + psi @ kernels.whiten_grad_k(cho, 2 * H)
        dKuu = kernels.whiten_grad_kuu(cho, -psi_bar.T @ psi)
        np.testing.assert_array_equal(dKuu, dKuu.T)
        h = 1e-6
        for i, j in [(0, 0), (3, 2), (6, 4)]:
            E = np.zeros_like(K)
            E[i, j] = h
            fd = (f(K + E, kuu) - f(K - E, kuu)) / (2 * h)
            assert dK[i, j] == pytest.approx(fd, rel=1e-7, abs=1e-9)
        for i, j in [(0, 0), (2, 1), (4, 4)]:
            E = np.zeros_like(kuu)
            E[i, j] = E[j, i] = h
            fd = (f(K, kuu + E) - f(K, kuu - E)) / (2 * h)
            # a symmetric step moves both (i, j) and (j, i)
            assert (2 - (i == j)) * dKuu[i, j] == pytest.approx(fd, rel=1e-7, abs=1e-9)


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


class TestLapackHelpers:
    """kernels.cho_factor / cho_solve: LAPACK's dpotrf / dpotrs with scipy's results and guards."""

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("n", [1, 2, 30, 144])
    def test_equal_scipy_bit_for_bit(self, n, order):
        K = np.asarray(_needs_escalations(0, n=max(n, 2), seed=n)[:n, :n], order=order)
        rng = np.random.default_rng(n)
        ref = cho_factor(K, lower=True)
        got = kernels.cho_factor(K)
        assert got[1] is True
        # the upper triangle keeps K's entries, as cho_factor's does
        np.testing.assert_array_equal(got[0], ref[0])
        for b in (rng.normal(size=n), rng.normal(size=(n, 3)), rng.normal(size=(3, n)).T):
            np.testing.assert_array_equal(kernels.cho_solve(got, b), cho_solve(ref, b))

    def test_factors_a_fortran_array_in_place(self):
        K = np.asfortranarray(_needs_escalations(0))
        ref = cho_factor(K, lower=True)[0]
        c, _ = kernels.cho_factor(K, overwrite_a=True)
        assert np.shares_memory(c, K)
        np.testing.assert_array_equal(c, ref)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_raises_value_error(self, bad):
        K = _needs_escalations(0)
        cho = kernels.cho_factor(K)
        K_bad = K.copy()
        K_bad[3, 1] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            kernels.cho_factor(K_bad)
        with pytest.raises(ValueError, match="infs or NaNs"):
            kernels.cho_solve(cho, np.r_[np.ones(5), bad])

    @pytest.mark.parametrize("escalations", [1, 2])
    def test_not_positive_definite_raises_scipys_linalg_error(self, escalations):
        K = _needs_escalations(escalations)
        with pytest.raises(np.linalg.LinAlgError) as ref:
            cho_factor(K, lower=True)
        with pytest.raises(np.linalg.LinAlgError) as got:
            kernels.cho_factor(K)
        assert str(got.value) == str(ref.value)
        assert "not positive definite" in str(got.value)


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


def _central(build, p0, dim, rel=1e-5):
    """Central difference of the matrix build(p) w.r.t. entry `dim` of the vector p0."""
    step = rel * abs(p0[dim])
    up, dn = p0.copy(), p0.copy()
    up[dim] += step
    dn[dim] -= step
    return (build(up) - build(dn)) / (2.0 * step)


def _assert_close(fd, analytic):
    np.testing.assert_allclose(analytic, fd, rtol=1e-6, atol=1e-8 * np.max(np.abs(analytic)))


class TestDerivativeCoefficients:
    """Every coefficient, per input dimension, against central differences at d = 2."""

    rng = np.random.default_rng(14)
    X = rng.uniform(0, 1, (6, 2))
    W = rng.uniform(0, 1, (4, 2))
    lat = LatentKernelParams(L=np.array([90.0, 140.0]))
    out = OutputKernelParams(S=-1.7, Lm=np.array([70.0, 210.0]))

    def test_kuu(self):
        _, dL = kernels.kuu_matrix_grads(self.W, self.lat)
        for k in range(2):
            fd = _central(lambda L: kernels.kuu_matrix(self.W, LatentKernelParams(L=L)),
                          self.lat.L, k)
            _assert_close(fd, dL[k])

    def test_kfu(self):
        X, W, out, lat = self.X, self.W, self.out, self.lat
        _, dS, dLm, dL = kernels.kfu_matrix_grads(X, W, out, lat)
        fd = _central(lambda S: kernels.kfu_matrix(X, W, OutputKernelParams(S=S[0], Lm=out.Lm), lat),
                      np.array([out.S]), 0)
        _assert_close(fd, dS)
        for k in range(2):
            fd = _central(lambda Lm: kernels.kfu_matrix(X, W, OutputKernelParams(S=out.S, Lm=Lm), lat),
                          out.Lm, k)
            _assert_close(fd, dLm[k])
            fd = _central(lambda L: kernels.kfu_matrix(X, W, out, LatentKernelParams(L=L)),
                          lat.L, k)
            _assert_close(fd, dL[k])

    def test_kff(self):
        X, out, lat = self.X, self.out, self.lat

        def same(o, l=lat):
            return kernels.kff_matrix(X, X, o, o, l)

        _, dS, dLm, dL = kernels.kff_matrix_grads(X, out, lat)
        fd = _central(lambda S: same(OutputKernelParams(S=S[0], Lm=out.Lm)), np.array([out.S]), 0)
        _assert_close(fd, dS)
        for k in range(2):
            fd = _central(lambda Lm: same(OutputKernelParams(S=out.S, Lm=Lm)), out.Lm, k)
            _assert_close(fd, dLm[k])
            fd = _central(lambda L: same(out, LatentKernelParams(L=L)), lat.L, k)
            _assert_close(fd, dL[k])

    def test_se(self):
        p = SEKernelParams(amp=1.3, prec=np.array([30.0, 80.0]))
        block = kernels.se_block(kernels.sqdiff(self.X, self.W), p)
        c_amp, d_prec = kernels.se_coeffs([p])
        dAmp, dPrec = c_amp[0] * block.unit, d_prec.expand(block)
        fd = _central(lambda a: kernels.se_matrix(self.X, self.W, SEKernelParams(amp=a[0], prec=p.prec)),
                      np.array([p.amp]), 0)
        _assert_close(fd, dAmp)
        for k in range(2):
            fd = _central(lambda q: kernels.se_matrix(self.X, self.W, SEKernelParams(amp=p.amp, prec=q)),
                          p.prec, k)
            _assert_close(fd, dPrec[k])

    def test_coefficients_at_zero_amplitude(self):
        # Kfu is linear in S, Kff quadratic: at S = 0 only dKfu/dS survives
        out0 = OutputKernelParams(S=0.0, Lm=self.out.Lm)
        c_fu, c_ff = kernels.kfu_coeffs([out0], self.lat), kernels.kff_coeffs([out0], self.lat)
        assert c_fu[0][0] == kernels._fu_scale_weight(out0.Lm, self.lat.L)[0] > 0.0
        assert c_ff[0][0] == 0.0
        for c in c_fu[1:] + c_ff[1:]:
            assert np.all(c.c0 == 0.0) and np.all(c.c2 == 0.0)

    def test_contraction_equals_the_summed_tensors(self):
        rng = np.random.default_rng(15)
        block = kernels.kfu_block(kernels.sqdiff(self.X, self.W), self.out, self.lat)
        G = rng.normal(size=block.K.shape)
        _, c_Lm, _ = kernels.kfu_coeffs([self.out], self.lat)
        a, b = kernels.contract(G, block)
        expect = np.einsum("nq,dnq->d", G, c_Lm.expand(block))
        np.testing.assert_allclose(c_Lm.contract(a, b)[0], expect, rtol=1e-13)
        assert a == pytest.approx(np.sum(G * block.unit), rel=1e-14)

    def test_kff_grads_given_g_are_the_contracted_tensors(self):
        rng = np.random.default_rng(16)
        G = rng.normal(size=(6, 6))
        K, dS, dLm, dL = kernels.kff_matrix_grads(self.X, self.out, self.lat)
        block = kernels.kff_block(kernels.sqdiff(self.X, self.X), self.out, self.lat)
        for got in (kernels.kff_matrix_grads(self.X, self.out, self.lat, G=G),
                    kernels.kff_matrix_grads(None, self.out, self.lat, G=G, block=block)):
            assert np.array_equal(got[0], K)
            assert got[1] == pytest.approx(np.sum(G * dS), rel=1e-13)
            np.testing.assert_allclose(got[2], np.einsum("ij,dij->d", G, dLm), rtol=1e-13)
            np.testing.assert_allclose(got[3], np.einsum("ij,dij->d", G, dL), rtol=1e-13)


class TestBlocks:
    """The blocks the engine builds equal the closed forms, and share their t2."""

    def test_blocks_match_the_pointwise_forms(self):
        rng = np.random.default_rng(16)
        hp = random_hp(rng, d=2)
        X = rng.uniform(0, 1, (5, 2))
        W = hp.inducing.W
        out, lat = hp.outputs[0], hp.latent
        fu = kernels.kfu_block(kernels.sqdiff(X, W), out, lat)
        ff = kernels.kff_block(kernels.sqdiff(X, X), out, lat)
        uu = kernels.kuu_block(kernels.sqdiff(W, W), lat)
        for i in range(5):
            for q in range(W.shape[0]):
                assert fu.K[i, q] == pytest.approx(eval_cross_fu(X[i], W[q], out, lat), rel=1e-13)
            for j in range(5):
                assert ff.K[i, j] == pytest.approx(eval_cross_ff(X[i], X[j], out, out, lat), rel=1e-13)
        for q in range(W.shape[0]):
            for p in range(W.shape[0]):
                assert uu.K[q, p] == pytest.approx(eval_kuu(W[q], W[p], lat), rel=1e-13)
        scale, _ = kernels._fu_scale_weight(out.Lm, lat.L)
        np.testing.assert_array_equal(fu.K, (out.S * scale) * fu.unit)
        assert np.all(ff.unit <= 1.0) and np.all(np.diag(ff.unit) == 1.0)

    def test_sqdiff_rejects_other_column_counts(self):
        # (5, 1) against (3, 2) would broadcast into a (2, 5, 3) array
        with pytest.raises(ValueError, match="1 input columns against 2"):
            kernels.sqdiff(np.zeros((5, 1)), np.zeros((3, 2)))

    def test_stacked_selection_computes_t2_once(self):
        rng = np.random.default_rng(17)
        hp = random_hp(rng, M=3, d=2)
        X = rng.uniform(0, 1, (7, 2))
        rows = [np.arange(7)] * 3
        sys = engine.build_system(X, rng.normal(size=7), hp, rows, [np.full(7, 0.1)] * 3)
        assert all(b.t2 is sys.ff_blocks[0].t2 for b in sys.ff_blocks)
        assert all(b.t2 is sys.fu_blocks[0].t2 for b in sys.fu_blocks)
        for m, out in enumerate(hp.outputs):
            # Kff_m itself is not kept: B_m is formed from it in its array
            Kfu = kernels.kfu_matrix(X, hp.inducing.W, out, hp.latent)
            psi = kernels.whiten(sys.cho_Kuu, Kfu)
            resid = kernels.kff_matrix(X, X, out, out, hp.latent) - engine._gemm(psi, psi.T)
            assert sys.ff_blocks[m].K is None
            np.testing.assert_array_equal(sys.Psi[m], psi)
            np.testing.assert_array_equal(sys.B_blocks[m], 0.5 * (resid + resid.T))
            np.testing.assert_array_equal(sys.fu_blocks[m].K, Kfu)
        np.testing.assert_array_equal(sys.kuu_block.K, kernels.kuu_matrix(hp.inducing.W, hp.latent))
