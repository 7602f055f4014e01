"""The collapsed bound, its V term, and the exact enumeration oracle."""

from dataclasses import fields, replace

import mpmath
import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve
from scipy.special import digamma, gammaln, logsumexp

from wsmgp import checks, engine, gradients, kernels
from wsmgp.bounds import (
    OracleTooLargeError,
    _sum_last,
    assignment_log_weights,
    build_cvb_system,
    cvb_pi_step,
    cvb_rows,
    cvb_selection,
    elbo_cvb,
    exact_marglik_oracle,
    gauss_term_cvb,
    vterm,
    vterm_rows,
)
from wsmgp.kernels import IndependentSEHyperParams, NoiseParams, SEKernelParams
from wsmgp.model import (
    Dataset,
    ModelConfig,
    VariationalState,
    init_state,
    make_dataset,
)
from wsmgp.predict import posterior_predict


def state_from_pi(pi):
    return VariationalState(pi_hat=np.asarray(pi, dtype=float))


def precision_weights(ds, cfg, hp, state, sigma):
    """(rows, weights) of the collapsed selection at noise sigma."""
    return cvb_selection(ds, cfg, replace(hp, noise=NoiseParams(sigma=sigma)), state)


def dense_weights(ds, cfg, hp, state, sigma):
    """The selection's weights as an (N, M) array, 0 outside each output's rows."""
    rows, w = precision_weights(ds, cfg, hp, state, sigma)
    out = np.zeros((ds.n, cfg.M))
    for m, r in enumerate(rows):
        out[r, m] = w[m]
    return out


class TestComputeD:
    """The noise diagonal sigma_m^2 / pi_hat[n, m] of the collapsed selection, as its
    precision weights pi_hat[n, m] / sigma_m^2."""

    def test_direct_values(self):
        ds, cfg, hp, state = checks.random_instance(0, n=3, M=2, labeled_frac=0.0)
        state.pi_hat = np.array([[1.0, 0.5], [0.5, 0.5], [0.25, 0.75]])
        rows, w = precision_weights(ds, cfg, hp, state, np.array([0.25, 0.25]))
        assert all(np.array_equal(r, np.arange(3)) for r in rows)
        assert w[0][0] == pytest.approx(1.0 / 0.0625)
        assert w[1][0] == pytest.approx(0.5 / 0.0625)

    def test_zero_entry_leaves_the_outputs_system(self):
        # a labeled row whose one-hot prior rules output 2 out is not among
        # output 2's rows; an unlabeled row at pi = 0 stays, with weight 0
        ds = make_dataset(np.zeros((3, 1)), np.zeros(3), labels=[1, 0, 0], n_outputs=2)
        cfg = ModelConfig(M=2, Q=2)
        _, _, hp, _ = checks.random_instance(0, n=3, M=2)
        state = state_from_pi([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
        rows, w = precision_weights(ds, cfg, hp, state, np.array([0.25, 0.5]))
        np.testing.assert_array_equal(rows[0], [0, 1, 2])
        np.testing.assert_array_equal(rows[1], [1, 2])
        np.testing.assert_array_equal(w[0], [16.0, 0.0, 8.0])
        np.testing.assert_array_equal(w[1], [4.0, 2.0])
        # a fit's steps keep the rows: the selection does not read pi
        state.pi_hat[1] = [0.5, 0.5]
        assert all(np.array_equal(a, b) for a, b in
                   zip(precision_weights(ds, cfg, hp, state, np.array([0.25, 0.5]))[0], rows))

    def test_argmax_invariant_under_common_noise_scale(self):
        rng = np.random.default_rng(1)
        ds, cfg, hp, state = checks.random_instance(1, n=6, M=3, Q=3)
        sig = rng.uniform(0.1, 0.4, 3)
        a = dense_weights(ds, cfg, hp, state, sig)
        b = dense_weights(ds, cfg, hp, state, 7.3 * sig)
        assert np.sum(a == 0.0) > 0
        np.testing.assert_array_equal(np.argsort(a, axis=1, kind="stable"),
                                      np.argsort(b, axis=1, kind="stable"))


class TestVTerm:
    def test_labeled_kl_zero_when_matching_prior(self):
        ds = make_dataset(np.zeros((1, 1)), np.zeros(1), labels=[1],
                          prior_pi=np.array([[0.7, 0.3]]), n_outputs=2)
        cfg = ModelConfig(M=2, Q=2)
        st = state_from_pi([[0.7, 0.3]])
        noise = NoiseParams(sigma=np.array([0.25, 0.25]))
        rows = vterm_rows(st, ds, cfg, noise)
        noise_term = -0.5 * np.sum(st.pi_hat * np.log(2 * np.pi * 0.0625))
        assert rows[0] == pytest.approx(noise_term, abs=1e-12)

    def test_labeled_kl_zero_at_a_one_hot_prior(self):
        # 0 log 0 = 0: the entry the prior rules out adds nothing
        ds = make_dataset(np.zeros((1, 1)), np.zeros(1), labels=[2], n_outputs=2)
        cfg = ModelConfig(M=2, Q=2)
        noise = NoiseParams(sigma=np.array([0.25, 0.5]))
        rows = vterm_rows(state_from_pi([[0.0, 1.0]]), ds, cfg, noise)
        assert rows[0] == -0.5 * np.log(2 * np.pi * 0.25)

    def test_unlabeled_kl_value(self):
        # M=2, pi=(.5,.5), alpha0=1: contribution 2*0.5*log 0.5 - log[B(1.5,1.5)/B(1,1)]
        ds = make_dataset(np.zeros((1, 1)), np.zeros(1), labels=[0], n_outputs=2)
        cfg = ModelConfig(M=2, Q=2, alpha0=1.0)
        st = state_from_pi([[0.5, 0.5]])
        noise = NoiseParams(sigma=np.array([0.25, 0.25]))
        expect_kl = 2 * 0.5 * np.log(0.5) - (
            (2 * gammaln(1.5) - gammaln(3.0)) - (2 * gammaln(1.0) - gammaln(2.0))
        )
        assert expect_kl == pytest.approx(0.2417, abs=2e-4)
        noise_term = -0.5 * np.log(2 * np.pi * 0.0625)
        assert vterm(st, ds, cfg, noise) == pytest.approx(noise_term - expect_kl, rel=1e-12)

    def test_third_term_vanishes_at_assigned_one(self):
        # the paper's third term of V, 1/2 [(1 - pi) log 2 pi sigma^2 - log pi],
        # vanishes at pi = 1; plus the Gaussian's noise normaliser
        # -1/2 log(2 pi sigma^2 / pi) it is the noise term V carries here
        log2pis = np.log(2 * np.pi * 0.0625)
        for pi in (1.0, 0.3, 1e-9):
            third = 0.5 * ((1 - pi) * log2pis - np.log(pi))
            if pi == 1.0:
                assert third == 0.0
            normaliser = -0.5 * (log2pis - np.log(pi))
            assert third + normaliser == pytest.approx(-0.5 * pi * log2pis, rel=1e-12)

    def test_v_upper_bounded_by_third_term(self):
        # V's noise term less two KL divergences
        noise = NoiseParams(sigma=np.array([0.3, 0.2]))
        for seed in range(20):
            ds, cfg, hp, state = checks.random_instance(seed, n=7, M=2)
            pi = state.pi_hat
            noise_term = -0.5 * np.sum(pi * np.log(2 * np.pi * noise.sigma**2)[None, :])
            assert vterm(state, ds, cfg, noise) <= noise_term + 1e-12

    @pytest.mark.parametrize("alpha0", [1e-4, 0.3, 1e3, 1e6])
    def test_unlabeled_kl_matches_mpmath(self, alpha0):
        """The unlabeled KL against log-gammas summed at 50 digits, a row at a time.

        At alpha0 = 1e6 the log-gammas are near 1.3e7, and their
        difference in float64 is off by up to 3e-9 nats a row.  Between
        alpha0 = 1e3 and 1e4 scipy's poch itself differences log-gammas,
        4e-12 nats a row at 1e3, hence the tolerance.  A one-hot row's
        log[B(alpha0 + pi) / B(alpha0 * 1)] is -log M exactly, so its KL
        is log M.
        """
        M = 3
        pi = np.random.default_rng(4).dirichlet(np.full(M, 0.7), size=60)
        pi[:M] = np.eye(M)
        pi[M] = [0.5, 0.5, 0.0]
        # unlabeled rows with log(2 pi sigma^2) = 0, where V is minus the KL
        ds = make_dataset(np.zeros((len(pi), 1)), np.zeros(len(pi)), n_outputs=M)
        noise = NoiseParams(sigma=np.full(M, np.sqrt(0.5 / np.pi)))
        cfg = ModelConfig(M=M, Q=1, alpha0=alpha0)
        kl = -vterm_rows(VariationalState(pi_hat=pi), ds, cfg, noise)
        np.testing.assert_array_equal(kl[:M], np.log(M))
        with mpmath.workdps(50):
            a0 = mpmath.mpf(alpha0)

            def exact(row):
                ps = [mpmath.mpf(p) for p in row]
                log_ratio = (mpmath.fsum(mpmath.loggamma(a0 + p) for p in ps)
                             - mpmath.loggamma(M * a0 + mpmath.fsum(ps))
                             - M * mpmath.loggamma(a0) + mpmath.loggamma(M * a0))
                return mpmath.fsum(p * mpmath.log(p) for p in ps if p) - log_ratio

            ref = np.array([float(exact(row)) for row in pi])
        np.testing.assert_allclose(kl, ref, rtol=0, atol=1e-11)

    @pytest.mark.parametrize("M", range(1, 11))
    def test_row_sums_equal_numpy_sums(self, M):
        """V's column-loop row sums equal np.sum(axis=-1) bit for bit, on rows of every length."""
        rng = np.random.default_rng(M)
        x = rng.normal(size=(257, M)) * 10.0 ** rng.integers(-8, 9, size=(257, M))
        np.testing.assert_array_equal(_sum_last(x), np.sum(x, axis=-1))
        np.testing.assert_array_equal(_sum_last(x[5]), np.sum(x[5]))
        np.testing.assert_array_equal(_sum_last(x[:1]), np.sum(x[:1], axis=-1))


def unlabeled_kl(pi_row, alpha0):
    """The KL of V's unlabeled assignment block at one row, through vterm_rows.

    sum_m pi log pi - log[B(alpha0 + pi) / B(alpha0 * 1)], whose
    curvature in pi flips with alpha0 (small alpha0 rewards one-hot rows,
    large alpha0 uniform ones).  V is taken on a one-row unlabeled
    dataset with log(2 pi sigma^2) = 0, where V's noise term is 0.
    """
    pi = np.atleast_2d(np.asarray(pi_row, dtype=float))
    M = pi.shape[1]
    ds = make_dataset(np.zeros((1, 1)), np.zeros(1), n_outputs=M)
    noise = NoiseParams(sigma=np.full(M, np.sqrt(0.5 / np.pi)))
    cfg = ModelConfig(M=M, Q=1, alpha0=alpha0)
    return -vterm_rows(VariationalState(pi_hat=pi), ds, cfg, noise)[0]


class TestAcuteness:
    def test_large_alpha_prefers_uniform(self):
        assert unlabeled_kl([1.0, 0.0], 5.0) > unlabeled_kl([0.5, 0.5], 5.0)

    def test_small_alpha_prefers_onehot(self):
        assert unlabeled_kl([0.5, 0.5], 0.1) > unlabeled_kl([1.0, 0.0], 0.1)

    def test_value_at_alpha_one(self):
        assert unlabeled_kl([0.5, 0.5], 1.0) == pytest.approx(0.2417, abs=2e-4)

    def test_converges_to_categorical_kl(self):
        # at the uniform row the alpha0 -> inf limit is 0
        d1 = abs(unlabeled_kl([0.5, 0.5], 1e2))
        d2 = abs(unlabeled_kl([0.5, 0.5], 1e4))
        assert d2 < d1


class TestCvbSelection:
    """One row selection serves the bound, the SCMGP likelihood and prediction."""

    @pytest.mark.parametrize("kind", ["convolved", "independent"])
    def test_scmgp_reads_no_unlabeled_row(self, kind):
        # NaN in the unlabeled rows' inputs and outputs changes no bit of
        # the SCMGP value, its gradient or the stateless prediction
        ds, cfg, hp, _ = checks.random_instance(7, n=12, M=2, Q=4)
        if kind == "independent":
            outs = [SEKernelParams(amp=abs(o.S), prec=0.5 * o.Lm) for o in hp.outputs]
            hp = IndependentSEHyperParams(outputs=outs, noise=hp.noise)
        X, y = ds.X.copy(), ds.y.copy()
        X[~ds.labeled_mask] = np.nan
        y[~ds.labeled_mask] = np.nan
        ds_nan = Dataset(X=X, y=y, labels=ds.labels, prior_pi=ds.prior_pi)
        assert 0 < ds.n_labeled < ds.n
        x_star = np.linspace(-0.1, 1.1, 9)

        def outputs(d):
            value, bundle = gradients.scmgp_loglik_with_grad(d, cfg, hp)
            pred = posterior_predict(d, cfg, hp, None, x_star)
            grads = [g for g in vars(bundle).values() if g is not None]
            return [value, *grads, pred.mean, pred.var_diag]

        for got, ref in zip(outputs(ds_nan), outputs(ds)):
            assert np.all(np.isfinite(got))
            np.testing.assert_array_equal(got, ref)


class TestElboCvb:
    def test_single_output_reduces_to_sparse_likelihood(self):
        ds, cfg, hp, state = checks.random_instance(3, n=8, M=1, Q=4,
                                                    labeled_frac=1.0)
        prior = np.ones((ds.n, 1))
        ds = make_dataset(ds.X, ds.y, labels=np.ones(ds.n, dtype=int),
                          prior_pi=prior, n_outputs=1)
        state.pi_hat = np.ones((ds.n, 1))
        assert elbo_cvb(ds, cfg, hp, state) == pytest.approx(
            gauss_term_cvb(ds, cfg, hp, None), rel=1e-10
        )

    def test_bounded_by_oracle(self):
        margins = checks.bound_validity_margins(range(8))
        assert np.all(margins >= -1e-8)

    def test_gauss_term_one_hot_limit(self):
        # the Gaussian term plus V's noise term converges to the relabeled
        # fully-supervised likelihood, and equals it at exact one-hot rows,
        # where each row's other output has weight 0
        ds, cfg, hp, _ = checks.random_instance(9, n=9, M=2, Q=6, labeled_frac=0.4)
        ds = make_dataset(ds.X, ds.y, n_outputs=2)
        rng = np.random.default_rng(9)
        assign = rng.integers(1, 3, size=ds.n)
        relabeled = make_dataset(ds.X, ds.y, labels=assign, n_outputs=2)
        ref = gauss_term_cvb(relabeled, cfg, hp, None)
        prev = np.inf
        for eps in (1e-4, 1e-6, 1e-8, 0.0):
            pi = np.full((ds.n, 2), eps)
            pi[np.arange(ds.n), assign - 1] = 1 - eps
            st = state_from_pi(pi)
            noise_term = -0.5 * np.sum(st.pi_hat * np.log(2 * np.pi * hp.noise.sigma**2)[None, :])
            diff = abs(gauss_term_cvb(ds, cfg, hp, st) + noise_term - ref)
            assert diff < prev
            prev = diff
        assert prev < 1e-12 * abs(ref)


def dense_posterior(sys):
    """The stacked selection's Gaussian written out densely, independently of the engine.

    Returns (value, mean, var, dSigma, pos): the log density of the rows
    with w > 0 under K + W^-1 over them (K the prior covariance of the
    stacked f at every selected row), the posterior moments of f at
    every selected row given those rows, dlog N / dK restricted to
    them, and their mask.
    """
    sizes = [len(r) for r in sys.rows]
    start = np.cumsum([0] + sizes)
    K = np.zeros((start[-1], start[-1]))
    if sys.has_inducing:
        Kfu = np.vstack([b.K for b in sys.fu_blocks])
        K += Kfu @ cho_solve(sys.cho_Kuu, Kfu.T)
    for m, B_m in enumerate(sys.B_blocks):
        K[start[m] : start[m + 1], start[m] : start[m + 1]] += B_m
    w = np.concatenate(sys.s_blocks) ** 2
    y = np.concatenate(sys.y_blocks)
    pos = w > 0
    cho = cho_factor(K[np.ix_(pos, pos)] + np.diag(1.0 / w[pos]), lower=True)
    a = cho_solve(cho, y[pos])
    value = -0.5 * (np.sum(pos) * np.log(2 * np.pi) + 2 * np.sum(np.log(np.diag(cho[0])))
                    + y[pos] @ a)
    mean = K[:, pos] @ a
    var = np.diag(K) - np.sum(K[:, pos] * cho_solve(cho, K[pos, :]).T, axis=1)
    dSigma = -0.5 * (cho_solve(cho, np.eye(np.sum(pos))) - np.outer(a, a))
    return value, mean, var, dSigma, pos


def _ld_cholesky(C):
    """The lower Cholesky factor of C, computed in long double."""
    L = np.zeros_like(C)
    for j in range(len(C)):
        L[j, j] = np.sqrt(C[j, j] - L[j, :j] @ L[j, :j])
        L[j + 1 :, j] = (C[j + 1 :, j] - L[j + 1 :, :j] @ L[j, :j]) / L[j, j]
    return L


def _ld_forward(L, b):
    """L^-1 b for a lower-triangular L, by forward substitution."""
    z = np.zeros_like(b)
    for i in range(len(L)):
        z[i] = (b[i] - L[i, :i] @ z[:i]) / L[i, i]
    return z


class LongDoubleBound:
    """elbo_cvb written out densely in long double, on the float64 kernel blocks of sys.

    K, the prior covariance of the stacked f at every selected row, is
    formed once from sys's kernel half, whose blocks are taken as exact;
    then each pi gives the precision form -1/2 (log|P| + y' S P^-1 S y)
    with P = I + S K S and S = diag(sqrt(pi / sigma^2)), plus V
    (vterm, float64, which is accurate to about 1e-13 of itself).
    """

    def __init__(self, ds, cfg, hp, sys):
        ld = np.longdouble
        start = np.cumsum([0] + [len(r) for r in sys.rows])
        K = np.zeros((start[-1], start[-1]), dtype=ld)
        if sys.has_inducing:
            X = _ld_forward(_ld_cholesky(sys.Kuu.astype(ld)),
                            np.hstack([b.K.T for b in sys.fu_blocks]).astype(ld))
            K += X.T @ X
        for m, B_m in enumerate(sys.B_blocks):
            K[start[m] : start[m + 1], start[m] : start[m + 1]] += B_m
        self.K, self.rows, self.args = K, sys.rows, (ds, cfg, hp)
        self.y = np.concatenate(sys.y_blocks).astype(ld)

    def __call__(self, pi):
        ds, cfg, hp = self.args
        s2 = hp.noise.sigma.astype(np.longdouble) ** 2
        s = np.sqrt(np.concatenate([pi[r, m] / s2[m] for m, r in enumerate(self.rows)]))
        L = _ld_cholesky(s[:, None] * self.K * s + np.eye(len(s), dtype=np.longdouble))
        z = _ld_forward(L, s * self.y)
        gauss = -0.5 * (2 * np.sum(np.log(np.diag(L))) + z @ z)
        return gauss + np.longdouble(vterm(state_from_pi(pi), ds, cfg, hp.noise))


class TestCvbPiStep:
    """bounds.cvb_pi_step: one build gives elbo_cvb at the old rows and the stepped rows."""

    @pytest.mark.parametrize("use_dirichlet", [True, False])
    @pytest.mark.parametrize("kind", ["convolved", "independent"])
    def test_rows_are_the_softmax_of_the_bound_derivative(self, kind, use_dirichlet):
        # c_nm = -[((y - mean)^2 + var) / sigma^2 + log 2 pi sigma^2] / 2 is the
        # derivative in pi_nm of the Gaussian term plus V's noise term, with
        # the posterior moments taken from the dense Gaussian; entries the
        # prior rules out get exactly 0
        ds, cfg, hp, state = checks.random_instance(9, n=30, M=3, Q=6)
        cfg = replace(cfg, use_dirichlet=use_dirichlet)
        if kind == "independent":
            hp = IndependentSEHyperParams(
                outputs=[SEKernelParams(amp=abs(o.S), prec=0.5 * o.Lm) for o in hp.outputs],
                noise=hp.noise)
        pi, s2 = state.pi_hat, hp.noise.sigma**2
        sys = build_cvb_system(ds, cfg, hp, state)
        _, mean, var, _, _ = dense_posterior(sys)
        start = np.cumsum([0] + [len(r) for r in sys.rows])
        c = np.full((ds.n, cfg.M), -np.inf)
        for m, r in enumerate(sys.rows):
            blk = slice(start[m], start[m + 1])
            c[r, m] = -0.5 * (((ds.y[r] - mean[blk]) ** 2 + var[blk]) / s2[m]
                              + np.log(2 * np.pi * s2[m]))
        if use_dirichlet:
            c += np.where(ds.labeled_mask[:, None], 0.0, digamma(cfg.alpha0 + pi))
        c[ds.labeled_mask] += ds.log_prior[ds.labeled_mask]
        expect = np.exp(c - c.max(axis=1, keepdims=True))
        expect /= expect.sum(axis=1, keepdims=True)
        assert np.sum(expect.max(axis=1) < 0.9) >= 10
        assert np.sum(expect == 0.0) >= 4
        _, got = cvb_pi_step(ds, cfg, hp, state_from_pi(pi.copy()))
        np.testing.assert_allclose(got, expect, rtol=1e-9)
        np.testing.assert_array_equal(got == 0.0, expect == 0.0)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="long double is no wider than double here")
    @pytest.mark.parametrize("use_dirichlet", [True, False])
    @pytest.mark.parametrize("sigma", [0.3, 0.02])
    @pytest.mark.parametrize("kind", ["convolved", "independent"])
    def test_never_lowers_the_bound(self, kind, sigma, use_dirichlet):
        # hard one-hot label priors, so labeled rows have an entry at exactly
        # 0, which every step keeps there; at sigma = 0.02 stepped unlabeled
        # rows underflow to exact zeros too.  Each step is judged on the
        # bound evaluated in long double.  At sigma = 0.3 the float64
        # elbo_cvb must not drop either; at sigma = 0.02 (bound about -4.5e4)
        # a converged step raises the bound by about 1e-9 nats, below the
        # float64 evaluation's rounding between neighbouring rows (up to
        # 1.4e-6 nats), so there only its finiteness is checked
        ds, cfg, hp, _ = checks.random_instance(8, n=40, M=2, Q=8, sigma=sigma)
        ds = make_dataset(ds.X, ds.y, labels=ds.labels, n_outputs=cfg.M)
        cfg = replace(cfg, use_dirichlet=use_dirichlet)
        if kind == "independent":
            hp = IndependentSEHyperParams(
                outputs=[SEKernelParams(amp=abs(o.S), prec=0.5 * o.Lm) for o in hp.outputs],
                noise=hp.noise)
        labeled = ds.labeled_mask
        rng = np.random.default_rng(8)
        exact = None
        at_zero = 0
        for _ in range(5):
            # random rows, then three steps from them
            pi = rng.dirichlet(np.full(cfg.M, 0.5), size=ds.n)
            pi[labeled] = ds.prior_pi[labeled]
            if exact is None:
                exact = LongDoubleBound(ds, cfg, hp, build_cvb_system(ds, cfg, hp, state_from_pi(pi)))
            value, value_ld = elbo_cvb(ds, cfg, hp, state_from_pi(pi)), exact(pi)
            assert abs(value - value_ld) <= 1e-8 * abs(value_ld)
            for _ in range(3):
                bound, pi = cvb_pi_step(ds, cfg, hp, state_from_pi(pi.copy()))
                assert bound == pytest.approx(value, rel=1e-14)
                np.testing.assert_array_equal(pi[labeled] == 0.0, ds.prior_pi[labeled] == 0.0)
                new, new_ld = elbo_cvb(ds, cfg, hp, state_from_pi(pi)), exact(pi)
                assert np.isfinite(new)
                assert new_ld >= value_ld - 1e-14 * abs(value_ld)
                if sigma > 0.1:
                    assert new >= value - 1e-12 * abs(value)
                value, value_ld = new, new_ld
            np.testing.assert_allclose(pi.sum(axis=1), 1.0, rtol=1e-14)
            at_zero += np.sum(pi[~labeled] == 0.0)
        assert (at_zero > 0) == (sigma < 0.1)


    @pytest.mark.parametrize("kind", ["convolved", "independent"])
    def test_an_output_no_row_may_enter(self, kind):
        # every row labeled 1 with a one-hot prior: output 2 holds no row,
        # and the bound, its gradient and the step still work
        ds, cfg, hp, _ = checks.random_instance(3, n=12, M=2, Q=4)
        ds = make_dataset(ds.X, ds.y, labels=np.ones(ds.n, dtype=int), n_outputs=2)
        if kind == "independent":
            hp = IndependentSEHyperParams(
                outputs=[SEKernelParams(amp=abs(o.S), prec=0.5 * o.Lm) for o in hp.outputs],
                noise=hp.noise)
        state = init_state(ds, cfg, 3)
        sys = build_cvb_system(ds, cfg, hp, state)
        assert [len(r) for r in sys.rows] == [ds.n, 0]
        value, bundle = gradients.elbo_cvb_with_grad(ds, cfg, hp, state)
        assert np.isfinite(value)
        assert all(np.all(np.isfinite(g)) for g in vars(bundle).values() if g is not None)
        bound, pi = cvb_pi_step(ds, cfg, hp, state_from_pi(state.pi_hat.copy()))
        assert bound == value
        np.testing.assert_array_equal(pi, ds.prior_pi)


def hand_off_instance(kind, model, seed=21, d=1):
    """(ds, cfg, hp, state) for a WSMGP or OMGP-WS state on the convolved or the SE model."""
    ds, cfg, hp, state = checks.random_instance(seed, n=24, M=2, Q=6, d=d)
    if model == "omgp-ws":
        # hard one-hot label priors and no Dirichlet prior, as baselines.fit_omgp_ws
        ds = make_dataset(ds.X, ds.y, labels=ds.labels, n_outputs=cfg.M)
        cfg = replace(cfg, use_dirichlet=False)
        state = init_state(ds, cfg, seed)
    if kind == "independent":
        hp = IndependentSEHyperParams(
            outputs=[SEKernelParams(amp=abs(o.S), prec=0.5 * o.Lm) for o in hp.outputs],
            noise=hp.noise)
    return ds, cfg, hp, state


def assert_same(got, ref, name):
    """got equals ref bit for bit through lists, tuples and blocks; arrays in the same layout."""
    if isinstance(ref, (list, tuple)):
        assert type(got) is type(ref) and len(got) == len(ref), name
        for g, r in zip(got, ref):
            assert_same(g, r, name)
    elif isinstance(ref, np.ndarray):
        np.testing.assert_array_equal(got, ref, err_msg=name)
        layout = lambda x: (x.dtype, x.flags.c_contiguous, x.flags.f_contiguous)  # noqa: E731
        assert layout(got) == layout(ref), name
    else:
        assert got == ref, name


def assert_systems_equal(got, ref):
    for f in fields(engine.StackedSystem):
        assert_same(getattr(got, f.name), getattr(ref, f.name), f.name)


HAND_OFF_CASES = [(kind, model) for kind in ("convolved", "independent")
                  for model in ("wsmgp", "omgp-ws")]


class TestHandOff:
    """A pi step on a system built elsewhere, and systems built on a handed kernel half or t2."""

    @pytest.mark.parametrize("kind, model", HAND_OFF_CASES)
    def test_pi_step_on_a_handed_system_equals_its_own_build(self, kind, model):
        ds, cfg, hp, state = hand_off_instance(kind, model)
        pi = state.pi_hat.copy()
        # as in the fit: the M-phase's evaluation reads the system first
        sys = build_cvb_system(ds, cfg, hp, state)
        value, bundle = gradients.elbo_cvb_with_grad(ds, cfg, hp, state, sys)
        value_ref, bundle_ref = gradients.elbo_cvb_with_grad(ds, cfg, hp, state)
        assert value == value_ref
        assert_same(list(vars(bundle).values()), list(vars(bundle_ref).values()), "bundle")
        got = cvb_pi_step(ds, cfg, hp, state_from_pi(pi.copy()), sys)
        ref = cvb_pi_step(ds, cfg, hp, state_from_pi(pi.copy()))
        assert got[0] == ref[0]
        assert_same(got[1], ref[1], "pi")

    @pytest.mark.parametrize("kind, model", HAND_OFF_CASES)
    def test_system_on_a_handed_kernel_half_equals_a_fresh_build(self, kind, model):
        ds, cfg, hp, state = hand_off_instance(kind, model)
        # the kernel half of a system at other rows' pi, as an E-phase's earlier step
        earlier = build_cvb_system(ds, cfg, hp, state)
        _, state.pi_hat = cvb_pi_step(ds, cfg, hp, state, earlier)
        got = build_cvb_system(ds, cfg, hp, state, kernel=earlier)
        assert_systems_equal(got, build_cvb_system(ds, cfg, hp, state))
        assert not np.array_equal(got.s_blocks[0], earlier.s_blocks[0])
        for f in fields(engine.KernelHalf):
            assert getattr(got, f.name) is getattr(earlier, f.name), f.name

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("scmgp", [False, True])
    @pytest.mark.parametrize("kind", ["convolved", "independent"])
    def test_system_from_the_fits_squared_differences_equals_a_fresh_build(self, kind, scmgp, d):
        # the fit's rows and squared differences, computed once, are read as
        # they are: each output of SCMGP, and of WSMGP where one-hot priors
        # rule rows out, has its own; without labels every output holds
        # every row and the outputs share one array
        ds, cfg, hp, state = hand_off_instance(kind, "wsmgp", d=d)
        state = None if scmgp else state
        W = None if kind == "independent" else hp.inducing.W
        datasets = [ds] if scmgp else [ds, make_dataset(ds.X, ds.y, n_outputs=cfg.M)]
        for data in datasets:
            t2 = engine.row_sqdiffs(data.X, cvb_rows(data, cfg, scmgp), W)
            got = build_cvb_system(data, cfg, hp, state, t2=t2)
            assert_systems_equal(got, build_cvb_system(data, cfg, hp, state))
            assert got.rows is t2.rows
            assert all(b.t2 is t2_m for b, t2_m in zip(got.ff_blocks, t2.ff))
            if W is not None:
                assert all(b.t2 is t2_m for b, t2_m in zip(got.fu_blocks, t2.fu))
            every = [len(r) == ds.n for r in got.rows]
            assert all(every) == (data is not ds)
            assert (t2.ff[0] is t2.ff[1]) == all(every)


class TestOracle:
    def test_single_output_single_gaussian(self):
        ds, cfg, hp, _ = checks.random_instance(5, n=6, M=1, Q=3, labeled_frac=1.0)
        K = kernels.kff_matrix(ds.X, ds.X, hp.outputs[0], hp.outputs[0], hp.latent)
        K = K + hp.noise.sigma[0] ** 2 * np.eye(ds.n)
        sign, logdet = np.linalg.slogdet(K)
        expect = -0.5 * (
            ds.n * np.log(2 * np.pi) + logdet + ds.y @ np.linalg.solve(K, ds.y)
        )
        assert exact_marglik_oracle(ds, cfg, hp) == pytest.approx(expect, rel=1e-10)

    def test_two_component_mixture_by_hand(self):
        ds, cfg, hp, _ = checks.random_instance(6, n=1, M=2, Q=3, labeled_frac=0.0)
        y = ds.y[0]
        parts = []
        for m in range(2):
            v = kernels.kff_diag_value(hp.outputs[m], hp.latent) + hp.noise.sigma[m] ** 2
            parts.append(-0.5 * (np.log(2 * np.pi * v) + y * y / v) + np.log(0.5))
        assert exact_marglik_oracle(ds, cfg, hp) == pytest.approx(
            logsumexp(parts), rel=1e-12
        )

    def test_monte_carlo_cross_check(self):
        ds, cfg, hp, _ = checks.random_instance(7, n=4, M=2, Q=3, labeled_frac=0.5)
        exact = exact_marglik_oracle(ds, cfg, hp)
        # 2e6 prior draws of the assignment vector, exact density per draw
        logw = assignment_log_weights(ds, cfg)
        w = np.exp(logw)
        w /= w.sum(axis=1, keepdims=True)
        Kpair = kernels.exact_kff_pairs(ds.X, hp)
        idx = np.arange(4)
        dens = np.empty(16)
        probs = np.empty(16)
        for t in range(16):
            z = np.array([(t // 2**i) % 2 for i in range(4)])
            Kz = Kpair[z[:, None], z[None, :], idx[:, None], idx[None, :]].copy()
            Kz[idx, idx] += hp.noise.sigma[z] ** 2
            sign, logdet = np.linalg.slogdet(Kz)
            dens[t] = np.exp(
                -0.5 * (4 * np.log(2 * np.pi) + logdet + ds.y @ np.linalg.solve(Kz, ds.y))
            )
            probs[t] = np.prod(w[idx, z])
        rng = np.random.default_rng(123)
        n_mc = 2_000_000
        counts = rng.multinomial(n_mc, probs)
        est = float(counts @ dens) / n_mc
        se = np.sqrt(np.sum(probs * (dens - est) ** 2) / n_mc)
        assert abs(np.exp(exact) - est) <= 3 * se

    def test_guard(self):
        ds, cfg, hp, _ = checks.random_instance(8, n=9, M=5, Q=3)
        cfg = ModelConfig(M=5, Q=3)
        with pytest.raises(OracleTooLargeError):
            exact_marglik_oracle(ds, cfg, hp)


class TestEngineDenseReference:
    """The Woodbury engine against the dense (MN) x (MN) Gaussian.

    At N = 144 and Q = 30 the engine's N-row matrix products are large
    enough for a multithreaded BLAS to split them across threads.  The
    log-density tolerance is 1e-9: with 30 inducing points on the unit
    interval cond(A) is about 2e10, and the Woodbury form then loses
    2e-10 to 4e-10 relative against an extended-precision evaluation of
    the same matrix, while the dense double evaluation keeps 5e-14.

    Every instance has weights of exactly 0 (random_instance's unlabeled
    row at pi = 0) and rows outside an output's selection (its labeled
    rows with one-hot priors); with extra_zeros, a fifth of the unlabeled
    rows have a zero entry as well.  The dense reference is taken over
    the rows with w > 0.
    """

    @staticmethod
    def _instance(seed, n, Q, kind="convolved", extra_zeros=False):
        ds, cfg, hp, state = checks.random_instance(seed, n=n, M=2, Q=Q)
        if kind == "independent":
            hp = IndependentSEHyperParams(
                outputs=[SEKernelParams(amp=abs(o.S), prec=0.5 * o.Lm) for o in hp.outputs],
                noise=hp.noise)
        if extra_zeros:
            rows = np.flatnonzero(~ds.labeled_mask)[1::5]
            state.pi_hat[rows] = np.eye(2)[np.arange(len(rows)) % 2]
        sys = build_cvb_system(ds, cfg, hp, state)
        assert any(np.any(s_m == 0.0) for s_m in sys.s_blocks)
        assert any(len(r) < ds.n for r in sys.rows)
        return sys

    @pytest.mark.parametrize("seed", [31, 32])
    @pytest.mark.parametrize("kind", ["convolved", "independent"])
    def test_posterior_moments(self, seed, kind):
        """K Sigma^-1 y and diag(K - K Sigma^-1 K) at every selected row, w = 0 included.

        The largest errors were 1.6e-10 (means) and 4.1e-11 (variances)
        of the largest entry, for the convolved model (cond(A) 1e9 to
        3e9), and 1e-13 for the independent one.
        """
        for extra_zeros in (False, True):
            sys = self._instance(seed, 60, 10, kind, extra_zeros)
            _, mean, var, _, _ = dense_posterior(sys)
            got_mean, got_var = (np.concatenate(v) for v in engine.posterior_moments(sys))
            np.testing.assert_allclose(got_mean, mean, rtol=0, atol=1e-9 * np.abs(mean).max())
            np.testing.assert_allclose(got_var, var, rtol=0, atol=1e-9 * var.max())

    @pytest.mark.parametrize("seed", [31, 32])
    def test_loglik_and_block_gradients(self, seed):
        for extra_zeros in (False, True):
            self._check_loglik_and_block_gradients(self._instance(seed, 144, 30,
                                                                  extra_zeros=extra_zeros))

    @staticmethod
    def _check_loglik_and_block_gradients(sys):
        expect, mean, var, dSigma, pos = dense_posterior(sys)
        w = np.concatenate(sys.s_blocks) ** 2
        y = np.concatenate(sys.y_blocks)
        # the engine leaves out the noise normaliser of the rows with w > 0
        normaliser = -0.5 * np.sum(np.log(2 * np.pi / w[pos]))
        assert engine.gauss_loglik(sys) + normaliser == pytest.approx(expect, rel=1e-9)

        mg = engine.gauss_loglik_grads(sys)
        dE = np.zeros((len(w), len(w)))
        start = np.cumsum([0] + [len(r) for r in sys.rows])
        for m in range(2):
            blk = slice(start[m], start[m + 1])
            dE[blk, blk] = mg.dE_blocks[m]
        # rows with w = 0 do not enter the Gaussian term at all
        assert np.all(dE[~pos] == 0.0) and np.all(dE[:, ~pos] == 0.0)
        ref = np.where(np.equal.outer(np.repeat([0, 1], np.diff(start)),
                                      np.repeat([0, 1], np.diff(start)))[np.ix_(pos, pos)],
                       dSigma, 0.0)
        np.testing.assert_allclose(dE[np.ix_(pos, pos)], ref, rtol=0,
                                   atol=1e-8 * np.abs(ref).max())
        # d/dlog w = -w ((y - mean)^2 + var) / 2, exactly 0 at w = 0
        dlogw = np.concatenate(mg.dlogw_blocks)
        expect_dlogw = -0.5 * w * ((y - mean) ** 2 + var)
        np.testing.assert_allclose(dlogw, expect_dlogw, rtol=0,
                                   atol=1e-8 * np.abs(expect_dlogw).max())
        assert np.all(dlogw[~pos] == 0.0)
