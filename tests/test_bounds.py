"""The collapsed bound, its V term, and the exact enumeration oracle."""

from dataclasses import fields, replace

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
    cvb_selection,
    elbo_cvb,
    exact_marglik_oracle,
    gauss_term_cvb,
    vterm,
    vterm_rows,
)
from wsmgp.kernels import IndependentSEHyperParams, NoiseParams, SEKernelParams
from wsmgp.model import (
    EPS_PI,
    Dataset,
    ModelConfig,
    VariationalState,
    floor_simplex,
    init_state,
    make_dataset,
)
from wsmgp.predict import posterior_predict


def state_from_pi(pi):
    return VariationalState(pi_hat=np.asarray(pi, dtype=float))


def noise_diagonal(ds, cfg, hp, state, sigma):
    """The per-output noise diagonals of the collapsed selection at noise sigma."""
    return cvb_selection(ds, cfg, replace(hp, noise=NoiseParams(sigma=sigma)), state)[1]


class TestComputeD:
    """The noise diagonal sigma_m^2 / pi_hat[n, m] of the collapsed selection."""

    def test_direct_values(self):
        ds, cfg, hp, state = checks.random_instance(0, n=3, M=2)
        state.pi_hat = np.array([[1.0, 0.5], [0.5, 0.5], [0.25, 0.75]])
        D = noise_diagonal(ds, cfg, hp, state, np.array([0.25, 0.25]))
        assert D[0][0] == pytest.approx(0.0625)
        assert D[1][0] == pytest.approx(0.125)

    def test_floor_entry_finite_and_huge(self):
        ds, cfg, hp, state = checks.random_instance(0, n=2, M=2)
        state.pi_hat = np.array([[1.0 - EPS_PI, EPS_PI]] * 2)
        D = noise_diagonal(ds, cfg, hp, state, np.array([0.25, 0.25]))
        assert np.isfinite(D[1][0])
        assert D[1][0] == pytest.approx(0.0625 / EPS_PI, rel=1e-9)

    def test_argmax_invariant_under_common_noise_scale(self):
        rng = np.random.default_rng(1)
        ds, cfg, hp, state = checks.random_instance(1, n=6, M=3, Q=3)
        sig = rng.uniform(0.1, 0.4, 3)
        a = noise_diagonal(ds, cfg, hp, state, sig)
        b = noise_diagonal(ds, cfg, hp, state, 7.3 * sig)
        for n in range(6):
            row_a = np.array([a[m][n] for m in range(3)])
            row_b = np.array([b[m][n] for m in range(3)])
            assert np.array_equal(np.argsort(row_a), np.argsort(row_b))


class TestVTerm:
    def test_labeled_kl_zero_when_matching_prior(self):
        ds = make_dataset(np.zeros((1, 1)), np.zeros(1), labels=[1],
                          prior_pi=np.array([[0.7, 0.3]]), n_outputs=2)
        cfg = ModelConfig(M=2, Q=2)
        st = state_from_pi([[0.7, 0.3]])
        noise = NoiseParams(sigma=np.array([0.25, 0.25]))
        rows = vterm_rows(st, ds, cfg, noise)
        third = 0.5 * np.sum(
            (1 - st.pi_hat) * np.log(2 * np.pi * 0.0625) - np.log(st.pi_hat)
        )
        assert rows[0] == pytest.approx(third, abs=1e-12)

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
        third = 0.5 * np.sum((1 - 0.5) * np.log(2 * np.pi * 0.0625) - np.log(0.5)) * 2
        assert vterm(st, ds, cfg, noise) == pytest.approx(third - expect_kl, rel=1e-12)

    def test_third_term_vanishes_at_assigned_one(self):
        pi = 1.0
        val = (1 - pi) * np.log(2 * np.pi * 0.0625) - np.log(pi)
        assert val == 0.0

    def test_v_upper_bounded_by_third_term(self):
        noise = NoiseParams(sigma=np.array([0.3, 0.2]))
        for seed in range(20):
            ds, cfg, hp, state = checks.random_instance(seed, n=7, M=2)
            pi = state.pi_hat
            third = 0.5 * np.sum(
                (1 - pi) * np.log(2 * np.pi * noise.sigma**2)[None, :] - np.log(pi)
            )
            assert vterm(state, ds, cfg, noise) <= third + 1e-12

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
    large alpha0 uniform ones).  The row is floored as the bounds see it,
    and V is taken on a one-row unlabeled dataset with
    log(2 pi sigma^2) = 0, where V's third term is -sum(log pi) / 2.
    """
    pi = floor_simplex(np.atleast_2d(pi_row))
    M = pi.shape[1]
    ds = make_dataset(np.zeros((1, 1)), np.zeros(1), n_outputs=M)
    noise = NoiseParams(sigma=np.full(M, np.sqrt(0.5 / np.pi)))
    cfg = ModelConfig(M=M, Q=1, alpha0=alpha0)
    v = vterm_rows(VariationalState(pi_hat=pi), ds, cfg, noise)[0]
    return -0.5 * np.sum(np.log(pi)) - v


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
        # the Gaussian term plus the log-normalizer sum of V converges to
        # the relabeled fully-supervised likelihood; per unassigned pair the
        # 0.5*log(eps) divergences of the two pieces cancel exactly
        ds, cfg, hp, _ = checks.random_instance(9, n=9, M=2, Q=6, labeled_frac=0.4)
        rng = np.random.default_rng(9)
        assign = rng.integers(1, 3, size=ds.n)
        relabeled = make_dataset(ds.X, ds.y, labels=assign, n_outputs=2)
        ref = gauss_term_cvb(relabeled, cfg, hp, None)
        prev = np.inf
        for eps in (1e-4, 1e-6, 1e-8):
            pi = np.full((ds.n, 2), eps)
            pi[np.arange(ds.n), assign - 1] = 1 - eps
            st = state_from_pi(pi)
            third = 0.5 * np.sum(
                (1 - st.pi_hat) * np.log(2 * np.pi * hp.noise.sigma**2)[None, :]
                - np.log(st.pi_hat)
            )
            diff = abs(gauss_term_cvb(ds, cfg, hp, st) + third - ref)
            assert diff < prev
            prev = diff
        assert prev < 1e-3


class TestCvbPiStep:
    """bounds.cvb_pi_step: one build gives elbo_cvb at the old rows and the stepped rows."""

    @pytest.mark.parametrize("use_dirichlet", [True, False])
    @pytest.mark.parametrize("kind", ["convolved", "independent"])
    def test_rows_are_the_softmax_of_the_bound_derivative(self, kind, use_dirichlet):
        # c_nm is the derivative in pi_nm of the Gaussian term plus V's third
        # term, which engine.gauss_loglik_grads gives through D = sigma^2 / pi
        ds, cfg, hp, state = checks.random_instance(9, n=30, M=3, Q=6)
        cfg = replace(cfg, use_dirichlet=use_dirichlet)
        if kind == "independent":
            hp = IndependentSEHyperParams(
                outputs=[SEKernelParams(amp=abs(o.S), prec=0.5 * o.Lm) for o in hp.outputs],
                noise=hp.noise)
        pi, s2 = state.pi_hat, hp.noise.sigma**2
        mg = engine.gauss_loglik_grads(build_cvb_system(ds, cfg, hp, state))
        dE = np.stack([np.diag(g) for g in mg.dE_blocks], axis=1)
        c = -s2 / pi**2 * dE - 0.5 * np.log(2 * np.pi * s2) - 0.5 / pi
        if use_dirichlet:
            c += np.where(ds.labeled_mask[:, None], 0.0, digamma(cfg.alpha0 + pi))
        c[ds.labeled_mask] += ds.log_prior[ds.labeled_mask]
        expect = np.exp(c - c.max(axis=1, keepdims=True))
        expect /= expect.sum(axis=1, keepdims=True)
        assert np.sum(expect.max(axis=1) < 0.9) >= 10
        _, got = cvb_pi_step(ds, cfg, hp, state_from_pi(pi.copy()))
        np.testing.assert_allclose(got, expect, rtol=1e-9)

    @pytest.mark.parametrize("use_dirichlet", [True, False])
    @pytest.mark.parametrize("sigma", [0.3, 0.02])
    @pytest.mark.parametrize("kind", ["convolved", "independent"])
    def test_never_lowers_the_bound(self, kind, sigma, use_dirichlet):
        # hard one-hot label priors, so labeled rows sit at the simplex floor;
        # stepped unlabeled rows reach it too
        ds, cfg, hp, _ = checks.random_instance(8, n=40, M=2, Q=8, sigma=sigma)
        ds = make_dataset(ds.X, ds.y, labels=ds.labels, n_outputs=cfg.M)
        cfg = replace(cfg, use_dirichlet=use_dirichlet)
        if kind == "independent":
            hp = IndependentSEHyperParams(
                outputs=[SEKernelParams(amp=abs(o.S), prec=0.5 * o.Lm) for o in hp.outputs],
                noise=hp.noise)
        labeled = ds.labeled_mask
        rng = np.random.default_rng(8)
        at_floor = 0
        for _ in range(5):
            # random rows, then three steps from them
            pi = floor_simplex(rng.dirichlet(np.full(cfg.M, 0.5), size=ds.n))
            pi[labeled] = np.exp(ds.log_prior[labeled])
            value = elbo_cvb(ds, cfg, hp, state_from_pi(pi))
            for _ in range(3):
                bound, pi = cvb_pi_step(ds, cfg, hp, state_from_pi(pi.copy()))
                assert bound == pytest.approx(value, rel=1e-14)
                new = elbo_cvb(ds, cfg, hp, state_from_pi(pi))
                assert new >= value - 1e-12 * abs(value)
                value = new
            np.testing.assert_allclose(pi.sum(axis=1), 1.0, rtol=1e-14)
            at_floor += np.sum(pi[~labeled] <= 2 * EPS_PI)
        assert at_floor > 0


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
        assert not np.array_equal(got.d_blocks[0], earlier.d_blocks[0])
        for f in fields(engine.KernelHalf):
            assert getattr(got, f.name) is getattr(earlier, f.name), f.name

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("scmgp", [False, True])
    @pytest.mark.parametrize("kind", ["convolved", "independent"])
    def test_system_from_the_fits_squared_differences_equals_a_fresh_build(self, kind, scmgp, d):
        # WSMGP's stacked selection reads t2 itself, SCMGP's per-label
        # selections their rows of it
        ds, cfg, hp, state = hand_off_instance(kind, "wsmgp", d=d)
        state = None if scmgp else state
        t2_xw = None if kind == "independent" else kernels.sqdiff(ds.X, hp.inducing.W)
        t2 = (kernels.sqdiff(ds.X, ds.X), t2_xw)
        got = build_cvb_system(ds, cfg, hp, state, t2=t2)
        assert_systems_equal(got, build_cvb_system(ds, cfg, hp, state))
        assert (got.ff_blocks[0].t2 is t2[0]) != scmgp


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
    """

    @staticmethod
    def _dense(sys):
        Kfu = np.vstack([b.K for b in sys.fu_blocks])
        Sigma = Kfu @ cho_solve(sys.cho_Kuu, Kfu.T)
        sizes = [len(yb) for yb in sys.y_blocks]
        start = np.cumsum([0] + sizes)
        for m, B_m in enumerate(sys.B_blocks):
            blk = slice(start[m], start[m + 1])
            Sigma[blk, blk] += B_m + np.diag(sys.d_blocks[m])
        return Sigma, np.concatenate(sys.y_blocks), start

    @pytest.mark.parametrize("seed", [31, 32])
    @pytest.mark.parametrize("kind", ["convolved", "independent"])
    def test_posterior_moments(self, seed, kind):
        """K Sigma^-1 y and diag(K - K Sigma^-1 K), with K = Sigma - D, at rows away from the floor.

        The largest errors were 1.6e-10 (means) and 4.1e-11 (variances)
        of the largest entry, for the convolved model (cond(A) 1e9 to
        3e9), and 1e-13 for the independent one.
        """
        ds, cfg, hp, state = checks.random_instance(seed, n=60, M=2, Q=10)
        if kind == "independent":
            hp = IndependentSEHyperParams(
                outputs=[SEKernelParams(amp=abs(o.S), prec=0.5 * o.Lm) for o in hp.outputs],
                noise=hp.noise)
        assert state.pi_hat.min() > 1e-3
        sys = build_cvb_system(ds, cfg, hp, state)
        n = ds.n
        K = np.zeros((cfg.M * n, cfg.M * n))
        if sys.has_inducing:
            Kfu = np.vstack([b.K for b in sys.fu_blocks])
            K += Kfu @ cho_solve(sys.cho_Kuu, Kfu.T)
        for m, B_m in enumerate(sys.B_blocks):
            K[m * n : (m + 1) * n, m * n : (m + 1) * n] += B_m
        cho = cho_factor(K + np.diag(np.concatenate(sys.d_blocks)), lower=True)
        mean = K @ cho_solve(cho, np.tile(ds.y, cfg.M))
        var = np.diag(K - K @ cho_solve(cho, K))
        got_mean, got_var = (np.concatenate(v) for v in engine.posterior_moments(sys))
        np.testing.assert_allclose(got_mean, mean, rtol=0, atol=1e-9 * np.abs(mean).max())
        np.testing.assert_allclose(got_var, var, rtol=0, atol=1e-9 * var.max())

    @pytest.mark.parametrize("seed", [31, 32])
    def test_loglik_and_block_gradients(self, seed):
        ds, cfg, hp, state = checks.random_instance(seed, n=144, M=2, Q=30)
        sys = build_cvb_system(ds, cfg, hp, state)
        Sigma, y, start = self._dense(sys)
        cho = cho_factor(Sigma, lower=True)
        alpha = cho_solve(cho, y)
        logdet = 2.0 * np.sum(np.log(np.diag(cho[0])))
        expect = -0.5 * (len(y) * np.log(2 * np.pi) + logdet + y @ alpha)
        assert engine.gauss_loglik(sys) == pytest.approx(expect, rel=1e-9)

        dSigma = -0.5 * (cho_solve(cho, np.eye(len(y))) - np.outer(alpha, alpha))
        mg = engine.gauss_loglik_grads(sys)
        for m in range(cfg.M):
            blk = slice(start[m], start[m + 1])
            ref = dSigma[blk, blk]
            np.testing.assert_allclose(mg.dE_blocks[m], ref, rtol=0,
                                       atol=1e-8 * np.abs(ref).max())
