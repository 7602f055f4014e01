"""Finite-difference verification of every analytic gradient path."""

import itertools
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import digamma

from wsmgp import bounds, checks, engine, experiments, gradients, kernels, model, svi, trainer
from wsmgp.bounds import build_cvb_system, elbo_cvb, gauss_term_cvb, vterm_rows
from wsmgp.gradients import finite_diff_check
from wsmgp.kernels import (
    HyperParams,
    IndependentSEHyperParams,
    InducingInputs,
    LatentKernelParams,
    NoiseParams,
    OutputKernelParams,
    SEKernelParams,
)
from wsmgp.model import (
    Dataset,
    make_dataset,
    ModelConfig,
    VariationalState,
)
from wsmgp.trainer import ParamPack


class TestHarness:
    def test_quadratic_exact(self):
        f = lambda x: float(x @ x)
        rep = finite_diff_check(f, np.array([2.0, 4.0]), np.array([1.0, 2.0]))
        assert rep.max_rel_error < 1e-9

    def test_corrupted_gradient_flagged(self):
        f = lambda x: float(x @ x)
        g = np.array([2.0, 4.0])
        g[1] *= 1.01
        rep = finite_diff_check(f, g, np.array([1.0, 2.0]))
        assert rep.max_rel_error > 1e-3
        assert rep.worst[0] == "1"

    def test_step_sweep_v_curve(self):
        # classic V-shape: error decreases then rises again as h shrinks
        ds, cfg, hp, state = checks.random_instance(0, n=6, M=2, Q=3)
        x0, value, grad, _ = checks.packed_cvb(ds, cfg, hp, state)
        errs = [
            finite_diff_check(value, grad, x0, h=h).max_rel_error
            for h in (1e-3, 1e-5, 1e-9)
        ]
        assert errs[1] < errs[0]
        assert errs[1] < errs[2]


class TestGradCvb:
    @pytest.mark.parametrize("seed", range(5))
    def test_finite_difference_match(self, seed):
        rep = checks.gradcheck_cvb(seed)
        assert rep.max_rel_error < 1e-4, str(rep)

    def test_single_output_sigma_gradient(self):
        # M=1, pi frozen at one: the sigma gradient equals the plain sparse
        # GP likelihood gradient, checked by finite differences on the
        # fully-labeled evaluation
        ds, cfg, hp, state = checks.random_instance(3, n=8, M=1, Q=3,
                                                    labeled_frac=1.0)
        ds = make_dataset(ds.X, ds.y, labels=np.ones(ds.n, dtype=int), n_outputs=1)
        _, bundle = gradients.scmgp_loglik_with_grad(ds, cfg, hp)
        h = 1e-6
        def at_sigma(s):
            hp_s = HyperParams(latent=hp.latent, outputs=hp.outputs,
                               noise=NoiseParams(sigma=np.array([s])),
                               inducing=hp.inducing)
            return gauss_term_cvb(ds, cfg, hp_s, None)
        s0 = hp.noise.sigma[0]
        fd = (at_sigma(s0 * np.exp(h)) - at_sigma(s0 * np.exp(-h))) / (2 * h)
        assert bundle.d_sigma[0] == pytest.approx(fd, rel=1e-5)

    def test_zero_amplitude_structure(self):
        ds, cfg, hp, state = checks.random_instance(4, n=8, M=2, Q=3)
        outs = [OutputKernelParams(S=0.0, Lm=hp.outputs[0].Lm), hp.outputs[1]]
        hp0 = HyperParams(latent=hp.latent, outputs=outs, noise=hp.noise,
                          inducing=hp.inducing)
        _, bundle = gradients.elbo_cvb_with_grad(ds, cfg, hp0, state)
        assert np.all(bundle.d_Lm[0] == 0.0)
        assert np.isfinite(bundle.d_S[0]) and bundle.d_S[0] != 0.0

    @pytest.mark.parametrize("seed", range(3))
    def test_finite_at_exact_zeros(self, seed):
        # rows at probability exactly 0 (one-hot labeled priors, an unlabeled
        # entry at 0): a finite bound and finite gradients, and the log-sigma
        # partial is sum_n w [(y - mean)^2 + var] - sum_n pi with the
        # collapsed posterior's moments, as the stochastic bound's is
        ds, cfg, hp, state = checks.random_instance(seed, n=12, M=2, Q=4)
        assert np.sum(state.pi_hat == 0.0) >= 2
        value, bundle = gradients.elbo_cvb_with_grad(ds, cfg, hp, state)
        assert np.isfinite(value)
        for name, g in vars(bundle).items():
            if g is not None:
                assert np.all(np.isfinite(g)), name
        # the moments at every selected row, by dense conditioning on the rows with w > 0
        sys = build_cvb_system(ds, cfg, hp, state)
        Kfu = np.vstack([b.K for b in sys.fu_blocks])
        K = Kfu @ np.linalg.solve(sys.kuu_block.K + kernels.chol_jitter(sys.kuu_block.K)[1]
                                  * np.eye(cfg.Q), Kfu.T)
        start = np.cumsum([0] + [len(r) for r in sys.rows])
        for m, B_m in enumerate(sys.B_blocks):
            K[start[m] : start[m + 1], start[m] : start[m + 1]] += B_m
        w = np.concatenate(sys.s_blocks) ** 2
        pos = w > 0
        Kp = K[:, pos]
        Sigma = Kp[pos] + np.diag(1.0 / w[pos])
        mean = Kp @ np.linalg.solve(Sigma, np.concatenate(sys.y_blocks)[pos])
        var = np.diag(K) - np.sum(Kp * np.linalg.solve(Sigma, Kp.T).T, axis=1)
        expect = np.empty(cfg.M)
        for m, r in enumerate(sys.rows):
            blk = slice(start[m], start[m + 1])
            expect[m] = (np.sum(w[blk] * ((ds.y[r] - mean[blk]) ** 2 + var[blk]))
                         - np.sum(state.pi_hat[:, m]))
        np.testing.assert_allclose(bundle.d_sigma, expect, rtol=1e-10)

    @pytest.mark.parametrize("seed", [1, 3])
    def test_finite_difference_match_at_a_fitted_point(self, seed):
        """The check where a short collapsed fit on the paper cell's data ends.

        N = 144 (gamma = l = 0.2) and the paper cell's Q = 30; after the
        fit's pi steps every labeled row sits at exactly pi = 0 under the
        output its one-hot prior rules out.  The bound is in whitened form
        (A = I + sum_m Psi_m' E_m^-1 Psi_m has eigenvalues of at least 1),
        so its rounding noise stays far below the central differences at
        the default step.
        """
        sc = experiments.SyntheticConfig(M=2, per_source_count=72, gamma=0.2, l_frac=0.2,
                                         seed=seed)
        ds, _ = experiments.generate_synthetic(sc)
        cfg = model.ModelConfig(M=2, Q=30, alpha0=0.3)
        opt = trainer.OptimizerConfig(seed=seed, restarts=1, em_outer_iters=3)
        fit = trainer.fit_cvb(ds, cfg, None, opt)
        labeled = ds.labeled_mask
        pi = fit.final_state.pi_hat
        np.testing.assert_array_equal(pi[labeled], ds.prior_pi[labeled])
        assert np.sum(pi[labeled] == 0.0) == ds.n_labeled
        x0, value, grad, _ = checks.packed_cvb(ds, cfg.with_alpha0(fit.final_alpha0),
                                               fit.final_hp, fit.final_state)
        rep = finite_diff_check(value, grad, x0)
        assert rep.max_rel_error < 1e-6, str(rep)

    @pytest.mark.parametrize("seed", [0, 8])
    def test_gradient_at_the_stepped_pi_differentiates_the_profiled_bound(self, seed):
        """The envelope theorem behind trainer.fit_cvb's objective.

        L*(x) = max_pi L(x, pi) is evaluated by pi steps from the same
        start at every point, until a step moves no entry by more than
        1e-14; elbo_cvb_with_grad at the pi they reach, with pi held, is
        L*'s gradient, log alpha0 included.  The convergence is taken on
        pi, not on the bound: the gradient is off by the order of pi's
        distance to its optimum, the bound only by its square.
        cond(A) <= 1e4 keeps the bound's rounding noise far below the
        differences.  The gradient with pi held at the start is not L*'s.
        """
        ds, cfg, hp, state = checks.random_instance(seed, n=30, M=2, Q=4)
        assert np.linalg.cond(build_cvb_system(ds, cfg, hp, state).A) <= 1e4
        pack = ParamPack(cfg, hp, with_alpha0=True)
        x0 = pack.pack(hp, alpha0=cfg.alpha0)

        def profiled(x):
            """(L*(x), its gradient with pi held where the steps end)."""
            hp_x, a0 = pack.unpack(x)
            cfg_x = cfg.with_alpha0(a0)
            st = VariationalState(pi_hat=state.pi_hat.copy())
            for _ in range(2000):
                before = st.pi_hat.copy()  # the step overwrites pi
                st.pi_hat = bounds.cvb_pi_step(ds, cfg_x, hp_x, st)[1]
                if np.max(np.abs(st.pi_hat - before)) <= 1e-14:
                    value, bundle = gradients.elbo_cvb_with_grad(ds, cfg_x, hp_x, st)
                    return value, pack.grad_to_vec(bundle)
            raise AssertionError("the pi steps did not converge")

        rep = finite_diff_check(lambda x: profiled(x)[0], lambda x: profiled(x)[1], x0)
        assert rep.max_rel_error < 1e-6, str(rep)
        held = checks.packed_cvb(ds, cfg, hp, state)[2](x0)
        assert np.max(np.abs(held - rep.fd) / np.maximum(1.0, np.abs(rep.fd))) > 1e-2

    def test_one_hot_sweep_matches_scmgp_gradient(self):
        # unlabeled rows pushed toward a one-hot assignment: the kernel
        # gradient converges to SCMGP's on the relabeled data, and equals it
        # at exact one-hot rows, as it does with labeled rows at their
        # one-hot priors
        ds, cfg, hp, _ = checks.random_instance(6, n=8, M=2, Q=4)
        rng = np.random.default_rng(6)
        assign = rng.integers(1, 3, size=ds.n)
        ds_lab = make_dataset(ds.X, ds.y, labels=assign, n_outputs=2)
        _, ref = gradients.scmgp_loglik_with_grad(ds_lab, cfg, hp)
        ds_blind = make_dataset(ds.X, ds.y, n_outputs=2)

        def gap(b):
            return max(np.max(np.abs(b.d_S - ref.d_S)), np.max(np.abs(b.d_Lm - ref.d_Lm)),
                       np.max(np.abs(b.d_L - ref.d_L)))

        prev = np.inf
        for eps in (1e-4, 1e-6, 1e-8, 0.0):
            pi = np.full((ds.n, 2), eps)
            pi[np.arange(ds.n), assign - 1] = 1 - eps
            diff = gap(gradients.elbo_cvb_with_grad(ds_blind, cfg, hp, VariationalState(pi))[1])
            assert diff < prev
            prev = diff
        assert prev < 1e-9
        one_hot = VariationalState(ds_lab.prior_pi.copy())
        assert gap(gradients.elbo_cvb_with_grad(ds_lab, cfg, hp, one_hot)[1]) < 1e-9


class TestGradSvb:
    @pytest.mark.parametrize("seed", range(5))
    def test_finite_difference_match(self, seed):
        rep = checks.gradcheck_svb(seed)
        assert rep.max_rel_error < 1e-4, str(rep)

    def test_minibatch_finite_difference_match(self):
        rep = checks.gradcheck_svb(11, batch=[0, 3, 7])
        assert rep.max_rel_error < 1e-4, str(rep)

    def test_batch_average_equals_full_gradient(self):
        ds, cfg, hp, state = checks.random_instance(8, n=6, M=2, Q=3)
        rng = np.random.default_rng(8)
        A = rng.normal(size=(3, 3))
        state.Su = np.eye(3) + A @ A.T / 3
        state.mu_u = rng.normal(size=3)
        x0, _, grad, _ = checks.packed_svb(ds, cfg, hp, state)
        full = grad(x0)
        batch_grads = []
        for b in itertools.combinations(range(6), 3):
            _, _, gb, _ = checks.packed_svb(ds, cfg, hp, state, batch=np.array(b))
            batch_grads.append(gb(x0))
        np.testing.assert_allclose(np.mean(batch_grads, axis=0), full, atol=1e-8)


class TestGradVterm:
    @pytest.mark.parametrize("seed", range(5))
    def test_finite_difference_match(self, seed):
        rep = checks.gradcheck_vterm(seed)
        assert rep.max_rel_error < 1e-6, str(rep)

    def test_alpha0_gradient_at_uniform_rows(self):
        ds, cfg, hp, state = checks.random_instance(9, n=6, M=2, Q=3,
                                                    labeled_frac=0.0)
        state.pi_hat = np.full((6, 2), 0.5)
        rep = checks.gradcheck_vterm(9)
        assert rep.max_rel_error < 1e-6


def _batch_instance(use_dirichlet):
    ds, cfg, hp, state = checks.random_instance(21, n=12, M=3, Q=3)
    rng = np.random.default_rng(21)
    A = rng.normal(size=(3, 3))
    state.Su = 0.5 * np.eye(3) + A @ A.T / 3
    state.mu_u = rng.normal(size=3)
    return ds, replace(cfg, use_dirichlet=use_dirichlet), hp, state


def _batch(ds, kind):
    """Five rows, unsorted: all labeled, all unlabeled, or both kinds."""
    lab = np.flatnonzero(ds.labeled_mask)[::-1]
    unl = np.flatnonzero(~ds.labeled_mask)[::-1]
    return {"labeled": lab[:5], "unlabeled": unl[:5],
            "mixed": np.concatenate([unl[:3], lab[:2]])}[kind]


_BATCH_CASES = pytest.mark.parametrize(
    "kind,use_dirichlet",
    list(itertools.product(["labeled", "unlabeled", "mixed"], [True, False])),
)


class TestBatchRows:
    """A mini-batch evaluation reads, differentiates and scales only its rows."""

    @_BATCH_CASES
    def test_vterm_rows_restriction(self, kind, use_dirichlet):
        ds, cfg, hp, state = _batch_instance(use_dirichlet)
        rows = _batch(ds, kind)
        np.testing.assert_array_equal(
            vterm_rows(state, ds, cfg, hp.noise, rows=rows),
            vterm_rows(state, ds, cfg, hp.noise)[rows],
        )

    @_BATCH_CASES
    def test_vterm_partials_restriction(self, kind, use_dirichlet):
        # on a dataset of the batch rows alone, sigma and alpha0 sum over its rows
        ds, cfg, hp, state = _batch_instance(use_dirichlet)
        rows = _batch(ds, kind)
        ds_b = Dataset(X=ds.X[rows], y=ds.y[rows], labels=ds.labels[rows],
                       prior_pi=ds.prior_pi[rows])
        state_b = replace(state, pi_hat=state.pi_hat[rows])
        d_alpha0, d_sigma = gradients.vterm_partials(state_b, ds_b, cfg)
        pi_b = state_b.pi_hat
        per_output = [-np.sum(pi_b[:, m]) for m in range(cfg.M)]
        np.testing.assert_allclose(d_sigma, per_output, rtol=1e-14)
        # alpha0 partial over the unlabeled rows
        pu = pi_b[~ds_b.labeled_mask]
        n_u, M, a0 = pu.shape[0], cfg.M, cfg.alpha0
        expect = 0.0
        if use_dirichlet:
            expect = (np.sum(digamma(a0 + pu)) - n_u * M * digamma(M * a0 + 1.0)
                      - n_u * M * digamma(a0) + n_u * M * digamma(M * a0))
        np.testing.assert_allclose(d_alpha0, expect, rtol=1e-13, atol=1e-13)

    @_BATCH_CASES
    def test_rows_outside_batch_are_not_read(self, kind, use_dirichlet):
        ds, cfg, hp, state = _batch_instance(use_dirichlet)
        rows = _batch(ds, kind)
        outside = np.ones(ds.n, dtype=bool)
        outside[rows] = False
        prior = ds.prior_pi.copy()
        prior[outside] = np.nan
        ds_p = Dataset(X=ds.X, y=ds.y, labels=ds.labels, prior_pi=prior)
        pi = state.pi_hat.copy()
        pi[outside] = np.nan
        state_p = replace(state, pi_hat=pi)

        value, bundle = gradients.elbo_svb_with_grad(ds, cfg, hp, state, batch=rows)
        value_p, bundle_p = gradients.elbo_svb_with_grad(ds_p, cfg, hp, state_p, batch=rows)
        assert np.isfinite(value_p) and value_p == value
        for name, g in vars(bundle).items():
            g_p = getattr(bundle_p, name)
            if g is None:
                assert g_p is None
                continue
            assert np.all(np.isfinite(g_p)), name
            np.testing.assert_array_equal(g_p, g, err_msg=name)

        svb_p = svi.elbo_svb(ds_p, cfg, hp, state_p, batch=rows)
        assert np.isfinite(svb_p)
        assert svb_p == svi.elbo_svb(ds, cfg, hp, state, batch=rows)

    @pytest.mark.parametrize("with_hard_row", [True, False])
    def test_vterm_rows_restriction_with_a_hard_prior_row(self, with_hard_row):
        # one more labeled prior row one-hot, its pi row at the prior: a
        # batch's values do not depend on its other rows
        ds, cfg, hp, state = _batch_instance(True)
        ds_h, hard = _with_hard_prior_row(ds)
        state.pi_hat[hard] = ds_h.prior_pi[hard]
        others = np.flatnonzero(np.arange(ds.n) != hard)[::-1]
        rows = np.concatenate([others[:4], [hard], others[4:]]) if with_hard_row else others
        np.testing.assert_array_equal(
            vterm_rows(state, ds_h, cfg, hp.noise, rows=rows),
            vterm_rows(state, ds_h, cfg, hp.noise)[rows],
        )

    def test_vterm_rows_finite_at_a_hard_prior_row(self):
        ds, cfg, hp, state = _batch_instance(True)
        ds_h, hard = _with_hard_prior_row(ds)
        state.pi_hat[hard] = ds_h.prior_pi[hard]
        v = vterm_rows(state, ds_h, cfg, hp.noise)
        assert np.all(np.isfinite(v))
        # the labeled KL of a row at its one-hot prior is 0
        noise_term = -0.5 * np.sum(state.pi_hat[hard] * np.log(2 * np.pi * hp.noise.sigma**2))
        assert v[hard] == noise_term


class TestVariationalGrad:
    """The E-phase's closed-form step (svi.batch_step) reads only the batch rows."""

    @pytest.mark.parametrize("n", [4000, 1236])
    def test_gathered_tables_equal_the_tables_of_the_rows(self, n):
        ds, _, hp, state = checks.random_instance(n, n=n, M=2, Q=30)
        tables, _ = svi.qu_restart(ds, hp, state.pi_hat)
        assert tables.psi.shape == (2, n, 30) and tables.r.shape == (2, n)
        rng = np.random.default_rng(n)
        for size in (1, 2, 17, 100):
            for _ in range(3):
                rows = rng.choice(n, size=size, replace=False)
                own = svi.row_tables(ds.X[rows], hp)
                psi, r = tables.gather(rows)
                np.testing.assert_array_equal(psi, own.psi)
                np.testing.assert_array_equal(r, own.r)
                # the E-step's matrix-vector products see the same layout too
                assert all(p.flags.c_contiguous for p in psi)

    @_BATCH_CASES
    def test_rows_outside_batch_are_not_read(self, kind, use_dirichlet):
        ds, cfg, hp, state = _batch_instance(use_dirichlet)
        rows = _batch(ds, kind)
        outside = np.ones(ds.n, dtype=bool)
        outside[rows] = False
        prior = ds.prior_pi.copy()
        prior[outside] = np.nan
        y = ds.y.copy()
        y[outside] = np.nan
        ds_p = Dataset(X=ds.X, y=y, labels=ds.labels, prior_pi=prior)
        pi_p = state.pi_hat.copy()
        pi_p[outside] = np.nan

        tables, qu = svi.qu_restart(ds, hp, state.pi_hat)
        steps = []
        for d, pi in ((ds, state.pi_hat.copy()), (ds_p, pi_p)):
            new = svi.batch_step(d, cfg, hp.noise.sigma, tables, rows, pi, qu)
            steps.append((pi, new))
        (pi, new), (pi_p, new_p) = steps
        assert np.all(np.isfinite(pi_p[rows]))
        np.testing.assert_array_equal(pi_p[rows], pi[rows])
        assert np.all(np.isnan(pi_p[outside]))
        for got, ref in zip(new_p, new):
            assert np.all(np.isfinite(got))
            np.testing.assert_array_equal(got, ref)


class TestHyperGrad:
    """elbo_svb_with_grad's hyperparameter gradient differentiates the bound."""

    @pytest.mark.parametrize("seed", [40, 41])
    @pytest.mark.parametrize("use_dirichlet", [True, False])
    def test_finite_difference_match(self, seed, use_dirichlet):
        ds, cfg, hp, state = _two_dim(seed, with_qu=True)
        cfg = replace(cfg, use_dirichlet=use_dirichlet)
        pack = ParamPack(cfg, hp, with_alpha0=use_dirichlet)
        x0 = pack.pack(hp, alpha0=cfg.alpha0)

        def value(x):
            hp_x, a0 = pack.unpack(x)
            return svi.elbo_svb(ds, cfg.with_alpha0(a0), hp_x, state)

        def grad(x):
            hp_x, a0 = pack.unpack(x)
            _, b = gradients.elbo_svb_with_grad(ds, cfg.with_alpha0(a0), hp_x, state)
            return pack.grad_to_vec(b)

        rep = finite_diff_check(value, grad, x0)
        assert rep.max_rel_error < 1e-6, str(rep)

    @pytest.mark.parametrize("seed", [0, 3])
    def test_finite_difference_match_at_a_fitted_point(self, seed):
        """The same check where a short fit ends, with Q = 30 inducing inputs on the unit interval.

        There cond(Kuu) stays above 1e6 and the bound's rounding noise
        is about 1e-11: a central difference at the default step 1e-5
        has a truncation error of about 1e-6 in the log-L coordinate,
        and at 3e-6 the noise alone reaches 1.2e-6 at some fitted
        points.  So the difference is Richardson-extrapolated from the
        steps 4e-5 and 2e-5 (_richardson_check), whose error stayed
        below 1.5e-7 at both seeds and at 1 and 2 BLAS threads.
        """
        ds, cfg, hp, state = _fitted_point(seed)
        pack = ParamPack(cfg, hp, with_alpha0=True)
        x0 = pack.pack(hp, alpha0=cfg.alpha0)

        def value(x):
            hp_x, a0 = pack.unpack(x)
            return svi.elbo_svb(ds, cfg.with_alpha0(a0), hp_x, state)

        def grad(x):
            hp_x, a0 = pack.unpack(x)
            _, b = gradients.elbo_svb_with_grad(ds, cfg.with_alpha0(a0), hp_x, state)
            return pack.grad_to_vec(b)

        rep = _richardson_check(value, grad, x0, h=4e-5)
        assert rep.max_rel_error < 1e-6, str(rep)

    @pytest.mark.parametrize("seed", [40, 41])
    def test_qu_optimum_differentiates_the_bound_maximised_over_qu(self, seed):
        ds, cfg, hp, state = _two_dim(seed)
        rep = _check_qu_optimum(ds, cfg, hp, state, h=1e-5)
        assert rep.max_rel_error < 1e-6, str(rep)

    @pytest.mark.parametrize("seed", [0, 3])
    def test_qu_optimum_at_a_fitted_point(self, seed):
        ds, cfg, hp, state = _fitted_point(seed)
        rep = _check_qu_optimum(ds, cfg, hp, state, h=3e-6)
        assert rep.max_rel_error < 1e-6, str(rep)


def _richardson_check(value, grad, x0, h):
    """finite_diff_check with the central differences at h and h / 2 Richardson-extrapolated.

    (4 D(h / 2) - D(h)) / 3 cancels the h^2 term of the truncation error,
    so a step large against the bound's rounding noise can be used.
    """
    g = grad(x0)
    coarse = finite_diff_check(value, g, x0, h=h).fd
    fine = finite_diff_check(value, g, x0, h=h / 2).fd
    fd = (4.0 * fine - coarse) / 3.0
    rel = np.abs(g - fd) / np.maximum(1.0, np.maximum(np.abs(g), np.abs(fd)))
    return gradients.FiniteDiffReport(rel_errors=rel, fd=fd, analytic=g, names=None)


def _fitted_point(seed):
    """(ds, cfg, hp, state) where a short stochastic fit ends, with cond(Kuu) >= 1e6.

    Q = 30 inducing inputs on the unit interval; cfg carries the fitted alpha0.
    """
    sc = experiments.SyntheticConfig(M=2, per_source_count=60, gamma=1.0, l_frac=0.2,
                                     x_range=(0.0, 1.0), seed=seed)
    ds, _ = experiments.generate_synthetic(sc)
    cfg = model.ModelConfig(M=2, Q=30, alpha0=0.3)
    opt = trainer.OptimizerConfig(em_outer_iters=2, em_inner_stat_iters=20,
                                  em_inner_hyp_iters=2, batch_size=30, seed=seed)
    fit = trainer.fit_svb_em(ds, cfg, None, opt)
    hp = fit.final_hp
    assert np.linalg.cond(_jittered_kuu(hp)) >= 1e6
    return ds, cfg.with_alpha0(fit.final_alpha0), hp, fit.final_state


def _jittered_kuu(hp):
    """The jittered Kuu at hp that kernels.chol_jitter factors."""
    kuu = kernels.kuu_matrix(hp.inducing.W, hp.latent)
    return kuu + kernels.chol_jitter(kuu)[1] * np.eye(len(kuu))


def _check_qu_optimum(ds, cfg, hp, state, h):
    """elbo_svb_with_grad with qu_optimum against L*(hp), elbo_svb at optimal_qu(hp).

    The value must equal L* to 1e-10 relative at hp; returns the finite
    difference report of the gradient against L*.
    """
    pack = ParamPack(cfg, hp, with_alpha0=True)
    x0 = pack.pack(hp, alpha0=cfg.alpha0)

    def value(x):
        hp_x, a0 = pack.unpack(x)
        at = VariationalState(state.pi_hat)
        at.mu_u, at.Su = svi.optimal_qu(ds, cfg.with_alpha0(a0), hp_x, at)
        return svi.elbo_svb(ds, cfg.with_alpha0(a0), hp_x, at)

    def evaluate(x):
        hp_x, a0 = pack.unpack(x)
        val, b, _ = gradients.elbo_svb_with_grad(ds, cfg.with_alpha0(a0), hp_x,
                                                 VariationalState(state.pi_hat), qu_optimum=True)
        return val, pack.grad_to_vec(b)

    assert evaluate(x0)[0] == pytest.approx(value(x0), rel=1e-10)
    return finite_diff_check(value, lambda x: evaluate(x)[1], x0, h=h)


def _ld_tril_inverse(L):
    """L^-1 in long double for a lower-triangular L, by forward substitution."""
    L = L.astype(np.longdouble)
    eye = np.eye(len(L), dtype=np.longdouble)
    Linv = np.zeros_like(L)
    for i in range(len(L)):
        Linv[i] = (eye[i] - L[i, :i] @ Linv[:i]) / L[i, i]
    return Linv


def _ld_inverse(A):
    """(A^-1, log|A|) in long double, by Cholesky and forward substitution."""
    A = A.astype(np.longdouble)
    n = len(A)
    L = np.zeros_like(A)
    for j in range(n):
        L[j, j] = np.sqrt(A[j, j] - L[j, :j] @ L[j, :j])
        L[j + 1 :, j] = (A[j + 1 :, j] - L[j + 1 :, :j] @ L[j, :j]) / L[j, j]
    Linv = _ld_tril_inverse(L)
    return Linv.T @ Linv, 2 * np.sum(np.log(np.diag(L)))


def _ld_factor_inverse(hp):
    """L^-1 in long double for chol_jitter's float64 factor L of Kuu at hp, taken as exact."""
    cho = kernels.chol_jitter(kernels.kuu_matrix(hp.inducing.W, hp.latent))[0]
    return _ld_tril_inverse(np.tril(cho[0]))


def _ld_reference(ds, cfg, hp, state):
    """The stochastic bound's per-row formulas in long double, on the float64 kernel blocks.

    q(v) = N(m, S) is state's, with u = L v and L chol_jitter's factor
    of Kuu, taken as exact like the kernel blocks.  Returns
    (value, [(r, dKfu) per output], dKuu), the matrix-level gradients at
    fixed q(v) before the kernel chain: each row's derivative w.r.t.
    Psi = Kfu L^-T, d resid m' - d Psi (S - I), is taken to Kfu by L^-1
    and to Kuu by the Cholesky pullback of L' Lbar = -Psi_bar' Psi
    (Murray 2016).  V is taken from vterm_rows.
    """
    ld = np.longdouble
    Linv = _ld_factor_inverse(hp)
    _, logdet_s = _ld_inverse(state.Su)
    m_v, S = state.mu_u.astype(ld), state.Su.astype(ld)
    T = S - np.eye(len(S), dtype=ld)
    t2 = kernels.sqdiff(ds.X, hp.inducing.W)
    value, X, per_output = ld(0), np.zeros(Linv.shape, dtype=ld), []
    for m, out in enumerate(hp.outputs):
        kfu = kernels.kfu_block(t2, out, hp.latent).K.astype(ld)
        psi = kfu @ Linv.T
        r = ld(kernels.kff_diag_value(out, hp.latent)) - np.sum(psi * psi, axis=1)
        var = r + np.sum((psi @ S) * psi, axis=1)
        d = state.pi_hat[:, m].astype(ld) / ld(hp.noise.sigma[m]) ** 2
        resid = ds.y.astype(ld) - psi @ m_v
        # the noise normaliser is V's (vterm_rows)
        value += np.sum(-0.5 * d * (resid**2 + var))
        dpsi = (d * resid)[:, None] * m_v - d[:, None] * (psi @ T)
        per_output.append((r, dpsi @ Linv))
        X -= dpsi.T @ psi
    P = np.tril(X)
    P[np.diag_indices_from(P)] *= 0.5
    P = Linv.T @ P @ Linv
    kl = 0.5 * (np.trace(S) + m_v @ m_v - len(m_v) - logdet_s)
    value += ld(float(np.sum(vterm_rows(state, ds, cfg, hp.noise)))) - kl
    return value, per_output, 0.5 * (P + P.T)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="long double is no wider than double here")
class TestHyperGradLongDouble:
    """elbo_svb_with_grad against the per-row formulas evaluated in long double.

    The instance is small and ill-conditioned: n = 200, Q = 30 inducing
    inputs packed on the unit interval (cond(Kuu) 8.5e6 to 1.0e7) and
    q(v) at its optimum.  The reference takes the float64 kernel blocks
    and chol_jitter's float64 factor of Kuu as exact.  On seeds 0-3 at 1
    and 2 BLAS threads the largest errors were 6.2e-15 of kff for r,
    7.8e-15 relative for the value, and 4.0e-14 and 1.0e-10 of the
    largest entry for dKfu and dKuu; the tolerances were set at about
    four times the errors of the unwhitened form (4.2e-13, 2.3e-13,
    2.1e-10 and 4.6e-9).
    """

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_the_per_row_formulas(self, seed, monkeypatch):
        ds, cfg, hp, state = checks.random_instance(seed, n=200, M=2, Q=30, dense_w=True)
        state.mu_u, state.Su = svi.optimal_qu(ds, cfg, hp, state)
        ref_value, ref_outputs, ref_dKuu = _ld_reference(ds, cfg, hp, state)

        seen = []
        chain = gradients._chain_convolved

        def spy(hp_, mg, *args, **kwargs):
            seen.append(mg)
            return chain(hp_, mg, *args, **kwargs)

        monkeypatch.setattr(gradients, "_chain_convolved", spy)
        value, _ = gradients.elbo_svb_with_grad(ds, cfg, hp, state)
        mg = seen[0]
        r = svi.row_tables(ds.X, hp).r

        assert abs(value - ref_value) <= 1e-12 * abs(ref_value)
        # the bound alone, from the per-row moments
        assert abs(value - svi.elbo_svb(ds, cfg, hp, state)) <= 1e-12 * abs(value)
        for m, (ref_r, ref_dKfu) in enumerate(ref_outputs):
            kff = kernels.kff_diag_value(hp.outputs[m], hp.latent)
            assert np.max(np.abs(r[m] - ref_r)) <= 2e-12 * kff
            assert np.max(np.abs(mg.dKfu_blocks[m] - ref_dKfu)) <= 1e-9 * np.max(np.abs(ref_dKfu))
        assert np.max(np.abs(mg.dKuu - ref_dKuu)) <= 2e-8 * np.max(np.abs(ref_dKuu))


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="long double is no wider than double here")
class TestOptimalQuLongDouble:
    """svi.optimal_qu against the optimal q(v) solved in long double.

    Same instances as TestHyperGradLongDouble (cond(Kuu) 8.5e6 to
    1.0e7), with the float64 kernel blocks and chol_jitter's float64
    factor L of Kuu taken as exact.  The reference forms
    Su^-1 = I + sum_m Psi_m' D_m Psi_m and Su^-1 mu_u = sum_m Psi_m' D_m y,
    Psi_m = Kfu_m L^-T, by explicit long-double inverses.  optimal_qu
    was within 4.0e-11 (mu_u) and 3.9e-13 (Su) of the largest entry on
    these seeds.
    """

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_the_long_double_optimum(self, seed):
        ld = np.longdouble
        ds, cfg, hp, state = checks.random_instance(seed, n=200, M=2, Q=30, dense_w=True)
        Linv = _ld_factor_inverse(hp)
        t2 = kernels.sqdiff(ds.X, hp.inducing.W)
        lam, h = np.eye(len(Linv), dtype=ld), np.zeros(len(Linv), dtype=ld)
        for m, out in enumerate(hp.outputs):
            psi = kernels.kfu_block(t2, out, hp.latent).K.astype(ld) @ Linv.T
            d = state.pi_hat[:, m].astype(ld) / ld(hp.noise.sigma[m]) ** 2
            lam += psi.T @ (d[:, None] * psi)
            h += psi.T @ (d * ds.y.astype(ld))
        ref_Su, _ = _ld_inverse(0.5 * (lam + lam.T))
        ref_mu = ref_Su @ h

        mu_u, Su = svi.optimal_qu(ds, cfg, hp, state)
        assert np.max(np.abs(mu_u - ref_mu)) <= 1e-10 * np.max(np.abs(ref_mu))
        assert np.max(np.abs(Su - ref_Su)) <= 1e-10 * np.max(np.abs(ref_Su))


def _with_hard_prior_row(ds):
    """ds with its first labeled prior row set one-hot; (dataset, that row)."""
    hard = np.flatnonzero(ds.labeled_mask)[0]
    prior = ds.prior_pi.copy()
    prior[hard] = 0.0
    prior[hard, ds.labels[hard] - 1] = 1.0
    return Dataset(X=ds.X, y=ds.y, labels=ds.labels, prior_pi=prior), hard


class TestBlasRouting:
    """The stochastic bound's N-row products run in engine._gemm and change no value.

    Every output is computed twice: as is, and with engine._gemm replaced
    by numpy's matmul, which records each call.  The outputs must agree
    bit for bit (a wrong transpose flag or operand breaks that), and every
    routed call must be made (a call site computed in numpy instead shows
    as a missing call).
    """

    @staticmethod
    def _outputs(ds, cfg, hp, state, rows):
        tables, qu = svi.qu_restart(ds, hp, state.pi_hat)
        out = {"qu_restart": [*tables, *qu]}
        for tag, batch in (("full", None), ("batch", rows)):
            val, b = gradients.elbo_svb_with_grad(ds, cfg, hp, state, batch=batch)
            out["elbo_svb_with_grad." + tag] = [val] + list(vars(b).values())
            out["elbo_svb." + tag] = [svi.elbo_svb(ds, cfg, hp, state, batch=batch)]
        pi = state.pi_hat.copy()
        qu = svi.batch_step(ds, cfg, hp.noise.sigma, tables, rows, pi, qu)
        out["batch_step"] = [pi, *qu]
        return out

    @pytest.mark.parametrize("seed", [1001, 2003])
    def test_matmul_in_place_of_gemm_gives_identical_outputs(self, seed, monkeypatch):
        ds, cfg, hp, state = checks.random_instance(seed, n=300, M=2, Q=20)
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(20, 20))
        state.Su = np.eye(20) + A @ A.T / 20
        state.mu_u = rng.normal(size=20)
        rows = rng.choice(ds.n, size=100, replace=False)
        routed = self._outputs(ds, cfg, hp, state, rows)

        calls = []

        def matmul(a, b):
            calls.append((a.shape, b.shape))
            return a @ b

        monkeypatch.setattr(engine, "_gemm", matmul)
        plain = self._outputs(ds, cfg, hp, state, rows)
        for name, values in routed.items():
            for got, ref in zip(values, plain[name]):
                np.testing.assert_array_equal(got, ref, err_msg=name)
        # each elbo_svb_with_grad makes 1 product per output (Psi' [d o Psi, a])
        # and 1 over all outputs' rows ([d o Psi, a] ([-T; m'] L^-1)); each
        # elbo_svb makes 1 (Psi Su), the batch step 2 over all outputs'
        # rows (Psi C^-T for the variances, with C the Cholesky factor of
        # q(v)'s precision and C^-1 from LAPACK's dtrtri, which forms no
        # Su; Psi' (d o Psi) for q(v)), and qu_restart 1 over all outputs'
        # rows (Psi' (d o Psi))
        assert len(calls) == 2 * (cfg.M + 1) + 2 * 1 + 2 + 1
        assert all(max(sa[0], sb[0]) >= len(rows) for sa, sb in calls)


def _two_dim(seed, with_qu=False):
    """A d = 2 instance; with_qu gives q(u) a random mean and covariance."""
    ds, cfg, hp, state = checks.random_instance(seed, n=10, M=2, Q=4, d=2)
    if with_qu:
        rng = np.random.default_rng(seed + 1)
        A = rng.normal(size=(4, 4))
        state.Su = 0.5 * np.eye(4) + A @ A.T / 4
        state.mu_u = rng.normal(size=4)
    return ds, cfg, hp, state


def _independent(hp):
    """Independent SE kernels with the convolved instance's noise and scales."""
    outs = [SEKernelParams(amp=abs(o.S), prec=0.5 * o.Lm) for o in hp.outputs]
    return IndependentSEHyperParams(outputs=outs, noise=hp.noise)


class TestTwoDimensionalInputs:
    """Finite-difference checks at d = 2, where each input dimension has its own t2."""

    @pytest.mark.parametrize("seed", [40, 41])
    def test_collapsed(self, seed):
        x0, value, grad, _ = checks.packed_cvb(*_two_dim(seed))
        rep = finite_diff_check(value, grad, x0)
        assert rep.max_rel_error < 1e-6, str(rep)

    @pytest.mark.parametrize("seed", [40, 41])
    def test_collapsed_independent_kernels(self, seed):
        ds, cfg, hp, state = _two_dim(seed)
        x0, value, grad, _ = checks.packed_cvb(ds, cfg, _independent(hp), state)
        rep = finite_diff_check(value, grad, x0)
        assert rep.max_rel_error < 1e-6, str(rep)

    @pytest.mark.parametrize("seed", [40, 41])
    def test_scmgp(self, seed):
        ds, cfg, hp, _ = _two_dim(seed)
        pack = ParamPack(cfg, hp)
        x0 = pack.pack(hp)

        def value(x):
            return gauss_term_cvb(ds, cfg, pack.unpack(x)[0], None)

        def grad(x):
            _, b = gradients.scmgp_loglik_with_grad(ds, cfg, pack.unpack(x)[0])
            return pack.grad_to_vec(b)

        rep = finite_diff_check(value, grad, x0)
        assert rep.max_rel_error < 1e-6, str(rep)

    @pytest.mark.parametrize("seed", [40, 41])
    @pytest.mark.parametrize("batch", [None, [7, 2, 9, 0, 4]])
    def test_stochastic(self, seed, batch):
        ds, cfg, hp, state = _two_dim(seed, with_qu=True)
        x0, value, grad, _ = checks.packed_svb(ds, cfg, hp, state, batch=batch)
        rep = finite_diff_check(value, grad, x0)
        assert rep.max_rel_error < 1e-6, str(rep)


def _tensor_chain(X, rows, hp, mg):
    """Unconstrained (d_S, d_Lm, d_L) from full derivative tensors summed with einsum.

    The derivative tensors are written out from the closed forms here,
    independently of kernels' coefficients.
    """
    W, l = hp.inducing.W, hp.latent.L

    def t2_of(A, B):
        return np.moveaxis((A[:, None, :] - B[None, :, :]) ** 2, -1, 0)

    d_S = np.zeros(hp.n_outputs)
    d_Lm = np.zeros((hp.n_outputs, len(l)))
    Kuu = kernels.kuu_matrix(W, hp.latent)
    d_L = np.einsum("qp,dqp->d", mg.dKuu, -0.5 * t2_of(W, W) * Kuu)
    for m, out in enumerate(hp.outputs):
        Xm, lm = X[rows[m]], out.Lm
        if Xm.shape[0] == 0:
            continue
        # Kfu: scale prod sqrt(lm / (lm + l)), weight lm l / (lm + l)
        K = kernels.kfu_matrix(Xm, W, out, hp.latent)
        t2, tot = t2_of(Xm, W), (lm + l)[:, None, None]
        lm_, l_ = lm[:, None, None], l[:, None, None]
        dLm = K * (0.5 * l_ / (lm_ * tot) - 0.5 * (l_ / tot) ** 2 * t2)
        dL = K * (-0.5 / tot - 0.5 * (lm_ / tot) ** 2 * t2)
        G = mg.dKfu_blocks[m]
        scale = np.prod(np.sqrt(lm / (lm + l)))
        d_S[m] += np.sum(G * scale * np.exp(-0.5 * np.einsum("dnq,d->nq", t2, lm * l / (lm + l))))
        d_Lm[m] += np.einsum("nq,dnq->d", G, dLm)
        d_L += np.einsum("nq,dnq->d", G, dL)
        # Kff: everything through v = 2/lm + 1/l
        K = kernels.kff_matrix(Xm, Xm, out, out, hp.latent)
        t2 = t2_of(Xm, Xm)
        v = (2.0 / lm + 1.0 / l)[:, None, None]
        dv = -0.5 / v + 0.5 / v**2 * t2
        G = mg.dE_blocks[m]
        scale = np.prod(1.0 / np.sqrt(l * (2.0 / lm + 1.0 / l)))
        d_S[m] += np.sum(G * 2.0 * out.S * scale
                         * np.exp(-0.5 * np.einsum("dnp,d->np", t2, 1.0 / v[:, 0, 0])))
        d_Lm[m] += np.einsum("np,dnp->d", G, K * dv * (-2.0 / lm_**2))
        d_L += np.einsum("np,dnp->d", G, K * (-0.5 / l_ + dv * (-1.0 / l_**2)))
    return d_S, d_Lm * np.stack([o.Lm for o in hp.outputs]), d_L * l


class TestContractedChain:
    """The contraction against the forward blocks equals the tensor chain."""

    @staticmethod
    def _assert_blocks_close(got, ref):
        for g, r in zip(got, ref):
            np.testing.assert_allclose(g, r, rtol=0, atol=1e-12 * np.max(np.abs(r)))

    @staticmethod
    def _system(ds, hp, state, selection):
        if selection == "stacked":
            return build_cvb_system(ds, ModelConfig(M=2, Q=4), hp, state)
        rows = [np.flatnonzero(ds.labels == 1), np.zeros(0, dtype=int)]
        w_blocks = [np.full(len(r), s**-2) for r, s in zip(rows, hp.noise.sigma)]
        return engine.build_system(ds.X, ds.y, hp, rows, w_blocks)

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("selection", ["stacked", "one output empty"])
    @pytest.mark.parametrize("zero_amplitude", [False, True])
    def test_equals_the_tensor_chain(self, d, selection, zero_amplitude):
        ds, _, hp, state = checks.random_instance(50 + d, n=10, M=2, Q=4, d=d)
        if zero_amplitude:
            hp = replace(hp, outputs=[OutputKernelParams(S=0.0, Lm=hp.outputs[0].Lm),
                                      hp.outputs[1]])
        sys = self._system(ds, hp, state, selection)
        mg = engine.gauss_loglik_grads(sys)
        got = gradients._chain_convolved(hp, mg, sys.kuu_block, sys.fu_blocks, sys.ff_blocks)
        self._assert_blocks_close(got, _tensor_chain(ds.X, sys.rows, hp, mg))
        if zero_amplitude:
            # the precision derivatives vanish with S; dKfu/dS does not, but
            # with the other output empty the bound is even in S
            assert np.all(got[1][0] == 0.0)
            assert (got[0][0] != 0.0) == (selection == "stacked")

    @pytest.mark.parametrize("selection", ["stacked", "one output empty"])
    def test_independent_kernels_equal_the_tensor_chain(self, selection):
        ds, _, hp, state = checks.random_instance(52, n=10, M=2, Q=4, d=2)
        hpi = _independent(hp)
        sys = self._system(ds, hpi, state, selection)
        mg = engine.gauss_loglik_grads(sys)
        d_amp, d_prec = gradients._chain_independent(hpi, mg, sys.ff_blocks)
        ref_amp, ref_prec = np.zeros(2), np.zeros((2, 2))
        for m, out in enumerate(hpi.outputs):
            Xm = ds.X[sys.rows[m]]
            if Xm.shape[0] == 0:
                continue
            K = kernels.se_matrix(Xm, Xm, out)
            t2 = np.moveaxis((Xm[:, None, :] - Xm[None, :, :]) ** 2, -1, 0)
            ref_amp[m] = np.sum(mg.dE_blocks[m] * 2.0 / out.amp * K) * out.amp
            ref_prec[m] = np.einsum("np,dnp->d", mg.dE_blocks[m], -0.5 * t2 * K) * out.prec
        self._assert_blocks_close((d_amp, d_prec), (ref_amp, ref_prec))


class TestOneForwardPass:
    """The value the gradient functions return is the bound itself, bit for bit."""

    @pytest.mark.parametrize("seed", [60, 61])
    @pytest.mark.parametrize("d", [1, 2])
    def test_collapsed(self, seed, d):
        ds, cfg, hp, state = checks.random_instance(seed, n=12, M=2, Q=5, d=d)
        for h in (hp, _independent(hp)):
            assert gradients.elbo_cvb_with_grad(ds, cfg, h, state)[0] == elbo_cvb(ds, cfg, h, state)

    @pytest.mark.parametrize("seed", [60, 61])
    @pytest.mark.parametrize("d", [1, 2])
    def test_scmgp(self, seed, d):
        ds, cfg, hp, _ = checks.random_instance(seed, n=12, M=2, Q=5, d=d)
        for h in (hp, _independent(hp)):
            assert gradients.scmgp_loglik_with_grad(ds, cfg, h)[0] == gauss_term_cvb(ds, cfg, h, None)


class TestLogPrior:
    """The labeled priors are logged once per dataset, -inf where they are 0."""

    def test_values_and_unlabeled_rows(self):
        ds, _, _, _ = _batch_instance(True)
        ds_h, hard = _with_hard_prior_row(ds)
        labeled = ds_h.labeled_mask
        with np.errstate(divide="ignore"):
            expect = np.log(ds_h.prior_pi[labeled])
        np.testing.assert_array_equal(ds_h.log_prior[labeled], expect)
        assert np.sum(ds_h.log_prior[hard] == -np.inf) == ds_h.prior_pi.shape[1] - 1
        assert np.all(np.isnan(ds_h.log_prior[~labeled]))
        assert ds_h.log_prior is ds_h.log_prior
