"""The collapsed bound, its V term, and the exact enumeration oracle."""

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve
from scipy.special import gammaln, logsumexp

from wsmgp import checks, engine, kernels
from wsmgp.bounds import (
    OracleTooLargeError,
    _sum_last,
    assignment_log_weights,
    build_cvb_system,
    compute_D,
    elbo_cvb,
    exact_marglik_oracle,
    gauss_term_cvb,
    scmgp_loglik,
    vterm,
    vterm_rows,
)
from wsmgp.kernels import NoiseParams
from wsmgp.model import (
    EPS_PI,
    ModelConfig,
    VariationalState,
    floor_simplex,
    make_dataset,
)


def state_from_pi(pi):
    return VariationalState(pi_hat=np.asarray(pi, dtype=float))


class TestComputeD:
    def test_direct_values(self):
        ds, cfg, hp, state = checks.random_instance(0, n=3, M=2)
        state.pi_hat = np.array([[1.0, 0.5], [0.5, 0.5], [0.25, 0.75]])
        D = compute_D(state, NoiseParams(sigma=np.array([0.25, 0.25])))
        assert D.block(0)[0] == pytest.approx(0.0625)
        assert D.block(1)[0] == pytest.approx(0.125)

    def test_floor_entry_finite_and_huge(self):
        ds, cfg, hp, state = checks.random_instance(0, n=2, M=2)
        state.pi_hat = np.array([[1.0 - EPS_PI, EPS_PI]] * 2)
        D = compute_D(state, NoiseParams(sigma=np.array([0.25, 0.25])))
        assert np.isfinite(D.block(1)[0])
        assert D.block(1)[0] == pytest.approx(0.0625 / EPS_PI, rel=1e-9)

    def test_argmax_invariant_under_common_noise_scale(self):
        rng = np.random.default_rng(1)
        ds, cfg, hp, state = checks.random_instance(1, n=6, M=3, Q=3)
        base = compute_D(state, NoiseParams(sigma=rng.uniform(0.1, 0.4, 3)))
        scaled = compute_D(state, NoiseParams(sigma=7.3 * rng.uniform(0.1, 0.4, 3)))
        # same sigma draw is required for the comparison
        rng = np.random.default_rng(1)
        ds2, cfg2, hp2, state2 = checks.random_instance(1, n=6, M=3, Q=3)
        sig = rng.uniform(0.1, 0.4, 3)
        a = compute_D(state, NoiseParams(sigma=sig))
        b = compute_D(state, NoiseParams(sigma=7.3 * sig))
        for n in range(6):
            row_a = np.array([a.block(m)[n] for m in range(3)])
            row_b = np.array([b.block(m)[n] for m in range(3)])
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


class TestElboCvb:
    def test_single_output_reduces_to_sparse_likelihood(self):
        ds, cfg, hp, state = checks.random_instance(3, n=8, M=1, Q=4,
                                                    labeled_frac=1.0)
        prior = np.ones((ds.n, 1))
        ds = make_dataset(ds.X, ds.y, labels=np.ones(ds.n, dtype=int),
                          prior_pi=prior, n_outputs=1)
        state.pi_hat = np.ones((ds.n, 1))
        assert elbo_cvb(ds, cfg, hp, state) == pytest.approx(
            scmgp_loglik(ds, cfg, hp), rel=1e-10
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
        ref = scmgp_loglik(ds, cfg, hp, labels=assign)
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
