"""The hyperparameter pack, and both fits through L-BFGS-B on the hyperparameters."""

import time
from dataclasses import replace

import numpy as np
import pytest

from wsmgp import bounds, checks, engine, gradients, svi, trainer
from wsmgp.baselines import fit_scmgp
from wsmgp.bounds import NoLabeledDataError, elbo_cvb
from wsmgp.experiments import SyntheticConfig, generate_synthetic
from wsmgp.kernels import OutputKernelParams
from wsmgp.model import ModelConfig
from wsmgp.trainer import (
    NonFiniteBoundError,
    OptimizerConfig,
    ParamPack,
    fit_cvb,
    fit_svb_em,
)


class TestTransforms:
    def test_round_trip_identity(self):
        ds, cfg, hp, state = checks.random_instance(0, n=6, M=2, Q=3)
        pack = ParamPack(cfg, hp, with_alpha0=True)
        x = pack.pack(hp, alpha0=cfg.alpha0)
        hp2, a0 = pack.unpack(x)
        assert a0 == pytest.approx(cfg.alpha0, rel=1e-12)
        np.testing.assert_allclose(hp2.latent.L, hp.latent.L, rtol=1e-12)
        np.testing.assert_allclose(hp2.noise.sigma, hp.noise.sigma, rtol=1e-12)


@pytest.mark.parametrize("field", ["batch_size", "em_inner_stat_iters", "em_inner_hyp_iters"])
def test_optimizer_config_rejects_negative_counts(field):
    with pytest.raises(ValueError, match=field):
        OptimizerConfig(**{field: -5})
    OptimizerConfig(**{field: 0})


def tiny_two_output_ds(seed=0, n_per=20):
    sc = SyntheticConfig(M=2, per_source_count=n_per, gamma=0.5, l_frac=0.3,
                         bias=0.0, seed=seed)
    return generate_synthetic(sc)


class TestFitCvb:
    def test_deterministic_trajectory(self):
        ds, _ = tiny_two_output_ds(3)
        cfg = ModelConfig(M=2, Q=8, alpha0=0.3)
        opt = OptimizerConfig(seed=5, restarts=1, em_outer_iters=3, optimize_alpha0=False)
        a = fit_cvb(ds, cfg, None, opt)
        b = fit_cvb(ds, cfg, None, opt)
        assert a.bound_trajectory == b.bound_trajectory

    def test_trajectory_non_decreasing(self, monkeypatch):
        pi_steps = []
        step = bounds.cvb_pi_step
        monkeypatch.setattr(bounds, "cvb_pi_step", lambda *a: pi_steps.append(1) or step(*a))
        ds, _ = tiny_two_output_ds(4)
        cfg = ModelConfig(M=2, Q=8, alpha0=0.3)
        opt = OptimizerConfig(seed=1, restarts=1, em_outer_iters=4, optimize_alpha0=False)
        rep = fit_cvb(ds, cfg, None, opt)
        traj = np.asarray(rep.bound_trajectory)
        assert np.all(np.diff(traj) >= -1e-7 * np.maximum(1.0, np.abs(traj[:-1])))
        assert traj[-1] >= traj[0]
        # the trajectory ends at the bound of the returned fit
        fresh = elbo_cvb(ds, cfg.with_alpha0(rep.final_alpha0), rep.final_hp, rep.final_state)
        assert traj[-1] == pytest.approx(fresh, rel=1e-12)
        # the trajectory holds the initial bound and the bound after each
        # run: round 0 (pi held, at most em_inner_hyp_iters iterations) and
        # the profiled run (em_outer_iters * em_inner_hyp_iters); evaluations
        # count the initial one, every objective call and every pi step
        assert len(traj) == 3
        assert_termination(rep, runs=2, iter_cap=40)
        assert rep.termination[0]["nit"] <= 10
        assert len(pi_steps) >= 4
        assert rep.evaluations == 1 + len(pi_steps) + sum(t["nfev"] for t in rep.termination)

    def test_a_failed_evaluation_leaves_pi_where_it_found_it(self, monkeypatch):
        # an evaluation that fails after its pi steps (as one whose system is
        # not positive definite does) reads as infeasible; the next one must
        # start from the pi the failed one started from
        firsts, failed = [], []
        seen = {"grads": 0, "first": True}
        step, grad = bounds.cvb_pi_step, gradients.elbo_cvb_with_grad

        def spied_step(*a):
            if seen["first"]:
                firsts.append(a[3].pi_hat.copy())
                seen["first"] = False
            return step(*a)

        def failing_grad(*a):
            seen["grads"] += 1
            stepped, seen["first"] = not seen["first"], True
            if seen["grads"] == 20:
                assert stepped  # a call of the profiled run
                failed.append((len(firsts) - 1, a[3].pi_hat.copy()))
                raise np.linalg.LinAlgError("the leading minor is not positive definite")
            return grad(*a)

        monkeypatch.setattr(bounds, "cvb_pi_step", spied_step)
        monkeypatch.setattr(gradients, "elbo_cvb_with_grad", failing_grad)
        ds, _ = tiny_two_output_ds(3)
        cfg = ModelConfig(M=2, Q=8, alpha0=0.3)
        rep = fit_cvb(ds, cfg, None, OptimizerConfig(seed=5, restarts=1, em_outer_iters=4))
        ((i, moved),) = failed
        assert not np.array_equal(moved, firsts[i])
        np.testing.assert_array_equal(firsts[i + 1], firsts[i])
        fresh = elbo_cvb(ds, cfg.with_alpha0(rep.final_alpha0), rep.final_hp, rep.final_state)
        assert rep.bound_trajectory[-1] == pytest.approx(fresh, rel=1e-12)

    def test_improves_by_more_than_one_nat(self):
        for seed in range(3):
            ds, _ = tiny_two_output_ds(seed + 10, n_per=25)
            cfg = ModelConfig(M=2, Q=8, alpha0=0.3)
            opt = OptimizerConfig(seed=seed, restarts=1, em_outer_iters=6,
                                  optimize_alpha0=False)
            rep = fit_cvb(ds, cfg, None, opt)
            assert rep.bound_trajectory[-1] > rep.bound_trajectory[0] + 1.0

    def test_final_parameters_satisfy_invariants(self):
        ds, _ = tiny_two_output_ds(6)
        cfg = ModelConfig(M=2, Q=6, alpha0=0.3)
        opt = OptimizerConfig(seed=2, restarts=1, em_outer_iters=3, optimize_alpha0=True)
        rep = fit_cvb(ds, cfg, None, opt)
        hp = rep.final_hp
        assert np.all(hp.latent.L > 0)
        assert np.all(hp.noise.sigma > 0)
        assert rep.final_alpha0 > 0
        rows = rep.final_state.pi_hat.sum(axis=1)
        np.testing.assert_allclose(rows, 1.0, atol=1e-10)

    def test_sigma_recovery_single_output(self):
        # M=1 fully labeled: recover the generating noise within +-50%
        # in at least 8 of 10 seeds
        hits = 0
        for seed in range(10):
            sc = SyntheticConfig(M=1, per_source_count=120, gamma=1.0,
                                 l_frac=1.0, bias=0.0, seed=300 + seed)
            ds, _ = generate_synthetic(sc)
            cfg = ModelConfig(M=1, Q=15)
            opt = OptimizerConfig(seed=seed, restarts=1, em_outer_iters=8)
            rep = fit_cvb(ds, cfg, None, opt)
            sig = rep.final_hp.noise.sigma[0]
            hits += 0.125 <= sig <= 0.375
        assert hits >= 8

    def test_no_labeled_rows_raise_no_labeled_data_error(self):
        # SCMGP fits the labeled rows alone; with none the error says so
        # instead of reporting a bound that failed to evaluate
        ds, cfg, hp, _ = checks.random_instance(0, n=10, labeled_frac=0.0)
        with pytest.raises(NoLabeledDataError):
            fit_cvb(ds, cfg, None, OptimizerConfig(restarts=1), scmgp=True)
        for hp0 in (None, hp):
            with pytest.raises(NoLabeledDataError):
                fit_scmgp(ds, cfg, OptimizerConfig(restarts=1), hp0)

    def test_nonfinite_initial_bound_raises(self):
        ds, _ = tiny_two_output_ds(7)
        ds.y[0] = 1e200
        cfg = ModelConfig(M=2, Q=6)
        with pytest.raises(NonFiniteBoundError):
            fit_cvb(ds, cfg, None, OptimizerConfig(seed=0, restarts=1, em_outer_iters=1))


    def test_nonfinite_kernel_at_the_start_raises(self):
        # an amplitude whose square overflows makes Kff, hence E_m, non-finite:
        # the factor's ValueError becomes NonFiniteBoundError
        ds, _ = tiny_two_output_ds(7)
        cfg = ModelConfig(M=2, Q=6)
        hp = trainer.default_hyperparams(ds, cfg)
        outs = [hp.outputs[0], OutputKernelParams(S=1e200, Lm=hp.outputs[1].Lm)]
        hp0 = replace(hp, outputs=outs)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NonFiniteBoundError, match="infs or NaNs"):
            fit_cvb(ds, cfg, hp0, OptimizerConfig(seed=0, restarts=1, em_outer_iters=1))


def _recording_objective(gradient_sign):
    """objective(x) -> (f, g, built) of f = |x - 1|^2, built a copy of x, and its calls."""
    calls = []

    def objective(x):
        calls.append(x.copy())
        return float(np.sum((x - 1.0) ** 2)), gradient_sign * 2.0 * (x - 1.0), x.copy()

    return objective, calls


class TestMPhaseHandOff:
    """_m_phase hands on what the objective built at the returned point, when it has it."""

    def test_built_at_the_returned_point(self):
        objective, calls = _recording_objective(1.0)
        x, bound, term, n, built = trainer._m_phase(objective, np.zeros(3), None, {"maxiter": 5})
        assert n == len(calls) and term["nfev"] == n
        np.testing.assert_array_equal(calls[-1], x)
        np.testing.assert_array_equal(built, x)
        assert bound == -float(np.sum((x - 1.0) ** 2))

    def test_none_when_the_last_call_was_elsewhere(self):
        # a gradient of the wrong sign fails the first line search, and
        # scipy returns the start, which was not the last point tried
        objective, calls = _recording_objective(-1.0)
        x, bound, term, n, built = trainer._m_phase(objective, np.zeros(3), None, {"maxiter": 5})
        assert term["message"].startswith("ABNORMAL")
        assert not np.array_equal(calls[-1], x)
        assert built is None
        assert bound == -3.0

    def test_a_trial_point_that_is_not_positive_definite_ends_the_phase(self):
        # beyond 0.5 the objective's factorization fails: the M-phase keeps
        # its last good point and its bound, and the fit goes on
        def objective(x):
            if np.any(x > 0.5):
                raise np.linalg.LinAlgError("the leading minor is not positive definite")
            return float(np.sum((x - 1.0) ** 2)), 2.0 * (x - 1.0), x.copy()

        x, bound, term, n, built = trainer._m_phase(objective, np.zeros(3), None, {"maxiter": 5})
        assert np.all(x <= 0.5) and bound == -float(np.sum((x - 1.0) ** 2))
        assert n == term["nfev"] >= 2

    def test_fit_equals_one_with_nothing_handed_on(self, monkeypatch):
        # the profiled run then takes one more evaluation at its returned
        # point, which steps pi there, so its path changes; round 0 holds pi
        # and must not change a bit, and either fit ends at its fresh bound
        ds, _ = tiny_two_output_ds(3)
        cfg = ModelConfig(M=2, Q=8, alpha0=0.3)
        opt = OptimizerConfig(seed=5, restarts=2, em_outer_iters=4)
        handed = fit_cvb(ds, cfg, None, opt)
        m_phase = trainer._m_phase
        monkeypatch.setattr(trainer, "_m_phase", lambda *a: m_phase(*a)[:4] + (None,))
        own = fit_cvb(ds, cfg, None, opt)
        assert handed.bound_trajectory[0] == own.bound_trajectory[0]
        assert handed.termination[0::2] == own.termination[0::2]
        for rep in (handed, own):
            fresh = elbo_cvb(ds, cfg.with_alpha0(rep.final_alpha0), rep.final_hp,
                             rep.final_state)
            assert rep.bound_trajectory[-1] == pytest.approx(fresh, rel=1e-12)
            assert max(rep.restart_bounds) == rep.bound_trajectory[-1]

    def test_stochastic_fit_equals_one_with_nothing_handed_on(self, monkeypatch):
        # each E-phase then takes its tables and q(u) from one more
        # evaluation at the M-phase's point, which must give the same ones
        ds, _ = tiny_two_output_ds(8, n_per=15)
        cfg = ModelConfig(M=2, Q=6, alpha0=0.3)
        opt = OptimizerConfig(seed=3, em_outer_iters=3, em_inner_stat_iters=10,
                              em_inner_hyp_iters=3, batch_size=8)
        handed = fit_svb_em(ds, cfg, None, opt)
        m_phase = trainer._m_phase
        monkeypatch.setattr(trainer, "_m_phase", lambda *a: m_phase(*a)[:4] + (None,))
        own = fit_svb_em(ds, cfg, None, opt)
        assert handed.bound_trajectory == own.bound_trajectory
        assert handed.evaluations == own.evaluations
        for name in ("pi_hat", "mu_u", "Su"):
            np.testing.assert_array_equal(getattr(handed.final_state, name),
                                          getattr(own.final_state, name))

    def test_pi_steps_build_no_kernel_half(self, monkeypatch):
        # every kernel half of the collapsed fit is built by an M-phase
        # evaluation (or the start's); pi steps reuse them
        ds, _ = tiny_two_output_ds(3)
        cfg = ModelConfig(M=2, Q=8, alpha0=0.3)
        counts = {"kernel": 0, "grad": 0, "pi": 0}

        def counted(name, fn):
            def wrapper(*a, **kw):
                counts[name] += 1
                return fn(*a, **kw)
            return wrapper

        monkeypatch.setattr(engine, "_kernel_half", counted("kernel", engine._kernel_half))
        monkeypatch.setattr(gradients, "elbo_cvb_with_grad",
                            counted("grad", gradients.elbo_cvb_with_grad))
        monkeypatch.setattr(bounds, "cvb_pi_step", counted("pi", bounds.cvb_pi_step))
        rep = fit_cvb(ds, cfg, None, OptimizerConfig(seed=5, restarts=1, em_outer_iters=4))
        assert not any(t["message"].startswith("ABNORMAL") for t in rep.termination)
        assert counts["pi"] > 0
        assert counts["kernel"] == counts["grad"]
        assert rep.evaluations == counts["grad"] + counts["pi"]


def assert_termination(rep, runs, iter_cap):
    """One scipy stopping record per optimizer run, each within its iteration cap."""
    assert len(rep.termination) == runs
    for t in rep.termination:
        assert set(t) == {"message", "nit", "nfev", "success"}
        assert isinstance(t["message"], str) and t["message"]
        assert isinstance(t["success"], bool)
        assert 0 <= t["nit"] <= iter_cap and t["nfev"] >= 1


class TestFitSvbEm:
    def test_full_batch_trajectory_non_decreasing(self):
        ds, _ = tiny_two_output_ds(8, n_per=15)
        cfg = ModelConfig(M=2, Q=6, alpha0=0.3)
        opt = OptimizerConfig(
            seed=3, restarts=1, em_outer_iters=5, em_inner_stat_iters=10,
            em_inner_hyp_iters=5, batch_size=0, optimize_alpha0=False,
        )
        rep = fit_svb_em(ds, cfg, None, opt)
        traj = np.asarray(rep.bound_trajectory)
        assert np.all(np.diff(traj) >= -1e-6 * np.maximum(1.0, np.abs(traj[:-1])))
        # one record per M-phase; evaluations count the start, the E-phase
        # steps and the M-phases' evaluations
        assert_termination(rep, runs=5, iter_cap=5)
        assert 1 + 5 * 10 + sum(t["nfev"] for t in rep.termination) == rep.evaluations

    def test_q_u_comes_from_the_m_phase_evaluations(self, monkeypatch):
        # each round's E-phase and the final state take Kuu^-1, the row
        # tables and q(u) from elbo_svb_with_grad's call at the M-phase's
        # returned point (round 0: the start's), so svi.qu_restart never runs
        def no_restart(*a, **kw):
            raise AssertionError("svi.qu_restart ran")

        monkeypatch.setattr(svi, "qu_restart", no_restart)
        ds, _ = tiny_two_output_ds(8, n_per=15)
        cfg = ModelConfig(M=2, Q=6, alpha0=0.3)
        opt = OptimizerConfig(seed=3, em_outer_iters=3, em_inner_stat_iters=10,
                              em_inner_hyp_iters=3, batch_size=8)
        rep = fit_svb_em(ds, cfg, None, opt)
        _, _, (_, _, qu) = gradients.elbo_svb_with_grad(
            ds, cfg.with_alpha0(rep.final_alpha0), rep.final_hp, rep.final_state,
            qu_optimum=True)
        mu_u, Su = qu.moments()
        np.testing.assert_array_equal(rep.final_state.mu_u, mu_u)
        np.testing.assert_array_equal(rep.final_state.Su, Su)

    def test_tracks_collapsed_fit_within_two_nats(self):
        sc = SyntheticConfig(M=2, per_source_count=30, gamma=1.0, l_frac=0.5,
                             bias=0.0, seed=21)
        ds, _ = generate_synthetic(sc)  # N = 60
        # Q must keep the intrinsic residual penalty of the stochastic
        # bound small, otherwise the two optima differ by construction
        cfg = ModelConfig(M=2, Q=30, alpha0=0.3)
        opt_c = OptimizerConfig(seed=0, restarts=2, optimize_alpha0=False)
        rep_c = fit_cvb(ds, cfg, None, opt_c)
        opt_s = OptimizerConfig(
            seed=0, restarts=1, em_outer_iters=50, em_inner_stat_iters=25,
            em_inner_hyp_iters=10, batch_size=0, optimize_alpha0=False,
        )
        rep_s = fit_svb_em(ds, cfg, None, opt_s)
        # round 0 and the profiled run of either restart
        assert_termination(rep_c, runs=4, iter_cap=opt_c.em_outer_iters * opt_c.em_inner_hyp_iters)
        assert all(t["nit"] <= opt_c.em_inner_hyp_iters for t in rep_c.termination[0::2])
        assert_termination(rep_s, runs=50, iter_cap=10)
        gap = abs(rep_c.bound_trajectory[-1] - rep_s.bound_trajectory[-1])
        assert gap <= 2.0, "gap %.3f nats" % gap

    def test_wall_clock_scales_linearly_in_batch_size(self):
        # measured at batch sizes in the documented 1:2:4 ratio but scaled
        # into the regime where the per-row work dominates fixed overhead
        sc = SyntheticConfig(M=2, per_source_count=800, gamma=1.0, l_frac=0.5,
                             bias=0.0, seed=22)
        ds, _ = generate_synthetic(sc)  # N = 1600
        cfg = ModelConfig(M=2, Q=15, alpha0=0.3)
        sizes = [400, 800, 1600]
        opts = [
            OptimizerConfig(
                seed=1, restarts=1, em_outer_iters=1, em_inner_stat_iters=250,
                em_inner_hyp_iters=1, batch_size=b, optimize_alpha0=False,
            )
            for b in sizes
        ]
        for opt in opts:
            fit_svb_em(ds, cfg, None, opt)  # warm-up (jit, caches)
        # the sizes alternate within each repeat, so load drift on the host
        # hits all of them alike, and the fastest repeat is the least
        # disturbed; nine repeats leave a burst of host load little chance
        # of disturbing every repeat of one size
        reps = [[] for _ in sizes]
        for _ in range(9):
            for opt, r in zip(opts, reps):
                t0 = time.perf_counter()
                fit_svb_em(ds, cfg, None, opt)
                r.append(time.perf_counter() - t0)
        times = [min(r) for r in reps]
        x = np.asarray(sizes, dtype=float)
        y = np.asarray(times)
        # least-squares line fit; R^2 must indicate a clear linear trend
        A = np.vstack([x, np.ones_like(x)]).T
        coef, *_ = np.linalg.lstsq(A, y, rcond=None)
        resid = y - A @ coef
        r2 = 1.0 - np.sum(resid**2) / np.sum((y - y.mean()) ** 2)
        assert coef[0] > 0
        assert r2 > 0.9, "R^2 = %.3f (times %s)" % (r2, times)
