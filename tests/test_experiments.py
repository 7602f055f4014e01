"""experiments.joint_latent_draw: one factor of the dense joint prior."""

import numpy as np

from wsmgp import kernels
from wsmgp.experiments import joint_latent_draw, paper_generating_hyperparams


def _joint_prior(X_blocks, outputs, lat):
    """The dense joint covariance of every block at its inputs."""
    return np.block([
        [kernels.kff_matrix(Xa, Xb, oa, ob, lat) for Xb, ob in zip(X_blocks, outputs)]
        for Xa, oa in zip(X_blocks, outputs)
    ])


def _blocks(sizes, seed=0):
    rng = np.random.default_rng(seed)
    return [np.sort(rng.uniform(-1.0, 1.0, n))[:, None] for n in sizes]


def test_draw_is_the_factor_times_the_next_normals():
    hp = paper_generating_hyperparams()
    X_blocks = _blocks((40, 30))
    (c, _), _ = kernels.chol_jitter(_joint_prior(X_blocks, hp.outputs, hp.latent))
    rng = np.random.default_rng(5)
    z = np.random.default_rng(5).standard_normal(70)
    f = joint_latent_draw(X_blocks, hp.outputs, hp.latent, rng)
    assert [len(b) for b in f] == [40, 30]
    np.testing.assert_allclose(np.concatenate(f), np.tril(c) @ z, rtol=0, atol=1e-12)
    # exactly the 70 normals were consumed
    assert rng.standard_normal() == np.random.default_rng(5).standard_normal(71)[-1]


def test_empirical_covariance_matches_the_prior():
    hp = paper_generating_hyperparams()
    X_blocks = [np.array([[-0.3], [0.0], [0.25]]), np.array([[-0.1], [0.2]])]
    K = _joint_prior(X_blocks, hp.outputs, hp.latent)
    rng = np.random.default_rng(11)
    draws = 2000
    F = np.array([np.concatenate(joint_latent_draw(X_blocks, hp.outputs, hp.latent, rng))
                  for _ in range(draws)])
    C = F.T @ F / draws  # the prior mean is zero
    # the standard error of a Gaussian second moment is
    # sqrt((K_ii K_jj + K_ij^2) / draws); allow five of them per entry
    sd = np.diag(K)
    se = np.sqrt((np.outer(sd, sd) + K**2) / draws)
    assert np.all(np.abs(C - K) <= 5.0 * se)
    # and the tolerance is tight enough to see a wrong covariance
    assert not np.all(np.abs(C - 1.2 * K) <= 5.0 * se)
