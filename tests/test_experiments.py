"""experiments: the joint prior draw, label flips, and the table files."""

import numpy as np
import pytest

from wsmgp import kernels
from wsmgp.experiments import (
    flip_labels,
    joint_latent_draw,
    paper_generating_hyperparams,
    read_table,
    write_table,
)


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


def _labels(M, n=300, seed=0):
    """Labels 0..M, about a third of them 0 (unlabeled)."""
    rng = np.random.default_rng(seed)
    return np.where(rng.random(n) < 0.35, 0, rng.integers(1, M + 1, n))


def test_two_flips_at_one_seed_restore_two_sources():
    labels = _labels(2)
    once = flip_labels(labels, 0.4, 2, seed=7)
    assert 0 < np.sum(once != labels) < np.sum(labels > 0)
    # a flip swaps 1 and 2
    assert set(zip(labels[once != labels], once[once != labels])) == {(1, 2), (2, 1)}
    np.testing.assert_array_equal(flip_labels(once, 0.4, 2, seed=7), labels)


@pytest.mark.parametrize("M", [2, 3, 4])
def test_unlabeled_rows_are_never_flipped(M):
    labels = _labels(M, seed=M)
    flipped = flip_labels(labels, 1.0, M, seed=1)
    assert np.all(flipped[labels == 0] == 0)
    assert np.all(flipped[labels > 0] != labels[labels > 0])


def test_three_sources_shift_cyclically():
    labels = _labels(3)
    flipped = flip_labels(labels, 1.0, 3, seed=2)
    np.testing.assert_array_equal(flipped, np.where(labels > 0, labels % 3 + 1, 0))


@pytest.mark.parametrize("M", [2, 3])
def test_probability_zero_is_the_identity(M):
    labels = _labels(M, seed=5)
    np.testing.assert_array_equal(flip_labels(labels, 0.0, M, seed=3), labels)


def test_table_round_trip_is_exact(tmp_path):
    floats = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 0.1, 1.0 / 3.0])
    ints = np.array([0, -3, 7, 2**53 + 1, 1, 2, 3])
    words = ["ok", "error: a, b", 'say "x"', "", "nan", "1", "-"]
    path = tmp_path / "table.csv"
    write_table(path, {"f": floats, "i": ints, "s": words})
    text = path.read_text()
    assert text.splitlines()[:2] == ["f,i,s", "nan,0,ok"]
    assert "5e-324" in text and "np." not in text
    back = read_table(path)
    assert list(back) == ["f", "i", "s"]
    assert back["f"].dtype == np.float64 and back["i"].dtype.kind == "i"
    np.testing.assert_array_equal(back["f"], floats)
    np.testing.assert_array_equal(np.signbit(back["f"]), np.signbit(floats))
    np.testing.assert_array_equal(back["i"], ints)
    assert back["s"] == words
    with pytest.raises(ValueError):
        write_table(tmp_path / "short.csv", {"f": floats, "i": ints[:-1]})
