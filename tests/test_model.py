"""Dataset validation and variational-state initialization."""

import numpy as np
import pytest

from wsmgp.model import (
    DatasetError,
    ModelConfig,
    init_state,
    make_dataset,
    validate_dataset,
)


def small_ds(labels=(1, 2, 0, 0), M=2):
    n = len(labels)
    rng = np.random.default_rng(0)
    return make_dataset(rng.normal(size=(n, 1)), rng.normal(size=n),
                        labels=np.array(labels), n_outputs=M)


class TestValidation:
    def test_well_formed_passes(self):
        ds = small_ds((1, 2, 1, 2))
        validate_dataset(ds, ModelConfig(M=2, Q=3))

    def test_bad_simplex_row(self):
        ds = small_ds((1, 2, 0, 0))
        ds.prior_pi[0] = [0.6, 0.5]
        with pytest.raises(DatasetError, match="simplex"):
            validate_dataset(ds, ModelConfig(M=2, Q=3))

    def test_label_out_of_range(self):
        ds = small_ds((1, 3, 0, 0), M=3)
        with pytest.raises(DatasetError, match="out of range"):
            validate_dataset(ds, ModelConfig(M=2, Q=3))

    def test_nan_input_rejected(self):
        ds = small_ds()
        ds.X[1, 0] = np.nan
        with pytest.raises(DatasetError, match="non-finite"):
            validate_dataset(ds, ModelConfig(M=2, Q=3))


class TestExactZeros:
    """A prior's zero entries are kept exactly."""

    def test_log_prior_is_minus_infinity_where_the_prior_is_zero(self):
        ds = small_ds((1, 2, 0, 0))
        ds.prior_pi[1] = [0.25, 0.75]
        np.testing.assert_array_equal(ds.log_prior[0], [0.0, -np.inf])
        np.testing.assert_array_equal(ds.log_prior[1], np.log([0.25, 0.75]))
        assert np.all(np.isnan(ds.log_prior[2:]))


class TestInitState:
    def test_deterministic(self):
        ds = small_ds()
        cfg = ModelConfig(M=2, Q=3)
        a = init_state(ds, cfg, seed=7)
        b = init_state(ds, cfg, seed=7)
        np.testing.assert_array_equal(a.pi_hat, b.pi_hat)

    def test_labeled_rows_start_at_prior(self):
        ds = small_ds((1, 2, 0, 0))
        st = init_state(ds, ModelConfig(M=2, Q=3), seed=0)
        # a hard one-hot prior is kept exactly
        np.testing.assert_array_equal(st.pi_hat[:2], [[1.0, 0.0], [0.0, 1.0]])

    def test_unlabeled_rows_near_uniform(self):
        ds = small_ds()
        st = init_state(ds, ModelConfig(M=2, Q=3), seed=1)
        assert np.all(np.abs(st.pi_hat[2:] - 0.5) <= 0.05)

    def test_q_v_starts_at_the_whitened_prior(self):
        # q(v), u = L v, starts at its prior N(0, I), sized by Kuu
        ds = small_ds()
        kuu = np.array([[2.0, 0.1], [0.1, 1.0]])
        st = init_state(ds, ModelConfig(M=2, Q=2), seed=0, kuu=kuu)
        np.testing.assert_array_equal(st.Su, np.eye(2))
        st.Su[0, 0] = 5.0
        assert kuu[0, 0] == 2.0  # not a view of Kuu
        assert np.all(st.mu_u == 0.0)
        # without Kuu (a collapsed fit) the state has no q(v)
        st = init_state(ds, ModelConfig(M=2, Q=2), seed=0)
        assert st.mu_u is None and st.Su is None

    @pytest.mark.parametrize("M", [2, 3])
    def test_equals_per_row_draws(self, M):
        labels = (0, 1, 0, 0, M, 0, 2, 1, 0, 0)
        ds = small_ds(labels, M=M)
        ds.prior_pi[1] = np.full(M, 1.0 / M)  # one soft prior row
        st = init_state(ds, ModelConfig(M=M, Q=3), seed=4)
        # reference: one Dirichlet draw per unlabeled row, in row order
        rng = np.random.default_rng(4)
        ref = np.empty((len(labels), M))
        for i, lab in enumerate(labels):
            if lab > 0:
                ref[i] = ds.prior_pi[i]
            else:
                ref[i] = 0.95 * np.full(M, 1.0 / M) + 0.05 * rng.dirichlet(np.ones(M))
        np.testing.assert_array_equal(st.pi_hat, ref)
