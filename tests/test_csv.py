"""Dataset CSV interchange: write_csv -> ingest_csv round trip and rejections."""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsmgp.experiments import CsvFormatError, ingest_csv, write_csv
from wsmgp.model import make_dataset

_FLOATS = st.floats(allow_nan=False, allow_infinity=False, width=64)


@st.composite
def datasets(draw, label_mode):
    n = draw(st.integers(1, 12))
    d = draw(st.integers(1, 3))
    M = draw(st.integers(1, 4))
    X = np.array(draw(st.lists(_FLOATS, min_size=n * d, max_size=n * d))).reshape(n, d)
    y = np.array(draw(st.lists(_FLOATS, min_size=n, max_size=n)))
    lo = 1 if label_mode == "all" else 0
    hi = 0 if label_mode == "none" else M
    labels = np.array(draw(st.lists(st.integers(lo, hi), min_size=n, max_size=n)))
    prior = np.full((n, M), np.nan)
    for i in np.flatnonzero(labels > 0):
        w = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=M, max_size=M)))
        w[labels[i] - 1] += 1.0
        prior[i] = w / w.sum()
    return make_dataset(X, y, labels=labels, prior_pi=prior, n_outputs=M)


def _round_trip(ds):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.csv")
        write_csv(ds, path)
        return ingest_csv(path, n_outputs=ds.prior_pi.shape[1])


@pytest.mark.parametrize("label_mode", ["none", "partial", "all"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_write_ingest_round_trip(label_mode, data):
    ds = data.draw(datasets(label_mode))
    back = _round_trip(ds)
    np.testing.assert_array_equal(back.X, ds.X)
    np.testing.assert_array_equal(back.y, ds.y)
    np.testing.assert_array_equal(back.labels, ds.labels)
    lab = ds.labeled_mask
    np.testing.assert_array_equal(back.prior_pi[lab], ds.prior_pi[lab])
    assert np.all(np.isnan(back.prior_pi[~lab]))


@pytest.mark.parametrize("cells", ["", "abc"])
def test_bad_prior_cell_on_labeled_row_rejected(tmp_path, cells):
    path = tmp_path / "data.csv"
    path.write_text("x,y,label,pi_1,pi_2\n0.1,1.0,,,\n0.2,2.0,1,%s,0.5\n" % cells)
    with pytest.raises(CsvFormatError, match="line 3"):
        ingest_csv(str(path))


def test_malformed_prior_cell_on_unlabeled_row_rejected(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("x,y,label,pi_1,pi_2\n0.1,1.0,,abc,\n")
    with pytest.raises(CsvFormatError, match="line 2"):
        ingest_csv(str(path))
