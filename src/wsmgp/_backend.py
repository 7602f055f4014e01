"""Backend selection for the numeric hot loops.

Two interchangeable implementations of the per-dimension squared
differences and the mixture-enumeration primitive:

* ``numba`` -- ``@njit``-compiled loops, selected when numba imports.
* ``numpy`` -- vectorized/chunked pure-NumPy path, which is what runs
  whenever numba is not installed.

Set ``WSMGP_NUMBA=0`` in the environment to force the NumPy path.  Both
implementations are importable side by side; the module-level
``sqdiff_dims`` and ``enumerate_mixture`` names point at the selected
one.  The Gaussian gram itself is formed in ``kernels`` from
``sqdiff_dims`` on either backend.  The benchmark in ``perfbench/``
records which backend ran; its figures so far were all measured on the
NumPy path.
"""

import os

import numpy as np

_LOG2PI = float(np.log(2.0 * np.pi))


# ---------------------------------------------------------------------------
# pure-NumPy implementations
# ---------------------------------------------------------------------------


def sqdiff_dims_numpy(X1, X2):
    """Per-dimension squared differences, shape (d, n1, n2)."""
    diff = X1[:, None, :] - X2[None, :, :]
    return np.ascontiguousarray(np.moveaxis(diff * diff, -1, 0))


def enumerate_mixture_numpy(Kpair, sig2, y, logw, chunk=1024):
    """Log-density of every group assignment of a Gaussian mixture-of-rows.

    Kpair : (M, M, N, N) cross-covariance blocks between output pairs.
    sig2  : (M,) per-output noise variances added on the diagonal.
    logw  : (N, M) log prior weight of assigning row n to output m.

    Returns an (M**N,) array; entry t corresponds to the assignment whose
    base-M digits (row 0 least significant) are the per-row output choices.
    Cholesky failures are retried with an escalating diagonal jitter.
    """
    M = Kpair.shape[0]
    N = y.shape[0]
    total = M**N
    out = np.empty(total)
    idx = np.arange(N)
    digits = M ** idx
    for start in range(0, total, chunk):
        t = np.arange(start, min(start + chunk, total))
        z = (t[:, None] // digits[None, :]) % M  # (c, N)
        Kz = Kpair[z[:, :, None], z[:, None, :], idx[:, None], idx[None, :]]
        Kz[:, idx, idx] += sig2[z]
        jitter = 0.0
        base = np.mean(Kz[:, idx, idx])
        while True:
            try:
                L = np.linalg.cholesky(Kz + jitter * np.eye(N))
                break
            except np.linalg.LinAlgError:
                jitter = 1e-6 * base if jitter == 0.0 else jitter * 10.0
                if jitter > 1e-2 * base:
                    raise
        a = np.linalg.solve(L, np.broadcast_to(y, (len(t), N))[..., None])[..., 0]
        logdet = 2.0 * np.sum(np.log(np.diagonal(L, axis1=1, axis2=2)), axis=1)
        quad = np.sum(a * a, axis=1)
        lprior = np.sum(logw[idx[None, :], z], axis=1)
        out[t] = -0.5 * (N * _LOG2PI + logdet + quad) + lprior
    return out


# ---------------------------------------------------------------------------
# numba implementations
# ---------------------------------------------------------------------------

try:
    import numba

    HAS_NUMBA = True
except ImportError:  # pragma: no cover - numba is a declared dependency
    numba = None
    HAS_NUMBA = False


if HAS_NUMBA:

    @numba.njit(cache=True)
    def sqdiff_dims_numba(X1, X2):
        n1, d = X1.shape
        n2 = X2.shape[0]
        out = np.empty((d, n1, n2))
        for k in range(d):
            for i in range(n1):
                for j in range(n2):
                    t = X1[i, k] - X2[j, k]
                    out[k, i, j] = t * t
        return out

    @numba.njit(cache=True)
    def _chol_logdet_quad(K, y, jitter):
        """Cholesky log-density pieces; ok=False if K+jitter*I is not PD."""
        n = K.shape[0]
        L = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1):
                s = K[i, j]
                if i == j:
                    s += jitter
                for k in range(j):
                    s -= L[i, k] * L[j, k]
                if i == j:
                    if s <= 0.0:
                        return False, 0.0, 0.0
                    L[i, i] = np.sqrt(s)
                else:
                    L[i, j] = s / L[j, j]
        logdet = 0.0
        quad = 0.0
        a = np.empty(n)
        for i in range(n):
            s = y[i]
            for k in range(i):
                s -= L[i, k] * a[k]
            a[i] = s / L[i, i]
            logdet += 2.0 * np.log(L[i, i])
            quad += a[i] * a[i]
        return True, logdet, quad

    @numba.njit(cache=True)
    def enumerate_mixture_numba(Kpair, sig2, y, logw):
        M = Kpair.shape[0]
        N = y.shape[0]
        total = M**N
        out = np.empty(total)
        z = np.zeros(N, dtype=np.int64)
        Kz = np.empty((N, N))
        for t in range(total):
            tt = t
            for n in range(N):
                z[n] = tt % M
                tt //= M
            base = 0.0
            for i in range(N):
                for j in range(N):
                    Kz[i, j] = Kpair[z[i], z[j], i, j]
            for i in range(N):
                Kz[i, i] += sig2[z[i]]
                base += Kz[i, i]
            base /= N
            ok, logdet, quad = _chol_logdet_quad(Kz, y, 0.0)
            jitter = 1e-6 * base
            while not ok and jitter <= 1e-2 * base:
                ok, logdet, quad = _chol_logdet_quad(Kz, y, jitter)
                jitter *= 10.0
            if not ok:
                raise ValueError("mixture covariance not positive definite")
            lp = 0.0
            for n in range(N):
                lp += logw[n, z[n]]
            out[t] = -0.5 * (N * _LOG2PI + logdet + quad) + lp
        return out


def _want_numba():
    flag = os.environ.get("WSMGP_NUMBA", "1").strip().lower()
    return HAS_NUMBA and flag not in ("0", "false", "off", "no")


if _want_numba():
    BACKEND = "numba"
    sqdiff_dims = sqdiff_dims_numba
    enumerate_mixture = enumerate_mixture_numba
else:
    BACKEND = "numpy"
    sqdiff_dims = sqdiff_dims_numpy
    enumerate_mixture = enumerate_mixture_numpy
