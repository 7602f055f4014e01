"""Shared linear-algebra core for the stacked multi-output Gaussian term.

Every bound and predictor in the package evaluates (or differentiates)
log N(y_sel | 0, bdiag(B_m + D_m) + Kfu Kuu^-1 Kuf) over a *selection*:
a list of row-index arrays, one per output, saying which observations
appear under which output.  The weakly-supervised model stacks every row
under every output; the fully-labeled baseline selects each row once
under its label; the independent-kernel baselines have no inducing
structure at all (Kfu absent, B_m a dense per-output kernel block).

Exploiting the block structure, one evaluation costs
O(sum_m n_m^3 + (sum_m n_m) Q^2), matching the cost the bound is
documented to have.

Which BLAS runs the products: every matrix-matrix product with an
n_m-row operand goes through `_gemm`, i.e. scipy's `dgemm`, the same
OpenBLAS that runs the `cho_factor` / `cho_solve` calls here.  The
stochastic bound does the same with its batch-row products, calling
`engine._gemm`: Phi Su for the moments and Phi' (d o Phi) for q(u)'s
natural parameters in `svi`, and Phi' [d o Phi, a] per output and
[d o Phi, a] [-T; mt'] over all outputs in `gradients`.  Its row
constants come from scipy's `dtrsm` (`svi._row_constants`), in the same
library.  The numpy and scipy wheels each bundle their
own OpenBLAS with its own thread pool; when an evaluation alternates
between the two, both pools spin on the same cores and the small
factorizations wait on the other pool's busy threads (at 2 threads this
made one collapsed-bound evaluation at N = 144 three to four times
slower than at 1 thread, and one full-batch stochastic-bound gradient
at N = 4000 about 1.5 times slower).  Where a result has at least 2
rows and 2 columns, `_gemm` makes the same Fortran call numpy's `@`
makes, so values are unchanged; a 1-row or 1-column result (a one-row
batch or output block) may differ from numpy's by an ulp or so.
Products of Q x Q matrices, `np.outer` and elementwise work stay in
numpy, since their size does not grow with N; so do the matrix-vector
products, whose routing through `dgemv` gained nothing measurable.
The same holds for the gradient chain's contractions of an N-sized
gradient with a kernel block (kernels.contract): they are elementwise
products, sums and a plain `np.einsum`, which numpy computes without
BLAS.  `np.tensordot`, `np.dot` or `@` on those operands would hand
them to numpy's OpenBLAS pool between scipy's factorizations: with
`np.tensordot` for b_d, one collapsed-bound evaluation at N = 144 took
16.0 ms against 6.4-6.8 ms with `np.einsum` (2 BLAS threads on 2
cores, three instances).

Explicit inverses (E_m^-1, A^-1 and Kuu^-1 in gauss_loglik_grads, and
Kuu^-1 in the stochastic bound) come from the Cholesky factors through
cho_inverse, LAPACK's dpotri in scipy's library; gauss_loglik reads
none of them, so the bound's value does not depend on how they are
formed.

Kernel blocks: build_system builds each block once per evaluation
(kernels.kuu_block, kfu_block, kff_block or se_block, over squared
differences computed once per distinct row set, so the stacked selection
computes them once for all outputs) and keeps them on StackedSystem as
kernels.GaussBlock values.  gauss_loglik_grads returns the matrix-level
gradients, and gradients._chain_convolved / _chain_independent contract
them against those same blocks.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.blas import dgemm
from scipy.linalg.lapack import dpotri

from . import kernels
from .kernels import HyperParams, IndependentSEHyperParams

_LOG2PI = float(np.log(2.0 * np.pi))
_MIRROR_BLOCK = 64  # columns per step of cho_inverse's mirror


def _gemm(a, b):
    """a @ b for 2-D float arrays, computed by scipy's BLAS.

    Like numpy's matmul, it forms the column-major product b' a' on the
    operands' own buffers: a C-ordered operand enters untransposed, an
    F-ordered one transposed, and a non-contiguous one is first copied
    in its own stride order.  The result equals a @ b bit for bit when
    both of its dimensions are at least 2; for a 1-row or 1-column
    result numpy calls gemv or dot instead of gemm, and the two differ
    by rounding.
    """
    a_t, trans_a = _as_fortran_operand(a)
    b_t, trans_b = _as_fortran_operand(b)
    return dgemm(1.0, b_t, a_t, trans_a=trans_b, trans_b=trans_a).T


def cho_inverse(cho):
    """The inverse of a symmetric positive-definite matrix from its Cholesky factor.

    cho is a (c, lower) pair as cho_factor and kernels.chol_jitter
    return it.  LAPACK's dpotri forms one triangle of the inverse from
    the factor in about a third of the flops of cho_solve(cho, eye(n));
    the other triangle of c still holds the factored matrix, so the
    result is mirrored from the computed triangle and is exactly
    symmetric.
    """
    c, lower = cho
    # an upper factor U (A = U'U) is the lower factor of A transposed
    inv, info = dpotri(c if lower else c.T, lower=1)
    if info:
        raise np.linalg.LinAlgError("dpotri failed (info = %d)" % info)
    # one block of columns at a time, so each transposed copy stays in cache
    n = inv.shape[0]
    for j0 in range(0, n, _MIRROR_BLOCK):
        j1 = j0 + _MIRROR_BLOCK
        diag = inv[j0:j1, j0:j1]
        np.copyto(diag, diag.T, where=np.tri(diag.shape[0], k=-1, dtype=bool).T)
        inv[j0:j1, j1:] = inv[j1:, j0:j1].T
    return inv


def _as_fortran_operand(x):
    """(buffer view, transpose flag) presenting x' to a column-major dgemm."""
    x = np.asarray(x, dtype=float)
    if not (x.flags.c_contiguous or x.flags.f_contiguous):
        x = x.copy(order="K")
    if x.flags.c_contiguous:
        return x.T, 0
    return x, 1


@dataclass
class StackedSystem:
    """Factorized covariance pieces of one stacked Gaussian evaluation."""

    rows: list  # per-output row-index arrays
    y_blocks: list  # per-output data vectors
    d_blocks: list  # per-output heteroscedastic noise diagonals
    B_blocks: list  # per-output residual (or full) covariance blocks
    ff_blocks: list  # per-output kernels.GaussBlock of Kff_m (or of the SE kernel)
    fu_blocks: list  # per-output kernels.GaussBlock of Kfu_m, or None (independent model)
    kuu_block: kernels.GaussBlock  # unjittered Kuu, or None
    Kuu: np.ndarray  # jittered, or None
    cho_Kuu: tuple
    cho_E: list  # cho_factor of E_m = B_m + D_m
    A: np.ndarray
    cho_A: tuple
    alpha: list  # E_m^-1 y_m
    V: list  # E_m^-1 Kfu_m
    beta: np.ndarray  # sum_m Kfu_m' alpha_m
    c: np.ndarray  # A^-1 beta

    @property
    def has_inducing(self):
        return self.fu_blocks is not None


def _sqdiff_per_output(X, rows, X2=None):
    """sqdiff(X[r], X[r] or X2) per output; one array when outputs share their rows.

    The stacked selection lists one row array under every output, so its
    squared differences are computed once per evaluation.
    """
    out = []
    for m, r in enumerate(rows):
        if m and r is rows[m - 1]:
            out.append(out[-1])
        else:
            Xr = X[r]
            out.append(kernels.sqdiff(Xr, Xr if X2 is None else X2))
    return out


def build_system(X, y, hp, rows, d_blocks):
    """Assemble and factorize the stacked system for a selection.

    hp may be HyperParams (convolved sparse model) or
    IndependentSEHyperParams (independent per-output kernels; the
    cross-covariance between outputs is exactly zero by construction).
    Each kernel block is built once, as a kernels.GaussBlock, and kept on
    the system for the gradient chain.
    """
    y = np.asarray(y, dtype=float).ravel()
    y_blocks = [y[r] for r in rows]
    t2_ff = _sqdiff_per_output(X, rows)
    if isinstance(hp, IndependentSEHyperParams):
        ff_blocks = [kernels.se_block(t2, out) for t2, out in zip(t2_ff, hp.outputs)]
        B_blocks = [b.K for b in ff_blocks]
        fu_blocks = None
        kuu_block = Kuu = cho_Kuu = None
    elif isinstance(hp, HyperParams):
        W = hp.inducing.W
        kuu_block = kernels.kuu_block(kernels.sqdiff(W, W), hp.latent)
        cho_Kuu, jitter = kernels.chol_jitter(kuu_block.K)
        Kuu = kuu_block.K + jitter * np.eye(W.shape[0])
        t2_fu = _sqdiff_per_output(X, rows, W)
        ff_blocks = []
        fu_blocks = []
        B_blocks = []
        for t2_m, t2_fu_m, out in zip(t2_ff, t2_fu, hp.outputs):
            ff_m = kernels.kff_block(t2_m, out, hp.latent)
            fu_m = kernels.kfu_block(t2_fu_m, out, hp.latent)
            Kfu_m = fu_m.K
            B_m = ff_m.K - _gemm(Kfu_m, cho_solve(cho_Kuu, Kfu_m.T))
            B_blocks.append(0.5 * (B_m + B_m.T))
            ff_blocks.append(ff_m)
            fu_blocks.append(fu_m)
    else:
        raise TypeError("unsupported hyperparameter container: %r" % type(hp))
    Kfu_blocks = None if fu_blocks is None else [b.K for b in fu_blocks]

    cho_E = []
    alpha = []
    V = []
    for m, B_m in enumerate(B_blocks):
        # E_m = B_m + diag(d_m); B_m itself stays the residual
        E_m = B_m.copy()
        E_m.flat[:: E_m.shape[0] + 1] += d_blocks[m]
        if E_m.shape[0] == 0:
            cho_E.append(None)
            alpha.append(np.zeros(0))
            V.append(None)
            continue
        cho_E.append(cho_factor(E_m, lower=True))
        alpha.append(cho_solve(cho_E[m], y_blocks[m]))
        if Kfu_blocks is not None:
            V.append(cho_solve(cho_E[m], Kfu_blocks[m]))

    if Kfu_blocks is not None:
        Q = Kuu.shape[0]
        A = Kuu.copy()
        beta = np.zeros(Q)
        for m in range(len(rows)):
            if Kfu_blocks[m].shape[0]:
                A += _gemm(Kfu_blocks[m].T, V[m])
                beta += Kfu_blocks[m].T @ alpha[m]
        A = 0.5 * (A + A.T)
        cho_A = cho_factor(A, lower=True)
        c = cho_solve(cho_A, beta)
    else:
        A = cho_A = None
        beta = c = None
        V = [None] * len(rows)

    return StackedSystem(
        rows=rows,
        y_blocks=y_blocks,
        d_blocks=d_blocks,
        B_blocks=B_blocks,
        ff_blocks=ff_blocks,
        fu_blocks=fu_blocks,
        kuu_block=kuu_block,
        Kuu=Kuu,
        cho_Kuu=cho_Kuu,
        cho_E=cho_E,
        A=A,
        cho_A=cho_A,
        alpha=alpha,
        V=V,
        beta=beta,
        c=c,
    )


def _logdet_from_cho(cho):
    return 2.0 * float(np.sum(np.log(np.diag(cho[0]))))


def gauss_loglik(sys: StackedSystem):
    """log N(y_sel | 0, bdiag(E_m) + Kfu Kuu^-1 Kuf) via the Woodbury identity."""
    total_n = sum(len(yb) for yb in sys.y_blocks)
    logdet = 0.0
    quad = 0.0
    for m, yb in enumerate(sys.y_blocks):
        if len(yb) == 0:
            continue
        logdet += _logdet_from_cho(sys.cho_E[m])
        quad += float(yb @ sys.alpha[m])
    if sys.has_inducing:
        logdet += _logdet_from_cho(sys.cho_A) - _logdet_from_cho(sys.cho_Kuu)
        quad -= float(sys.beta @ sys.c)
    return -0.5 * (total_n * _LOG2PI + logdet + quad)


@dataclass
class MatrixGrads:
    """Matrix-level partial derivatives of gauss_loglik.

    dE_blocks[m] is the derivative w.r.t. E_m = B_m + D_m (it doubles as
    the derivative w.r.t. the same-output covariance block K_ff_m, whose
    diagonal carries the D_m chain as well); dKfu_blocks and dKuu carry
    the total derivatives w.r.t. the cross and inducing blocks with the
    Nystrom-residual paths already folded in.
    """

    dE_blocks: list
    dKfu_blocks: list
    dKuu: np.ndarray


def gauss_loglik_grads(sys: StackedSystem):
    """Matrix-level gradient of gauss_loglik for the current system."""
    M = len(sys.rows)
    if not sys.has_inducing:
        dE = []
        for m in range(M):
            if len(sys.y_blocks[m]) == 0:
                dE.append(np.zeros((0, 0)))
                continue
            Em_inv = cho_inverse(sys.cho_E[m])
            r_m = sys.alpha[m]
            dE.append(-0.5 * (Em_inv - np.outer(r_m, r_m)))
        return MatrixGrads(dE_blocks=dE, dKfu_blocks=[None] * M, dKuu=None)

    Ainv = cho_inverse(sys.cho_A)
    Kuu_inv = cho_inverse(sys.cho_Kuu)
    c = sys.c
    s = sys.Kuu @ c  # = Kuf (Sigma_t^-1 y)
    r = [sys.alpha[m] - (sys.V[m] @ c if sys.V[m] is not None else 0.0) for m in range(M)]

    dE = []
    dKfu = []
    # accumulators for the Kuu derivative: Kuf G Kfu and its blockwise part
    KufGKfu = np.zeros_like(sys.A)
    KufGpKfu = np.zeros_like(sys.A)
    M1 = sys.A - sys.Kuu
    KufGKfu += M1 - M1 @ Ainv @ M1 - np.outer(s, s)
    for m in range(M):
        n_m = len(sys.y_blocks[m])
        if n_m == 0:
            dE.append(np.zeros((0, 0)))
            dKfu.append(np.zeros((0, sys.Kuu.shape[0])))
            continue
        Em_inv = cho_inverse(sys.cho_E[m])
        Vm = sys.V[m]
        G_mm = Em_inv - _gemm(_gemm(Vm, Ainv), Vm.T) - np.outer(r[m], r[m])
        dE.append(-0.5 * G_mm)
        Kfu_m = sys.fu_blocks[m].K
        M1_m = _gemm(Kfu_m.T, Vm)
        s_m = Kfu_m.T @ r[m]
        KufGpKfu += M1_m - M1_m @ Ainv @ M1_m - np.outer(s_m, s_m)
        # (G Kfu)_m and the residual-path correction +G_mm Kfu_m
        GKfu_m = Vm - _gemm(Vm, Ainv @ M1) - np.outer(r[m], s)
        dKfu_m = _gemm(-GKfu_m + _gemm(G_mm, Kfu_m), Kuu_inv)
        dKfu.append(dKfu_m)
    dKuu = 0.5 * Kuu_inv @ (KufGKfu - KufGpKfu) @ Kuu_inv
    return MatrixGrads(dE_blocks=dE, dKfu_blocks=dKfu, dKuu=dKuu)
