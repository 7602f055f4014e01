"""Shared linear-algebra core for the stacked multi-output Gaussian term.

Every bound and predictor in the package evaluates (or differentiates)
log N(y_sel | 0, bdiag(B_m + W_m^-1) + Kfu Kuu^-1 Kuf) over a
*selection*: a list of row-index arrays, one per output, saying which
observations appear under which output, with precision weights
W_m = diag(w_m).  The weakly-supervised model selects each row under
every output its prior allows; the fully-labeled baseline selects each
row once under its label; the independent-kernel baselines have no
inducing structure at all (Kfu absent, B_m a dense per-output kernel
block).

The noise half is in precision form (Rasmussen & Williams 2006,
Algorithm 2.1): with S_m = diag(sqrt(w_m)) it factors
P_m = I + S_m B_m S_m, so E_m^-1 = S_m P_m^-1 S_m and
log|B_m + W_m^-1| = log|P_m| - sum log w_m.  A zero weight is a zero
row of S_m: no expression divides by a weight, and the row drops out.
gauss_loglik leaves out the noise normaliser -1/2 sum log(2 pi / w),
which the bounds carry in V and SCMGP adds itself.

The inducing half is whitened (Hensman, Matthews & Ghahramani 2015):
with u = L v, L chol_jitter's factor of Kuu, Kfu Kuu^-1 Kuf = Psi Psi'
for Psi_m = Kfu_m L^-T (kernels.whiten), and the Woodbury system
A = I + sum_m Psi_m' E_m^-1 Psi_m has eigenvalues of at least 1 however
ill-conditioned Kuu is.  log|Sigma| = sum_m log|E_m| + log|A|, v's
posterior is N(c, A^-1), and no Kuu^-1 is formed: gradients w.r.t. Psi
reach Kfu and Kuu by kernels.whiten_grad_k and whiten_grad_kuu.

Exploiting the block structure, one evaluation costs
O(sum_m n_m^3 + (sum_m n_m) Q^2), matching the cost the bound is
documented to have.

Which BLAS runs the products: every matrix-matrix product with an
n_m-row operand goes through `_gemm`, i.e. scipy's `dgemm`, the same
OpenBLAS whose LAPACK `dpotrf`, `dpotri` and `dpotrs` factor, invert
and solve here (kernels.cho_factor / cho_solve: scipy's cho_factor /
cho_solve results, guards included, without the wrappers' per-call
overhead; cho_inverse below).  The stochastic bound (`svi`,
`gradients`) routes its batch-row products through `_gemm` too, and
takes its triangular solves and q(v)'s factor from the same library.
The numpy and scipy wheels each bundle their own OpenBLAS with its own
thread pool; when an evaluation alternates between the two, both pools
spin on the same cores and the small factorizations wait on the other
pool's busy threads (at 2 threads this made one collapsed-bound
evaluation at N = 144 three to four times slower than at 1 thread, and
one full-batch stochastic-bound gradient at N = 4000 about 1.5 times
slower).  Where a result has at least 2
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

The noise half keeps each P_m = I + S_m B_m S_m as its Cholesky factor
and never inverts it (GPML Algorithm 2.1 solves with the factor):
build_system takes log|P_m| from the factor and alpha_m and V_m from one
dpotrs solve against [S_m Psi_m | S_m y_m], and posterior_moments takes
the pi step's variances from one triangular solve with it
(kernels.whiten).  So the bound's value and a pi step read no inverse.
The collapsed bound's explicit inverses, P_m^-1 and A^-1, are formed
in one place, gauss_loglik_grads, by cho_inverse (LAPACK's dpotri in
scipy's library) from a copy of each factor, since the system is only
read.

Two halves: a StackedSystem is a KernelHalf plus a noise half.  The
kernel half depends on the hyperparameters and the selection alone: each
kernel block (kernels.kuu_block, kfu_block, kff_block or se_block, kept
as kernels.GaussBlock values; a convolved Kff_m block keeps t2 and unit
only, since B_m is formed in its K), chol_jitter's factor L of Kuu,
each Psi_m and the Nystrom residuals B_m.  The noise half holds
log|P_m|, P_m's factor, alpha, S_m Psi_m, V, M1_m = (S_m Psi_m)' V_m, A
with its factor, beta and c.  build_system builds both, or, given the
kernel half of an earlier system at the same hyperparameters, only the noise half: the
collapsed fit's pi steps move the weights alone, so the steps of one
evaluation share the kernel half of the system it built (trainer).  The
kernel half reads X and W only through each output's squared differences
(row_sqdiffs: one array per distinct row array, so outputs that share
their rows share it).  A collapsed fit computes them once and hands them
to every build; a build without them computes them the same way.
gauss_loglik_grads returns the matrix-level gradients, and
gradients._chain_convolved / _chain_independent contract them against
the kernel half's blocks.

The kernel half's n x n passes run in place where the result is the
same bit for bit: kernels.sqdiff squares its differences in their own
array, kernels' blocks turn the exponent into unit in place, and B_m is
Kff_m less the Nystrom term in Kff_m's array before it is made
symmetric.
"""

from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np
from scipy.linalg.blas import dgemm
from scipy.linalg.lapack import dpotri

from . import kernels
from .kernels import HyperParams, IndependentSEHyperParams, cho_factor, cho_solve

_MIRROR_BLOCK = 64  # columns per step of cho_inverse's mirror
# above the diagonal of a diagonal block of the mirror (a leading slice for a smaller one)
_ABOVE = np.triu(np.ones((_MIRROR_BLOCK, _MIRROR_BLOCK), dtype=bool), k=1)


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
    symmetric.  c itself is not modified.
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
        b = diag.shape[0]
        np.copyto(diag, diag.T, where=_ABOVE[:b, :b])
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
class KernelHalf:
    """The part of a stacked system that the hyperparameters and the selection alone fix.

    pi does not enter it, so the pi steps of one evaluation share one.
    """

    rows: list  # per-output row-index arrays
    ff_blocks: list  # per-output GaussBlock of Kff_m, K None (B_m took it), or of the SE kernel
    fu_blocks: list  # per-output kernels.GaussBlock of Kfu_m, or None (independent model)
    kuu_block: kernels.GaussBlock  # Kuu without jitter, or None
    cho_Kuu: tuple  # chol_jitter's factor L of Kuu, or None
    Psi: list  # per-output Kfu_m L^-T (kernels.whiten), or None
    B_blocks: list  # per-output residual (or full) covariance blocks

    @property
    def has_inducing(self):
        return self.fu_blocks is not None


@dataclass
class StackedSystem(KernelHalf):
    """Factorized covariance pieces of one stacked Gaussian evaluation.

    The KernelHalf fields come first; the noise half follows, with alpha
    and V in the scaled space of P_m (E_m^-1 y_m = S_m alpha_m).
    """

    y_blocks: list  # per-output data vectors
    s_blocks: list  # per-output sqrt(w_m), the diagonal of S_m
    logdet_P: list  # log|P_m|, P_m = I + S_m B_m S_m
    cho_P: list  # P_m's Cholesky factor (c, True) from cho_factor, or None when n_m = 0
    A: np.ndarray  # I + sum_m M1_m
    cho_A: tuple
    alpha: list  # P_m^-1 S_m y_m, solved with cho_P[m]
    SPsi: list  # S_m Psi_m
    V: list  # P_m^-1 S_m Psi_m, from alpha_m's solve
    M1: list  # Psi_m' E_m^-1 Psi_m = (S_m Psi_m)' V_m
    beta: np.ndarray  # sum_m Psi_m' E_m^-1 y_m
    c: np.ndarray  # A^-1 beta


class RowSqdiffs(NamedTuple):
    """Each output's rows with their squared differences, fixed while X, W and the rows are.

    One array serves consecutive outputs that share one row array.
    """

    rows: list  # per-output row-index arrays
    ff: list  # per-output kernels.sqdiff(X[r], X[r])
    fu: list  # per-output kernels.sqdiff(X[r], W), or None without inducing inputs


def row_sqdiffs(X, rows, W=None):
    """RowSqdiffs over rows: what a kernel half needs of X and W.

    The collapsed fit computes it once per fit (trainer.fit_cvb); a
    system built without one computes it here, the same way.
    """
    ff, fu = [], []
    for m, r in enumerate(rows):
        if m and r is rows[m - 1]:
            ff.append(ff[-1])
            fu.append(fu[-1])
            continue
        Xr = X[r]
        ff.append(kernels.sqdiff(Xr, Xr))
        fu.append(None if W is None else kernels.sqdiff(Xr, W))
    return RowSqdiffs(rows, ff, fu)


def _kernel_half(X, hp, rows, t2):
    """The KernelHalf of build_system: every kernel block, Kuu's factor and each B_m."""
    if isinstance(hp, IndependentSEHyperParams):
        if t2 is None:
            t2 = row_sqdiffs(X, rows)
        ff_blocks = [kernels.se_block(t2_m, out) for t2_m, out in zip(t2.ff, hp.outputs)]
        return KernelHalf(rows=rows, ff_blocks=ff_blocks, fu_blocks=None, kuu_block=None,
                          cho_Kuu=None, Psi=None, B_blocks=[b.K for b in ff_blocks])
    if not isinstance(hp, HyperParams):
        raise TypeError("unsupported hyperparameter container: %r" % type(hp))
    W = hp.inducing.W
    if t2 is None:
        t2 = row_sqdiffs(X, rows, W)
    kuu_block = kernels.kuu_block(kernels.sqdiff(W, W), hp.latent)
    cho_Kuu = kernels.chol_jitter(kuu_block.K)[0]
    ff_blocks, fu_blocks, Psi, B_blocks = [], [], [], []
    for t2_m, t2_fu_m, out in zip(t2.ff, t2.fu, hp.outputs):
        ff_m = kernels.kff_block(t2_m, out, hp.latent)
        fu_m = kernels.kfu_block(t2_fu_m, out, hp.latent)
        Psi_m = kernels.whiten(cho_Kuu, fu_m.K)
        # B_m = Kff_m - Psi_m Psi_m' in Kff_m's array, then (B_m + B_m') / 2;
        # Kff_m is not kept, since the chain reads only the block's t2 and unit
        B_m = ff_m.K
        B_m -= _gemm(Psi_m, Psi_m.T)
        B_m = np.add(B_m, B_m.T)
        B_m *= 0.5
        B_blocks.append(B_m)
        ff_blocks.append(ff_m._replace(K=None))
        fu_blocks.append(fu_m)
        Psi.append(Psi_m)
    return KernelHalf(rows=rows, ff_blocks=ff_blocks, fu_blocks=fu_blocks, kuu_block=kuu_block,
                      cho_Kuu=cho_Kuu, Psi=Psi, B_blocks=B_blocks)


def build_system(X, y, hp, rows, w_blocks, kernel=None, t2=None):
    """Assemble and factorize the stacked system for a selection.

    hp may be HyperParams (convolved sparse model) or
    IndependentSEHyperParams (independent per-output kernels; the
    cross-covariance between outputs is exactly zero by construction).
    w_blocks[m] holds the precision weights (>= 0) of output m's rows.

    The system has two halves.  The kernel half (KernelHalf) holds each
    kernel block, built once as a kernels.GaussBlock and kept for the
    gradient chain, chol_jitter's factor L of Kuu, each
    Psi_m = Kfu_m L^-T and the residuals B_m; it depends on hp and the
    rows alone.  The noise half factors P_m = I + S_m B_m S_m, keeps the
    factor, and takes alpha_m and V_m from one solve with it; it keeps
    S_m Psi_m and M1_m = (S_m Psi_m)' V_m, whose sum over outputs is
    A - I, for the gradient, and factors A for beta and c.
    kernel, if given, is the kernel half of an earlier system (any
    StackedSystem) at the same hp and rows: it is reused as is, only the
    noise half is factored, and the result equals a fresh build bit for
    bit.  Otherwise the kernel half is built from t2, row_sqdiffs(X, rows,
    W) for these rows, which a caller that builds many systems over the
    same rows computes once and passes in (None: computed here).
    """
    if kernel is None:
        kernel = _kernel_half(X, hp, rows, t2)
    y = np.asarray(y, dtype=float).ravel()
    y_blocks = [y[r] for r in rows]
    M = len(rows)
    if kernel.has_inducing:
        A = np.eye(kernel.cho_Kuu[0].shape[0])
        beta = np.zeros(A.shape[0])

    s_blocks = [np.sqrt(w) for w in w_blocks]
    logdet_P, cho_P, alpha = [0.0] * M, [None] * M, [np.zeros(0)] * M
    SPsi, V, M1 = [None] * M, [None] * M, [None] * M
    for m, B_m in enumerate(kernel.B_blocks):
        if B_m.shape[0] == 0:
            continue
        # P_m = I + S_m B_m S_m, factored in place; B_m itself stays the residual
        s_m = s_blocks[m]
        P_m = np.multiply(B_m, s_m, order="F")
        P_m *= s_m[:, None]
        P_m.flat[:: P_m.shape[0] + 1] += 1.0
        cho_P[m] = cho_factor(P_m, overwrite_a=True)
        logdet_P[m] = _logdet_from_cho(cho_P[m])
        sy = s_m * y_blocks[m]
        if kernel.has_inducing:
            # V_m and alpha_m from one solve against [S_m Psi_m | S_m y_m]
            SPsi[m] = s_m[:, None] * kernel.Psi[m]
            solved = cho_solve(cho_P[m], np.column_stack((SPsi[m], sy)))
            V[m], alpha[m] = solved[:, :-1], solved[:, -1]
            M1[m] = _gemm(SPsi[m].T, V[m])
            A += M1[m]
            beta += SPsi[m].T @ alpha[m]
        else:
            alpha[m] = cho_solve(cho_P[m], sy)

    if kernel.has_inducing:
        A = 0.5 * (A + A.T)
        cho_A = cho_factor(A)
        c = cho_solve(cho_A, beta)
    else:
        A = cho_A = None
        beta = c = None

    return StackedSystem(
        **{f.name: getattr(kernel, f.name) for f in fields(KernelHalf)},
        y_blocks=y_blocks,
        s_blocks=s_blocks,
        logdet_P=logdet_P,
        cho_P=cho_P,
        A=A,
        cho_A=cho_A,
        alpha=alpha,
        SPsi=SPsi,
        V=V,
        M1=M1,
        beta=beta,
        c=c,
    )


def posterior_moments(sys: StackedSystem):
    """Per-output (mean, variance) of the posterior of f at the rows.

    With K the prior covariance of the stacked f and Sigma = K + W^-1,
    these are K Sigma^-1 y and diag(K - K Sigma^-1 K), taken from the
    system's factors without forming any inverse or any matrix over all
    outputs' rows.
    Given v (u = L v) the outputs are independent, and v's posterior is
    N(c, A^-1).  So with X_m = Psi_m - B_m S_m V_m and L_A the Cholesky
    factor of A and L_P that of P_m,
      mean_m = B_m S_m alpha_m + X_m c,
      var_m = diag(B_m) - rowsum((B_m S_m L_P^-T)^2) + rowsum((X_m L_A^-T)^2)
    (without inducing inputs the X_m terms drop); a row with w = 0 gets
    the moments the other rows imply.
    """
    means, variances = [], []
    for m, B_m in enumerate(sys.B_blocks):
        if B_m.shape[0] == 0:  # an output that no row's prior allows
            means.append(np.zeros(0))
            variances.append(np.zeros(0))
            continue
        bs = B_m * sys.s_blocks[m]  # B_m S_m, the transpose of S_m B_m
        mean = bs @ sys.alpha[m]
        h = kernels.whiten(sys.cho_P[m], bs)  # B_m S_m L_P^-T
        var = np.diag(B_m) - np.einsum("ij,ij->i", h, h)
        if sys.has_inducing:
            x = sys.Psi[m] - _gemm(bs, sys.V[m])
            mean += x @ sys.c
            p = kernels.whiten(sys.cho_A, x)
            var += np.einsum("nq,nq->n", p, p)
        means.append(mean)
        variances.append(var)
    return means, variances


def _logdet_from_cho(cho):
    return 2.0 * float(np.sum(np.log(np.diag(cho[0]))))


def gauss_loglik(sys: StackedSystem):
    """log N(y_sel | 0, Sigma) without its noise normaliser, via the Woodbury identity.

    That is -1/2 (sum_m log|P_m| + log|A| + y' Sigma^-1 y).
    """
    logdet = 0.0
    quad = 0.0
    for m, yb in enumerate(sys.y_blocks):
        if len(yb) == 0:
            continue
        logdet += sys.logdet_P[m]
        quad += float((sys.s_blocks[m] * yb) @ sys.alpha[m])
    if sys.has_inducing:
        logdet += _logdet_from_cho(sys.cho_A)
        quad -= float(sys.beta @ sys.c)
    return -0.5 * (logdet + quad)


@dataclass
class MatrixGrads:
    """Matrix-level partial derivatives of gauss_loglik.

    dE_blocks[m] is the derivative w.r.t. the same-output covariance
    block Kff_m; dKfu_blocks and dKuu carry the total derivatives w.r.t.
    the cross and inducing blocks (dKuu symmetric, through Kuu's Cholesky
    factor) with the Nystrom-residual paths already folded in.
    dlogw_blocks[m] is the derivative w.r.t. log w_m,
    -w o ((y - mean)^2 + var) / 2 with posterior_moments' mean and var.
    """

    dE_blocks: list
    dKfu_blocks: list
    dKuu: np.ndarray
    dlogw_blocks: list = None


def gauss_loglik_grads(sys: StackedSystem):
    """Matrix-level gradient of gauss_loglik for the current system.

    Each output's products run in P_m's scaled space: with
    G = Sigma^-1 - Sigma^-1 y y' Sigma^-1, G_mm = S_m G~_m S_m,
    G~_m = P_m^-1 - [V_m A^-1, r_m] [V_m, r_m]' with r_m = alpha_m - V_m c,
    and w o ((y - mean)^2 + var) = 1 - diag(G~_m).  P_m^-1 is formed
    here, from a copy of the system's factor, which stays as it was.  The
    derivative w.r.t. Psi_m is Psi_bar_m = G_mm Psi_m - (G Psi)_m = S_m R_m with
    R_m = G~_m S_m Psi_m - S_m^-1 (G Psi)_m
        = V_m A^-1 (M1 - M1_m) - r_m (kr_m - kr)'
    for M1 = A - I, kr = Psi' Sigma^-1 y = c and kr_m = (S_m Psi_m)' r_m,
    so no n_m x n_m matrix is multiplied there.  dKfu_m = Psi_bar_m L^-1
    takes L^-1 on the (Q + 1) x Q right factor [M1 - M1_m; (kr - kr_m)'],
    and dKuu is the Cholesky pullback of
    -Psi_bar' Psi = Psi' G Psi - sum_m Psi_m' G_mm Psi_m.
    """
    M = len(sys.rows)
    if sys.has_inducing:
        Ainv = cho_inverse(sys.cho_A)
        M1 = sys.A - np.eye(len(sys.c))
        # L' Lbar = -Psi_bar' Psi: Psi' G Psi less its blockwise part, accumulated
        X = M1 - M1 @ Ainv @ M1 - np.outer(sys.c, sys.c)
    dE, dlogw, dKfu = [], [], []
    for m in range(M):
        s_m = sys.s_blocks[m]
        if len(s_m) == 0:
            dE.append(np.zeros((0, 0)))
            dlogw.append(np.zeros(0))
            dKfu.append(np.zeros((0, len(sys.c))) if sys.has_inducing else None)
            continue
        r = sys.alpha[m]  # the scaled residual S^-1 Sigma^-1 y
        if sys.has_inducing:
            Vm = sys.V[m]
            r = r - Vm @ sys.c
            VAr = np.column_stack((_gemm(Vm, Ainv), r))  # [V_m A^-1, r]
            G = _gemm(VAr, np.column_stack((Vm, r)).T)
        else:
            G = np.outer(r, r)
        np.subtract(cho_inverse(sys.cho_P[m]), G, out=G)  # G~_m
        dlogw.append(0.5 * (np.diag(G) - 1.0))
        if sys.has_inducing:
            M1_m = sys.M1[m]
            kr_m = sys.SPsi[m].T @ r
            X -= M1_m - M1_m @ Ainv @ M1_m - np.outer(kr_m, kr_m)
            # dKfu_m = S_m [V_m A^-1, r] ([M1 - M1_m; (c - kr_m)'] L^-1)
            right = np.vstack((M1 - M1_m, sys.c - kr_m))
            d = _gemm(VAr, kernels.whiten_grad_k(sys.cho_Kuu, right))
            d *= s_m[:, None]
            dKfu.append(d)
        G *= -0.5 * s_m  # G_mm = S_m G~ S_m, after G~'s last read
        G *= s_m[:, None]
        dE.append(G)
    dKuu = kernels.whiten_grad_kuu(sys.cho_Kuu, X) if sys.has_inducing else None
    return MatrixGrads(dE_blocks=dE, dKfu_blocks=dKfu, dKuu=dKuu, dlogw_blocks=dlogw)
