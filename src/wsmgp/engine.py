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

Exploiting the block structure, one evaluation costs
O(sum_m n_m^3 + (sum_m n_m) Q^2), matching the cost the bound is
documented to have.

Which BLAS runs the products: every matrix-matrix product with an
n_m-row operand goes through `_gemm`, i.e. scipy's `dgemm`, the same
OpenBLAS whose LAPACK `dpotrf` / `dpotrs` factor and solve here
(kernels.cho_factor / cho_solve: scipy's cho_factor / cho_solve
results, guards included, without the wrappers' per-call overhead).  The
stochastic bound does the same with its batch-row products, calling
`engine._gemm`: in `svi`, Phi Su for the bound's moments, Phi L^-T for
a mini-batch step's variances (L the Cholesky factor of q(u)'s
precision, L^-1 from scipy's `dtrtri`) and Phi' (d o Phi) for q(u)'s
natural parameters; in `gradients`, Phi' [d o Phi, a] per output and
[d o Phi, a] [-T; mt'] over all outputs.  Its row constants come from
scipy's `dtrsm` (`svi._row_constants`) and q(u)'s factor and mean from
its `dpotrf` and `dpotrs`, in the same library.  The numpy and scipy wheels each bundle their
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

Explicit inverses (P_m^-1, A^-1 and Kuu^-1 in gauss_loglik_grads, and
Kuu^-1 in the stochastic bound) come from the Cholesky factors through
cho_inverse, LAPACK's dpotri in scipy's library; gauss_loglik reads
none of them, so the bound's value does not depend on how they are
formed.

Two halves: a StackedSystem is a KernelHalf plus a noise half.  The
kernel half depends on the hyperparameters and the selection alone: each
kernel block (kernels.kuu_block, kfu_block, kff_block or se_block, kept
as kernels.GaussBlock values), the jittered Kuu with its factor and the
Nystrom residuals B_m.  The noise half factors P_m and A and holds
alpha, V, beta and c.  build_system builds both, or, given the kernel
half of an earlier system at the same hyperparameters, only the noise
half: the collapsed fit's pi steps move the weights alone, so each E-phase
shares one kernel half, and its first step reads the system the M-phase's
last evaluation built at the same point (trainer).  Squared differences
are computed once per distinct row set, so the stacked selection computes
them once for all outputs, or are taken from the caller's, computed once
per fit.  gauss_loglik_grads returns the matrix-level gradients, and
gradients._chain_convolved / _chain_independent contract them against
the kernel half's blocks.
"""

from dataclasses import dataclass, fields

import numpy as np
from scipy.linalg.blas import dgemm, dtrsm
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

    pi does not enter it, so every pi step of an E-phase shares one.
    """

    rows: list  # per-output row-index arrays
    ff_blocks: list  # per-output kernels.GaussBlock of Kff_m (or of the SE kernel)
    fu_blocks: list  # per-output kernels.GaussBlock of Kfu_m, or None (independent model)
    kuu_block: kernels.GaussBlock  # unjittered Kuu, or None
    Kuu: np.ndarray  # jittered, or None
    cho_Kuu: tuple
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
    cho_P: list  # cho_factor of P_m = I + S_m B_m S_m
    A: np.ndarray  # Kuu + sum_m Kuf_m E_m^-1 Kfu_m
    cho_A: tuple
    alpha: list  # P_m^-1 S_m y_m
    V: list  # P_m^-1 S_m Kfu_m
    beta: np.ndarray  # sum_m Kuf_m E_m^-1 y_m
    c: np.ndarray  # A^-1 beta


def _sqdiff_per_output(X, rows, X2=None, t2=None):
    """sqdiff(X[r], X[r] or X2) per output; one array when outputs share their rows.

    The stacked selection lists one row array under every output, so its
    squared differences are computed once per evaluation.  t2, if given,
    is sqdiff(X, X or X2) over all rows of X, and each output's array is
    taken from it: the same entries, C-ordered like sqdiff's, and t2
    itself when the output selects every row in order.
    """
    out = []
    for m, r in enumerate(rows):
        if m and r is rows[m - 1]:
            out.append(out[-1])
        elif t2 is None:
            Xr = X[r]
            out.append(kernels.sqdiff(Xr, Xr if X2 is None else X2))
        elif np.array_equal(r, np.arange(t2.shape[1])):
            out.append(t2)
        else:
            t = np.take(t2, r, axis=1)
            out.append(t if X2 is not None else np.take(t, r, axis=2))
    return out


def _kernel_half(X, hp, rows, t2):
    """The KernelHalf of build_system: every kernel block, Kuu's factor and each B_m."""
    t2_xx, t2_xw = (None, None) if t2 is None else t2
    t2_ff = _sqdiff_per_output(X, rows, t2=t2_xx)
    if isinstance(hp, IndependentSEHyperParams):
        ff_blocks = [kernels.se_block(t2_m, out) for t2_m, out in zip(t2_ff, hp.outputs)]
        return KernelHalf(rows=rows, ff_blocks=ff_blocks, fu_blocks=None, kuu_block=None,
                          Kuu=None, cho_Kuu=None, B_blocks=[b.K for b in ff_blocks])
    if not isinstance(hp, HyperParams):
        raise TypeError("unsupported hyperparameter container: %r" % type(hp))
    W = hp.inducing.W
    kuu_block = kernels.kuu_block(kernels.sqdiff(W, W), hp.latent)
    Kuu, cho_Kuu = kernels.jittered(kuu_block.K)
    t2_fu = _sqdiff_per_output(X, rows, W, t2=t2_xw)
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
    return KernelHalf(rows=rows, ff_blocks=ff_blocks, fu_blocks=fu_blocks, kuu_block=kuu_block,
                      Kuu=Kuu, cho_Kuu=cho_Kuu, B_blocks=B_blocks)


def build_system(X, y, hp, rows, w_blocks, kernel=None, t2=None):
    """Assemble and factorize the stacked system for a selection.

    hp may be HyperParams (convolved sparse model) or
    IndependentSEHyperParams (independent per-output kernels; the
    cross-covariance between outputs is exactly zero by construction).
    w_blocks[m] holds the precision weights (>= 0) of output m's rows.

    The system has two halves.  The kernel half (KernelHalf) holds each
    kernel block, built once as a kernels.GaussBlock and kept for the
    gradient chain, the jittered Kuu with its factor and the residuals
    B_m; it depends on hp and the rows alone.  The noise half factors
    P_m = I + S_m B_m S_m and A and solves for alpha, V, beta and c.
    kernel, if given, is the kernel half of an earlier system (any
    StackedSystem) at the same hp and rows: it is reused as is, only the
    noise half is factored, and the result equals a fresh build bit for
    bit.  Otherwise the kernel half is built, with t2, if given, being
    (kernels.sqdiff(X, X), kernels.sqdiff(X, W) or None) over all rows of
    X, from which each output's squared differences are taken.
    """
    if kernel is None:
        kernel = _kernel_half(X, hp, rows, t2)
    y = np.asarray(y, dtype=float).ravel()
    y_blocks = [y[r] for r in rows]
    if kernel.has_inducing:
        A = kernel.Kuu.copy()
        beta = np.zeros(A.shape[0])

    s_blocks = [np.sqrt(w) for w in w_blocks]
    cho_P = []
    alpha = []
    V = []
    for m, B_m in enumerate(kernel.B_blocks):
        if B_m.shape[0] == 0:
            cho_P.append(None)
            alpha.append(np.zeros(0))
            V.append(None)
            continue
        # P_m = I + S_m B_m S_m, factored in place; B_m itself stays the residual
        s_m = s_blocks[m]
        P_m = np.multiply(B_m, s_m, order="F")
        P_m *= s_m[:, None]
        P_m.flat[:: P_m.shape[0] + 1] += 1.0
        cho_P.append(cho_factor(P_m, overwrite_a=True))
        alpha.append(cho_solve(cho_P[m], s_m * y_blocks[m]))
        if kernel.has_inducing:
            sk = s_m[:, None] * kernel.fu_blocks[m].K
            V.append(cho_solve(cho_P[m], sk))
            A += _gemm(sk.T, V[m])
            beta += sk.T @ alpha[m]

    if kernel.has_inducing:
        A = 0.5 * (A + A.T)
        cho_A = cho_factor(A)
        c = cho_solve(cho_A, beta)
    else:
        A = cho_A = None
        beta = c = None
        V = [None] * len(rows)

    return StackedSystem(
        **{f.name: getattr(kernel, f.name) for f in fields(KernelHalf)},
        y_blocks=y_blocks,
        s_blocks=s_blocks,
        cho_P=cho_P,
        A=A,
        cho_A=cho_A,
        alpha=alpha,
        V=V,
        beta=beta,
        c=c,
    )


def posterior_moments(sys: StackedSystem):
    """Per-output (mean, variance) of the posterior of f at the rows.

    With K the prior covariance of the stacked f and Sigma = K + W^-1,
    these are K Sigma^-1 y and diag(K - K Sigma^-1 K), taken from the
    system's factors without forming any matrix over all outputs' rows.
    Given u the outputs are independent, and u's posterior is
    N(Kuu c, Kuu A^-1 Kuu).  So with X_m = Kfu_m - B_m S_m V_m and
    T_m = L_P^-1 S_m B_m (L_P, L_A the Cholesky factors of P_m and A),
      mean_m = B_m S_m alpha_m + X_m c,
      var_m = diag(B_m) - colsum(T_m^2) + rowsum((X_m L_A^-T)^2)
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
        t = dtrsm(1.0, sys.cho_P[m][0], bs.T, lower=1)
        var = np.diag(B_m) - np.einsum("ij,ij->j", t, t)
        if sys.has_inducing:
            x = sys.fu_blocks[m].K - _gemm(bs, sys.V[m])
            mean += x @ sys.c
            p = dtrsm(1.0, sys.cho_A[0], x, side=1, lower=1, trans_a=1)
            var += np.einsum("nq,nq->n", p, p)
        means.append(mean)
        variances.append(var)
    return means, variances


def _logdet_from_cho(cho):
    return 2.0 * float(np.sum(np.log(np.diag(cho[0]))))


def gauss_loglik(sys: StackedSystem):
    """log N(y_sel | 0, Sigma) without its noise normaliser, via the Woodbury identity.

    That is -1/2 (sum_m log|P_m| + log|A| - log|Kuu| + y' Sigma^-1 y).
    """
    logdet = 0.0
    quad = 0.0
    for m, yb in enumerate(sys.y_blocks):
        if len(yb) == 0:
            continue
        logdet += _logdet_from_cho(sys.cho_P[m])
        quad += float((sys.s_blocks[m] * yb) @ sys.alpha[m])
    if sys.has_inducing:
        logdet += _logdet_from_cho(sys.cho_A) - _logdet_from_cho(sys.cho_Kuu)
        quad -= float(sys.beta @ sys.c)
    return -0.5 * (logdet + quad)


@dataclass
class MatrixGrads:
    """Matrix-level partial derivatives of gauss_loglik.

    dE_blocks[m] is the derivative w.r.t. the same-output covariance
    block Kff_m; dKfu_blocks and dKuu carry the total derivatives w.r.t.
    the cross and inducing blocks with the Nystrom-residual paths
    already folded in.  dlogw_blocks[m] is the derivative w.r.t. log w_m,
    -w o ((y - mean)^2 + var) / 2 with posterior_moments' mean and var.
    """

    dE_blocks: list
    dKfu_blocks: list
    dKuu: np.ndarray
    dlogw_blocks: list = None


def gauss_loglik_grads(sys: StackedSystem):
    """Matrix-level gradient of gauss_loglik for the current system.

    Each output's products run in P_m's scaled space: with
    G = Sigma^-1 - Sigma^-1 y y' Sigma^-1, G_mm = S_m G~_m S_m, and
    w o ((y - mean)^2 + var) = 1 - diag(G~_m).
    """
    M = len(sys.rows)
    if sys.has_inducing:
        Ainv = cho_inverse(sys.cho_A)
        Kuu_inv = cho_inverse(sys.cho_Kuu)
        kr = sys.Kuu @ sys.c  # = Kuf (Sigma^-1 y)
        M1 = sys.A - sys.Kuu
        # accumulators for the Kuu derivative: Kuf G Kfu and its blockwise part
        KufGKfu = M1 - M1 @ Ainv @ M1 - np.outer(kr, kr)
        KufGpKfu = np.zeros_like(sys.A)
    dE, dlogw, dKfu = [], [], []
    for m in range(M):
        s_m = sys.s_blocks[m]
        if len(s_m) == 0:
            dE.append(np.zeros((0, 0)))
            dlogw.append(np.zeros(0))
            dKfu.append(np.zeros((0, len(sys.c))) if sys.has_inducing else None)
            continue
        G = cho_inverse(sys.cho_P[m])
        r = sys.alpha[m]  # the scaled residual S^-1 Sigma^-1 y
        if sys.has_inducing:
            Vm = sys.V[m]
            r = r - Vm @ sys.c
            G -= _gemm(_gemm(Vm, Ainv), Vm.T)
        G -= np.outer(r, r)
        dlogw.append(0.5 * (np.diag(G) - 1.0))
        if sys.has_inducing:
            sk = s_m[:, None] * sys.fu_blocks[m].K
            M1_m = _gemm(sk.T, Vm)
            kr_m = sk.T @ r
            KufGpKfu += M1_m - M1_m @ Ainv @ M1_m - np.outer(kr_m, kr_m)
            # (G Kfu)_m and the residual-path correction +G_mm Kfu_m, scaled
            GKfu_m = Vm - _gemm(Vm, Ainv @ M1) - np.outer(r, kr)
            dKfu.append(_gemm(s_m[:, None] * (_gemm(G, sk) - GKfu_m), Kuu_inv))
        G *= -0.5 * s_m  # G_mm = S_m G~ S_m, after G~'s last read
        G *= s_m[:, None]
        dE.append(G)
    dKuu = 0.5 * Kuu_inv @ (KufGKfu - KufGpKfu) @ Kuu_inv if sys.has_inducing else None
    return MatrixGrads(dE_blocks=dE, dKfu_blocks=dKfu, dKuu=dKuu, dlogw_blocks=dlogw)
