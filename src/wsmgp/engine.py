"""Shared linear-algebra core for the stacked multi-output Gaussian term.

Every bound and predictor in the package evaluates (or differentiates)
log N(y_sel | 0, bdiag(B_m + W_m^-1) + Kfu Kuu^-1 Kuf) over a
*selection*: a list of row-index arrays, one per output, saying which
observations appear under which output, with precision weights
W_m = diag(w_m).  The weakly-supervised model selects each row under
every output its prior allows; the fully-labeled baseline selects each
row once under its label; the independent-kernel baselines are the
case Q = 0 of the same form: no inducing inputs, so each Psi_m below has
no columns, A = I_0, beta and c are empty, and B_m is the dense
per-output kernel block.  Every step below runs the one Woodbury form
for every model; only the kernel blocks (_kernel_half), the gradient
chain (gradients) and the prediction (predict) know which model it is.

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
OpenBLAS whose LAPACK `dpotrf`, `dpotri` and `dpotrs` and BLAS `dtrsm`
factor, invert and solve here (kernels.cho_factor / cho_solve: scipy's
cho_factor / cho_solve results, guards included, without the wrappers'
per-call overhead; cho_inverse below).  The stochastic bound (`svi`,
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

Fixed and moving rows.  A row that the selection puts under exactly one
output is fixed: the pi steps of a collapsed fit never move its weight
(bounds.cvb_rows puts only labeled rows with a one-hot prior there, and
their pi is exactly 1), so its weight is 1 / sigma_m^2 at fixed
hyperparameters.  The other rows move.  Each output's block keeps its
fixed rows F first and its moving rows U after them (row_sqdiffs counts
the leading rows that no other output holds), and in that order P_m's
Cholesky factor is the block factor [[L_F, 0], [S_U H', L~]]: with
L_F = chol(I + S_F B_FF S_F) and H = L_F^-1 S_F B_FU, the Schur
complement of the F block is P~ = I + S_U B~ S_U with
B~ = B_UU - H' H, and L~ = chol(P~).  The forward solve
Z = L^-1 S [Psi | y] splits the same way: Z_F = L_F^-1 S_F [Psi_F | y_F]
and Z_U = L~^-1 S_U [Psi~ | y~] with [Psi~ | y~] = [Psi_U | y_U] - H' Z_F.
Every piece of the bound is a sum over the two: log|P_m| = log|P_F| +
log|P~|, and Z'Z = Z_F'Z_F + Z_U'Z_U holds M1_m = Psi_m' E_m^-1 Psi_m,
beta_m = Psi_m' E_m^-1 y_m and y_m' E_m^-1 y_m.  This is an exact block
Cholesky, not an approximation; OMGP has no fixed rows, SCMGP only fixed
rows, and WSMGP and OMGP-WS have both.

Two halves: a StackedSystem is a KernelHalf plus a noise half.  The
kernel half depends on the hyperparameters, the selection, y and the
fixed rows' weights: each kernel block (kernels.kuu_block, kfu_block,
kff_block or se_block, kept as kernels.GaussBlock values; a convolved
Kff_m block keeps t2 and unit only, since B_m is formed in its K),
chol_jitter's factor L of Kuu, each Psi_m, the Nystrom residuals B_m,
and each output's fixed rows conditioned out (Conditioned: L_F, H, B~,
[Psi~ | y~], Z_F and Z_F'Z_F).  The noise half factors P~ over the
moving rows only and solves Z_U forward only, since the bound needs no
back-substitution; it keeps log|P_m|, L~, Z_U and Z'Z per output, A with
its factor, beta and c.  build_system builds both, or, given the kernel
half of an earlier system at the same hyperparameters, rows and y, only
the noise half: the collapsed fit's pi steps move the moving rows'
weights alone, so the steps of one evaluation share the kernel half of
the system it built (trainer).  If a fixed row's weight differs from the
one the handed kernel half was conditioned at (a state whose labeled
rows are off their prior), the fixed rows are conditioned out afresh.
posterior_moments gives q(f)'s moments at the moving rows alone, from L~
and B~ (GPML Algorithm 2.1 solves with the factor, and no inverse is
read); a fixed row's pi step returns its one-hot prior whatever its
moments.  The full factor of P_m and alpha_m = P_m^-1 S_m y_m,
V_m = P_m^-1 S_m Psi_m, which one back-substitution gives, are formed
only where they are read, in gauss_loglik_grads and the
independent-kernel prediction (factor_solves, into an array of the
caller's own).  The collapsed bound's explicit inverses, P_m^-1 and
A^-1, are formed in one place, gauss_loglik_grads, by cho_inverse
(LAPACK's dpotri in scipy's library), P_m^-1 in the array of that
assembled factor, so the system is only read.  A point where rounding
swamps P_m's smallest eigenvalue raises LinAlgError before anything is
factored over the moving rows (_check_resolved).  The kernel half
reads X and W only through each output's squared differences
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

from dataclasses import dataclass, fields, replace
from typing import NamedTuple

import numpy as np
from scipy.linalg.blas import dgemm, dsyrk, dtrsm
from scipy.linalg.lapack import dpotri

from . import kernels
from .kernels import HyperParams, IndependentSEHyperParams, cho_factor, cho_solve

_EPS = np.finfo(float).eps
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


def cho_inverse(cho, overwrite=False):
    """The inverse of a symmetric positive-definite matrix from its Cholesky factor.

    cho is a (c, lower) pair as cho_factor and kernels.chol_jitter
    return it.  LAPACK's dpotri forms one triangle of the inverse from
    the factor in about a third of the flops of cho_solve(cho, eye(n));
    the other triangle of c still holds the factored matrix, so the
    result is mirrored from the computed triangle and is exactly
    symmetric.  c itself is not modified, unless overwrite is set and
    c is a Fortran-ordered lower factor, which then holds the inverse.
    A 0 x 0 factor (the independent model's A) has the 0 x 0 inverse,
    which dpotri, rejecting n = 0, does not give.
    """
    c, lower = cho
    if c.shape[0] == 0:
        return np.zeros((0, 0))
    # an upper factor U (A = U'U) is the lower factor of A transposed
    inv, info = dpotri(c if lower else c.T, lower=1, overwrite_c=overwrite)
    if info:
        raise np.linalg.LinAlgError("dpotri failed (info = %d)" % info)
    return _mirror_lower(inv)


def _mirror_lower(a):
    """a, square, with its upper triangle overwritten by its lower one's transpose."""
    # one block of columns at a time, so each transposed copy stays in cache
    n = a.shape[0]
    for j0 in range(0, n, _MIRROR_BLOCK):
        j1 = j0 + _MIRROR_BLOCK
        diag = a[j0:j1, j0:j1]
        b = diag.shape[0]
        np.copyto(diag, diag.T, where=_ABOVE[:b, :b])
        a[j0:j1, j1:] = a[j1:, j0:j1].T
    return a


def _as_fortran_operand(x):
    """(buffer view, transpose flag) presenting x' to a column-major dgemm."""
    x = np.asarray(x, dtype=float)
    if not (x.flags.c_contiguous or x.flags.f_contiguous):
        x = x.copy(order="K")
    if x.flags.c_contiguous:
        return x.T, 0
    return x, 1


class Conditioned(NamedTuple):
    """Output m's fixed rows F, its block's first n_F rows, conditioned out of P_m.

    With k = Q + 1 columns [Psi | y] (k = 1, y alone, for the independent
    model's Q = 0) these are what every noise half over the moving rows U reads.
    """

    n_F: int
    s_F: np.ndarray  # sqrt of the fixed rows' weights it was conditioned at
    cho_F: tuple  # L_F = chol(I + S_F B_FF S_F) as (c, True), or None when n_F = 0
    logdet_F: float  # log|I + S_F B_FF S_F|
    H: np.ndarray  # L_F^-1 S_F B_FU, (n_F, n_U)
    B: np.ndarray  # B~ = B_UU - H' H, exactly symmetric
    R: np.ndarray  # [Psi~ | y~] = [Psi_U | y_U] - H' Z_F, (n_U, k)
    Z: np.ndarray  # Z_F = L_F^-1 S_F [Psi_F | y_F], (n_F, k)
    ZZ: np.ndarray  # Z_F' Z_F, (k, k)


@dataclass
class KernelHalf:
    """The part of a stacked system that the hyperparameters, the selection and y fix.

    pi does not enter it, except through the fixed rows' weights in
    fixed, so the pi steps of one evaluation share one.
    """

    rows: list  # per-output row-index arrays, fixed rows first
    # the independent model has Q = 0 inducing inputs: no Kfu or Kuu block,
    # a 0 x 0 L, each Psi_m (n_m, 0) and B_m the SE kernel block itself
    ff_blocks: list  # per-output GaussBlock of Kff_m, K None (B_m took it), or of the SE kernel
    fu_blocks: list  # per-output kernels.GaussBlock of Kfu_m; None at Q = 0
    kuu_block: kernels.GaussBlock  # Kuu without jitter; None at Q = 0
    cho_Kuu: tuple  # chol_jitter's factor L of Kuu, Q x Q
    Psi: list  # per-output Kfu_m L^-T (kernels.whiten), (n_m, Q)
    B_blocks: list  # per-output residual (at Q = 0 full) covariance blocks
    fixed: list  # per-output Conditioned at the fixed rows' weights


@dataclass
class StackedSystem(KernelHalf):
    """Factorized covariance pieces of one stacked Gaussian evaluation.

    The KernelHalf fields come first; the noise half follows, over each
    output's moving rows U (the rows after its fixed rows).
    """

    y_blocks: list  # per-output data vectors
    s_blocks: list  # per-output sqrt(w_m), the diagonal of S_m, over all of its rows
    logdet_P: list  # log|P_m| = log|P_F| + log|P~_m|, P_m = I + S_m B_m S_m
    cho_U: list  # P~_m = I + S_U B~_m S_U's factor (c, True), or None when U is empty
    Z: list  # Z_U = L~^-1 S_U [Psi~ | y~], (n_U, k)
    ZZ: list  # Z_m' Z_m = Z_F'Z_F + Z_U'Z_U: [[M1_m, beta_m], [beta_m', y_m' E_m^-1 y_m]]
    A: np.ndarray  # I + sum_m M1_m, Q x Q
    cho_A: tuple
    beta: np.ndarray  # sum_m Psi_m' E_m^-1 y_m, (Q,)
    c: np.ndarray  # A^-1 beta, (Q,)


class RowSqdiffs(NamedTuple):
    """Each output's rows with their squared differences, fixed while X, W and the rows are.

    One array serves consecutive outputs that share one row array.
    """

    rows: list  # per-output row-index arrays
    ff: list  # per-output kernels.sqdiff(X[r], X[r])
    fu: list  # per-output kernels.sqdiff(X[r], W), or None at Q = 0 (no W)
    n_fixed: list  # per output, how many leading rows no other output holds


def row_sqdiffs(X, rows, W=None):
    """RowSqdiffs over rows: what a kernel half needs of X, W and the rows.

    An output's fixed rows are the leading run of its rows that no other
    output holds (bounds.cvb_rows puts all of them first); a row that
    sits under one output only but after a shared one is treated as
    moving, which is exact too.  The collapsed fit computes this once per
    fit (trainer.fit_cvb); a system built without one computes it here,
    the same way.
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
    count = np.zeros(len(X), dtype=int)
    for r in rows:
        count[r] += 1
    n_fixed = []
    for r in rows:
        shared = np.flatnonzero(count[r] != 1)
        n_fixed.append(int(shared[0]) if len(shared) else len(r))
    return RowSqdiffs(rows, ff, fu, n_fixed)


def _kernel_half(X, hp, rows, t2, y_blocks, s_blocks):
    """build_system's KernelHalf: the kernel blocks, Kuu's factor, each B_m, the fixed rows out."""
    if isinstance(hp, IndependentSEHyperParams):
        # Q = 0: no inducing block, so Psi_m has no columns and B_m is the whole block
        if t2 is None:
            t2 = row_sqdiffs(X, rows)
        ff_blocks = [kernels.se_block(t2_m, out) for t2_m, out in zip(t2.ff, hp.outputs)]
        fu_blocks = kuu_block = None
        cho_Kuu = (np.zeros((0, 0), order="F"), True)
        Psi = [np.zeros((len(r), 0)) for r in rows]
        B_blocks = [b.K for b in ff_blocks]
    elif isinstance(hp, HyperParams):
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
    else:
        raise TypeError("unsupported hyperparameter container: %r" % type(hp))
    return KernelHalf(rows=rows, ff_blocks=ff_blocks, fu_blocks=fu_blocks, kuu_block=kuu_block,
                      cho_Kuu=cho_Kuu, Psi=Psi, B_blocks=B_blocks,
                      fixed=_condition(B_blocks, Psi, y_blocks, s_blocks, t2.n_fixed))


def _condition(B_blocks, Psi, y_blocks, s_blocks, n_fixed):
    """Each output's Conditioned: its first n_fixed[m] rows conditioned out at s_blocks' weights.

    One left solve gives [H | Z_F] = L_F^-1 S_F [B_FU | Psi_F | y_F];
    B~ = B_UU - H'H takes its lower triangle from dsyrk, in half the
    flops of a product, and is mirrored, and R = [Psi_U | y_U] - H' Z_F.
    """
    fixed = []
    for m, (B_m, n_F) in enumerate(zip(B_blocks, n_fixed)):
        rhs = np.hstack((Psi[m], y_blocks[m][:, None]))
        s_F, k = s_blocks[m][:n_F], rhs.shape[1]
        if n_F == 0:
            fixed.append(Conditioned(0, s_F, None, 0.0, np.zeros((0, len(B_m))), B_m, rhs,
                                     np.zeros((0, k)), np.zeros((k, k))))
            continue
        P_F = np.multiply(B_m[:n_F, :n_F], s_F, order="F")
        P_F *= s_F[:, None]
        P_F.flat[:: n_F + 1] += 1.0
        cho_F = cho_factor(P_F, overwrite_a=True)
        n_U = len(B_m) - n_F
        T = np.empty((n_F, n_U + k), order="F")
        T[:, :n_U] = B_m[:n_F, n_F:]
        T[:, n_U:] = rhs[:n_F]
        T *= s_F[:, None]
        HZ = dtrsm(1.0, cho_F[0], T, lower=1, overwrite_b=1)
        H, Z_F = HZ[:, :n_U], HZ[:, n_U:]
        B_t = np.array(B_m[n_F:, n_F:], order="F")
        if n_U:
            B_t = _mirror_lower(dsyrk(-1.0, H, beta=1.0, c=B_t, trans=1, lower=1,
                                      overwrite_c=1))
        fixed.append(Conditioned(n_F, s_F, cho_F, _logdet_from_cho(cho_F), H, B_t,
                                 rhs[n_F:] - _gemm(H.T, Z_F), Z_F, _gemm(Z_F.T, Z_F)))
    return fixed


def build_system(X, y, hp, rows, w_blocks, kernel=None, t2=None):
    """Assemble and factorize the stacked system for a selection.

    hp may be HyperParams (convolved sparse model) or
    IndependentSEHyperParams (independent per-output kernels; the
    cross-covariance between outputs is exactly zero by construction).
    w_blocks[m] holds the precision weights (>= 0) of output m's rows.

    The system has two halves.  The kernel half (KernelHalf) holds each
    kernel block, built once as a kernels.GaussBlock and kept for the
    gradient chain, chol_jitter's factor L of Kuu, each
    Psi_m = Kfu_m L^-T, the residuals B_m, and each output's fixed rows
    conditioned out at their weights (Conditioned); it depends on hp, the
    rows, y and those weights.  The noise half factors
    P~_m = I + S_U B~_m S_U over the moving rows, keeps the factor, and
    solves Z_U = L~^-1 S_U [Psi~ | y~] forward; Z_m'Z_m, whose Psi block
    M1_m sums over outputs to A - I, gives A, beta and the quadratic
    form, and A is factored for c.
    kernel, if given, is the kernel half of an earlier system (any
    StackedSystem) at the same hp, rows and y: it is reused as is, only
    the noise half is factored, and the result equals a fresh build bit
    for bit.  If a fixed row's weight in w_blocks differs from the one
    kernel was conditioned at, the fixed rows are conditioned out afresh
    on kernel's blocks, which again equals a fresh build.  Otherwise the
    kernel half is built from t2, row_sqdiffs(X, rows, W) for these rows,
    which a caller that builds many systems over the same rows computes
    once and passes in (None: computed here).
    """
    y = np.asarray(y, dtype=float).ravel()
    y_blocks = [y[r] for r in rows]
    s_blocks = [np.sqrt(w) for w in w_blocks]
    if kernel is None:
        kernel = _kernel_half(X, hp, rows, t2, y_blocks, s_blocks)
    elif not all(np.array_equal(s_m[: f.n_F], f.s_F) for s_m, f in zip(s_blocks, kernel.fixed)):
        # a fixed row's weight moved (a state off its prior): condition afresh
        kernel = replace(kernel, fixed=_condition(kernel.B_blocks, kernel.Psi, y_blocks,
                                                  s_blocks, [f.n_F for f in kernel.fixed]))
    _check_resolved(kernel.B_blocks, s_blocks)
    M = len(rows)
    Q = kernel.cho_Kuu[0].shape[0]
    A = np.eye(Q)
    beta = np.zeros(Q)

    logdet_P, cho_U, Z, ZZ = [0.0] * M, [None] * M, [None] * M, [None] * M
    for m, f in enumerate(kernel.fixed):
        s_U = s_blocks[m][f.n_F:]
        n_U = len(s_U)
        logdet_P[m], ZZ[m] = f.logdet_F, f.ZZ
        Z[m] = np.zeros((0, f.R.shape[1]))
        if n_U:
            # P~_m = I + S_U B~_m S_U, factored in place; B~_m itself stays
            P_m = np.multiply(f.B, s_U, order="F")
            P_m *= s_U[:, None]
            P_m.flat[:: n_U + 1] += 1.0
            cho_U[m] = cho_factor(P_m, overwrite_a=True)
            logdet_P[m] += _logdet_from_cho(cho_U[m])
            Z[m] = dtrsm(1.0, cho_U[m][0], np.multiply(f.R, s_U[:, None], order="F"), lower=1,
                         overwrite_b=1)
            ZZ[m] = ZZ[m] + _gemm(Z[m].T, Z[m])
        A += ZZ[m][:Q, :Q]
        beta += ZZ[m][:Q, Q]

    A = 0.5 * (A + A.T)
    cho_A = cho_factor(A)
    c = cho_solve(cho_A, beta)

    return StackedSystem(
        **{f.name: getattr(kernel, f.name) for f in fields(KernelHalf)},
        y_blocks=y_blocks,
        s_blocks=s_blocks,
        logdet_P=logdet_P,
        cho_U=cho_U,
        Z=Z,
        ZZ=ZZ,
        A=A,
        cho_A=cho_A,
        beta=beta,
        c=c,
    )


def _check_resolved(B_blocks, s_blocks):
    """LinAlgError where rounding swamps the smallest eigenvalue of some P_m.

    P_m = I + S_m B_m S_m has eigenvalues of at least 1, and forming and
    factoring it errs by about n_m eps max_i (1 + s_i^2 B_ii), a bound on
    its largest entry.  Once that reaches 1/2 (amplitudes near 1e5 over
    noise near 1e-3), no factor of it, fixed rows conditioned out or not,
    tells log|P_m| to O(1): whether dpotrf fails there and what it returns
    otherwise depend on the rounding, the BLAS thread count included.
    Such a point is as infeasible as one whose factor fails.  A weight
    that is not finite is left to the factor's ValueError.
    """
    for m, (B_m, s_m) in enumerate(zip(B_blocks, s_blocks)):
        if len(s_m) == 0:
            continue
        top = 1.0 + np.max(s_m * s_m * np.diag(B_m))
        if np.isfinite(top) and len(s_m) * _EPS * top >= 0.5:
            raise np.linalg.LinAlgError(
                "P_%d = I + S B S is numerically singular: its largest diagonal entry is %.3g"
                % (m + 1, top))


def factor_solves(sys: StackedSystem, m):
    """(P_m's lower Cholesky factor (c, True) in the rows' order, [V_m | alpha_m]).

    The factor is [[L_F, 0], [S_U H', L~]], assembled from the two
    halves into a Fortran-ordered array of the caller's own, which the
    system does not hold; one back-substitution with it against
    Z = [Z_F; Z_U] gives P_m^-1 S_m [Psi_m | y_m]: V_m = P_m^-1 S_m Psi_m
    and alpha_m = P_m^-1 S_m y_m (alpha_m alone at Q = 0).
    Only the triangle below the diagonal and the diagonal are read.
    """
    f = sys.fixed[m]
    n_F, n = f.n_F, len(sys.s_blocks[m])
    if n_F == 0:
        cho, Z = (np.array(sys.cho_U[m][0], order="F"), True), sys.Z[m]
    elif n_F == n:
        cho, Z = (np.array(f.cho_F[0], order="F"), True), f.Z
    else:
        L = np.zeros((n, n), order="F")
        L[:n_F, :n_F] = f.cho_F[0]
        L[n_F:, :n_F] = f.H.T
        L[n_F:, :n_F] *= sys.s_blocks[m][n_F:, None]
        L[n_F:, n_F:] = sys.cho_U[m][0]
        cho, Z = (L, True), np.vstack((f.Z, sys.Z[m]))
    return cho, dtrsm(1.0, cho[0], Z, lower=1, trans_a=1)


def posterior_moments(sys: StackedSystem):
    """Per-output (mean, variance) of the posterior of f at each output's moving rows.

    With K the prior covariance of the stacked f and Sigma = K + W^-1,
    these are K Sigma^-1 y and diag(K - K Sigma^-1 K) at the rows after
    each output's fixed rows (sys.fixed[m].n_F of them), taken from the
    moving rows' factors without forming any inverse or any matrix over
    all outputs' rows.  Given v (u = L v) the outputs are independent,
    and v's posterior is N(c, A^-1).  So with X = L~^-1 S_U B~ (one left
    triangular solve), x = Psi~ - X' Z_Psi, Z_U = [Z_Psi | z_y] and L_A
    the Cholesky factor of A,
      mean = X'(z_y - Z_Psi c) + Psi~ c + (y_U - y~),
      var = diag(B~) - colsum(X o X) + rowsum((x L_A^-T)^2)
    (at Q = 0 the c and x terms are empty and add 0); a row with w = 0
    gets the moments the other rows imply.  No fixed row's moments are
    computed: its pi step returns its one-hot prior whatever they are.
    """
    means, variances = [], []
    for m, f in enumerate(sys.fixed):
        n_U = f.B.shape[0]
        if n_U == 0:  # no moving row
            means.append(np.zeros(0))
            variances.append(np.zeros(0))
            continue
        s_U = sys.s_blocks[m][f.n_F:]
        X = dtrsm(1.0, sys.cho_U[m][0], np.multiply(f.B, s_U[:, None], order="F"), lower=1,
                  overwrite_b=1)
        Z = sys.Z[m]
        Psi_t = f.R[:, :-1]
        mean = sys.y_blocks[m][f.n_F:] - f.R[:, -1]
        mean += X.T @ (Z[:, -1] - Z[:, :-1] @ sys.c) + Psi_t @ sys.c
        var = np.diag(f.B) - np.einsum("ij,ij->j", X, X)
        p = kernels.whiten(sys.cho_A, Psi_t - _gemm(X.T, Z[:, :-1]))
        var += np.einsum("nq,nq->n", p, p)
        means.append(mean)
        variances.append(var)
    return means, variances


def _logdet_from_cho(cho):
    return 2.0 * float(np.sum(np.log(np.diag(cho[0]))))


def gauss_loglik(sys: StackedSystem):
    """log N(y_sel | 0, Sigma) without its noise normaliser, via the Woodbury identity.

    That is -1/2 (sum_m log|P_m| + log|A| + y' Sigma^-1 y), with
    y' Sigma^-1 y = sum_m y_m' E_m^-1 y_m - beta' c.
    """
    logdet = sum(sys.logdet_P) + _logdet_from_cho(sys.cho_A)
    quad = sum(float(ZZ_m[-1, -1]) for ZZ_m in sys.ZZ) - float(sys.beta @ sys.c)
    return -0.5 * (logdet + quad)


@dataclass
class MatrixGrads:
    """Matrix-level partial derivatives of gauss_loglik.

    dE_blocks[m] is the derivative w.r.t. the same-output covariance
    block Kff_m; dKfu_blocks and dKuu carry the total derivatives w.r.t.
    the cross and inducing blocks (dKuu symmetric, through Kuu's Cholesky
    factor) with the Nystrom-residual paths already folded in; for the
    independent model (Q = 0) they are (n_m, 0) blocks and a 0 x 0 dKuu.
    dlogw_blocks[m] is the derivative w.r.t. log w_m,
    -w o ((y - mean)^2 + var) / 2 with the posterior mean and variance of f
    at the rows (posterior_moments gives them at the moving rows).
    """

    dE_blocks: list
    dKfu_blocks: list
    dKuu: np.ndarray
    dlogw_blocks: list = None


def gauss_loglik_grads(sys: StackedSystem):
    """Matrix-level gradient of gauss_loglik for the current system.

    Each output's products run in P_m's scaled space, with P_m's full
    factor and alpha_m, V_m from factor_solves: with
    G = Sigma^-1 - Sigma^-1 y y' Sigma^-1, G_mm = S_m G~_m S_m,
    G~_m = P_m^-1 - [V_m A^-1, r_m] [V_m, r_m]' with r_m = alpha_m - V_m c,
    and w o ((y - mean)^2 + var) = 1 - diag(G~_m).  P_m^-1 is formed
    here, from that factor; the system stays as it was.  The
    derivative w.r.t. Psi_m is Psi_bar_m = G_mm Psi_m - (G Psi)_m = S_m R_m with
    R_m = G~_m S_m Psi_m - S_m^-1 (G Psi)_m
        = V_m A^-1 (M1 - M1_m) - r_m (kr_m - kr)'
    for M1 = A - I, kr = Psi' Sigma^-1 y = c and kr_m = (S_m Psi_m)' r_m,
    so no n_m x n_m matrix is multiplied there.  dKfu_m = Psi_bar_m L^-1
    takes L^-1 on the (Q + 1) x Q right factor [M1 - M1_m; (kr - kr_m)'],
    and dKuu is the Cholesky pullback of
    -Psi_bar' Psi = Psi' G Psi - sum_m Psi_m' G_mm Psi_m.
    """
    Q = len(sys.c)
    Ainv = cho_inverse(sys.cho_A)
    M1 = sys.A - np.eye(Q)
    # L' Lbar = -Psi_bar' Psi: Psi' G Psi less its blockwise part, accumulated
    X = M1 - M1 @ Ainv @ M1 - np.outer(sys.c, sys.c)
    dE, dlogw, dKfu = [], [], []
    for m, s_m in enumerate(sys.s_blocks):
        if len(s_m) == 0:
            dE.append(np.zeros((0, 0)))
            dlogw.append(np.zeros(0))
            dKfu.append(np.zeros((0, Q)))
            continue
        cho, solved = factor_solves(sys, m)
        Vm = solved[:, :-1]
        r = solved[:, -1] - Vm @ sys.c  # the scaled residual S^-1 Sigma^-1 y
        # G~_m = P_m^-1 - [V_m A^-1, r] [V_m, r]', both in the array of cho's factor
        G = cho_inverse(cho, overwrite=True)
        VAr = np.column_stack((_gemm(Vm, Ainv), r))  # [V_m A^-1, r]
        G = dgemm(-1.0, VAr, np.column_stack((Vm, r)), beta=1.0, c=G, trans_b=1, overwrite_c=1)
        dlogw.append(0.5 * (np.diag(G) - 1.0))
        M1_m = sys.ZZ[m][:Q, :Q]
        kr_m = (s_m[:, None] * sys.Psi[m]).T @ r
        X -= M1_m - M1_m @ Ainv @ M1_m - np.outer(kr_m, kr_m)
        # dKfu_m = S_m [V_m A^-1, r] ([M1 - M1_m; (c - kr_m)'] L^-1)
        right = np.vstack((M1 - M1_m, sys.c - kr_m))
        d = _gemm(VAr, kernels.whiten_grad_k(sys.cho_Kuu, right))
        d *= s_m[:, None]
        dKfu.append(d)
        G *= -0.5 * s_m  # G_mm = S_m G~ S_m, after G~'s last read
        G *= s_m[:, None]
        dE.append(G)
    dKuu = kernels.whiten_grad_kuu(sys.cho_Kuu, X)
    return MatrixGrads(dE_blocks=dE, dKfu_blocks=dKfu, dKuu=dKuu, dlogw_blocks=dlogw)
