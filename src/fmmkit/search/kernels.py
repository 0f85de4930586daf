"""Hot numeric kernels for the ALS search, vectorized with numpy.

The kernels take a batch of k restarts in one row-blocked layout: each
factor stack is a 2-D array of shape (k*r, d) whose rows i*r .. i*r+r-1
belong to restart i.

  residual(P, Q, S, T, k)         the k squared Frobenius distances, one per
                                  restart, between its rank-r expansion and
                                  the dense target T, any C-contiguous array
                                  that flattens to the (mn, np, pm) tensor;
                                  the expansion is the tensor matricized as
                                  (P (.) Q)^T S, one Khatri-Rao product and
                                  one gemm per restart, so no array holds
                                  more than r*(mn)(np) floats per restart
  gram(A, k)                      the k r x r Gram matrices A_i A_i^T of a
                                  stack, as a (k, r, r) array, or a plain
                                  r x r one when k = 1
  block_solve(A, B, Tmat, lam, M, GA, GB)
                                  ridge-regularized normal-equation solve
                                  for one factor stack given the other two,
                                  one r x r system per restart; Tmat is the
                                  target matricized with the solved mode
                                  first, lam the length-k ridge weights, M
                                  the proximal models in the same layout
                                  and GA, GB the Grams of A and B as gram
                                  returns them; the caller computes each
                                  Gram once and passes it to every solve
                                  that reads it, and block_solve does not
                                  write to them

Each step is elementwise, sums within one restart's block in the order a
lone restart sums, or makes one BLAS or LAPACK call per restart on that
restart's rows.  So a restart's numbers are the same bit for bit in any
batch and alone.  A single 2-D gemm over all k*r rows would break this:
OpenBLAS picks its kernel, and with it the summation order, from the row
count.  The kernels are deterministic for given inputs.
"""

import numpy as np

BACKEND = "numpy"


def residual(P, Q, S, T, k):
    r = P.shape[0] // k
    KR = (P[:, :, None] * Q[:, None, :]).reshape(k, r, -1)
    D = KR.transpose(0, 2, 1) @ S.reshape(k, r, -1)
    D -= T.reshape(D.shape[1:])
    D *= D
    return np.add.reduce(D.reshape(k, -1), axis=1)


def gram(A, k):
    if k == 1:
        return A @ A.T
    A3 = A.reshape(k, -1, A.shape[1])
    return A3 @ A3.transpose(0, 2, 1)


def block_solve(A, B, Tmat, lam, model, GA, GB):
    k = len(lam)
    r = A.shape[0] // k
    G = GA * GB
    if k == 1:
        # the same arithmetic on plain 2-D arrays: numpy's stacked matmul
        # and solve cost several microseconds more per call at one
        # restart's size
        G.flat[:: r + 1] += lam[0]
        RHS = (A[:, :, None] * B[:, None, :]).reshape(r, -1) @ Tmat.T
        RHS += lam[0] * model
        return np.linalg.solve(G, RHS)
    G.reshape(k, -1)[:, :: r + 1] += lam[:, None]
    RHS = (A[:, :, None] * B[:, None, :]).reshape(k, r, -1) @ Tmat.T
    RHS += lam[:, None, None] * model.reshape(k, r, -1)
    return np.linalg.solve(G, RHS).reshape(A.shape[0], -1)
