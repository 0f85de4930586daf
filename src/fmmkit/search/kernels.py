"""Hot numeric kernels for the ALS search, vectorized with numpy.

The kernels take a batch of k restarts in one row-blocked layout: each
factor stack is a 2-D array of shape (k*r, d) whose rows i*r .. i*r+r-1
belong to restart i.  No kernel reads a dense target.  In cyclic order
P (m x n), Q (n x p), S (p x m), a stack is solved against the next two,
A_t (a x b) and B_t (b x c), and the classical tensor contracted with
them is the c x a factor (A_t B_t)^T.

  gram(A, k)                the k r x r Gram matrices A_i A_i^T, (k, r, r)
  products(A, B, a)         row t is vec((A_t B_t)^T), A_t having a rows:
                            one stacked B_t^T A_t^T, already in row layout
  block_solve(A, B, model, lam, GA, GB, a)
                            ridge-regularized normal-equation solve for the
                            stack after B in cyclic order, one r x r system
                            per restart; model is its proximal model, lam
                            the length-k ridge weights and GA, GB the Grams
                            of A and B, which it does not write to; returns
                            the solved stack and products(A, B, a)
  residual(S, C, G, volume) the k squared distances between the expansion
                            of P, Q, S and the classical tensor of volume
                            m*n*p unit coefficients, sum(G) - 2 <C, S> +
                            volume, from C = products(P, Q, m) and the
                            Grams' elementwise product G = GP*GQ*GS

Each step is elementwise, sums within one restart's block in the order a
lone restart sums, or makes one BLAS or LAPACK call per term or per
restart.  So a restart's numbers are the same bit for bit in any batch
and alone.  A single 2-D gemm over all k*r rows would break this:
OpenBLAS picks its kernel, and with it the summation order, from the row
count.  The kernels are deterministic for given inputs.
"""

import numpy as np

BACKEND = "numpy"


def gram(A, k):
    if k == 1:
        return (A @ A.T)[None]
    A3 = A.reshape(k, -1, A.shape[1])
    return A3 @ A3.transpose(0, 2, 1)


def products(A, B, a):
    b = A.shape[1] // a
    At = A.reshape(len(A), a, b).transpose(0, 2, 1)
    Bt = B.reshape(len(B), b, -1).transpose(0, 2, 1)
    return (Bt @ At).reshape(len(A), -1)


def block_solve(A, B, model, lam, GA, GB, a):
    k = len(lam)
    r = A.shape[0] // k
    C = products(A, B, a)
    if k == 1:
        # the same arithmetic on plain 2-D arrays: numpy's stacked solve
        # costs several microseconds more per call at one restart's size
        G = GA[0] * GB[0]
        G.flat[:: r + 1] += lam[0]
        RHS = lam[0] * model
        RHS += C
        return np.linalg.solve(G, RHS), C
    G = GA * GB
    G.reshape(k, -1)[:, :: r + 1] += lam[:, None]
    RHS = lam[:, None, None] * model.reshape(k, r, -1)
    RHS += C.reshape(RHS.shape)
    return np.linalg.solve(G, RHS).reshape(A.shape[0], -1), C


def residual(S, C, G, volume):
    k = len(G)
    SC = S * C
    return (np.add.reduce(G.reshape(k, -1), axis=1)
            - 2.0 * np.add.reduce(SC.reshape(k, -1), axis=1) + volume)
