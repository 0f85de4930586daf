"""Hot numeric kernels for the ALS search, vectorized with numpy.

  residual(P, Q, S, T)            squared Frobenius distance between the
                                  rank-r expansion of the stacks and the
                                  dense target T of shape (mn, np, pm)
  block_solve(A, B, Tmat, lam, M) ridge-regularized normal-equation solve
                                  for one factor stack given the other two;
                                  Tmat is the target matricized with the
                                  solved mode first, M the proximal model

Both are deterministic for given inputs.
"""

import numpy as np

BACKEND = "numpy"


def residual(P, Q, S, T):
    D = (P[:, :, None, None] * Q[:, None, :, None] * S[:, None, None, :]).sum(axis=0)
    D -= T
    return float((D * D).sum())


def block_solve(A, B, Tmat, lam, model):
    r = A.shape[0]
    G = (A @ A.T) * (B @ B.T)
    G.flat[:: r + 1] += lam
    KR = (A[:, :, None] * B[:, None, :]).reshape(r, -1)
    RHS = KR @ Tmat.T
    RHS += lam * model
    return np.linalg.solve(G, RHS)
