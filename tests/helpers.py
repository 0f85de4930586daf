"""Shared randomized generators and mutation operators for the tests."""

from fractions import Fraction

from fmmkit.matrices import Matrix
from fmmkit.scalars import Laurent, laurent_order
from fmmkit.tensor import LAURENT, RATIONAL, FmmTensor, Term


def laurent_copy(t):
    """t with every entry a Laurent scalar, mask kept."""
    return FmmTensor(t.dims, LAURENT, t.terms, t.support)


def rand_fraction(rng, zero_ok=True):
    num = rng.randint(-6, 6)
    while not zero_ok and num == 0:
        num = rng.randint(-6, 6)
    return Fraction(num, rng.choice((1, 1, 1, 2, 3, 4)))


def rand_laurent(rng, zero_ok=True):
    n = rng.randint(0 if zero_ok else 1, 2)
    terms = {}
    for _ in range(n):
        terms[rng.randint(-3, 3)] = rand_fraction(rng, zero_ok=False)
    value = Laurent(terms)
    while not zero_ok and not value:
        value = Laurent({rng.randint(-3, 3): rand_fraction(rng, zero_ok=False)})
    return value


def rand_scalar(rng, mode, zero_ok=True):
    if mode == LAURENT:
        return rand_laurent(rng, zero_ok=zero_ok)
    return rand_fraction(rng, zero_ok=zero_ok)


def rand_factor(rng, rows, cols, mode):
    """Random factor matrix, guaranteed nonzero."""
    data = [[rand_scalar(rng, mode) if rng.random() < 0.5 else 0 for _ in range(cols)] for _ in range(rows)]
    data[rng.randrange(rows)][rng.randrange(cols)] = rand_scalar(rng, mode, zero_ok=False)
    return Matrix(data)


def rand_tensor(rng, max_dim=3, max_rank=4, allow_support=True):
    m = rng.randint(1, max_dim)
    n = rng.randint(1, max_dim)
    p = rng.randint(1, max_dim)
    r = rng.randint(1, max_rank)
    mode = rng.choice((RATIONAL, LAURENT))
    support = None
    if allow_support and rng.random() < 0.3:
        support = [[rng.random() < 0.7 for _ in range(n)] for _ in range(m)]
        support[rng.randrange(m)][rng.randrange(n)] = True
    terms = [
        Term(
            rand_factor(rng, m, n, mode),
            rand_factor(rng, n, p, mode),
            rand_factor(rng, p, m, mode),
        )
        for _ in range(r)
    ]
    return FmmTensor((m, n, p), mode, terms, support=support)


def rand_invertible(rng, n):
    """Random invertible rational matrix built from triangular factors."""
    diag_pool = (Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-1, 2))
    low = [[Fraction(0)] * n for _ in range(n)]
    up = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        low[i][i] = rng.choice(diag_pool)
        up[i][i] = rng.choice(diag_pool)
        for j in range(i):
            if rng.random() < 0.5:
                low[i][j] = rand_fraction(rng)
            if rng.random() < 0.5:
                up[j][i] = rand_fraction(rng)
    perm = list(range(n))
    rng.shuffle(perm)
    pmat = [[Fraction(1) if j == perm[i] else Fraction(0) for j in range(n)] for i in range(n)]
    return Matrix(pmat) @ Matrix(low) @ Matrix(up)


def mutate_one_entry(t, rng):
    """Add a nonzero delta to a single factor entry.  For laurent tensors
    the delta's order is pushed low enough that the damage must show at
    discrepancy order <= 0, which approximate verification rejects."""
    i = rng.randrange(len(t.terms))
    term = t.terms[i]
    slot = rng.choice("PQS")
    factor = getattr(term, slot)
    r = rng.randrange(factor.rows)
    c = rng.randrange(factor.cols)
    if t.field_mode == RATIONAL:
        delta = rand_fraction(rng, zero_ok=False)
    else:
        others = [f for name, f in (("P", term.P), ("Q", term.Q), ("S", term.S)) if name != slot]
        floor = 0
        for f in others:
            orders = [laurent_order(v) for _, _, v in f.nonzero_entries()]
            floor += min(orders)
        delta = Laurent.monomial(rand_fraction(rng, zero_ok=False), -floor - rng.randint(0, 2))
    while True:
        new_factor = Matrix(
            [
                [
                    factor[(rr, cc)] + delta if (rr, cc) == (r, c) else factor[(rr, cc)]
                    for cc in range(factor.cols)
                ]
                for rr in range(factor.rows)
            ]
        )
        if new_factor:
            break
        delta = delta + delta  # doubling keeps the order, dodges cancellation
    new_term = Term(*(new_factor if name == slot else getattr(term, name) for name in "PQS"))
    terms = list(t.terms)
    terms[i] = new_term
    return t.with_terms(terms)
