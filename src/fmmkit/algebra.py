"""Constructions and transformations on multiplication schemes.

Everything here is a pure function from tensors to tensors: block direct
sums, Kronecker products, the cyclic and transpose symmetries, the
sandwiching isotropy action, detection and recombination of terms that
share a factor, completion of a masked scheme by an embedded block, and
the ceil((3mn+max(m,n))/2) rank bound for <m,2,n> products.

Direct sums and completions place a block's factors the same way: a
BlockEmbedding's index maps scatter them into the host dimensions.
Entries are combined in their own scalar form (Fraction and Laurent
scalars mix freely in arithmetic).  The three combiners, direct_sum,
kronecker and embed_and_add, accept a rational and a laurent input
together, and their result is laurent when any input is.
"""

from collections import namedtuple
from dataclasses import dataclass

from .matrices import Matrix, _krons, _sparse, _summed
from .tensor import LAURENT, RATIONAL, FmmTensor, Term

AXIS_M = "M"
AXIS_N = "N"
AXIS_P = "P"
_AXES = (AXIS_M, AXIS_N, AXIS_P)

# a slot's name is its Term field's, so getattr(term, slot) reads it
SLOT_P = "P"
SLOT_Q = "Q"
SLOT_S = "S"
_SLOTS = (SLOT_P, SLOT_Q, SLOT_S)

IsotropyElement = namedtuple("IsotropyElement", ["U", "V", "W"])


@dataclass(frozen=True)
class SerendipityGroup:
    """Terms (0-based positions) whose factor in one slot is identical."""
    slot: str
    shared_factor: Matrix
    term_indices: tuple


@dataclass(frozen=True)
class BlockEmbedding:
    """Index maps placing a small scheme inside a larger one.

    a_rows/a_cols locate the block inside the host A matrix, b_cols the
    block's B columns inside the host B.  All indices are 0-based,
    strictly increasing, and the block's B-row indices reuse a_cols (the
    inner dimension is shared).
    """
    a_rows: tuple
    a_cols: tuple
    b_cols: tuple

    def __post_init__(self):
        for name, idx in (("a_rows", self.a_rows), ("a_cols", self.a_cols),
                          ("b_cols", self.b_cols)):
            idx = tuple(int(i) for i in idx)
            object.__setattr__(self, name, idx)
            if not idx:
                raise ValueError("%s must be non-empty" % name)
            if any(i < 0 for i in idx):
                raise ValueError("%s indices must be >= 0" % name)
            if any(a >= b for a, b in zip(idx, idx[1:])) and len(idx) > 1:
                raise ValueError("%s must be strictly increasing" % name)


def _check_unmasked(t, op):
    if t.support is not None:
        raise ValueError("%s does not accept a masked tensor" % op)


def _joint_mode(t1, t2):
    """The field mode of a combination of t1 and t2: laurent when either is."""
    return LAURENT if LAURENT in (t1.field_mode, t2.field_mode) else RATIONAL


def _scatter(mat, rows, cols, big_rows, big_cols):
    # the index maps increase, so the placed entries stay row-major
    return _sparse(big_rows, big_cols,
                   [(rows[i], cols[j], v) for i, j, v in mat.nonzeros])


def _placed_terms(t, e, dims):
    """t's terms with every factor scattered into the host dims by the
    embedding e."""
    m, n, p = dims
    return [Term(_scatter(term.P, e.a_rows, e.a_cols, m, n),
                 _scatter(term.Q, e.a_cols, e.b_cols, n, p),
                 _scatter(term.S, e.b_cols, e.a_rows, p, m))
            for term in t.terms]


def direct_sum(t1, t2, axis=AXIS_M):
    """Block sum <..+..> along one axis; ranks add.

    The two schemes must agree on the other two dimensions; the sum is
    laurent when either is.  t1 is embedded at offset 0 of the summed
    axis and t2 at offset t1's size there; t1's terms come first.
    """
    if axis not in _AXES:
        raise ValueError("axis must be one of %s" % (_AXES,))
    _check_unmasked(t1, "direct_sum")
    _check_unmasked(t2, "direct_sum")
    d1, d2 = t1.dims, t2.dims
    k = _AXES.index(axis)
    for j in range(3):
        if j != k and d1[j] != d2[j]:
            raise ValueError(
                "direct_sum along %s needs equal %s dimensions (%d vs %d)"
                % (axis, "mnp"[j], d1[j], d2[j]))
    dims = list(d1)
    dims[k] += d2[k]

    def embedding(offset, d):
        ranges = [range(size) for size in d]
        ranges[k] = range(offset, offset + d[k])
        return BlockEmbedding(*ranges)

    terms = (_placed_terms(t1, embedding(0, d1), dims)
             + _placed_terms(t2, embedding(d1[k], d2), dims))
    return FmmTensor(dims, _joint_mode(t1, t2), terms)


def kronecker(t1, t2):
    """Tensor product: <m,n,p;r> x <u,v,w;s> -> <mu,nv,pw;rs>.

    Big matrix index = (outer index) * inner_size + inner index, the
    same convention the recursive evaluator uses for blocking.  The
    product is laurent when either factor is.  The product of each pair
    of distinct value objects is formed once per call and shared by every
    entry and slot that meets that pair (matrices._krons), so the result
    holds at most (value objects of t1) x (value objects of t2) of them.
    """
    _check_unmasked(t1, "kronecker")
    _check_unmasked(t2, "kronecker")
    m, n, p = t1.dims
    u, v, w = t2.dims
    # t1 and t2 hold every value object for the call, so one table keyed
    # by id serves the three slots
    products = {}
    P, Q, S = (_krons(lefts, rights, products)
               for lefts, rights in zip(zip(*t1.terms), zip(*t2.terms)))
    terms = list(map(Term, P, Q, S))
    return FmmTensor((m * u, n * v, p * w), _joint_mode(t1, t2), terms)


def symmetry_apply(t, rotation=0, transpose=False):
    """Cyclic and transpose symmetries of the matrix-product tensor.

    rotation 1: (P,Q,S) -> (Q,S,P) on <n,p,m>; applied `rotation` times.
    transpose: (P,Q,S) -> (S^T,Q^T,P^T) on <m,p,n>, applied after the
    rotation.  Both preserve verification; a masked tensor admits only
    the identity.  The image is one construction from t's rotated slots.
    """
    if rotation not in (0, 1, 2):
        raise ValueError("rotation must be 0, 1 or 2")
    if t.support is not None and (rotation != 0 or transpose):
        raise ValueError("symmetry_apply on a masked tensor must be the identity")
    # the rotated tensor's slots P, Q, S are t's slots a, b, c
    a, b, c = rotation, (rotation + 1) % 3, (rotation + 2) % 3
    m, n, p = t.dims[a], t.dims[b], t.dims[c]
    if transpose:
        dims = m, p, n
        terms = [Term(term[c].transpose(), term[b].transpose(), term[a].transpose())
                 for term in t.terms]
    else:
        dims = m, n, p
        terms = [Term(term[a], term[b], term[c]) for term in t.terms] if rotation else t.terms
    return FmmTensor(dims, t.field_mode, terms, t.support)


def isotropy_apply(t, g):
    """Sandwich the factors by an invertible triple (U, V, W).

    The output represents the same bilinear map conjugated by basis
    changes: its complete contraction sum_i <P_i,A> <Q_i,B> <S_i,C> at
    (U A V^-1, V B W^-1, W C U^-1) equals that of t at (A, B, C), and
    verification status is preserved.
    """
    _check_unmasked(t, "isotropy_apply")
    m, n, p = t.dims
    U, V, W = g
    for name, mat, size in (("U", U, m), ("V", V, n), ("W", W, p)):
        if (mat.rows, mat.cols) != (size, size):
            raise ValueError("%s must be %dx%d" % (name, size, size))
    try:
        U_it, V_it, W_it = (mat.inverse().transpose() for mat in (U, V, W))
    except ValueError as exc:
        raise ValueError("isotropy element is singular or leaves the scalar "
                         "domain: %s" % exc) from None
    Ut, Vt, Wt = U.transpose(), V.transpose(), W.transpose()
    terms = [Term(U_it @ term.P @ Vt, V_it @ term.Q @ Wt, W_it @ term.S @ Ut)
             for term in t.terms]
    return FmmTensor(t.dims, t.field_mode, terms)


def serendipity_find(t, up_to_scale=False):
    """All maximal groups of terms sharing a factor in one slot.

    Detection is exact entrywise equality, the hypothesis the rewrite in
    serendipity_transform needs.  With up_to_scale, factors that differ
    by a nonzero scalar multiple are grouped too (detection only; the
    rewrite still requires literal sharing).
    """
    groups = []
    for slot in _SLOTS:
        # factor, or up to scale its nonzero positions -> member lists,
        # one per class of equal (proportional) factors
        classes = {}
        for idx, term in enumerate(t.terms):
            factor = getattr(term, slot)
            key = factor
            if up_to_scale:
                key = tuple((i, j) for i, j, _ in factor.nonzero_entries())
            bucket = classes.setdefault(key, [])
            for members in bucket:
                if not up_to_scale or _proportional(
                        getattr(t.terms[members[0]], slot), factor):
                    members.append(idx)
                    break
            else:
                bucket.append([idx])
        for bucket in classes.values():
            for members in bucket:
                if len(members) >= 2:
                    shared = getattr(t.terms[members[0]], slot)
                    groups.append(SerendipityGroup(slot, shared, tuple(members)))
    groups.sort(key=lambda g: (_SLOTS.index(g.slot), g.term_indices[0]))
    return groups


def _proportional(F, G):
    """Whether F and G, nonzero at the same positions (so their nonzeros
    pair up in order), differ by a scalar factor: f g_a == g f_a at every
    position, with a the first one.  The test divides nothing, so it holds
    in the Laurent scalars too, where a quotient may not exist."""
    (_, _, fa), (_, _, ga) = F.nonzeros[0], G.nonzeros[0]
    return all(f * ga == g * fa for (_, _, f), (_, _, g) in zip(F.nonzeros, G.nonzeros))


def serendipity_transform(t, group, M):
    """Recombine terms sharing one factor by an invertible change of basis.

    For shared slot X with partner slots (Y, Z) in cyclic order, the
    grouped Y factors are mixed by M^T and the Z factors by M^-1, which
    telescopes to the identity inside the sum: the output expands to the
    same coefficient array, term for term positions preserved.
    """
    idxs = tuple(group.term_indices)
    q = len(idxs)
    if q < 2:
        raise ValueError("a serendipity group needs at least two terms")
    if len(set(idxs)) != q or not all(0 <= i < t.rank for i in idxs):
        raise ValueError("group indices out of range")
    for i in idxs:
        if getattr(t.terms[i], group.slot) != group.shared_factor:
            raise ValueError("stale group: term %d no longer carries the "
                             "shared factor" % i)
    if (M.rows, M.cols) != (q, q):
        raise ValueError("mixing matrix must be %dx%d" % (q, q))
    try:
        M_inv = M.inverse()
    except ValueError as exc:
        raise ValueError("mixing matrix: %s" % exc) from None
    Mt = M.transpose()

    partner = {SLOT_P: (SLOT_Q, SLOT_S),
               SLOT_Q: (SLOT_S, SLOT_P),
               SLOT_S: (SLOT_P, SLOT_Q)}[group.slot]
    ys = [getattr(t.terms[i], partner[0]) for i in idxs]
    zs = [getattr(t.terms[i], partner[1]) for i in idxs]

    def mix(mixer, mats):
        """[sum_k mixer_{jk} mats[k] for each j], one sum per j."""
        pieces = [[] for _ in mats]
        for j, k, a in mixer.nonzeros:
            pieces[j] += [(r, c, a * y) for r, c, y in mats[k].nonzeros]
        return [_summed(mats[0].rows, mats[0].cols, p) for p in pieces]

    new_terms = list(t.terms)
    # alpha_j = sum_k (M^T)_{jk} Y_k ; beta_j = sum_k (M^-1)_{jk} Z_k
    for i, alpha, beta in zip(idxs, mix(Mt, ys), mix(M_inv, zs)):
        if not (alpha and beta):
            raise ValueError("recombination would zero a factor of term %d "
                             "(dependent factors under this mixing matrix)" % i)
        parts = {group.slot: group.shared_factor,
                 partner[0]: alpha, partner[1]: beta}
        new_terms[i] = Term(parts[SLOT_P], parts[SLOT_Q], parts[SLOT_S])
    return FmmTensor(t.dims, t.field_mode, new_terms, t.support)


def embed_and_add(partial, block, embedding):
    """Complete a masked scheme by a block scheme for the missing product.

    The embedding must cover exactly the zero region of the mask: the
    block's A sits at rows a_rows x cols a_cols of the host A, its B
    spans rows a_cols x cols b_cols of the host B, and its C lands at
    rows b_cols x cols a_rows of the host C.  Terms are the union; the
    output is unmasked.
    """
    if partial.support is None:
        raise ValueError("embed_and_add needs a masked tensor to complete")
    _check_unmasked(block, "embed_and_add block")
    m, n, p = partial.dims
    bm, bn, bp = block.dims
    e = embedding
    if (len(e.a_rows), len(e.a_cols), len(e.b_cols)) != (bm, bn, bp):
        raise ValueError("embedding sizes %s do not match block dims <%d,%d,%d>"
                         % ((len(e.a_rows), len(e.a_cols), len(e.b_cols)),
                            bm, bn, bp))
    if e.a_rows[-1] >= m or e.a_cols[-1] >= n or e.b_cols[-1] >= p:
        raise ValueError("embedding indices exceed host dimensions")

    covered = {(r, c) for r in e.a_rows for c in e.a_cols}
    complement = set(partial.masked_out())
    if covered != complement:
        raise ValueError("embedding must cover exactly the masked-out "
                         "A-entries (%d covered, %d masked)"
                         % (len(covered), len(complement)))

    terms = list(partial.terms) + _placed_terms(block, e, partial.dims)
    return FmmTensor(partial.dims, _joint_mode(partial, block), terms)


def mask_embedding(t):
    """The canonical embedding completing t's mask, if it is a rectangle.

    Returns a BlockEmbedding over the full B column range; raises when
    the masked-out region is not a row-set x column-set product.
    """
    if t.support is None:
        raise ValueError("tensor has no support mask")
    holes = t.masked_out()
    if not holes:
        raise ValueError("support mask has an empty complement")
    rows = tuple(sorted({r for r, _ in holes}))
    cols = tuple(sorted({c for _, c in holes}))
    if len(holes) != len(rows) * len(cols):
        raise ValueError("masked-out region is not a full rectangle")
    return BlockEmbedding(rows, cols, tuple(range(t.dims.p)))


def hopcroft_rank_bound(m, n):
    """ceil((3mn + max(m,n)) / 2): multiplications for an <m,2,n> product."""
    if m < 1 or n < 1:
        raise ValueError("dimensions must be positive")
    return -(-(3 * m * n + max(m, n)) // 2)
