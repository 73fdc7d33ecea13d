"""Exact integral representation theory of the symmetric group.

Irreducible representations are realized on standard-tableau bases with
integer matrices, tensor-product multiplicities come from characters, and
the unique coupling of a tensor product onto a constituent is computed by
transporting joint eigenvectors of the Jucys-Murphy elements: one per side,
a basis vector's image under factors X_k - c, and one row reduction of the
transported pairs that is also the coupling's solve.  The headline checks:
the degree-5 quadratic relation between the projections of a tensor square
of the standard module, with coefficients (32, 100, 25, -180), and its
conjectured analogue for degrees 6 to 8.

All linear algebra is over the integers.  Kernels, ranks and the coupling
solve share one fraction-free row reduction (_reduce_into, which adds one
row to a reduced form; _row_reduce runs it over a matrix) that keeps every
row primitive with polycore's `_primitive`, the package's one
integer-normalisation helper.  A module's matrices enumerate no tabloids:
a polytabloid's value at a column tabloid has a closed form (0, or a
product of column sort signs), and the basis is unitriangular on the
standard tableaux's own column tabloids (Sagan, The Symmetric Group, 2nd
ed., section 2.5), so coordinates are a forward substitution of those
values (see _ColumnSpan).

One action applies a representation to a vector: _tensor_apply, of
Q_l(g) x Q_m(g), with a single module V_n taken as V_n x V_(d) for the
trivial V_(d).  The Jucys-Murphy eigenvectors, the transport and the
equivariance check of a coupling all go through it.  The Jucys-Murphy
elements act through adjacent transpositions alone (X_k = s X_(k-1) s + s,
s = (k-1 k)), so package code asks a degree-d module for d + 1 matrices:
those d - 1, the long cycle and its inverse.  Each degree's relation rows
are built once, from the raw couplings (_pointwise_rows); at d = 5 the
anchoring and basis signs enter as one factor per coupling, which
rescales the rows' four columns, and verify_s5_syzygy reports on top of
test_conjecture(5) rather than solving the system again.
"""

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm
from operator import add, mul
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .polycore import _primitive

Shape = Tuple[int, ...]
Perm = Tuple[int, ...]  # perm[k] = image of k + 1, entries 1..d

# Cache bounds, above what `verify --suite all`, the sym-relations benchmark
# and the d = 8 relation hold (44 modules, 15 couplings, 163 characters).
# `sym mult` at its cap evicts characters and was timed with this bound.  A
# module's matrix memo needs no bound: package code asks a degree-d module
# for d + 1 matrices, the adjacent transpositions, the long cycle and its
# inverse.
_MAX_MODULES = 128
_MAX_COUPLINGS = 64
_MAX_CHARACTERS = 1 << 16


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------


def check_shape(shape: Iterable[int]) -> Shape:
    sh = tuple(int(x) for x in shape)
    if not sh or any(x < 1 for x in sh):
        raise ValueError(f"not a partition: {sh}")
    if any(sh[k] < sh[k + 1] for k in range(len(sh) - 1)):
        raise ValueError(f"parts must be weakly decreasing: {sh}")
    return sh


def partitions(d: int) -> List[Shape]:
    out: List[Shape] = []

    def grow(rest: int, cap: int, acc: Tuple[int, ...]) -> None:
        if rest == 0:
            out.append(acc)
            return
        for part in range(min(cap, rest), 0, -1):
            grow(rest - part, part, acc + (part,))

    grow(d, d, ())
    return out


def hook_dimension(shape: Iterable[int]) -> int:
    sh = check_shape(shape)
    d = sum(sh)
    cols = [sum(1 for row in sh if row > c) for c in range(sh[0])]
    prod = 1
    for r, row in enumerate(sh):
        for c in range(row):
            prod *= (row - c) + (cols[c] - r) - 1
    return factorial(d) // prod


# ---------------------------------------------------------------------------
# permutations as tuples
# ---------------------------------------------------------------------------


def identity_perm(d: int) -> Perm:
    return tuple(range(1, d + 1))


def cycle_perm(d: int) -> Perm:
    return tuple(range(2, d + 1)) + (1,)


def swap_perm(i: int, k: int, d: int) -> Perm:
    """The transposition (i k) as a degree-d permutation, 1-based."""
    p = list(range(1, d + 1))
    p[i - 1], p[k - 1] = k, i
    return tuple(p)


def inverse_perm(p: Perm) -> Perm:
    out = [0] * len(p)
    for k, v in enumerate(p):
        out[v - 1] = k + 1
    return tuple(out)


# ---------------------------------------------------------------------------
# standard tableaux
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StandardTableau:
    shape: Shape
    rows: Tuple[Tuple[int, ...], ...]

    def column_word(self) -> Tuple[int, ...]:
        return tuple(self.rows[r][c]
                     for c in range(self.shape[0])
                     for r in range(len(self.rows)) if len(self.rows[r]) > c)

    def __str__(self) -> str:
        return "[" + " / ".join(" ".join(str(x) for x in row) for row in self.rows) + "]"


def standard_tableaux(shape: Iterable[int]) -> List[StandardTableau]:
    """All standard tableaux of the shape, listed by row-reading word."""
    sh = check_shape(shape)
    # the fillings of 1..k, grown one entry at a time; each extends to at
    # least one standard tableau, so none is wasted
    found: List[Tuple[Tuple[int, ...], ...]] = [((),) * len(sh)]
    for k in range(1, sum(sh) + 1):
        found = [rows[:r] + (rows[r] + (k,),) + rows[r + 1:]
                 for rows in found for r in range(len(sh))
                 if len(rows[r]) < sh[r] and (r == 0 or len(rows[r - 1]) > len(rows[r]))]
    found.sort(key=lambda rows: tuple(x for row in rows for x in row))
    return [StandardTableau(sh, rows) for rows in found]


# ---------------------------------------------------------------------------
# integer matrix helpers
# ---------------------------------------------------------------------------

Matrix = Tuple[Tuple[int, ...], ...]


def _identity_matrix(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def _mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in bt) for row in a)


def _row_reduce(rows: Sequence[Sequence], ncols: int) -> List[List[int]]:
    """Reduced row echelon form of a rational matrix, computed over the
    integers: the nonzero rows, each primitive with a positive pivot that is
    the only nonzero entry of its column, pivot columns increasing.  Only
    the first ncols columns hold pivots; the form is unique when the rows
    are that wide, or when their later columns are a linear function of
    those (as in a coupling's transport)."""
    reduced: List[List[int]] = []
    pivots: List[int] = []
    for row in rows:
        if len(pivots) == ncols:
            break
        _reduce_into(reduced, pivots, row, ncols)
    return reduced


def _reduce_into(reduced: List[List[int]], pivots: List[int], row: Sequence,
                 ncols: int) -> bool:
    """Add row to the reduced form `reduced` of _row_reduce, whose pivot
    columns are `pivots`: reduce row by the kept pivots alone, then clear
    its own pivot column from the kept rows.  False, changing nothing, when
    row's first ncols entries lie in the span of the kept rows'."""
    row = _primitive(row)[1]
    for piv, j in zip(reduced, pivots):
        f = row[j]
        if f:
            row = _primitive([piv[j] * x - f * y for x, y in zip(row, piv)])[1]
    j = next((j for j in range(ncols) if row[j]), None)
    if j is None:
        return False
    if row[j] < 0:
        row = [-v for v in row]
    a = row[j]
    for i, kept in enumerate(reduced):
        f = kept[j]
        if f:
            reduced[i] = _primitive([a * x - f * y for x, y in zip(kept, row)])[1]
    k = bisect_left(pivots, j)
    pivots.insert(k, j)
    reduced.insert(k, row)
    return True


def _kernel_basis(rows: Sequence[Sequence], ncols: int) -> List[List[int]]:
    """Primitive integer vectors spanning the right kernel, one per free
    column of the reduced form."""
    reduced = _row_reduce(rows, ncols)
    pivots = [next(j for j, v in enumerate(row) if v) for row in reduced]
    scale = lcm(*(row[p] for row, p in zip(reduced, pivots)))
    basis = []
    for fj in sorted(set(range(ncols)) - set(pivots)):
        vec = [0] * ncols
        vec[fj] = scale
        for row, pj in zip(reduced, pivots):
            vec[pj] = -row[fj] * (scale // row[pj])
        basis.append(_primitive(vec)[1])
    return basis


def _integerize(vec: Sequence[Fraction]) -> Tuple[int, ...]:
    """The primitive integer vector on the ray of vec, first nonzero entry
    positive."""
    ints = _primitive(vec)[1]
    first = next((v for v in ints if v), 0)
    if first < 0:
        ints = [-v for v in ints]
    return tuple(ints)


def _sort_sign(seq: Sequence[int]) -> int:
    inv = sum(1 for i in range(len(seq))
              for j in range(i + 1, len(seq)) if seq[i] > seq[j])
    return -1 if inv % 2 else 1


def _polytabloid_value(rows: Sequence[Sequence[int]], col_of: Dict[int, int]) -> int:
    """The value of e_s, s the tableau with these rows, at the column
    tabloid whose column of entry x is col_of[x] (see _ColumnSpan)."""
    # at[r][c]: the entry of row r of s that lies in column c of the tabloid
    at = []
    for row in rows:
        pos = dict(zip(map(col_of.__getitem__, row), row))
        if len(pos) != len(row) or max(pos) >= len(row):
            return 0
        at.append(pos)
    sign = 1
    # a column right of the second row's end holds one entry, sign 1
    for c in range(len(rows[1]) if len(rows) > 1 else 0):
        sign *= _sort_sign([pos[c] for pos in at if c in pos])
    return sign


# ---------------------------------------------------------------------------
# the integral representation on signed column tabloids
# ---------------------------------------------------------------------------


class _ColumnSpan:
    """One irreducible representation, realized on signed column tabloids.

    The polytabloid e_t of a tableau t sums, over the row-preserving
    rearrangements sigma, the column tabloid of sigma t signed by the sign
    that sorts its columns; a permutation acts by pi e_t = e_(pi t).  The
    basis is the standard tableaux in column-reading-word order (the reverse
    of the row-reading order standard_tableaux lists).

    No tabloid is enumerated.  e_s is 0 at a column tabloid T unless each
    row r of s has one entry in each column c < len(row r) of T; then sigma
    is unique and the value is the product of the sort signs of the columns
    of sigma s (_polytabloid_value).  In basis order e_(t_j) is 1 at t_j's
    own column tabloid and 0 at those of earlier tableaux (Sagan, The
    Symmetric Group, 2nd ed., section 2.5), so the basis values E at the own
    tabloids are lower unitriangular, and the coordinates of any e_s are the
    forward substitution of its own-tabloid values against E.
    """

    def __init__(self, shape: Shape):
        self.d = sum(shape)
        self.tableaux = sorted(standard_tableaux(shape),
                               key=lambda t: t.column_word())
        self.dim = len(self.tableaux)
        # _col_of[k][x]: the column of entry x in tableau k's own tabloid
        self._col_of = [{x: c for row in t.rows for c, x in enumerate(row)}
                        for t in self.tableaux]
        # E[k][j], the value of basis vector j at tableau k's own tabloid,
        # kept as the nonzero (j, E[k][j]) with j < k
        E = list(zip(*(self._values(t.rows) for t in self.tableaux)))
        if any(E[k][k] != 1 or any(E[k][k + 1:]) for k in range(self.dim)):
            raise ArithmeticError("polytabloid values are not unitriangular")
        self._lower = [[(j, v) for j, v in enumerate(row[:k]) if v]
                       for k, row in enumerate(E)]
        self._matrices: Dict[Perm, Matrix] = {}

    def _values(self, rows: Sequence[Sequence[int]]) -> List[int]:
        """Values of the polytabloid of these rows at the own tabloids."""
        return [_polytabloid_value(rows, col_of) for col_of in self._col_of]

    def _coordinates(self, values: Sequence[int]) -> List[int]:
        # forward substitution against the lower unitriangular E
        coeffs: List[int] = []
        for value, lower in zip(values, self._lower):
            coeffs.append(value - sum(v * coeffs[j] for j, v in lower))
        return coeffs

    def _image(self, perm: Perm) -> Matrix:
        cols = [self._coordinates(self._values(
                    [[perm[x - 1] for x in row] for row in t.rows]))
                for t in self.tableaux]
        return tuple(zip(*cols))

    def matrix(self, perm: Perm) -> Matrix:
        """Action of the permutation on the basis; columns are images.  Its
        product with the inverse permutation's matrix is checked to be 1."""
        if len(perm) != self.d:
            raise ValueError(f"permutation degree {len(perm)} does not match d={self.d}")
        cached = self._matrices.get(perm)
        if cached is not None:
            return cached
        inv = inverse_perm(perm)
        q = self._image(perm)
        q_inv = q if inv == perm else self._image(inv)
        if _mat_mul(q, q_inv) != _identity_matrix(self.dim):
            raise ArithmeticError("matrices of a permutation and its inverse are not inverse")
        self._matrices[perm] = q
        self._matrices[inv] = q_inv
        return q


@lru_cache(maxsize=_MAX_MODULES)
def _module(shape: Shape) -> _ColumnSpan:
    return _ColumnSpan(shape)


@dataclass(frozen=True)
class RepMatrix:
    shape: Shape
    label: str
    entries: Matrix


def generator_matrices(shape: Iterable[int]) -> Tuple[RepMatrix, RepMatrix]:
    """Matrices of (1 2) and of the long cycle, with the group relations
    (involution, cycle order, braid product) verified on construction."""
    sh = check_shape(shape)
    d = sum(sh)
    mod = _module(sh)
    if d < 2:
        one = mod.matrix(identity_perm(d))
        return (RepMatrix(sh, "s", one), RepMatrix(sh, "c", one))
    s, c = swap_perm(1, 2, d), cycle_perm(d)
    qs, qc = mod.matrix(s), mod.matrix(c)
    # matrix() has checked qs qs = 1, (1 2) being its own inverse
    ident = _identity_matrix(mod.dim)
    power = ident
    for _ in range(d):
        power = _mat_mul(power, qc)
    if power != ident:
        raise ArithmeticError("cycle matrix has wrong order")
    braid = _mat_mul(qc, qs)
    power = ident
    for _ in range(d - 1):
        power = _mat_mul(power, braid)
    if power != ident:
        raise ArithmeticError("braid product has wrong order")
    return (RepMatrix(sh, "s", qs), RepMatrix(sh, "c", qc))


# ---------------------------------------------------------------------------
# characters and multiplicities
# ---------------------------------------------------------------------------


@lru_cache(maxsize=_MAX_CHARACTERS)
def character(shape: Shape, cycle_type: Shape) -> int:
    """Irreducible character value by repeated border-strip removal."""
    if sum(shape) != sum(cycle_type):
        raise ValueError("shape and cycle type have different sizes")
    if not cycle_type:
        return 1
    k, rest = cycle_type[0], cycle_type[1:]
    L = len(shape)
    beta = [shape[i] + (L - 1 - i) for i in range(L)]
    bset = set(beta)
    total = 0
    for b in beta:
        nb = b - k
        if nb < 0 or nb in bset:
            continue
        height = sum(1 for x in beta if nb < x < b)
        new = sorted((bset - {b}) | {nb}, reverse=True)
        Ln = len(new)
        newshape = tuple(v - (Ln - 1 - i) for i, v in enumerate(new))
        newshape = tuple(v for v in newshape if v > 0)
        term = character(newshape, rest)
        total += -term if height % 2 else term
    return total


def class_size(cycle_type: Iterable[int]) -> int:
    ct = check_shape(cycle_type)
    d = sum(ct)
    z = 1
    mult: Dict[int, int] = {}
    for part in ct:
        mult[part] = mult.get(part, 0) + 1
    for part, m in mult.items():
        z *= part ** m * factorial(m)
    return factorial(d) // z


def multiplicity(lam: Iterable[int], mu: Iterable[int], nu: Iterable[int]) -> int:
    """How many copies of the third representation sit inside the tensor
    product of the first two; symmetric in all three arguments."""
    l, m, n = check_shape(lam), check_shape(mu), check_shape(nu)
    d = sum(l)
    if sum(m) != d or sum(n) != d:
        raise ValueError("partitions of different integers")
    total = 0
    for ct in partitions(d):
        total += class_size(ct) * character(l, ct) * character(m, ct) * character(n, ct)
    q, rem = divmod(total, factorial(d))
    if rem:
        raise ArithmeticError("character inner product is not integral")
    return q


# ---------------------------------------------------------------------------
# couplings by Jucys-Murphy eigenvector transport
# ---------------------------------------------------------------------------


def _tensor_apply(lmod: _ColumnSpan, mmod: _ColumnSpan, g: Perm,
                  vec: Sequence[int]) -> List[int]:
    """(Q_l(g) x Q_m(g)) applied to a vector of length dim(l) * dim(m).  A
    single module V_n acts as V_n x V_(d), whose matrices are ((1,),)."""
    ql, qm = lmod.matrix(g), mmod.matrix(g)
    dl, dm = len(ql), len(qm)
    out = [0] * (dl * dm)
    for jl in range(dl):
        base = jl * dm
        seg = vec[base:base + dm]
        if not any(seg):
            continue
        half = [sum(qm[im][jm] * seg[jm] for jm in range(dm) if seg[jm])
                for im in range(dm)]
        for il in range(dl):
            a = ql[il][jl]
            if a:
                row = il * dm
                for im in range(dm):
                    if half[im]:
                        out[row + im] += a * half[im]
    return out


def _jm_action(lmod: _ColumnSpan, mmod: _ColumnSpan, k: int, vec: Sequence[int]) -> List[int]:
    """The Jucys-Murphy element X_k = (1 k) + ... + (k-1 k) applied to vec,
    through X_k = s X_(k-1) s + s with s = (k-1 k) and X_1 = 0, so that only
    adjacent transpositions act."""
    if k == 1:
        return [0] * len(vec)
    s = swap_perm(k - 1, k, lmod.d)
    sv = _tensor_apply(lmod, mmod, s, vec)
    return list(map(add, _tensor_apply(lmod, mmod, s, _jm_action(lmod, mmod, k - 1, sv)), sv))


def _eigenvector(lmod: _ColumnSpan, mmod: _ColumnSpan,
                 tableau: StandardTableau) -> List[int]:
    """A primitive vector of lmod x mmod on which each Jucys-Murphy element
    X_k acts as the content of k in the tableau.

    Where a tableau puts 1..k-1 as this one does, X_k takes the content of
    an addable box of their shape (the branching rule; Okounkov and Vershik,
    1996).  So the factors X_k - c, c such a content other than k's own,
    map a basis vector into the joint eigenspace, a line when the tableau's
    shape has multiplicity 1 in lmod x mmod."""
    content = {x: c - r for r, row in enumerate(tableau.rows) for c, x in enumerate(row)}
    n = lmod.dim * mmod.dim
    for j in range(n):
        vec = [int(i == j) for i in range(n)]
        for k in range(2, lmod.d + 1):
            lengths = [sum(x < k for x in row) for row in tableau.rows] + [0]
            for i, length in enumerate(lengths):
                if (i == 0 or lengths[i - 1] > length) and length - i != content[k]:
                    xv = _jm_action(lmod, mmod, k, vec)
                    vec = [x - (length - i) * v for x, v in zip(xv, vec)]
            vec = _primitive(vec)[1]
            if not any(vec):
                break
        else:
            return vec
    raise ArithmeticError(f"no joint eigenvector for {tableau}")


def _generators(d: int) -> Tuple[Perm, ...]:
    # (1 2) and the long cycle generate S_d; the trivial S_1 needs none
    return (swap_perm(1, 2, d), cycle_perm(d)) if d > 1 else ()


def _coupling_verify(M: Matrix, lmod, mmod, nmod) -> None:
    for g in _generators(nmod.d):
        images = [_tensor_apply(lmod, mmod, g, col) for col in zip(*M)]
        if tuple(zip(*images)) != _mat_mul(M, nmod.matrix(g)):
            raise ArithmeticError("coupling is not equivariant")


@lru_cache(maxsize=_MAX_COUPLINGS)
def _coupling(lam: Shape, mu: Shape, nu: Shape) -> Matrix:
    """Integer matrix M of the unique coupling, one row per source basis
    pair (first factor outermost), one column per target coordinate,
    satisfying (Q_lam(g) x Q_mu(g)) M = M Q_nu(g); content 1, first nonzero
    entry positive."""
    count = multiplicity(lam, mu, nu)
    if count != 1:
        raise ValueError(f"projection not unique: multiplicity {count}")
    lmod, mmod, nmod = _module(lam), _module(mu), _module(nu)
    d = nmod.d
    dl, dm, dn = lmod.dim, mmod.dim, nmod.dim
    trivial = _module((d,))
    tableau = nmod.tableaux[0]
    w = _eigenvector(nmod, trivial, tableau)
    v = _eigenvector(lmod, mmod, tableau)

    # transport: w and v are the joint eigenvectors of one tableau, so M w
    # is v up to scale.  Close the span of rows [w | v] under the generators,
    # trying only the images of kept rows: once those lie in the span, it is
    # invariant, so the whole target.  At rank dn the reduced rows read
    # a_k e_k on the left and a_k times column k of M on the right.
    kept = [w + v]
    reduced: List[List[int]] = []
    pivots: List[int] = []
    _reduce_into(reduced, pivots, kept[0], dn)
    tried = 0
    while len(reduced) < dn:
        if tried == len(kept):
            raise ArithmeticError("transport failed to span the target")
        row = kept[tried]
        tried += 1
        for g in _generators(d):
            image = _tensor_apply(nmod, trivial, g, row[:dn]) + \
                _tensor_apply(lmod, mmod, g, row[dn:])
            if _reduce_into(reduced, pivots, image, dn):
                kept.append(image)
    scale = lcm(*(row[k] for k, row in enumerate(reduced)))
    flat = _integerize([reduced[k][dn + p] * (scale // reduced[k][k])
                        for p in range(dl * dm) for k in range(dn)])
    M = tuple(flat[p * dn:(p + 1) * dn] for p in range(dl * dm))
    _coupling_verify(M, lmod, mmod, nmod)
    return M


def projection_matrix(lam: Iterable[int], mu: Iterable[int], nu: Iterable[int]) -> RepMatrix:
    """Matrix of the unique projection onto the third representation; row
    (i, j) lists the image of the (i, j)-th source basis tensor, rows
    indexed row-major with the first factor outermost."""
    l, m, n = check_shape(lam), check_shape(mu), check_shape(nu)
    M = _coupling(l, m, n)
    label = f"{l} x {m} -> {n}"
    return RepMatrix(n, label, M)


# ---------------------------------------------------------------------------
# the degree-5 relation and its degree-6/7 analogue
# ---------------------------------------------------------------------------

# The tensor square of the standard module V(d-1,1) splits off V(d-1,1),
# V(d-2,2) and the trivial module.  Writing z1, z2, z3 for those components
# of u (x) v and reusing the couplings to push pairs of them back into
# V(d-1,1), the four-term combination
#     c1*[z1 z1] + c2*[z1 z2] + c3*[z2 z2] + c4*(z3 * z1)
# vanishes for one coefficient vector.  At d = 5 that vector is pinned to
# (32, 100, 25, -180) once the five couplings are rescaled so the images of
# the first basis tensors carry the fixed leading coefficients below.

_RELATION_TARGET = (32, 100, 25, -180)

# the five couplings as (first factor, second factor, target) indices into
# the (standard, two-row, trivial) shapes of _relation_shapes
_RELATION_COUPLINGS = ((0, 0, 0), (0, 0, 1), (0, 0, 2), (0, 1, 0), (1, 1, 0))
_COUPLING_NAMES = (
    "standard*standard->standard",
    "standard*standard->two-row",
    "standard*standard->trivial",
    "standard*two-row->standard",
    "two-row*two-row->standard",
)

# one (column, value) anchor per coupling, columns in canonical basis
# order: the image of basis tensor (1,1) has this coefficient at the stated
# target coordinate
_ANCHOR_SPECS = ((0, -3), (1, 2), (0, 2), (1, -2), (0, 2))

# The basis the anchors and (32, 100, 25, -180) are stated in: diagonal
# signs (standard module, two-row module) applied to the canonical bases.
# It differs from the canonical standard basis in the sign of basis vector
# 2; the two-row bases agree.
_S5_BASIS_SIGNS = ((1, -1, 1, 1), (1, 1, 1, 1, 1))

FiveMaps = Tuple[Sequence[Sequence], ...]


# the degrees test_conjecture accepts; the internals run past them (the
# degree-9 kernel of _pointwise_rows took 0.4-0.6 s, degree 10 about 0.8 s,
# on 2 shared cores with Python 3.11)
RELATION_DEGREES = (5, 6, 7, 8)


def _relation_shapes(d: int) -> Tuple[Shape, Shape, Shape]:
    if d < 5:
        raise ValueError("relation needs degree at least 5")
    return (d - 1, 1), (d - 2, 2), (d,)


def _five_couplings(d: int) -> FiveMaps:
    shapes = _relation_shapes(d)
    return tuple(_coupling(*(shapes[i] for i in trip)) for trip in _RELATION_COUPLINGS)


def _anchor_scales(maps: FiveMaps, signs: Sequence[Sequence[int]]) -> Tuple[Fraction, ...]:
    """The factor per coupling that puts its anchor entry at the fixed
    value in the bases changed by the diagonal signs (standard module,
    two-row module), under which the entry takes the signs of its two source
    basis vectors and of its target coordinate."""
    signs = (*signs, (1,))
    out = []
    problems = []
    for M, (c, val), name, (a, b, t) in zip(maps, _ANCHOR_SPECS, _COUPLING_NAMES,
                                            _RELATION_COUPLINGS):
        found = M[0][c] * signs[a][0] * signs[b][0] * signs[t][c]
        if found == 0:
            problems.append(f"{name}: expected {val} at basis tensor (1,1) "
                            f"coordinate {c + 1}, found 0")
        else:
            out.append(Fraction(val, found))
    if problems:
        raise ValueError("normalization anchor mismatch: " + "; ".join(problems))
    return tuple(out)


def _anchored_rows(rows: Sequence[Tuple], maps: FiveMaps,
                   signs: Sequence[Sequence[int]]) -> Tuple[Tuple, ...]:
    """The relation rows of the couplings maps, as they read once each
    coupling is rescaled by its _anchor_scales factor.  Scaling the
    couplings by l1..l5 scales the four terms by l1^3, l1 l2 l4, l2^2 l5 and
    l1 l3.  The sign change of the bases itself only negates whole rows
    (each by the sign of its target coordinate), which moves no kernel and
    no residual, so it enters through the anchors alone."""
    l1, l2, l3, l4, l5 = _anchor_scales(maps, signs)
    scale = (l1 ** 3, l1 * l2 * l4, l2 ** 2 * l5, l1 * l3)
    return tuple(tuple(x * f for x, f in zip(row, scale)) for row in rows)


@lru_cache(maxsize=len(RELATION_DEGREES))
def _pointwise_rows(d: int) -> Tuple[Tuple, ...]:
    """One residual row per (basis pair, target coordinate) in the raw
    degree-d couplings: the relation must vanish on every u (x) v with u, v
    basis vectors of the standard module."""
    p1, p2, p3, h1, h2 = _five_couplings(d)
    d1, d2 = len(p1[0]), len(p2[0])
    rows: List[Tuple] = []
    for a in range(d1):
        for b in range(d1):
            z1 = p1[a * d1 + b]
            z2 = p2[a * d1 + b]
            z3 = p3[a * d1 + b][0]
            t1 = [sum(z1[i] * z1[j] * p1[i * d1 + j][k]
                      for i in range(d1) for j in range(d1)) for k in range(d1)]
            t2 = [sum(z1[i] * z2[j] * h1[i * d2 + j][k]
                      for i in range(d1) for j in range(d2)) for k in range(d1)]
            t3 = [sum(z2[i] * z2[j] * h2[i * d2 + j][k]
                      for i in range(d2) for j in range(d2)) for k in range(d1)]
            t4 = [z3 * z1[k] for k in range(d1)]
            for k in range(d1):
                if t1[k] or t2[k] or t3[k] or t4[k]:
                    rows.append((t1[k], t2[k], t3[k], t4[k]))
    return tuple(rows)


def _kernel_coefficients(rows: Sequence[Tuple]) -> Tuple[int, Optional[Tuple[int, ...]]]:
    kernel = _kernel_basis(rows, 4)
    if len(kernel) == 1:
        return 1, _integerize(kernel[0])
    return len(kernel), None


def _residual_vanishes(rows: Sequence[Tuple], coeffs: Sequence[int]) -> bool:
    return all(sum(c * v for c, v in zip(coeffs, row)) == 0 for row in rows)


@dataclass(frozen=True)
class S5Report:
    """Outcome of the degree-5 relation check."""
    passed: bool
    coefficients: Optional[Tuple[int, int, int, int]]
    matched_scaling: str
    scale: Optional[Fraction]
    transition: Optional[str]
    standard_signs: Tuple[int, ...]
    two_row_signs: Tuple[int, ...]
    raw_anchor_values: Tuple[int, ...]
    raw_coefficients: Optional[Tuple[int, ...]]
    anchored_coefficients: Optional[Tuple[int, ...]]
    kernel_dimension: int
    basis_pairs: int
    coupling_multiplicity: int
    wedge_multiplicity: int
    trivial_dimension: int
    identity_exact: bool
    perturbation_breaks: bool


def _describe_transition(tau: Sequence[int], sigma: Sequence[int]) -> Optional[str]:
    flips = [f"standard-module basis vector {i + 1}"
             for i, v in enumerate(tau) if v < 0]
    flips += [f"two-row-module basis vector {i + 1}"
              for i, v in enumerate(sigma) if v < 0]
    if not flips:
        return None
    return "negate " + " and ".join(flips)


def verify_s5_syzygy() -> S5Report:
    """Check the degree-5 relation on all 16 basis pairs and report how its
    coefficients compare to (32, 100, 25, -180).

    The multiplicities, the kernel and the pass test are test_conjecture(5)'s,
    on the couplings taken in the basis the relation is stated in (the
    canonical bases changed by the signs _S5_BASIS_SIGNS, reported as the
    transition) and rescaled to the fixed anchor coefficients
    (-3, 2, 2, -2, 2).  No convention is searched for, so a change of basis
    that moves the coefficients fails the check."""
    rep = test_conjecture(5)
    coeffs = rep.coefficients
    rows = _relation_system(5)[0]
    raw, raw_rows = _five_couplings(5), _pointwise_rows(5)
    tau, sigma = _S5_BASIS_SIGNS
    canonical = ((1,) * len(tau), (1,) * len(sigma))
    trivial_dim = _module((5,)).dim
    identity_exact = coeffs is not None and _residual_vanishes(rows, coeffs)
    perturbed = tuple(c + 1 if i == 0 else c for i, c in enumerate(
        coeffs or _RELATION_TARGET))
    perturbation_breaks = not _residual_vanishes(rows, perturbed)
    # both vectors are primitive with a positive first entry, so the only
    # ratio between them is 1
    scale = Fraction(1) if coeffs == _RELATION_TARGET else None
    return S5Report(
        passed=rep.passed and trivial_dim == 1 and identity_exact and perturbation_breaks,
        coefficients=coeffs,
        matched_scaling=rep.scaling,
        scale=scale,
        transition=_describe_transition(tau, sigma),
        standard_signs=tau,
        two_row_signs=sigma,
        raw_anchor_values=tuple(M[0][c] for M, (c, _) in zip(raw, _ANCHOR_SPECS)),
        raw_coefficients=_kernel_coefficients(raw_rows)[1],
        anchored_coefficients=_kernel_coefficients(
            _anchored_rows(raw_rows, raw, canonical))[1],
        kernel_dimension=rep.kernel_dimension,
        basis_pairs=16,
        coupling_multiplicity=rep.coupling_multiplicity,
        wedge_multiplicity=rep.wedge_multiplicity,
        trivial_dimension=trivial_dim,
        identity_exact=identity_exact,
        perturbation_breaks=perturbation_breaks,
    )


@dataclass(frozen=True)
class ConjectureReport:
    """Outcome of the degree-d analogue check."""
    d: int
    coupling_multiplicity: int
    wedge_multiplicity: int
    kernel_dimension: int
    coefficients: Optional[Tuple[int, ...]]
    c4_nonzero: bool
    scaling: str
    passed: bool


def _relation_system(d: int) -> Tuple[Sequence[Tuple], str]:
    """(rows, scaling): the basis-pair residual rows of the degree-d
    relation, at d = 5 with each coupling rescaled to its anchor in the
    basis of _S5_BASIS_SIGNS, otherwise in the raw couplings."""
    if d not in RELATION_DEGREES:
        raise ValueError("degree must be 5, 6, 7, or 8")
    if d == 5:
        signs = _S5_BASIS_SIGNS
        scaling = "anchored+transition" if -1 in signs[0] + signs[1] else "anchored"
        return _anchored_rows(_pointwise_rows(5), _five_couplings(5), signs), scaling
    return _pointwise_rows(d), "raw"


def test_conjecture(d: int) -> ConjectureReport:
    """The degree-d analogue: both multiplicity statements plus a relation
    with nonzero final coefficient, found by exact linear algebra over the
    basis-pair residuals.  Degree 5 runs through the same solving path with
    the anchored scalings, reproducing (32, 100, 25, -180)."""
    rows, scaling = _relation_system(d)
    std, two, _ = _relation_shapes(d)
    coupling_mult = multiplicity(two, two, std)
    wedge = (d - 2, 1, 1)
    wedge_mult = multiplicity(wedge, wedge, std)
    kdim, coeffs = _kernel_coefficients(rows)
    c4_nonzero = coeffs is not None and coeffs[3] != 0
    passed = (coupling_mult == 1 and wedge_mult >= 1 and kdim == 1 and c4_nonzero)
    if d == 5:
        passed = passed and coeffs == _RELATION_TARGET
    return ConjectureReport(d, coupling_mult, wedge_mult, kdim, coeffs,
                            c4_nonzero, scaling, passed)
