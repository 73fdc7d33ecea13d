"""Symmetric-group modules: tableaux, characters, couplings, and the
quadratic relation between projections of a tensor square."""

import hashlib
from fractions import Fraction as F
from itertools import permutations, product
from math import factorial, gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from binform import seeding, symgroup
from binform.symgroup import (
    ConjectureReport,
    RepMatrix,
    S5Report,
    _S5_BASIS_SIGNS,
    _anchor_scales,
    _coupling,
    _coupling_verify,
    _eigenvector,
    _five_couplings,
    _jm_action,
    _kernel_basis,
    _mat_mul,
    _row_reduce,
    _module,
    _relation_system,
    _residual_vanishes,
    _tensor_apply,
    character,
    check_shape,
    class_size,
    cycle_perm,
    generator_matrices,
    hook_dimension,
    identity_perm,
    inverse_perm,
    multiplicity,
    partitions,
    projection_matrix,
    standard_tableaux,
    swap_perm,
    verify_s5_syzygy,
)
from binform.symgroup import test_conjecture as conjecture_check

# the pinned degree-4 coupling matrix, rows = source basis pairs
P4 = ((1, -1, 2), (2, 1, 1), (-2, 1, 1), (-1, 2, -1), (-1, 2, 1), (1, 1, 2))

S5_COEFFS = (32, 100, 25, -180)


def relation_residual_vanishes(d, coefficients):
    """Whether the four-term combination vanishes on every basis pair, in
    the scaling test_conjecture uses for d."""
    return _residual_vanishes(_relation_system(d)[0], coefficients)


def _random_perm(rng, d):
    p = list(range(1, d + 1))
    rng.shuffle(p)
    return tuple(p)


class TestPartitions:
    def test_counts(self):
        assert [len(partitions(d)) for d in range(1, 8)] == [1, 2, 3, 5, 7, 11, 15]

    def test_shape_validity_and_order(self):
        for d in range(1, 8):
            parts = partitions(d)
            assert parts[0] == (d,)
            assert parts[-1] == (1,) * d
            for sh in parts:
                assert sum(sh) == d
                assert all(sh[k] >= sh[k + 1] for k in range(len(sh) - 1))

    def test_check_shape_rejects_bad_input(self):
        with pytest.raises(ValueError, match="not a partition"):
            check_shape((3, 0))
        with pytest.raises(ValueError, match="weakly decreasing"):
            check_shape((1, 2))

    def test_hook_dimension_examples(self):
        assert hook_dimension((5,)) == 1
        assert hook_dimension((1, 1, 1, 1)) == 1
        assert hook_dimension((3, 2)) == 5
        assert hook_dimension((4, 1)) == 4
        assert hook_dimension((2, 2)) == 2
        assert hook_dimension((3, 1, 1)) == 6

    def test_dimension_squares_sum_to_factorial(self):
        for d in range(1, 8):
            assert sum(hook_dimension(sh) ** 2 for sh in partitions(d)) == factorial(d)


class TestPermutations:
    def test_inverse(self):
        rng = seeding.stream(61, "perm")
        for _ in range(20):
            d = rng.randint(2, 7)
            p = _random_perm(rng, d)
            assert tuple(p[v - 1] for v in inverse_perm(p)) == identity_perm(d)

    def test_swap_perm(self):
        assert swap_perm(2, 4, 5) == (1, 4, 3, 2, 5)
        assert swap_perm(1, 3, 4) == (3, 2, 1, 4)


class TestStandardTableaux:
    def test_three_two_display_list(self):
        tabs = standard_tableaux((3, 2))
        assert [str(t) for t in tabs] == [
            "[1 2 3 / 4 5]",
            "[1 2 4 / 3 5]",
            "[1 2 5 / 3 4]",
            "[1 3 4 / 2 5]",
            "[1 3 5 / 2 4]",
        ]

    def test_counts_match_hook_formula(self):
        for d in range(1, 7):
            for sh in partitions(d):
                assert len(standard_tableaux(sh)) == hook_dimension(sh)

    def test_listed_by_row_reading_word(self):
        for sh in [(3, 2), (4, 1), (2, 2, 1), (3, 1, 1)]:
            words = [tuple(x for row in t.rows for x in row) for t in standard_tableaux(sh)]
            assert words == sorted(words)

    def test_rows_and_columns_increase(self):
        for t in standard_tableaux((3, 2, 1)):
            for row in t.rows:
                assert list(row) == sorted(row)
            for c in range(3):
                col = [row[c] for row in t.rows if len(row) > c]
                assert col == sorted(col)

    def test_long_row_and_column_do_not_recurse(self):
        assert [t.rows for t in standard_tableaux((1500,))] == [(tuple(range(1, 1501)),)]
        assert [t.rows for t in standard_tableaux((1,) * 1500)] == \
            [tuple((k,) for k in range(1, 1501))]


def _signed_tabloid(columns):
    """(the sign that sorts every column, the tuple of sorted columns)"""
    sign = 1
    for col in columns:
        inversions = sum(1 for i in range(len(col)) for j in range(i + 1, len(col))
                         if col[i] > col[j])
        sign *= (-1) ** inversions
    return sign, tuple(tuple(sorted(col)) for col in columns)


def _walked_polytabloid(rows):
    """Oracle: e_t as {column tabloid: coefficient}, summed over every
    row-preserving rearrangement of the tableau with these rows."""
    vec = {}
    for images in product(*(permutations(row) for row in rows)):
        sign, key = _signed_tabloid([[img[c] for img in images if len(img) > c]
                                     for c in range(len(rows[0]))])
        vec[key] = vec.get(key, 0) + sign
    return {k: v for k, v in vec.items() if v}


def _tabloid_walk_matrix(tabs, basis, perm):
    """Oracle for _ColumnSpan.matrix: move every signed column tabloid of
    each basis vector by the permutation, then peel the basis vectors off in
    column-word order, each read at its tableau's own column tabloid."""
    owns = [tuple(tuple(row[c] for row in t.rows if len(row) > c)
                  for c in range(len(t.rows[0]))) for t in tabs]
    cols = []
    for vec in basis:
        moved = {}
        for key, v in vec.items():
            sign, nkey = _signed_tabloid([[perm[x - 1] for x in col] for col in key])
            moved[nkey] = moved.get(nkey, 0) + sign * v
        coeffs = []
        for own, bvec in zip(owns, basis):
            c = moved.get(own, 0)
            coeffs.append(c)
            for key, v in bvec.items():
                moved[key] = moved.get(key, 0) - c * v
        assert not any(moved.values())
        cols.append(coeffs)
    return tuple(zip(*cols))


def _oracle_perms(d):
    """Every permutation for d <= 5; otherwise every transposition, the long
    cycle, its inverse and the identity."""
    if d <= 5:
        return list(permutations(range(1, d + 1)))
    perms = {identity_perm(d), cycle_perm(d), inverse_perm(cycle_perm(d))}
    perms.update(swap_perm(i, k, d) for i in range(1, d + 1) for k in range(i + 1, d + 1))
    return sorted(perms)


class TestGeneratorMatrices:
    def test_matches_tabloid_walk(self):
        pairs = 0
        for d in range(1, 8):
            for sh in partitions(d):
                tabs = sorted(standard_tableaux(sh), key=lambda t: t.column_word())
                basis = [_walked_polytabloid(t.rows) for t in tabs]
                mod = _module(sh)
                for perm in _oracle_perms(d):
                    assert mod.matrix(perm) == _tabloid_walk_matrix(tabs, basis, perm)
                    pairs += 1
        assert pairs == 1541

    def test_full_row_shape_is_trivial(self):
        s, c = generator_matrices((6,))
        assert s.entries == ((1,),)
        assert c.entries == ((1,),)

    def test_single_column_is_sign(self):
        for d in range(2, 7):
            s, c = generator_matrices((1,) * d)
            assert s.entries == ((-1,),)
            assert c.entries == (((-1) ** (d - 1),),)

    def test_transposition_trace_matches_character(self):
        for d in range(2, 8):
            ct = (2,) + (1,) * (d - 2)
            for sh in partitions(d):
                s, _ = generator_matrices(sh)
                assert len(s.entries) == hook_dimension(sh)
                assert sum(s.entries[i][i] for i in range(len(s.entries))) == \
                    character(sh, ct)

    def test_character_rows_orthogonal(self):
        for d in range(2, 7):
            shapes = partitions(d)
            for a in shapes:
                assert character(a, (1,) * d) == hook_dimension(a)
                for b in shapes:
                    inner = sum(class_size(ct) * character(a, ct) * character(b, ct)
                                for ct in shapes)
                    assert inner == (factorial(d) if a == b else 0)

    def test_degree_mismatch_rejected(self):
        with pytest.raises(ValueError, match="does not match"):
            _module((3, 1)).matrix((1, 2, 3))

    def test_coupling_holds_d_plus_one_matrices_per_module(self):
        # from cold caches, a coupling leaves each module with at most the
        # d - 1 adjacent transpositions, the long cycle and its inverse
        trip = ((5, 3), (5, 3), (7, 1))
        d = 8
        allowed = {swap_perm(k - 1, k, d) for k in range(2, d + 1)}
        allowed |= {cycle_perm(d), inverse_perm(cycle_perm(d))}
        _module.cache_clear()
        _coupling.cache_clear()
        projection_matrix(*trip)
        for sh in set(trip) | {(d,)}:
            held = set(_module(sh)._matrices)
            assert held <= allowed, sh
            assert len(held) <= d + 1

    @pytest.mark.parametrize("owner, attr, broken, message", [
        (symgroup, "_polytabloid_value",
         lambda orig: lambda rows, col_of: abs(orig(rows, col_of)), "not inverse"),
        (symgroup, "_polytabloid_value", lambda orig: lambda rows, col_of: 1,
         "not unitriangular"),
        (symgroup._ColumnSpan, "_coordinates", lambda orig: lambda self, values: list(values),
         "not inverse"),
    ], ids=["unsigned-values", "constant-values", "no-substitution"])
    def test_wrong_polytabloid_values_rejected(self, monkeypatch, owner, attr, broken, message):
        # a value formula that drops the column signs, or a substitution that
        # drops its subtraction, must be caught by the library itself
        monkeypatch.setattr(owner, attr, broken(getattr(owner, attr)))
        _module.cache_clear()
        try:
            with pytest.raises(ArithmeticError, match=message):
                generator_matrices((3, 2))
        finally:
            _module.cache_clear()


class TestMultiplicity:
    def test_pinned_values(self):
        assert multiplicity((3, 2), (3, 2), (4, 1)) == 1
        assert multiplicity((3, 1), (2, 2), (2, 1, 1)) == 1
        assert multiplicity((3, 1, 1), (3, 1, 1), (4, 1)) == 1
        assert multiplicity((3, 2), (3, 1, 1), (3, 1, 1)) == 2
        assert multiplicity((5,), (5,), (4, 1)) == 0

    def test_full_row_component_detects_equality(self):
        for a in partitions(5):
            for b in partitions(5):
                assert multiplicity(a, b, (5,)) == (1 if a == b else 0)

    def test_totally_symmetric(self):
        rng = seeding.stream(67, "mult")
        for _ in range(20):
            d = rng.randint(2, 7)
            parts = partitions(d)
            l, m, n = (parts[rng.randrange(len(parts))] for _ in range(3))
            vals = {multiplicity(*trip) for trip in permutations((l, m, n))}
            assert len(vals) == 1

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError, match="partitions of different integers"):
            multiplicity((3, 1), (2, 2), (3, 2))


def _fraction_rref(rows, ncols):
    """Oracle: Gauss-Jordan over Fraction, returning the reduced rows and
    the pivot columns."""
    work = [[F(v) for v in row] for row in rows]
    pivots = []
    for j in range(ncols):
        r = len(pivots)
        pr = next((i for i in range(r, len(work)) if work[i][j] != 0), None)
        if pr is None:
            continue
        work[r], work[pr] = work[pr], work[r]
        work[r] = [v / work[r][j] for v in work[r]]
        for i in range(len(work)):
            if i != r and work[i][j] != 0:
                f = work[i][j]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        pivots.append(j)
    return work, pivots


def _fraction_nullspace(rows, ncols):
    work, pivots = _fraction_rref(rows, ncols)
    basis = []
    for fj in (j for j in range(ncols) if j not in pivots):
        vec = [F(0)] * ncols
        vec[fj] = F(1)
        for row_idx, pj in enumerate(pivots):
            vec[pj] = -work[row_idx][fj]
        basis.append(vec)
    return basis


def _nullspace_coupling(lam, mu, nu):
    """Oracle: solve the intertwining equations directly as one dense
    nullspace problem over the unknown matrix entries."""
    lmod, mmod, nmod = _module(lam), _module(mu), _module(nu)
    d = sum(nu)
    dl, dm, dn = lmod.dim, mmod.dim, nmod.dim
    nunk = dl * dm * dn
    rows = []
    for g in (swap_perm(1, 2, d), cycle_perm(d)):
        ql, qm, qn = lmod.matrix(g), mmod.matrix(g), nmod.matrix(g)
        for il in range(dl):
            for im in range(dm):
                for k in range(dn):
                    row = [0] * nunk
                    for jl in range(dl):
                        for jm in range(dm):
                            row[(jl * dm + jm) * dn + k] += ql[il][jl] * qm[im][jm]
                    for t in range(dn):
                        row[(il * dm + im) * dn + t] -= qn[t][k]
                    rows.append(row)
    kernel = _fraction_nullspace(rows, nunk)
    assert len(kernel) == 1
    vec = kernel[0]
    den = 1
    for v in vec:
        den = den * v.denominator
    ints = [int(v * den) for v in vec]
    g = 0
    for v in ints:
        g = gcd(g, v)
    ints = [v // g for v in ints]
    first = next(v for v in ints if v)
    if first < 0:
        ints = [-v for v in ints]
    return tuple(tuple(ints[p * dn + k] for k in range(dn)) for p in range(dl * dm))


def _jm_sum(lmod, mmod, k, vec):
    """Oracle for _jm_action: X_k as the sum of its k - 1 transpositions
    (1 k), ..., (k-1 k), each applied as its own tensor action."""
    out = [0] * len(vec)
    for i in range(1, k):
        image = _tensor_apply(lmod, mmod, swap_perm(i, k, lmod.d), vec)
        out = [a + b for a, b in zip(out, image)]
    return out


def _relation_module_pairs(d):
    """The (first, second) module pairs whose tensor action the degree-d
    relation couplings use: source pairs, and each target with the trivial
    module."""
    std, two, triv = (d - 1, 1), (d - 2, 2), (d,)
    pairs = set()
    for lam, mu, nu in ((std, std, std), (std, std, two), (std, std, triv),
                        (std, two, std), (two, two, std)):
        pairs |= {(lam, mu), (nu, triv)}
    return sorted(pairs)


_JM_PAIRS = [pair for d in (5, 6, 7) for pair in _relation_module_pairs(d)] + \
    [((7, 2), (8, 1))]


def _package_perms(d):
    """The d + 1 permutations package code asks a degree-d module for."""
    return [swap_perm(k - 1, k, d) for k in range(2, d + 1)] + \
        [cycle_perm(d), inverse_perm(cycle_perm(d))]


@st.composite
def _tensor_cases(draw):
    """(lam, mu, g, vec): a module pair of _JM_PAIRS, one of its package
    permutations, and an int vector of the tensor space whose segments (one
    per basis vector of the first factor) may be all zero."""
    lam, mu = draw(st.sampled_from(_JM_PAIRS))
    g = draw(st.sampled_from(_package_perms(sum(lam))))
    dl, dm = hook_dimension(lam), hook_dimension(mu)
    segment = st.one_of(st.just([0] * dm),
                        st.lists(st.integers(), min_size=dm, max_size=dm))
    vec = [x for _ in range(dl) for x in draw(segment)]
    return lam, mu, g, vec


@st.composite
def _sparse_int_products(draw):
    """Two int matrices, shapes n x k and k x m, about half their entries 0."""
    n, k, m = (draw(st.integers(min_value=1, max_value=6)) for _ in range(3))
    entry = st.one_of(st.just(0), st.integers(min_value=-9, max_value=9), st.integers())
    a, b = (tuple(tuple(draw(st.lists(entry, min_size=w, max_size=w)) for _ in range(h))
                  for h, w in ((n, k), (k, m))))
    return a, b


class TestSparseKernels:
    """The tensor action and the matrix product read only nonzero entries;
    their oracles are dense loops over the matrices `matrix` returns."""

    @settings(max_examples=150, deadline=None)
    @given(_tensor_cases())
    @example(((4, 1), (5,), swap_perm(1, 2, 5), [0, 0, 0, 0]))
    @example(((5,), (5,), cycle_perm(5), [7]))
    @example(((3, 2), (4, 1), cycle_perm(5), [0] * 12 + [1, -2, 0, 3] + [0] * 4))
    def test_tensor_apply_matches_the_kronecker_product(self, case):
        lam, mu, g, vec = case
        ql, qm = _module(lam).matrix(g), _module(mu).matrix(g)
        dl, dm = len(ql), len(qm)
        kron = [[ql[il][jl] * qm[im][jm] for jl in range(dl) for jm in range(dm)]
                for il in range(dl) for im in range(dm)]
        want = [sum(x * v for x, v in zip(row, vec)) for row in kron]
        assert _tensor_apply(_module(lam), _module(mu), g, vec) == want

    @settings(max_examples=200, deadline=None)
    @given(_sparse_int_products())
    @example((((0, 0), (0, 0)), ((1, 2), (3, 4))))
    @example((((1, 0, -1),), ((0,), (5,), (2,))))
    def test_mat_mul_matches_the_triple_loop(self, case):
        a, b = case
        want = tuple(tuple(sum(a[i][t] * b[t][j] for t in range(len(b)))
                           for j in range(len(b[0]))) for i in range(len(a)))
        assert _mat_mul(a, b) == want


_entries = st.one_of(st.integers(min_value=-4, max_value=4),
                     st.fractions(min_value=-3, max_value=3, max_denominator=4))


@st.composite
def _matrices(draw):
    ncols = draw(st.integers(min_value=1, max_value=5))
    rows = draw(st.lists(st.lists(_entries, min_size=ncols, max_size=ncols), max_size=7))
    if rows and draw(st.booleans()):
        rows.append(list(draw(st.sampled_from(rows))))
    if draw(st.booleans()):
        rows.insert(draw(st.integers(min_value=0, max_value=len(rows))), [0] * ncols)
    return rows, ncols


def _primitive_rref(rows, ncols):
    """Oracle: the Fraction reduced rows, each scaled to coprime ints (its
    pivot, a 1, stays positive)."""
    work, pivots = _fraction_rref(rows, ncols)
    out = []
    for row in work[:len(pivots)]:
        scale = lcm(*(v.denominator for v in row))
        ints = [int(v * scale) for v in row]
        g = 0
        for v in ints:
            g = gcd(g, v)
        out.append([v // g for v in ints])
    return out


@st.composite
def _graph_rows(draw):
    """Rows [x | x T] for one integer matrix T: the later columns are a
    linear function of the first ncols, as in a coupling's transport."""
    rows, ncols = draw(_matrices())
    extra = draw(st.integers(min_value=0, max_value=4))
    T = draw(st.lists(st.lists(_entries, min_size=extra, max_size=extra),
                      min_size=ncols, max_size=ncols))
    return [list(x) + [sum(F(a) * t[c] for a, t in zip(x, T)) for c in range(extra)]
            for x in rows], ncols


class TestRowReduce:
    """_row_reduce adds one row at a time; its form must not depend on the
    order the rows come in, which is what keeps a coupling's transport,
    reduced as images arrive, equal to one reduction of all of them."""

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(_matrices(), _graph_rows()), st.randoms(use_true_random=False))
    @example(([[0, 2, 4, 6], [0, 1, 2, 3], [3, 0, 0, 3], [1, 1, 1, 3]], 3), None)
    def test_matches_the_fraction_oracle_in_any_row_order(self, case, rnd):
        rows, ncols = case
        want = _primitive_rref(rows, ncols)
        assert _row_reduce(rows, ncols) == want
        if rnd is not None:
            shuffled = list(rows)
            rnd.shuffle(shuffled)
            assert _row_reduce(shuffled, ncols) == want


class TestKernelBasis:
    @settings(max_examples=200, deadline=None)
    @given(_matrices())
    @example(([], 3))
    @example(([[0, 0], [0, 0], [0, 0]], 2))
    @example(([[1, 0], [0, F(1, 2)], [3, -1], [1, 0]], 2))
    @example(([[2, 4, 6], [F(1, 3), F(2, 3), 1]], 3))
    def test_primitive_integer_kernel_of_oracle_dimension(self, case):
        rows, ncols = case
        kernel = _kernel_basis(rows, ncols)
        _, pivots = _fraction_rref(rows, ncols)
        assert len(kernel) == ncols - len(pivots)
        for vec in kernel:
            assert len(vec) == ncols
            assert all(type(v) is int for v in vec)
            g = 0
            for v in vec:
                g = gcd(g, v)
            assert g == 1
            for row in rows:
                assert sum(F(a) * b for a, b in zip(row, vec)) == 0
        # the vectors are independent: together with the rows they reach
        # full rank
        _, joint = _fraction_rref(list(rows) + kernel, ncols)
        assert len(joint) == ncols


class TestProjectionMatrix:
    def test_degree_four_pin(self):
        M = projection_matrix((3, 1), (2, 2), (2, 1, 1))
        assert M.entries == P4
        assert M.entries[2] == (-2, 1, 1)
        assert M.shape == (2, 1, 1)

    def test_first_nonzero_entry_positive_and_primitive(self):
        for trip in [((4, 1), (4, 1), (3, 2)), ((4, 1), (3, 2), (4, 1))]:
            M = projection_matrix(*trip).entries
            flat = [v for row in M for v in row]
            assert next(v for v in flat if v) > 0
            g = 0
            for v in flat:
                g = gcd(g, v)
            assert g == 1

    def test_zero_multiplicity_rejected(self):
        with pytest.raises(ValueError, match="projection not unique"):
            projection_matrix((5,), (5,), (4, 1))

    def test_higher_multiplicity_rejected(self):
        with pytest.raises(ValueError, match="projection not unique"):
            projection_matrix((3, 2), (3, 1, 1), (3, 1, 1))

    @pytest.mark.parametrize("trip", [((3, 1), (3, 1), (2, 2)), ((4, 1), (3, 2), (4, 1))])
    def test_coupling_verify_rejects_each_changed_entry(self, trip):
        # the target is irreducible of dimension at least 2, so no matrix
        # with a single nonzero entry is equivariant: changing any one entry
        # of the coupling by 1 must be caught
        M = _coupling(*trip)
        mods = [_module(sh) for sh in trip]
        _coupling_verify(M, *mods)
        for p, row in enumerate(M):
            for k in range(len(row)):
                broken = [list(r) for r in M]
                broken[p][k] += 1
                with pytest.raises(ArithmeticError, match="coupling is not equivariant"):
                    _coupling_verify(tuple(map(tuple, broken)), *mods)

    def test_equivariance_on_random_words(self):
        rng = seeding.stream(71, "equivariance")
        for lam, mu, nu in [((3, 1), (2, 2), (2, 1, 1)), ((4, 1), (3, 2), (4, 1))]:
            M = projection_matrix(lam, mu, nu).entries
            lmod, mmod, nmod = _module(lam), _module(mu), _module(nu)
            d = sum(nu)
            dl, dm, dn = lmod.dim, mmod.dim, nmod.dim
            for _ in range(10):
                g = _random_perm(rng, d)
                ql, qm, qn = lmod.matrix(g), mmod.matrix(g), nmod.matrix(g)
                for il in range(dl):
                    for im in range(dm):
                        for k in range(dn):
                            lhs = sum(ql[il][jl] * qm[im][jm] * M[jl * dm + jm][k]
                                      for jl in range(dl) for jm in range(dm))
                            rhs = sum(M[il * dm + im][t] * qn[t][k]
                                      for t in range(dn))
                            assert lhs == rhs

    def test_degree_one(self):
        assert projection_matrix((1,), (1,), (1,)).entries == ((1,),)

    def test_equivariant_under_both_generators(self):
        # past 60 s when the coupling eliminated over the whole tensor space
        lam, mu, nu = (5, 3), (5, 3), (7, 1)
        M = projection_matrix(lam, mu, nu).entries
        dm = _module(mu).dim

        def mat_mul(a, b):
            return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]

        for ql, qm, qn in zip(*(generator_matrices(sh) for sh in (lam, mu, nu))):
            rhs = mat_mul(M, qn.entries)
            for k in range(len(qn.entries)):
                # column k of M read as a dl x dm matrix X: Q_l x Q_m acts on
                # it as Q_l X Q_m^T
                X = [[row[k] for row in M[i:i + dm]] for i in range(0, len(M), dm)]
                image = mat_mul(mat_mul(ql.entries, X), list(zip(*qm.entries)))
                assert [v for r in image for v in r] == [row[k] for row in rhs]

    @pytest.mark.parametrize("lam, mu, nu", [
        ((3, 1), (2, 2), (2, 1, 1)),
        ((4, 1), (3, 2), (4, 1)),
        ((3, 2), (3, 2), (4, 1)),
        ((3, 3), (2, 2, 2), (4, 1, 1)),
    ])
    def test_eigenvector_has_the_tableau_contents(self, lam, mu, nu):
        d = sum(nu)
        nmod = _module(nu)
        sides = [(_module(lam), _module(mu)), (nmod, _module((d,)))]
        for tableau in (nmod.tableaux[0], nmod.tableaux[-1]):
            content = {x: c - r for r, row in enumerate(tableau.rows)
                       for c, x in enumerate(row)}
            for lmod, mmod in sides:
                v = _eigenvector(lmod, mmod, tableau)
                assert any(v)
                for k in range(2, d + 1):
                    assert _jm_action(lmod, mmod, k, v) == [content[k] * x for x in v]

    @pytest.mark.parametrize("lam, mu", _JM_PAIRS,
                             ids=[f"{lam}x{mu}".replace(" ", "") for lam, mu in _JM_PAIRS])
    def test_jm_action_matches_the_transposition_sum(self, lam, mu):
        lmod, mmod = _module(lam), _module(mu)
        n = lmod.dim * mmod.dim
        rng = seeding.stream(73, f"jm {lam} {mu}")
        vecs = [[int(i == j) for i in range(n)] for j in (0, n - 1)]
        vecs += [[rng.randint(-3, 3) for _ in range(n)] for _ in range(3)]
        for vec in vecs:
            for k in range(1, lmod.d + 1):
                assert _jm_action(lmod, mmod, k, vec) == _jm_sum(lmod, mmod, k, vec), k

    def test_matches_dense_nullspace_solver(self):
        for trip in [((3, 1), (2, 2), (2, 1, 1)),
                     ((4, 1), (4, 1), (4, 1)),
                     ((4, 1), (4, 1), (3, 2)),
                     ((4, 1), (3, 2), (4, 1)),
                     ((3, 2), (3, 2), (4, 1))]:
            assert projection_matrix(*trip).entries == _nullspace_coupling(*trip)

    def test_invariant_pairing_spans_group_average(self):
        # the coupling onto the full-row shape is the invariant pairing; its
        # line must agree with the image of averaging Q(g) x Q(g) over the
        # whole group
        for sh in [(2, 1), (3, 1), (2, 2), (2, 1, 1)]:
            d = sum(sh)
            mod = _module(sh)
            n = mod.dim
            vec = [row[0] for row in projection_matrix(sh, sh, (d,)).entries]
            total = [[0] * (n * n) for _ in range(n * n)]
            for p in permutations(range(1, d + 1)):
                q = mod.matrix(tuple(p))
                for i1 in range(n):
                    for i2 in range(n):
                        for j1 in range(n):
                            for j2 in range(n):
                                total[i1 * n + i2][j1 * n + j2] += \
                                    q[i1][j1] * q[i2][j2]
            col = next(c for c in zip(*total) if any(c))
            for i in range(n * n):
                for j in range(n * n):
                    assert col[i] * vec[j] == col[j] * vec[i]


# sha256 of every generator matrix up to degree 7 and of the fifteen
# relation couplings at degrees 5-7
_OUTPUT_DIGEST = "8a6506de9dddfa82472112732f94d89e44a24f12db97785c89812f8535debf03"


def test_generator_matrices_and_relation_couplings_pinned():
    gens = []
    for d in range(1, 8):
        for sh in partitions(d):
            s, c = generator_matrices(sh)
            gens.append((sh, s.entries, c.entries))
    cpl = []
    for d in (5, 6, 7):
        std, two, triv = (d - 1, 1), (d - 2, 2), (d,)
        for trip in ((std, std, std), (std, std, two), (std, std, triv),
                     (std, two, std), (two, two, std)):
            cpl.append(projection_matrix(*trip).entries)
    digest = hashlib.sha256(repr((gens, cpl)).encode()).hexdigest()
    assert digest == _OUTPUT_DIGEST


class TestS5Relation:
    def test_report(self):
        rep = verify_s5_syzygy()
        assert isinstance(rep, S5Report)
        assert rep.passed
        assert rep.coefficients == S5_COEFFS
        assert rep.scale == F(1)
        assert rep.matched_scaling == "anchored+transition"
        assert rep.transition == "negate standard-module basis vector 2"
        assert rep.standard_signs == (1, -1, 1, 1)
        assert rep.two_row_signs == (1, 1, 1, 1, 1)
        assert rep.kernel_dimension == 1
        assert rep.basis_pairs == 16
        assert rep.identity_exact
        assert rep.perturbation_breaks

    def test_multiplicities_and_trivial_component(self):
        rep = verify_s5_syzygy()
        assert rep.coupling_multiplicity == 1
        assert rep.wedge_multiplicity == 1
        assert rep.trivial_dimension == 1

    def test_anchor_values_in_canonical_scaling(self):
        rep = verify_s5_syzygy()
        assert rep.raw_anchor_values == (3, 2, 2, 2, 2)
        assert rep.raw_coefficients == (32, 100, -25, -180)
        assert rep.anchored_coefficients == (32, -100, 25, -180)

    def test_relation_holds_identically(self):
        assert relation_residual_vanishes(5, S5_COEFFS)
        assert relation_residual_vanishes(5, tuple(2 * c for c in S5_COEFFS))

    def test_perturbed_leading_coefficient_breaks(self):
        assert not relation_residual_vanishes(5, (33, 100, 25, -180))

    def test_other_perturbations_break(self):
        assert not relation_residual_vanishes(5, (32, 100, 26, -180))
        assert not relation_residual_vanishes(5, (32, 100, 25, -181))

    def test_anchor_mismatch_reported(self):
        maps = list(_five_couplings(5))
        broken = [list(row) for row in maps[1]]
        broken[0][1] = 0
        maps[1] = broken
        with pytest.raises(ValueError, match="normalization anchor mismatch") as err:
            _anchor_scales(tuple(maps), _S5_BASIS_SIGNS)
        assert "standard*standard->two-row" in str(err.value)
        assert "expected 2" in str(err.value)

    def test_basis_convention_is_stated_not_searched(self, monkeypatch):
        # in the canonical bases the relation reads (32, -100, 25, -180):
        # the check must fail rather than look for signs that repair it
        canonical = ((1, 1, 1, 1), (1, 1, 1, 1, 1))
        monkeypatch.setattr(symgroup, "_S5_BASIS_SIGNS", canonical)
        rep = verify_s5_syzygy()
        assert not rep.passed
        assert rep.coefficients == (32, -100, 25, -180)
        assert rep.transition is None
        assert not conjecture_check(5).passed


class TestConjecture:
    def test_degree_six(self):
        rep = conjecture_check(6)
        assert isinstance(rep, ConjectureReport)
        assert rep.passed
        assert rep.coupling_multiplicity == 1
        assert rep.wedge_multiplicity == 1
        assert rep.kernel_dimension == 1
        assert rep.c4_nonzero
        assert rep.scaling == "raw"
        assert rep.coefficients == (25, 60, -12, -240)
        assert relation_residual_vanishes(6, rep.coefficients)

    def test_degree_seven(self):
        rep = conjecture_check(7)
        assert rep.passed
        assert rep.coupling_multiplicity == 1
        assert rep.wedge_multiplicity == 1
        assert rep.kernel_dimension == 1
        assert rep.c4_nonzero
        assert rep.coefficients == (432, 882, -49, -6300)
        assert relation_residual_vanishes(7, rep.coefficients)

    def test_degree_five_runs_same_path(self):
        rep = conjecture_check(5)
        assert rep.passed
        assert rep.coefficients == S5_COEFFS
        assert rep.scaling == "anchored+transition"

    def test_perturbed_vectors_rejected(self):
        assert not relation_residual_vanishes(6, (26, 60, -12, -240))
        assert not relation_residual_vanishes(7, (432, 882, -49, -6301))

    def test_degree_eight(self):
        rep = conjecture_check(8)
        assert rep.passed
        assert rep.kernel_dimension == 1
        assert rep.coefficients == (245, 448, -32, -5040)
        assert relation_residual_vanishes(8, rep.coefficients)
        assert not relation_residual_vanishes(8, (245, 448, -32, -5041))

    def test_rejects_other_degrees(self):
        with pytest.raises(ValueError, match="degree must be 5, 6, 7, or 8"):
            conjecture_check(4)
        with pytest.raises(ValueError, match="degree must be 5, 6, 7, or 8"):
            conjecture_check(9)
        with pytest.raises(ValueError, match="degree must be 5, 6, 7, or 8"):
            relation_residual_vanishes(9, (1, 1, 1, 1))
