"""Recoupling coefficients, 6-j and 9-j symbols, and the 9-j route to kappa."""

import hashlib
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction as F
from math import factorial, gcd, isqrt, prod
from typing import Tuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from binform import checks, polycore, syzygy, wigner
from binform.syzygy import kappa, kappa_oracle, pi_set
from binform.wigner import (
    HalfInt,
    NineJArray,
    QuadraticSurd,
    _coupling,
    _coupling_args,
    _signed_twice,
    _triad_defects,
    kappa_ninej_arrays,
    kappa_via_ninej,
    ninej_operator,
    ninej_support_size,
    ninej_symmetry_check,
    ninej_triple_sum,
    sixj,
    sqrt_factorial_ratio,
    threej,
)

from racah_oracle import racah_sixj


def _sq(v: QuadraticSurd) -> F:
    return v.coeff ** 2 * v.radicand


def sqrt_rational(q) -> QuadraticSurd:
    """sqrt of a small nonnegative rational, factored by trial division; an
    oracle that shares no code with the package's factorial-ratio surds."""
    q = F(q)
    if q == 0:
        return QuadraticSurd.zero()
    n = q.numerator * q.denominator
    coeff, rad = F(1, q.denominator), 1
    d = 2
    while d * d <= n:
        while n % (d * d) == 0:
            coeff *= d
            n //= d * d
        if n % d == 0:
            rad *= d
            n //= d
        d += 1
    return QuadraticSurd(coeff, rad * n)


def _is_triad(a: int, b: int, c: int) -> bool:
    """Whether twice-values a, b, c satisfy the triangle and parity rules."""
    return abs(a - b) <= c <= a + b and (a + b + c) % 2 == 0


def coupling_coefficient(*js_and_ms) -> QuadraticSurd:
    return _coupling(*_coupling_args(*js_and_ms))


def _triads_upto(tmax):
    out = []
    for a in range(tmax + 1):
        for b in range(tmax + 1):
            for c in range(abs(a - b), min(a + b, tmax) + 1, 2):
                out.append((a, b, c))
    return out


def _arrays_upto(tmax):
    """All valid 9-j arrays with twice-entries at most tmax."""
    triads = _triads_upto(tmax)
    tset = set(triads)
    by_pair = {}
    for (a, b, c) in triads:
        by_pair.setdefault((a, b), []).append(c)
    out = []
    for r1 in triads:
        for r2 in triads:
            opts = [by_pair.get((r1[k], r2[k]), ()) for k in range(3)]
            for c1 in opts[0]:
                for c2 in opts[1]:
                    for c3 in opts[2]:
                        if (c1, c2, c3) in tset:
                            out.append((r1, r2, (c1, c2, c3)))
    return out


def _mk(tw) -> NineJArray:
    return NineJArray([[F(v, 2) for v in row] for row in tw])


class TestHalfInt:
    def test_parsing(self):
        assert _signed_twice(2) == 4
        assert _signed_twice("3/2") == 3
        assert _signed_twice(F(-5, 2)) == -5
        assert _signed_twice(HalfInt(7)) == 7

    def test_str(self):
        assert str(HalfInt(4)) == "2"
        assert str(HalfInt(3)) == "3/2"

    def test_rejects_non_half_integers(self):
        with pytest.raises(ValueError, match="not a half-integer"):
            _signed_twice(F(1, 3))
        with pytest.raises(ValueError):
            HalfInt(-1)
        with pytest.raises(TypeError):
            _signed_twice(1.5)

    def test_ordering(self):
        assert HalfInt(3) < HalfInt(4)


_PRIME_POOL = (2, 3, 5, 7, 11, 13)


def _mask_radicand(mask: int) -> int:
    rad = 1
    for k, p in enumerate(_PRIME_POOL):
        if mask >> k & 1:
            rad *= p
    return rad


_surds = st.builds(
    lambda num, den, mask: QuadraticSurd(F(num, den), _mask_radicand(mask)),
    st.integers(-40, 40),
    st.integers(1, 12),
    st.integers(0, 63),
)


class TestQuadraticSurd:
    def test_constructor_normalizes_zero(self):
        assert QuadraticSurd(F(0), 15) == QuadraticSurd.zero()
        with pytest.raises(ValueError, match="radicand must be positive"):
            QuadraticSurd(F(1), 0)

    def test_to_fraction(self):
        assert QuadraticSurd(F(3, 4)).to_fraction() == F(3, 4)
        with pytest.raises(ValueError, match="irrational value"):
            QuadraticSurd(F(1), 2).to_fraction()

    def test_str(self):
        assert str(QuadraticSurd(F(2, 3), 5)) == "2/3 * sqrt(5)"
        assert str(QuadraticSurd(F(-1, 2))) == "-1/2"

    def test_square_factors_move_into_the_coefficient(self):
        assert QuadraticSurd(1, 4) == QuadraticSurd(2)
        assert str(QuadraticSurd(1, 4)) == "2"
        assert QuadraticSurd(1, 12) == QuadraticSurd(2, 3)
        assert str(QuadraticSurd(F(1, 3), 2 * 3 ** 2 * 5)) == "1 * sqrt(10)"
        assert QuadraticSurd(F(-1, 2), 18) == QuadraticSurd(F(-3, 2), 2)
        # what trial division leaves: the square of a prime, two primes
        p, q = 999983, 999979
        assert QuadraticSurd(1, p * p) == QuadraticSurd(p)
        assert QuadraticSurd(1, 3 * 9973 ** 2) == QuadraticSurd(9973, 3)
        assert QuadraticSurd(1, p * q).radicand == p * q
        assert QuadraticSurd(F(0), 36) == QuadraticSurd.zero()

    def test_radicand_must_be_a_small_int(self):
        cap = QuadraticSurd.MAX_RADICAND
        assert QuadraticSurd(1, cap - 1) == QuadraticSurd(3, (cap - 1) // 9)  # 3^3 * 7 * ...
        with pytest.raises(ValueError, match="is not below"):
            QuadraticSurd(1, cap)
        for bad in (2.0, "4", F(4)):
            with pytest.raises(ValueError, match="radicand must be an int"):
                QuadraticSurd(1, bad)

    @given(_surds, _surds)
    def test_product_squares_multiply(self, u, v):
        w = u * v
        assert _sq(w) == _sq(u) * _sq(v)
        if u.coeff * v.coeff > 0:
            assert w.coeff > 0
        elif u.coeff * v.coeff < 0:
            assert w.coeff < 0

    @given(_surds, _surds)
    def test_product_radicand_squarefree(self, u, v):
        rad = (u * v).radicand
        for p in _PRIME_POOL:
            assert rad % (p * p) != 0

    @given(_surds, st.fractions(min_value=-5, max_value=5))
    def test_rational_scaling(self, u, q):
        assert (q * u).coeff == q * u.coeff
        assert (u * q).radicand in (1, u.radicand)


@dataclass(frozen=True)
class _FractionSurd:
    """The surd class as it was before it moved to ints: a frozen dataclass
    over a Fraction and a radicand, kept as the reference for products,
    negation, equality, hashing and printing."""

    coeff: F
    radicand: int = 1

    def __post_init__(self):
        if self.radicand < 1:
            raise ValueError("radicand must be positive")
        if self.coeff == 0 and self.radicand != 1:
            object.__setattr__(self, "radicand", 1)

    def __mul__(self, other):
        if isinstance(other, _FractionSurd):
            g = gcd(self.radicand, other.radicand)
            return _FractionSurd(self.coeff * other.coeff * g,
                                 (self.radicand // g) * (other.radicand // g))
        return _FractionSurd(self.coeff * F(other), self.radicand)

    __rmul__ = __mul__

    def __neg__(self):
        return _FractionSurd(-self.coeff, self.radicand)

    def __str__(self) -> str:
        if self.radicand == 1:
            return str(self.coeff)
        return f"{self.coeff} * sqrt({self.radicand})"


@st.composite
def _surd_pairs(draw):
    """(surd, reference) for one value, built through the public constructor
    or, in the normal form it expects, through the private one.  Zero
    coefficients come with radicands above 1, and coefficients are written
    with denominators of either sign."""
    num = draw(st.integers(-60, 60))
    den = draw(st.integers(1, 24)) * draw(st.sampled_from((1, -1)))
    rad = _mask_radicand(draw(st.integers(0, 63)))
    coeff = F(num, den)
    ref = _FractionSurd(coeff, rad)
    if draw(st.booleans()):
        return QuadraticSurd(coeff, rad), ref
    return QuadraticSurd._of(coeff.numerator, coeff.denominator, rad if num else 1), ref


def _same(surd: QuadraticSurd, ref: _FractionSurd) -> bool:
    return (str(surd) == str(ref)
            and repr(surd) == repr(ref).replace("_FractionSurd", "QuadraticSurd", 1)
            and hash(surd) == hash(ref)
            and (surd.coeff, surd.radicand) == (ref.coeff, ref.radicand))


class TestSurdOnIntsAgainstFractionSurd:
    @given(_surd_pairs(), _surd_pairs(), st.fractions(max_denominator=30),
           st.integers(-50, 50))
    @example((QuadraticSurd(F(0), 15), _FractionSurd(F(0), 15)),
             (QuadraticSurd(F(3, -7), 30), _FractionSurd(F(3, -7), 30)), F(-2, 9), 0)
    @example((QuadraticSurd._of(0, 1, 1), _FractionSurd(F(0), 6)),
             (QuadraticSurd(F(-4, -6), 2), _FractionSurd(F(-4, -6), 2)), F(0), -3)
    def test_arithmetic_and_printing_match(self, u, v, q, k):
        (su, ru), (sv, rv) = u, v
        assert _same(su, ru) and _same(sv, rv)
        assert _same(su * sv, ru * rv)
        assert _same(-su, -ru)
        assert _same(su * q, ru * q) and _same(q * su, q * ru)
        assert _same(k * su, k * ru) and _same(su * k, ru * k)
        assert (su == sv) == (ru == rv)
        assert (su != sv) == (ru != rv)
        assert su * sv == sv * su
        assert (su * sv).is_zero() == ((ru * rv).coeff == 0)
        assert su.is_rational() == (ru.radicand == 1 or ru.coeff == 0)

    def test_other_types_compare_unequal(self):
        assert QuadraticSurd(F(1)) != F(1)
        assert QuadraticSurd(F(1)) != 1
        assert QuadraticSurd(F(2, 3), 5) == QuadraticSurd(F(-2, -3), 5)


class TestSquareRootHelpers:
    @given(st.lists(st.integers(0, 14), max_size=6),
           st.lists(st.integers(0, 14), max_size=6))
    def test_factorial_ratio_square(self, nums, dens):
        from math import factorial

        v = sqrt_factorial_ratio(nums, dens)
        target = F(1)
        for x in nums:
            target *= factorial(x)
        for x in dens:
            target /= factorial(x)
        assert _sq(v) == target
        assert v.coeff > 0

    def test_negative_argument_rejected(self):
        with pytest.raises(ValueError, match="negative factorial argument"):
            sqrt_factorial_ratio([3, -1], [])

    @given(st.integers(0, 4000), st.integers(1, 4000))
    def test_sqrt_rational_square(self, num, den):
        q = F(num, den)
        v = sqrt_rational(q)
        assert _sq(v) == q
        assert v.coeff >= 0

    def test_reciprocal_root_matches_trial_division(self):
        # threej's sqrt(1/(2j+1)), for every 2j up to the CLI's cap of 800
        for a in range(801):
            assert sqrt_factorial_ratio([a], [a + 1]) == sqrt_rational(F(1, a + 1)), a


class TestTriadPredicates:
    def test_examples(self):
        # twice-values; the defects of a triad are all even and nonnegative
        assert _triad_defects(1, 1, 2) == (0, 2, 2)
        assert _triad_defects(1, 1, 1) is None
        assert _triad_defects(2, 2, 2) == (2, 2, 2)
        assert _triad_defects(2, 2, 6) is None
        assert _triad_defects(0, 0, 0) == (0, 0, 0)


class TestCouplingCoefficient:
    def test_spin_half_top_state(self):
        c = coupling_coefficient("1/2", "1/2", 1, "1/2", "1/2", 1)
        assert c == QuadraticSurd(F(1))

    def test_projection_selection_rule(self):
        assert coupling_coefficient(1, 1, 2, 1, 0, 0).is_zero()

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="not a triad"):
            coupling_coefficient(1, 1, 3, 1, 1, 2)
        with pytest.raises(ValueError, match="out of range"):
            coupling_coefficient(1, 1, 2, 2, 0, 2)
        with pytest.raises(ValueError, match="out of range"):
            coupling_coefficient(1, 1, 2, "1/2", "1/2", 1)

    def test_rows_are_unit_vectors(self):
        # fixed (j1, j2, j, m): the coefficients over m1 have unit square sum
        for (tj1, tj2, tj) in [(1, 1, 2), (2, 2, 2), (2, 1, 3), (3, 3, 4), (4, 2, 2)]:
            for tm in range(-tj, tj + 1, 2):
                total = F(0)
                for tm1 in range(-tj1, tj1 + 1, 2):
                    tm2 = tm - tm1
                    if abs(tm2) <= tj2:
                        total += _sq(coupling_coefficient(
                            F(tj1, 2), F(tj2, 2), F(tj, 2),
                            F(tm1, 2), F(tm2, 2), F(tm, 2)))
                assert total == 1

    def test_columns_are_unit_vectors(self):
        # fixed (j1, j2, m1, m2): summing over admissible j also gives 1
        for (tj1, tj2) in [(1, 1), (2, 1), (2, 2), (3, 2)]:
            for tm1 in range(-tj1, tj1 + 1, 2):
                for tm2 in range(-tj2, tj2 + 1, 2):
                    total = F(0)
                    for tj in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
                        if abs(tm1 + tm2) <= tj:
                            total += _sq(coupling_coefficient(
                                F(tj1, 2), F(tj2, 2), F(tj, 2),
                                F(tm1, 2), F(tm2, 2), F(tm1 + tm2, 2)))
                    assert total == 1

    def test_highest_weight_positivity(self):
        # the coefficient at m1 = j1, m = j is positive whenever admissible
        for (tj1, tj2, tj) in [(1, 1, 2), (2, 2, 2), (2, 1, 3), (4, 2, 2), (1, 3, 2)]:
            v = coupling_coefficient(F(tj1, 2), F(tj2, 2), F(tj, 2),
                                     F(tj1, 2), F(tj - tj1, 2), F(tj, 2))
            assert v.coeff > 0


class TestThreeJ:
    def test_spin_half_value(self):
        v = threej("1/2", "1/2", 1, "1/2", "1/2", -1)
        assert v == QuadraticSurd(F(-1, 3), 3)

    def test_zero_unless_projections_balance(self):
        assert threej(1, 1, 1, 1, 0, 0).is_zero()

    def test_pair_contraction(self):
        # (j, j, 0; m, -m, 0) = (-1)^(j - m) / sqrt(2j + 1)
        for tj in range(0, 7):
            for tm in range(-tj, tj + 1, 2):
                v = threej(F(tj, 2), F(tj, 2), 0, F(tm, 2), F(-tm, 2), 0)
                sgn = -1 if ((tj - tm) // 2) % 2 else 1
                assert v == sgn * sqrt_rational(F(1, tj + 1))

    def test_orthogonality(self):
        for (tj1, tj2, tj) in [(1, 1, 2), (2, 2, 2), (2, 1, 3), (3, 1, 2)]:
            total = F(0)
            for tm1 in range(-tj1, tj1 + 1, 2):
                for tm2 in range(-tj2, tj2 + 1, 2):
                    tm = -(tm1 + tm2)
                    if abs(tm) <= tj:
                        total += _sq(threej(F(tj1, 2), F(tj2, 2), F(tj, 2),
                                            F(tm1, 2), F(tm2, 2), F(tm, 2)))
            assert total * (tj + 1) == tj + 1 or total == 1

    def test_column_cycle_invariance(self):
        rnd = random.Random(11)
        for _ in range(6):
            tj1, tj2 = rnd.randint(0, 4), rnd.randint(0, 4)
            choices = list(range(abs(tj1 - tj2), tj1 + tj2 + 1, 2))
            tj = rnd.choice(choices)
            tm1 = rnd.randrange(-tj1, tj1 + 1, 2) if tj1 else 0
            tm2 = rnd.randrange(-tj2, tj2 + 1, 2) if tj2 else 0
            tm = -(tm1 + tm2)
            if abs(tm) > tj:
                continue
            args = [(tj1, tm1), (tj2, tm2), (tj, tm)]
            vals = []
            for shift in range(3):
                cyc = args[shift:] + args[:shift]
                vals.append(threej(*(F(t, 2) for t, _ in cyc),
                                   *(F(t, 2) for _, t in cyc)))
            assert vals[0] == vals[1] == vals[2]


class TestSixJ:
    def test_all_zero_entries(self):
        assert sixj([0, 0, 0, 0, 0, 0]) == QuadraticSurd(F(1))

    def test_all_ones(self):
        assert sixj([1, 1, 1, 1, 1, 1]) == QuadraticSurd(F(1, 6))

    def test_rejects_non_triads(self):
        with pytest.raises(ValueError, match="not a triad"):
            sixj([1, 1, 3, 1, 1, 1])

    def test_matches_single_sum_oracle(self):
        count = 0
        for tjs in itertools.product(range(5), repeat=6):
            a, b, c, d, e, f = tjs
            if not (_is_triad(a, b, c) and _is_triad(a, e, f)
                    and _is_triad(d, b, f) and _is_triad(d, e, c)):
                continue
            mine = sixj([F(x, 2) for x in tjs])
            assert mine == racah_sixj([F(x, 2) for x in tjs]), tjs
            count += 1
        assert count == 570


class TestNineJArray:
    def test_rejects_bad_shapes_and_triads(self):
        with pytest.raises(ValueError, match="nine entries"):
            NineJArray([[1, 1], [1, 1]])
        with pytest.raises(ValueError, match="row 1"):
            NineJArray([[1, 1, 3], [1, 1, 1], [1, 1, 1]])
        with pytest.raises(ValueError, match="column 2"):
            NineJArray([[2, 2, 4], [2, 2, 4], [2, "3/2", "1/2"]])

    def test_str_and_equality(self):
        arr = _mk([[1, 1, 2], [1, 1, 2], [2, 2, 4]])
        assert str(arr) == "1/2 1/2 1; 1/2 1/2 1; 1 1 2"
        assert arr == _mk([[1, 1, 2], [1, 1, 2], [2, 2, 4]])
        assert arr.transpose().transpose() == arr


class TestNineJ:
    def test_all_zero_entries(self):
        arr = NineJArray([[0, 0, 0], [0, 0, 0], [0, 0, 0]])
        assert ninej_triple_sum(arr) == QuadraticSurd(F(1))
        assert ninej_operator(arr) == QuadraticSurd(F(1))

    def test_routes_agree(self):
        arrays = _arrays_upto(4)
        rnd = random.Random(17)
        for tw in rnd.sample(arrays, 150):
            arr = _mk(tw)
            assert ninej_operator(arr) == ninej_triple_sum(arr), tw

    def test_zero_corner_collapses_to_sixj(self):
        # {j1 j2 e; j3 j4 e; f f 0} against the 6-j of the residual couplings
        cnt = 0
        for tw in itertools.product(range(4), repeat=4):
            tj1, tj2, tj3, tj4 = tw
            for te in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
                if not _is_triad(tj3, tj4, te):
                    continue
                for tf in range(abs(tj1 - tj3), tj1 + tj3 + 1, 2):
                    if not _is_triad(tj2, tj4, tf):
                        continue
                    arr = _mk([(tj1, tj2, te), (tj3, tj4, te), (tf, tf, 0)])
                    sj = sixj([F(tj1, 2), F(tj2, 2), F(te, 2),
                               F(tj4, 2), F(tj3, 2), F(tf, 2)])
                    sgn = -1 if ((tj2 + tj3 + te + tf) // 2) % 2 else 1
                    rhs = sgn * (sqrt_rational(F(1, (te + 1) * (tf + 1))) * sj)
                    assert ninej_triple_sum(arr) == rhs, (tw, te, tf)
                    cnt += 1
        assert cnt == 270

    def test_transpose_and_permutation_signs(self):
        arrays = _arrays_upto(4)
        rnd = random.Random(23)
        for tw in rnd.sample(arrays, 60):
            arr = _mk(tw)
            v = ninej_triple_sum(arr)
            assert ninej_triple_sum(arr.transpose()) == v
            sg = -1 if (arr.entry_sum_twice() // 2) % 2 else 1
            assert ninej_triple_sum(arr.permute((1, 0, 2), (0, 1, 2))) == sg * v
            assert ninej_triple_sum(arr.permute((0, 1, 2), (0, 2, 1))) == sg * v
            assert ninej_triple_sum(arr.permute((1, 2, 0), (0, 1, 2))) == v

    def test_full_symmetry_check(self):
        assert ninej_symmetry_check(_mk([[2, 2, 2], [2, 2, 2], [2, 2, 2]]))
        assert ninej_symmetry_check(_mk([[1, 1, 2], [1, 1, 2], [2, 2, 2]]))
        assert ninej_symmetry_check(_mk([[2, 1, 3], [1, 2, 3], [3, 3, 4]]))

    @pytest.mark.parametrize("rows, cols, wrong_sign", [
        ((1, 0, 2), (0, 1, 2), 1),  # one odd permutation: the value must flip
        ((1, 0, 2), (0, 2, 1), -1),  # two odd permutations: the flips cancel
    ])
    def test_sign_law_fault_on_one_image_is_caught(self, monkeypatch, rows, cols, wrong_sign):
        # odd half-entry sum, nonzero value, and 37 distinct images, so the
        # faulty image is met once and only by the sign law
        arr = NineJArray._of_twice(((0, 1, 1), (2, 1, 3), (2, 2, 2)))
        assert arr.entry_sum_twice() // 2 % 2 == 1
        images = {arr.transpose().twice_rows()}
        images |= {arr.permute(r, c).twice_rows() for r, c in itertools.product(
            itertools.permutations(range(3)), repeat=2)}
        assert len(images) == 37
        value = ninej_triple_sum(arr)
        assert not value.is_zero() and ninej_symmetry_check(arr, value)
        target = arr.permute(rows, cols).twice_rows()
        route = wigner.ninej_triple_sum
        monkeypatch.setattr(wigner, "ninej_triple_sum", lambda a: wrong_sign * value
                            if a.twice_rows() == target else route(a))
        assert not ninej_symmetry_check(arr, value)

    def test_support_size_counts_terms(self):
        arr = _mk([[2, 2, 2], [2, 2, 2], [2, 2, 2]])
        assert ninej_support_size(arr) >= 2
        stretched = _mk([[2, 2, 4], [2, 2, 4], [4, 4, 8]])
        assert ninej_support_size(stretched) == 1


class TestKappaBridge:
    GRIDS = [(5, 3, 2), (5, 3, 3), (7, 5, 4), (8, 6, 5), (6, 6, 4)]

    def test_matches_triple_sum_route(self):
        for (m, n, r) in self.GRIDS:
            for p in pi_set(m, n, r):
                for i in range(r + 1):
                    for j in range(r - i + 1):
                        assert kappa_via_ninej(m, n, r, i, j, p) == \
                            kappa(m, n, r, i, j, p), (m, n, r, i, j, p)

    def test_rearranged_array_layout(self):
        for (m, n, r) in self.GRIDS:
            for (a, b) in pi_set(m, n, r):
                for i in range(r + 1):
                    for j in range(r - i + 1):
                        base, rearranged = kappa_ninej_arrays(m, n, r, i, j, (a, b))
                        expect = NineJArray([
                            [F(m + n, 2) - i, m + n - r, F(m + n, 2) - j],
                            [F(n, 2), n - 2 * b - 1, F(n, 2)],
                            [F(m, 2), m - 2 * a - 1, F(m, 2)],
                        ])
                        assert rearranged == expect
                        assert base.permute((0, 2, 1), (2, 1, 0)).transpose() == rearranged

    def test_inadmissible_inputs_rejected(self):
        with pytest.raises(ValueError, match="inadmissible"):
            kappa_via_ninej(5, 3, 4, 0, 0, (0, 0))
        with pytest.raises(ValueError, match="inadmissible"):
            kappa_via_ninej(5, 3, 3, 0, 3, (1, 1))

    def test_doubly_stretched_single_term(self):
        for (m, n, r) in self.GRIDS:
            _, rearranged = kappa_ninej_arrays(m, n, r, 0, r, (0, 0))
            assert ninej_support_size(rearranged) == 1
            assert kappa_via_ninej(m, n, r, 0, r, (0, 0)) != 0


def _arrays_with_top(top, count, seed):
    """count random 9-j arrays of twice-values whose largest entry is top."""
    triads = _triads_upto(top)
    tset = set(triads)
    by_pair = {}
    for (a, b, c) in triads:
        by_pair.setdefault((a, b), []).append(c)
    rnd = random.Random(seed)
    out = []
    while len(out) < count:
        r1, r2 = rnd.choice(triads), rnd.choice(triads)
        opts = [by_pair.get((r1[k], r2[k])) for k in range(3)]
        if not all(opts):
            continue
        r3 = tuple(rnd.choice(o) for o in opts)
        if r3 in tset and max(r1 + r2 + r3) == top:
            out.append((r1, r2, r3))
    return out


def _ninej_per_term(tw):
    """The 9-j triple sum of the array of twice-values tw with one Fraction
    per term, sharing no code with the package: (S, P, terms, cut), with the
    symbol equal to S * sqrt(P).  (x, y, z) runs over a box larger than any
    support, and a point is a term when every factorial argument is >= 0.
    `cut` counts the points whose one-index arguments are all >= 0 but whose
    (x, y), (x, z) or (y, z) argument is not."""
    (j1, j2, j12), (j3, j4, j34), (j13, j24, J) = tw
    S, terms, cut = F(0), 0, 0
    top = max(map(max, tw)) + 2
    for x in range(top):
        for y in range(top):
            for z in range(top):
                one = [x, (-j3 + j4 + j34) // 2 - x, (j12 + j34 - J) // 2 - x,
                       j34 - x, (j3 + j4 - j34) // 2 + x, (j12 - j34 + J) // 2 + x,
                       y, j24 + 1 + y, (j2 + j4 - j24) // 2 - y, (j13 - j24 + J) // 2 - y,
                       (-j2 + j4 + j24) // 2 + y, (j13 + j24 - J) // 2 + y,
                       z, (j1 + j3 + j13 + 2) // 2 - z, (j1 + j3 - j13) // 2 - z,
                       (j1 - j2 + j12) // 2 - z, j1 - z, (-j1 + j2 + j12) // 2 + z]
                if min(one) < 0:
                    continue
                two = [(j1 + j3 - j24 + J) // 2 - y - z, (-j2 + j3 - j34 + j24) // 2 + x + y,
                       (-j1 + j2 - j34 + J) // 2 + x + z]
                if min(two) < 0:
                    cut += 1
                    continue
                num = (factorial(j34 - x) * factorial((j3 + j4 - j34) // 2 + x)
                       * factorial((j12 - j34 + J) // 2 + x)
                       * factorial((-j2 + j4 + j24) // 2 + y) * factorial((j13 + j24 - J) // 2 + y)
                       * factorial(j1 - z) * factorial((-j1 + j2 + j12) // 2 + z)
                       * factorial(two[0]))
                den = (factorial(x) * factorial((-j3 + j4 + j34) // 2 - x)
                       * factorial((j12 + j34 - J) // 2 - x)
                       * factorial(y) * factorial(j24 + 1 + y)
                       * factorial((j2 + j4 - j24) // 2 - y) * factorial((j13 - j24 + J) // 2 - y)
                       * factorial(z) * factorial((j1 + j3 + j13 + 2) // 2 - z)
                       * factorial((j1 + j3 - j13) // 2 - z) * factorial((j1 - j2 + j12) // 2 - z)
                       * factorial(two[1]) * factorial(two[2]))
                term = F(num, den)
                S += -term if (x + y + z) % 2 else term
                terms += 1
    if (j12 + j34 - J) // 2 % 2:
        S = -S

    def bracket_sq(a, b, c):
        # [a,b,c]^2 = (a-b+c)!(a+b-c)!(a+b+c+1)!/(-a+b+c)!, twice-values
        return F(factorial((a - b + c) // 2) * factorial((a + b - c) // 2)
                 * factorial((a + b + c + 2) // 2), factorial((-a + b + c) // 2))

    P = (bracket_sq(j3, j1, j13) * bracket_sq(j2, j4, j24) * bracket_sq(J, j13, j24)
         / (bracket_sq(j3, j4, j34) * bracket_sq(j2, j1, j12) * bracket_sq(J, j12, j34)))
    return S, P, terms, cut


def _agrees_with_per_term(tw) -> Tuple[int, int]:
    """Assert that the package's triple sum and support size on tw match the
    per-term oracle; return the oracle's (terms, cut)."""
    arr = NineJArray._of_twice(tw)
    S, P, terms, cut = _ninej_per_term(tw)
    v = ninej_triple_sum(arr)
    assert _sq(v) == S * S * P, tw
    assert (v.coeff > 0) == (S > 0) and (v.coeff < 0) == (S < 0), tw
    assert ninej_support_size(arr) == terms, tw
    return terms, cut


class TestTripleSumPerTerm:
    """The triple sum, evaluated over its index box with zero-extended factor
    lists, against one Fraction per term."""

    def test_every_array_up_to_three_halves(self):
        arrays = _arrays_upto(3)
        assert len(arrays) == 1616
        counts = [_agrees_with_per_term(tw) for tw in arrays]
        # the box holds points whose terms are cut in many of these arrays
        assert sum(1 for _, cut in counts if cut) > 500

    def test_seeded_sample_with_top_entries_12_to_20(self):
        for top in (12, 14, 16, 18, 20):
            for tw in _arrays_with_top(top, 5, 1900 + top):
                _agrees_with_per_term(tw)

    def test_arrays_with_cut_terms_and_zero_value(self):
        # No valid array has every point of its box cut: by the triangle
        # rules the corner of largest x, y and z is a term.  So this takes
        # the arrays of the grid up to 4 with more cut points than terms,
        # and those whose terms cancel to 0.
        arrays = _arrays_upto(4)
        zero = [tw for tw in arrays if ninej_triple_sum(NineJArray._of_twice(tw)).is_zero()]
        assert len(zero) == 457
        for tw in random.Random(31).sample(zero, 40):
            terms, _ = _agrees_with_per_term(tw)
            assert terms >= 1, tw
        mostly_cut = 0
        for tw in random.Random(37).sample(arrays, 400):
            terms, cut = _agrees_with_per_term(tw)
            mostly_cut += cut > terms
        assert mostly_cut >= 20

    def test_stretched_single_term_kappa_arrays(self):
        for (m, n, r) in TestKappaBridge.GRIDS:
            _, rearranged = kappa_ninej_arrays(m, n, r, 0, r, (0, 0))
            terms, _ = _agrees_with_per_term(rearranged.twice_rows())
            assert terms == 1


def _triple_sum_by_terms(xs, ys, zs, ps) -> F:
    """The sum in the docstring of wigner._triple_sum, one Fraction per term
    over the box x <= min(x4, x5), y <= min(y4, y5), z <= min(z4, z5); a term
    with a negative argument below the fraction bar is 0."""
    x1, x2, x3, x4, x5 = xs
    y1, y2, y3, y4, y5 = ys
    z1, z2, z3, z4, z5 = zs
    p1, p2, p3 = ps
    S = F(0)
    for x in range(min(x4, x5) + 1):
        for y in range(min(y4, y5) + 1):
            for z in range(min(z4, z5) + 1):
                below = [x, x4 - x, x5 - x, y, y3 + y, y4 - y, y5 - y,
                         z, z3 - z, z4 - z, z5 - z, p2 + x + y, p3 + x + z]
                if min(below) < 0:
                    continue
                above = [x1 - x, x2 + x, x3 + x, y1 + y, y2 + y, z1 - z, z2 + z, p1 - y - z]
                term = F(prod(map(factorial, above)), prod(map(factorial, below)))
                S += -term if (x + y + z) % 2 else term
    return S


def _drawn_shifts(rnd, X, Y, Z):
    """Random shifts for wigner._triple_sum with box (X, Y, Z), inside its
    contract; p2 and p3 reach down to the corner's bound, so x, y or z often
    starts above 0."""
    def ends(n):
        other = n + rnd.randrange(3)
        return (n, other) if rnd.random() < 0.5 else (other, n)

    def small():
        return rnd.randrange(4)

    return ((X + small(), small(), small()) + ends(X),
            (small(), small(), small()) + ends(Y),
            (Z + small(), small(), Z + small()) + ends(Z),
            (Y + Z + small(), rnd.randint(-X - Y, 3), rnd.randint(-X - Z, 3)))


class TestTripleSumAxisOrder:
    """wigner._triple_sum runs its longest axis innermost; every one of
    the three loop orders must give the direct sum of the docstring."""

    def test_each_axis_innermost_against_the_direct_sum(self, monkeypatch):
        rnd = random.Random(2606)
        cases = []
        for axis in range(3):
            for _ in range(40):
                longest = rnd.randint(1, 5)
                sizes = [rnd.randrange(longest) for _ in range(3)]
                sizes[axis] = longest
                cases.append(_drawn_shifts(rnd, *sizes))
        for sizes in ((0, 0, 0), (2, 2, 1), (2, 1, 2), (1, 2, 2), (3, 3, 3), (4, 1, 4)):
            for _ in range(5):
                cases.append(_drawn_shifts(rnd, *sizes))
        kappa_shifts = []
        evaluate = wigner._triple_sum
        monkeypatch.setattr(syzygy, "_triple_sum",
                            lambda *shifts: kappa_shifts.append(shifts) or evaluate(*shifts))
        for (m, n, r) in TestKappaBridge.GRIDS:
            for p in pi_set(m, n, r):
                for i in range(r + 1):
                    for j in range(r - i + 1):
                        kappa(m, n, r, i, j, p)
        cases += random.Random(2607).sample(kappa_shifts, 60)

        innermost, ties, cut = set(), 0, [0, 0, 0]
        for xs, ys, zs, ps in cases:
            total, den = wigner._triple_sum(xs, ys, zs, ps)
            assert F(total, den) == _triple_sum_by_terms(xs, ys, zs, ps), (xs, ys, zs, ps)
            sizes = [min(s[3], s[4]) for s in (xs, ys, zs)]
            top = max(sizes)
            if sizes.count(top) == 1:
                innermost.add(sizes.index(top))
            else:
                ties += 1
            (_, p2, p3), (X, Y, Z) = ps, sizes
            for k, lo in enumerate((max(0, -p2 - Y, -p3 - Z), max(0, -p2 - X), max(0, -p3 - X))):
                cut[k] += lo > 0
        # each of x, y and z was the strict longest axis, so each loop order
        # ran; ties and each cut index appeared too
        assert innermost == {0, 1, 2}
        assert ties >= 30
        assert min(cut) >= 10, cut


def _products_by_radicand(terms):
    """The sum of w * u * v over the (int w, surd u, surd v) terms, as
    {squarefree radicand: nonzero rational part}.  Roots of distinct
    squarefree ints are linearly independent over Q, so the sum is the
    rational q exactly when this is {1: q}, or {} for q = 0."""
    groups = {}
    for w, u, v in terms:
        g = gcd(u.radicand, v.radicand)
        rad = (u.radicand // g) * (v.radicand // g)
        groups[rad] = groups.get(rad, F(0)) + w * u.coeff * v.coeff * g
    return {rad: q for rad, q in groups.items() if q}


class TestNineJOrthogonality:
    """sum over j12, j34 of (2j12+1)(2j34+1)(2j13+1)(2j24+1)
    {j1 j2 j12; j3 j4 j34; j13 j24 J} {j1 j2 j12; j3 j4 j34; j13' j24' J}
    = delta(j13, j13') delta(j24, j24') (Edmonds, ch. 6): a certificate
    that needs no second route."""

    @pytest.mark.parametrize("route", [ninej_triple_sum, ninej_operator])
    def test_orthogonality_up_to_three_halves(self, route):
        top = 3
        values = {}

        def value(tw):
            if tw not in values:
                values[tw] = route(NineJArray._of_twice(tw))
            return values[tw]

        sums = 0
        for j1, j2, j3, j4, J in itertools.product(range(top + 1), repeat=5):
            # j12 and j34 run over every admissible value, past top too
            inner = [(j12, j34) for j12 in range(abs(j1 - j2), j1 + j2 + 1, 2)
                     for j34 in range(abs(j3 - j4), j3 + j4 + 1, 2)
                     if _is_triad(j12, j34, J)]
            outer = [(j13, j24) for j13 in range(top + 1) for j24 in range(top + 1)
                     if _is_triad(j1, j3, j13) and _is_triad(j2, j4, j24)
                     and _is_triad(j13, j24, J)]
            for a, (j13, j24) in enumerate(outer):
                for j13p, j24p in outer[a:]:
                    terms = [((j12 + 1) * (j34 + 1) * (j13 + 1) * (j24 + 1),
                              value(((j1, j2, j12), (j3, j4, j34), (j13, j24, J))),
                              value(((j1, j2, j12), (j3, j4, j34), (j13p, j24p, J))))
                             for j12, j34 in inner]
                    delta = {1: F(1)} if (j13, j24) == (j13p, j24p) else {}
                    assert _products_by_radicand(terms) == delta, \
                        (j1, j2, j3, j4, J, j13, j24, j13p, j24p)
                    sums += 1
        assert sums == 1254


class TestPackedChainKeys:
    """The operator chain packs one field of (largest twice-entry).bit_length()
    bits per exponent; these arrays sit on both sides of a width change."""

    @pytest.mark.parametrize("top", (15, 16, 31, 32))
    def test_ninej_routes_agree_at_field_boundaries(self, top):
        arrays = _arrays_with_top(top, 4, top)
        arrays.append(((top, top, 0), (top, top, 0), (0, 0, 0)))
        for tw in arrays:
            arr = NineJArray._of_twice(tw)
            assert ninej_operator(arr) == ninej_triple_sum(arr), tw

    @pytest.mark.parametrize("top", (63, 64))
    def test_sixj_matches_oracle_at_field_boundary(self, top):
        rnd = random.Random(top)
        cases = []
        while len(cases) < 4:
            tjs = [rnd.randint(0, top) for _ in range(6)]
            tjs[rnd.randrange(6)] = top
            j1, j2, j12, j3, J, j23 = tjs
            if (_is_triad(j1, j2, j12) and _is_triad(j2, j3, j23)
                    and _is_triad(j12, j3, J) and _is_triad(j1, j23, J)):
                cases.append(tjs)
        for tjs in cases:
            js = [F(v, 2) for v in tjs]
            assert sixj(js) == racah_sixj(js), tjs

    @pytest.fixture
    def fresh_step_memos(self, monkeypatch):
        # no step image computed under a fault outlives the test
        monkeypatch.setattr(polycore, "_step_images", polycore._Images())

    def test_corrupted_chain_step_is_caught(self, monkeypatch, fresh_step_memos):
        # a last merge that leaves its source pairs in place cannot end at z1^(2J)
        merge = wigner._merge
        monkeypatch.setattr(wigner, "_merge", lambda t, w, a, b, dst, *orders:
                            dict(t) if dst == "z" else merge(t, w, a, b, dst, *orders))
        with pytest.raises(ValueError, match="operator chain inconsistent"):
            ninej_operator(_mk([[2, 1, 3], [1, 2, 3], [3, 3, 4]]))
        with pytest.raises(ValueError, match="operator chain inconsistent"):
            sixj([1, 1, 1, 1, 1, 1])
        with pytest.raises(ValueError, match="operator chain inconsistent"):
            kappa_oracle(5, 3, 3, 0, 1, (0, 0))

    def test_chain_step_dropping_every_term_fails_the_checks(self, monkeypatch,
                                                             fresh_step_memos):
        # an empty chain reads as the scalar 0 with no error, so only the
        # comparison with a second route in each check can catch it
        monkeypatch.setattr(wigner, "_merge", lambda *args: {})
        assert ninej_operator(_mk([[2, 1, 3], [1, 2, 3], [3, 3, 4]])).is_zero()
        ok, _, actual = checks.check_ninej_routes(42, 5)
        assert not ok and actual.startswith("route mismatch")
        ok, _, actual = checks.check_kappa_triple_route(42, 5)
        assert not ok and actual.startswith("disagreement")

    def test_corrupted_triple_sum_fails_the_checks(self, monkeypatch):
        # kappa and the 9-j triple sum share one evaluator, so a fault in it
        # moves both alike; only the operator route in each check sees it
        triple_sum = wigner._triple_sum

        def off_by_one(*shifts):
            total, den = triple_sum(*shifts)
            return total + den, den

        monkeypatch.setattr(wigner, "_triple_sum", off_by_one)
        monkeypatch.setattr(syzygy, "_triple_sum", off_by_one)
        ok, _, actual = checks.check_ninej_routes(42, 5)
        assert not ok and actual.startswith("route mismatch")
        ok, _, actual = checks.check_kappa_triple_route(42, 5)
        assert not ok and actual.startswith("disagreement")
        direct, oracle, via_ninej = actual.rsplit(": ", 1)[1].split(", ")
        assert direct == via_ninej != oracle

    def test_broken_symmetry_law_is_reported(self, monkeypatch):
        # both routes agree on a wrong value, so only the symmetry laws on
        # the exhaustive grid, shrunk here to entries <= 1, can catch it
        small = checks._arrays_upto(2)
        monkeypatch.setattr(checks, "_arrays_upto", lambda tmax: small)
        wrong = next(tw for tw in small if tuple(zip(*tw)) != tw
                     and not ninej_triple_sum(NineJArray._of_twice(tw)).is_zero())
        for name in ("ninej_operator", "ninej_triple_sum"):
            route = getattr(checks, name)
            monkeypatch.setattr(checks, name, lambda arr, route=route:
                                -route(arr) if arr.twice_rows() == wrong else route(arr))
        ok, _, actual = checks.check_ninej_routes(42, 5)
        assert not ok and actual.startswith("symmetry broken at")


class TestTwiceIntArray:
    def test_private_constructor_checks_triads(self):
        with pytest.raises(ValueError, match="row 1"):
            NineJArray._of_twice([[1, 1, 3], [1, 1, 1], [1, 1, 1]])
        with pytest.raises(ValueError, match="column 3"):
            NineJArray._of_twice([[2, 2, 0], [2, 2, 0], [2, 2, 2]])
        with pytest.raises(ValueError, match="nine entries"):
            NineJArray._of_twice([[0, 0, 0], [0, 0, 0]])

    @staticmethod
    def _triad_message(tw):
        """The error for tw with the triads tested in the order row 1,
        column 1, row 2, column 2, row 3, column 3; None if all hold."""
        for k in range(3):
            for where, (a, b, c) in ((f"row {k + 1}", tw[k]),
                                     (f"column {k + 1}", [row[k] for row in tw])):
                if not _is_triad(a, b, c):
                    return f"not a triad: {where} ({a}/2, {b}/2, {c}/2)"
        return None

    @given(st.lists(st.lists(st.integers(0, 4), min_size=3, max_size=3),
                    min_size=3, max_size=3))
    @example([[1, 1, 2], [1, 1, 1], [1, 1, 2]])  # row 2 fails, columns 1 and 2 hold
    @example([[1, 1, 2], [2, 2, 1], [1, 1, 2]])  # row 2 and column 1 fail: column 1 first
    @example([[2, 2, 2], [2, 2, 2], [2, 2, 4]])  # only column 3 fails
    @example([[1, 1, 2], [1, 1, 2], [2, 2, 4]])  # valid
    def test_both_constructors_report_the_first_failing_triad(self, tw):
        want = self._triad_message(tw)
        for build in (NineJArray._of_twice, _mk):
            if want is None:
                assert build(tw).twice_rows() == tuple(map(tuple, tw))
            else:
                with pytest.raises(ValueError) as err:
                    build(tw)
                assert str(err.value) == want

    def test_images_equal_the_checked_arrays(self):
        perms = list(itertools.permutations(range(3)))
        for tw in random.Random(29).sample(_arrays_upto(3), 40):
            arr = NineJArray._of_twice(tw)
            assert arr.transpose() == NineJArray._of_twice(list(zip(*tw)))
            for rp in perms:
                for cp in perms:
                    image = arr.permute(rp, cp)
                    assert image == NineJArray._of_twice([[tw[i][k] for k in cp] for i in rp])
                    assert hash(image) == hash(NineJArray._of_twice(image.twice_rows()))
        for bad in ((0, 0, 1), (0, 1), (0, 1, 3)):
            with pytest.raises(ValueError, match="not permutations"):
                arr.permute(bad, (0, 1, 2))
            with pytest.raises(ValueError, match="not permutations"):
                arr.permute((0, 1, 2), bad)

    def test_twice_values_and_half_integer_rows(self):
        arr = NineJArray([["1/2", "1/2", 1], ["1/2", "1/2", 0], [1, 1, 1]])
        assert arr == NineJArray._of_twice([[1, 1, 2], [1, 1, 0], [2, 2, 2]])
        assert arr.twice_rows() == ((1, 1, 2), (1, 1, 0), (2, 2, 2))
        assert arr.rows[0] == (HalfInt(1), HalfInt(1), HalfInt(2))
        assert arr.entry_sum_twice() == 12
        assert arr.permute((2, 0, 1), (1, 2, 0)).twice_rows() == \
            ((2, 2, 2), (1, 2, 1), (1, 0, 1))
        assert hash(arr.transpose().transpose()) == hash(arr)


def _factorial_ratio(nums, dens) -> F:
    target = F(1)
    for x in nums:
        target *= factorial(x)
    for x in dens:
        target /= factorial(x)
    return target


def _primes_upto(limit):
    return [p for p in range(2, limit + 1) if all(p % d for d in range(2, isqrt(p) + 1))]


_PRIMES_TO_1300 = _primes_upto(1300)


def _is_root(v: QuadraticSurd, target: F, primes=_PRIMES_TO_1300) -> bool:
    """Whether v is the positive square root of target with a squarefree
    radicand, the one such form, for factorial arguments up to the last of
    primes."""
    return (_sq(v) == target and v.coeff > 0
            and all(v.radicand % (p * p) for p in primes))


_args = st.integers(0, 40)


class TestFactorialRatioPrimes:
    @given(st.lists(_args, min_size=18, max_size=18), st.lists(_args, min_size=6, max_size=6))
    def test_triple_sum_sized_calls(self, nums, dens):
        # the triple sum passes 18 numerator and 6 denominator arguments
        assert _is_root(sqrt_factorial_ratio(nums, dens), _factorial_ratio(nums, dens))
        assert _is_root(sqrt_factorial_ratio(nums[:12], nums[12:] + dens),
                        _factorial_ratio(nums[:12], nums[12:] + dens))

    def test_more_arguments_than_the_fields_were_sized_for(self):
        # count copies of the table's largest argument would put
        # count * e_p(top!) in each field: 1,000 * e_2(64!) = 63,000 is past
        # 16-bit fields
        top = wigner._TOP
        for count in (wigner._SPAN + 1, 1000):
            many = [top] * count
            assert _is_root(sqrt_factorial_ratio(many, [3]), _factorial_ratio(many, [3]))
            assert _is_root(sqrt_factorial_ratio([5], many), _factorial_ratio([5], many))
        assert _is_root(sqrt_factorial_ratio([9, 3], [4]), _factorial_ratio([9, 3], [4]))

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(0, 1201), max_size=6), st.lists(st.integers(0, 1201), max_size=6))
    @example([1201, 800, 400], [1200, 799, 401])
    @example([], [1201])
    def test_arguments_up_to_the_cli_caps(self, nums, dens):
        # threej accepts 2j <= 800, which puts factorial arguments near 1,200
        assert _is_root(sqrt_factorial_ratio(nums, dens), _factorial_ratio(nums, dens))

    @given(st.lists(st.integers(0, 12), max_size=3), st.lists(st.integers(0, 12), max_size=6))
    @example([], [3])  # 2 and 3 at exponent -1
    @example([2], [5])  # 2 at -2, 3 and 5 at -1
    @example([0, 1], [1, 0])
    def test_negative_odd_exponents_match_trial_division(self, nums, dens):
        assert sqrt_factorial_ratio(nums, dens) == sqrt_rational(_factorial_ratio(nums, dens))

    @pytest.mark.parametrize("nums, dens, direct", [
        ([64] * 32, [], False), ([64] * 31, [64], False), ([64], [64] * 31, False),
        ([64] * 33, [63], True), ([65], [64], True), ([0, 65], [63, 1], True)])
    def test_table_boundary_matches_trial_division(self, monkeypatch, nums, dens, direct):
        # the table holds n <= 64, 32 arguments at a time; one more argument,
        # or one past 64, takes the direct Legendre sum
        calls = []
        legendre_sum = wigner._direct_exponents
        monkeypatch.setattr(wigner, "_direct_exponents",
                            lambda *args: calls.append(args) or legendre_sum(*args))
        assert sqrt_factorial_ratio(nums, dens) == sqrt_rational(_factorial_ratio(nums, dens))
        assert bool(calls) == direct

    def test_exponents_beyond_sixteen_bits(self):
        # field totals past 2^15 and 2^16: 28 * e_2(1200!) = 33,460 and
        # e_2(70000!) = 69,993
        many = [1200] * 28
        assert _is_root(sqrt_factorial_ratio(many, []), _factorial_ratio(many, []))
        assert _is_root(sqrt_factorial_ratio([7], many), _factorial_ratio([7], many))
        assert _is_root(sqrt_factorial_ratio([70000], []), factorial(70000), _primes_upto(70000))
        # exponents past 2^16 in each factorial, yet the ratio is only 70000 * 69999
        assert sqrt_factorial_ratio([70000], [69998]) == sqrt_rational(F(70000 * 69999))
        assert sqrt_factorial_ratio([69998], [70000]) == sqrt_rational(F(1, 70000 * 69999))
        assert sqrt_factorial_ratio([69999, 5], [70000, 4]) == sqrt_rational(F(5, 70000))
        assert sqrt_factorial_ratio([6], [4]) == sqrt_rational(F(30))

    def test_arguments_past_the_table(self):
        top = wigner._MAX_ARGUMENT
        assert sqrt_factorial_ratio([65], [64]) == sqrt_rational(F(65))
        assert sqrt_factorial_ratio([70000, 3], [69998]) == sqrt_rational(F(70000 * 69999 * 6))
        assert sqrt_factorial_ratio([5], [7, 2]) == sqrt_rational(F(1, 84))
        assert sqrt_factorial_ratio([top], [top - 1]) == sqrt_rational(F(top))
        for args in ([top + 1], [1 << 62], [3, 1 << 62]):
            with pytest.raises(ValueError, match="too large"):
                sqrt_factorial_ratio(args, [])
            with pytest.raises(ValueError, match="too large"):
                sqrt_factorial_ratio([], iter(args))

    def test_rational_prefactor(self):
        assert sqrt_factorial_ratio([3], [], -4, 6) == QuadraticSurd(F(-2, 3), 6)
        assert sqrt_factorial_ratio([5], [3], 6, 8) == QuadraticSurd(F(3, 2), 5)
        assert sqrt_factorial_ratio([-1], [], 0).is_zero()

    def test_non_positive_den_is_refused(self):
        # den = 0 gave "1/0 * sqrt(5)"; den = -2 a surd unequal to -sqrt(5)
        for den in (0, -2):
            with pytest.raises(ValueError, match="den must be positive"):
                sqrt_factorial_ratio([5], [3], 1, den)
        with pytest.raises(ValueError, match="den must be positive"):
            sqrt_factorial_ratio([5], [3], 0, 0)

    def test_zero_and_one_factorials_stay_memoised(self):
        # 0! and 1! pack to the int 0
        assert sqrt_factorial_ratio([0, 1, 3], [1, 0]) == sqrt_rational(F(6))
        assert sqrt_factorial_ratio([1, 0, 3], [0]) == sqrt_rational(F(6))

    def test_growing_and_shrinking_arguments(self):
        # calls past the table sieve primes up to their own largest argument;
        # calls within it read the table's
        for nums, dens in (([3], [2]), ([1500], [1499, 7]), ([40, 30], [20]),
                           ([4001], [3999]), ([0, 1], [])):
            target = F(1)
            for x in nums:
                target *= factorial(x)
            for x in dens:
                target /= factorial(x)
            v = sqrt_factorial_ratio(nums, dens)
            assert _sq(v) == target and v.coeff > 0


def _pin(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(f"{line}\n".encode())
    return h.hexdigest()


class TestPinnedOutputs:
    """sha256 of the printed values, computed before the routes were packed
    into int keys and one-denominator sums."""

    def test_both_ninej_routes_over_small_arrays(self):
        arrays = _arrays_upto(3)
        assert len(arrays) == 1616
        lines = []
        for tw in arrays:
            arr = _mk(tw)
            lines.append(f"{tw} {ninej_operator(arr)} {ninej_triple_sum(arr)}")
        assert _pin(lines) == "53f1af9b0c364788c912262126f06a0deadb3597e464e63cdc7c423f2e7a5fd3"

    def test_three_kappa_routes_up_to_order_six(self):
        lines = []
        for m in range(2, 7):
            for n in range(2, 7):
                for r in range(2, min(m, n) + 1):
                    for p in pi_set(m, n, r):
                        for i in range(r + 1):
                            for j in range(r - i + 1):
                                args = (m, n, r, i, j, p)
                                lines.append(f"{args} {kappa(*args)} {kappa_oracle(*args)} "
                                             f"{kappa_via_ninej(*args)}")
        assert len(lines) == 1135
        assert _pin(lines) == "af68ee83ad623fa5abaf47ce7ea9d8d5cca49879eb6eb917cdf085924b294afb"


class TestPinnedSurdOutputs:
    """sha256 of printed values taken while surds were a dataclass over a
    Fraction and each factorial ratio a list of prime exponents: the move
    to ints changed no printed digit."""

    def test_both_ninej_routes_on_grid_and_large_arrays(self):
        sample = random.Random(1807).sample(_arrays_upto(6), 400)
        for top in (12, 14, 16, 18, 20):
            sample += _arrays_with_top(top, 6, 1800 + top)
        lines = []
        for tw in sample:
            arr = NineJArray._of_twice(tw)
            lines.append(f"{tw} {ninej_operator(arr)} {ninej_triple_sum(arr)}")
        assert len(lines) == 430
        assert _pin(lines) == "e30cd4c12a1036cdad3c7a447d3ad967a62365f4ea04df2d2d99ca61c37638d4"

    def test_threej_and_sixj_values(self):
        lines = []
        for args in [("1/2", "1/2", 1, "1/2", "1/2", -1), (400, 400, 400, 400, -400, 0),
                     ("7/2", 5, "13/2", "-3/2", 2, "-1/2"), (60, 45, 30, -7, 12, -5),
                     ("151/2", "99/2", 100, "-41/2", "31/2", 5), (0, 0, 0, 0, 0, 0)]:
            lines.append(f"threej{args} {threej(*args)}")
        for js in [[0] * 6, [1] * 6, [64] * 6, [1, 2, 3, "3/2", "5/2", "7/2"],
                   [30, 25, 20, "45/2", "61/2", "39/2"], [10, 10, 20, 10, 20, 10]]:
            lines.append(f"sixj{js} {sixj(js)}")
        assert _pin(lines) == "22e75a9f3ce34bcb7699af16f3eacacf6c2cb027b3a97cee0aaeb1b3758154fd"

    def test_surd_reprs(self):
        surds = [QuadraticSurd.zero(), QuadraticSurd(F(0), 15), QuadraticSurd(F(-2, 3), 5),
                 QuadraticSurd(F(7)), threej("1/2", "1/2", 1, "1/2", "1/2", -1),
                 sixj([1, 2, 3, "3/2", "5/2", "7/2"]),
                 -ninej_triple_sum(NineJArray._of_twice(((2, 1, 3), (1, 2, 3), (3, 3, 4))))]
        assert _pin(map(repr, surds)) == \
            "cd38332c41c818902672215f1815adf992c98c87d160efb5782df281fac625cf"
