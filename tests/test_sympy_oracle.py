"""3-j, 6-j and 9-j values against sympy's exact Wigner symbols.

sympy computes the symbols by its own Racah sums and shares no code with
either package route, so a seeded sample guards the operator chains.
Values are compared by square and sign: the package returns q*sqrt(s),
sympy an exact radical expression.
"""

import random
from fractions import Fraction as F

import pytest

from binform.wigner import NineJArray, ninej_operator, sixj, threej

sympy = pytest.importorskip("sympy")
from sympy.physics.wigner import wigner_3j, wigner_6j, wigner_9j  # noqa: E402


def _rat(twice: int):
    return sympy.Rational(twice, 2)


def _same(got, want) -> bool:
    square = got.coeff ** 2 * got.radicand
    return (want ** 2 == sympy.Rational(square.numerator, square.denominator)
            and (want > 0) == (got.coeff > 0) and (want < 0) == (got.coeff < 0))


def _is_triad(a: int, b: int, c: int) -> bool:
    """Whether twice-values a, b, c satisfy the triangle and parity rules."""
    return abs(a - b) <= c <= a + b and (a + b + c) % 2 == 0


def _triads(tmax):
    return [(a, b, c) for a in range(tmax + 1) for b in range(tmax + 1)
            for c in range(abs(a - b), min(a + b, tmax) + 1, 2)]


def test_threej_sample():
    rng = random.Random(101)
    triads = _triads(8)
    checked = 0
    while checked < 200:
        a, b, c = rng.choice(triads)
        ma = rng.randrange(-a, a + 1, 2)
        mb = rng.randrange(-b, b + 1, 2)
        mc = -(ma + mb)
        if abs(mc) > c:
            continue
        got = threej(F(a, 2), F(b, 2), F(c, 2), F(ma, 2), F(mb, 2), F(mc, 2))
        want = wigner_3j(*map(_rat, (a, b, c, ma, mb, mc)))
        assert _same(got, want), (a, b, c, ma, mb, mc)
        checked += 1


def test_sixj_sample():
    rng = random.Random(102)
    checked = 0
    while checked < 150:
        tj = [rng.randrange(9) for _ in range(6)]
        a, b, c, d, e, f = tj
        if not all(_is_triad(x, y, z)
                   for x, y, z in ((a, b, c), (a, e, f), (d, b, f), (d, e, c))):
            continue
        got = sixj([F(x, 2) for x in tj])
        want = wigner_6j(*map(_rat, tj), prec=None)
        assert _same(got, want), tj
        checked += 1


def test_ninej_sample():
    rng = random.Random(103)
    triads = _triads(8)
    by_pair = {}
    for a, b, c in triads:
        by_pair.setdefault((a, b), []).append(c)
    checked = 0
    while checked < 80:
        r1, r2 = rng.choice(triads), rng.choice(triads)
        opts = [by_pair.get((r1[k], r2[k])) for k in range(3)]
        if not all(opts):
            continue
        r3 = tuple(rng.choice(o) for o in opts)
        if not _is_triad(*r3):
            continue
        rows = (r1, r2, r3)
        got = ninej_operator(NineJArray([[F(x, 2) for x in row] for row in rows]))
        want = wigner_9j(*(_rat(x) for row in rows for x in row), prec=None)
        assert _same(got, want), rows
        checked += 1
