"""Quadratic syzygies among the transvectants of a generic pair of forms.

For forms A, B of orders m, n write u_i for the i-th transvectant.  For
each weight r and each lattice point (a, b) with 2(a+b+1) <= r there is a
relation sum theta_ij (u_i, u_j)_{r-i-j} = 0 that holds identically in the
coefficients of A and B.  This module computes the coefficient tables,
verifies them on random inputs, and reconstructs the higher transvectants
from the first two.

The coefficients kappa come by three routes.  kappa is a closed triple
sum.  kappa_oracle is the wigner module's operator 9-j chain run on the
kappa array, times the scale K.  wigner.kappa_via_ninej goes through the
9-j triple sum.  kappa and the 9-j triple sum share one evaluator,
wigner._triple_sum, and derive their shifts separately; the operator chain
shares neither, so the checks compare all three.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, lcm
from typing import Dict, List, Optional, Tuple, Union

from . import seeding
from .polycore import MultiForm, _oldest_half, add, exact_divide, mul, negate, scale
from .transvectant import (
    BinaryForm,
    _from_ints,
    _int_coeffs,
    _transvect_ints,
    random_binary_form,
    transvect,
)
from .wigner import _check_admissible, _kappa_scale, _kappa_twice_rows, _ninej_chain, _triple_sum

LatticePoint = Tuple[int, int]


def pi_set(m: int, n: int, r: int) -> List[LatticePoint]:
    """All lattice points (a, b) with 2(a+b+1) <= r, a then b ascending."""
    _check_admissible(m, n, r, 0, 0, 0, 0)
    return [(a, b) for a in range(r // 2) for b in range(r // 2 - a)]


# ---------------------------------------------------------------------------
# route 1: the triple-sum formula
# ---------------------------------------------------------------------------


def kappa(m: int, n: int, r: int, i: int, j: int, p: LatticePoint) -> Fraction:
    """Syzygy coefficient kappa_ij at lattice point p, by the triple sum."""
    a, b = p
    _check_admissible(m, n, r, i, j, a, b)
    f = factorial
    n1 = (
        f(m + n - 2 * i + 1) * f(m + n - 2 * j + 1) * f(2 * m - 2 * a)
        * f(2 * a + 1) * f(m - 2 * a - 1) * f(n - 2 * b - 1)
        * f(2 * m - r - 2 * a + 2 * b) * f(2 * n - r + 2 * a - 2 * b)
        * f(2 * m + 2 * n - r - 2 * a - 2 * b - 1)
    )
    n2 = (
        f(j) * f(m - i) * f(m - j) * f(m + n - j + 1)
        * f(m + n - r + i - j) * f(m + n - r - i + j)
        * f(2 * m + 2 * n - r - i - j + 1) * f(2 * m - 4 * a - 2) * f(2 * n - 4 * b - 2)
    )
    # the 9-j triple sum at the kappa array's shifts, derived here apart from
    # wigner._triple_sum_params; p1 = n-i+2a+1 >= Y + Z, and admissibility
    # puts a term at the box's corner
    total, den = _triple_sum(
        (n, m - j, n - 2 * b - 1, n - j, n - 2 * b - 1),
        (m - 2 * a - 1, r - 2 * a - 2 * b - 2, 2 * m - 4 * a - 1, 2 * a + 1,
         2 * n - r + 2 * a - 2 * b),
        (m + n - 2 * i, m + n - r + i - j, m + n - i + 1, n - i, r - i - j),
        (n - i + 2 * a + 1, -n + r - 2 * a - 1, m - r + i))
    if (n - j) % 2:
        total = -total
    return Fraction(n1 * total, n2 * den)


# ---------------------------------------------------------------------------
# route 2: the operator chase
# ---------------------------------------------------------------------------


def kappa_oracle(m: int, n: int, r: int, i: int, j: int, p: LatticePoint) -> Fraction:
    """Independent route for kappa: the operator 9-j chain of the kappa
    array, times the scale K.

    The chain splits z into (x, y), doubles each side into (p, q) and
    (u, v) with the antisymmetrizing brackets, recouples with omega powers,
    and contracts back down to a single form in z.  Equivariance forces the
    composite to act as a scalar; any non-monomial leakage is a bug.
    """
    a, b = p
    _check_admissible(m, n, r, i, j, a, b)
    rows = _kappa_twice_rows(m, n, r, i, j, a, b)
    return _ninej_chain(rows) * _kappa_scale(m, n, r, i, j, a, b)


# ---------------------------------------------------------------------------
# coefficient tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=True)
class SyzygyTable:
    """Coefficients theta_ij (0 <= i <= j, i+j <= r) of one weight-r syzygy."""

    m: int
    n: int
    r: int
    point: Union[LatticePoint, str]
    coeffs: Dict[Tuple[int, int], Fraction]

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs.values())

    def anchored(self, key: Tuple[int, int], value) -> "SyzygyTable":
        """Rescale so that coeffs[key] equals value exactly."""
        cur = self.coeffs[key]
        if cur == 0:
            raise ValueError(f"cannot anchor at zero coefficient {key}")
        s = Fraction(value) / cur
        return SyzygyTable(self.m, self.n, self.r, self.point,
                           {k: c * s for k, c in self.coeffs.items()})

    def to_json_dict(self) -> dict:
        point = list(self.point) if isinstance(self.point, tuple) else self.point
        return {
            "m": self.m,
            "n": self.n,
            "r": self.r,
            "point": point,
            "coeffs": {f"{i},{j}": str(c) for (i, j), c in sorted(self.coeffs.items())},
        }


def _index_pairs(r: int) -> List[Tuple[int, int]]:
    return [(i, j) for i in range(r + 1) for j in range(i, r - i + 1)]


def vartheta_table(m: int, n: int, r: int, p: LatticePoint) -> SyzygyTable:
    """The syzygy table at lattice point p: theta = kappa on the diagonal,
    2*kappa off it."""
    a, b = p
    _check_admissible(m, n, r, 0, 0, a, b)
    coeffs = {}
    for i, j in _index_pairs(r):
        k = kappa(m, n, r, i, j, p)
        coeffs[(i, j)] = k if i == j else 2 * k
    table = SyzygyTable(m, n, r, (a, b), coeffs)
    if table.is_zero():
        raise ValueError("syzygy table is identically zero")
    return table


def closed_form_table(m: int, n: int, r: int) -> SyzygyTable:
    """The distinguished syzygy with factorial-quotient coefficients."""
    _check_admissible(m, n, r, 0, 0, 0, 0)
    f = factorial

    def beta(i, j):
        num = f(m) * f(n) * f(r) * f(m + n - 2 * i + 1) * f(m + n - 2 * j + 1)
        den = (f(i) * f(j) * f(n - i) * f(m - j) * f(r - i - j)
               * f(m + n - i + 1) * f(m + n - j + 1))
        return Fraction(num, den)

    coeffs = {}
    for i, j in _index_pairs(r):
        eps = 1 if i == j else 2
        val = Fraction(0)
        if i == 0 and j == r:
            val += 1
        if i == r and j == 0:
            val += 1
        val -= beta(i, j)
        sgn = -1 if (r + i + j) % 2 else 1
        val -= sgn * beta(j, i)
        coeffs[(i, j)] = eps * val
    table = SyzygyTable(m, n, r, "closed-form", coeffs)
    if table.is_zero():
        raise ValueError("syzygy table is identically zero")
    return table


def u2_u3_formulas(m: int, n: int) -> Tuple[Tuple[Fraction, ...], Tuple[Fraction, ...]]:
    """Closed coefficient triples (z1,z2,z3), (w1,w2,w3) expressing
    u0*u2 and u0*u3 in lower transvectants."""
    if m < 3 or n < 3:
        raise ValueError("order too small for closed formula")
    z1 = Fraction((m - 2 + n) * (m - 1 + n), 2 * (m - 1) * (n - 1))
    z2 = Fraction(m * n * (m - 2 + n) * (m - 1 + n), (m - 1) * (n - 1) * (m + n) ** 2)
    z3 = Fraction((m - 1 + n) * (m - 2 + n) * (m - n), (m - 1) * (n - 1) * (m + n))
    w1 = Fraction((m - 4 + n) * (m - 3 + n), (m - 2) * (n - 2))
    w2 = Fraction((m - 3 + n) * (m - 4 + n) * (m - n), (m - 2) * (n - 2) * (m - 2 + n))
    w3 = Fraction(m * n * (m - 4 + n) * (m - 3 + n), (m - 2) * (n - 2) * (m + n) * (m - 1 + n))
    return (z1, z2, z3), (w1, w2, w3)


# ---------------------------------------------------------------------------
# randomized verification
# ---------------------------------------------------------------------------


@dataclass
class VerifyResult:
    passed: bool
    trials: int
    failed_trial: Optional[int] = None
    reason: Optional[str] = None
    residual: Optional[MultiForm] = None


# Sampled pairs by (m, n, seed, trial); the oldest half is dropped when
# full.  The bound is above the 147 entries the form-syzygies benchmark holds
# and the 245 that `verify --suite all` holds at its default 5 trials, so
# neither evicts.
_MAX_DRAWS = 512
_draw_cache: Dict[tuple, tuple] = {}


def _sample_pair(m: int, n: int, seed: int, trial: int):
    """The (A, B) sample for one verification trial, with memoized
    transvectants.  Deliberately independent of r and of the lattice point,
    so tables at the same (m, n) share all the heavy arithmetic."""
    key = (m, n, seed, trial)
    hit = _draw_cache.get(key)
    if hit is not None:
        return hit
    rng = seeding.stream(seed, "verify-table", m, n, trial)
    A = random_binary_form(m, rng)
    B = random_binary_form(n, rng)
    entry = (A, B, {}, {})
    if len(_draw_cache) >= _MAX_DRAWS:
        for old in _oldest_half(_draw_cache):
            del _draw_cache[old]
    _draw_cache[key] = entry
    return entry


def _pair_transvectant(entry, i: int, j: int, s: int) -> tuple:
    """(u_i, u_j)_s of the entry's pair as (content, primitive int list),
    with u_i and u_j cached the same way."""
    A, B, us, pairs = entry
    hit = pairs.get((i, j, s))
    if hit is not None:
        return hit
    m, n = A.order, B.order
    for k in (i, j):
        if k not in us:
            us[k] = _transvect_ints(*_int_coeffs(A), *_int_coeffs(B), m, n, k)
    val = _transvect_ints(*us[i], *us[j], m + n - 2 * i, m + n - 2 * j, s)
    pairs[(i, j, s)] = val
    return val


def _int_sum(parts: list, size: int) -> tuple:
    """(L, acc) with sum f * terms == acc / L over the (f, terms) in parts,
    f rational and terms an int list of length size, or empty when f is 0;
    L is the one common denominator of the f."""
    L = lcm(*(f.denominator for f, _ in parts))
    acc = [0] * size
    for f, terms in parts:
        scaled = f.numerator * (L // f.denominator)
        for k, v in enumerate(terms):
            acc[k] += scaled * v
    return L, acc


def verify_table(table: SyzygyTable, trials: int, seed: int) -> VerifyResult:
    """Substitute random forms for (A, B) and check the syzygy residual is
    the zero form, exactly, on every trial.

    Each trial scales the int terms of every (u_i, u_j)_{r-i-j} by its
    theta_ij times content, written over the one common denominator L of
    those factors, and sums them as ints: the residual is zero exactly
    when every entry of that int sum is.  A failing trial reports the
    residual as the int sum over L.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if table.is_zero():
        return VerifyResult(False, trials, reason="zero table")
    m, n, r = table.m, table.n, table.r
    for t in range(trials):
        entry = _sample_pair(m, n, seed, t)
        parts = []
        for (i, j), c in table.coeffs.items():
            if c:
                content, terms = _pair_transvectant(entry, i, j, r - i - j)
                parts.append((Fraction(c) * content, terms))
        L, acc = _int_sum(parts, 2 * (m + n - r) + 1)
        if any(acc):
            residual = _from_ints("x", Fraction(1, L), acc).form
            return VerifyResult(False, trials, failed_trial=t,
                                reason="nonzero residual", residual=residual)
    return VerifyResult(True, trials)


# ---------------------------------------------------------------------------
# reconstruction of higher transvectants
# ---------------------------------------------------------------------------


def reconstruct(u0: BinaryForm, u1: BinaryForm, m: int, n: int) -> List[BinaryForm]:
    """Recover u_2 .. u_min(m,n) from u_0 and u_1.

    At each weight the u_r coefficient of the syzygy at lattice point (0,0)
    is divided out; that point guarantees it is nonzero.
    """
    if u0.pair != u1.pair:
        raise ValueError("forms are over different pairs")
    if u0.order != m + n or u1.order != m + n - 2:
        raise ValueError(f"order mismatch: expected orders {m + n} and {m + n - 2}")
    if u0.is_zero():
        raise ValueError("inputs are not transvectants of a common pair")
    us = [_int_coeffs(u0), _int_coeffs(u1)]
    out = []
    for r in range(2, min(m, n) + 1):
        tab = vartheta_table(m, n, r, (0, 0))
        th = tab.coeffs[(0, r)]
        if th == 0:
            raise ValueError(f"syzygy cannot isolate weight {r}")
        parts = []
        for (i, j), c in tab.coeffs.items():
            if (i, j) != (0, r) and c:
                content, terms = _transvect_ints(*us[i], *us[j], m + n - 2 * i,
                                                 m + n - 2 * j, r - i - j)
                parts.append((c * content, terms))
        # theta_0r u_0 u_r = -sum theta_ij (u_i, u_j)_{r-i-j} = -acc / L
        L, acc = _int_sum(parts, 2 * (m + n - r) + 1)
        try:
            q = exact_divide(_from_ints(u0.pair, Fraction(-1, L) / th, acc).form, u0.form)
        except ValueError:
            raise ValueError("inputs are not transvectants of a common pair") from None
        ur = BinaryForm(u0.pair, m + n - 2 * r, q)
        us.append(_int_coeffs(ur))
        out.append(ur)
    return out


# ---------------------------------------------------------------------------
# fixed identities for quadratic pairs
# ---------------------------------------------------------------------------


@dataclass
class IdentityReport:
    passed: bool
    failed: List[int]


def _wrap(F: MultiForm) -> BinaryForm:
    return BinaryForm("x", F.order("x") or 0, F)


def _tv(F: MultiForm, G: MultiForm, s: int) -> MultiForm:
    if not (F and G):
        return MultiForm.zero()
    return transvect(_wrap(F), _wrap(G), s).form


def segre22_identity_check(A: BinaryForm, B: BinaryForm) -> IdentityReport:
    """The nine identities tying u0, u1, u2 of two quadratics: the three
    product syzygies, the two set-theoretic equations, and the four ideal
    generators (two of order 2, two of order 6)."""
    if A.order != 2 or B.order != 2:
        raise ValueError("quadratic forms required")
    f0 = transvect(A, B, 0).form
    f1 = transvect(A, B, 1).form
    f2 = transvect(A, B, 2).form
    h2 = _tv(f0, f0, 2)
    g2 = _tv(f0, f1, 2)
    e4 = _tv(f0, f0, 4)
    w2 = _tv(f1, f1, 2)
    sq1 = mul(f1, f1)
    core = add(sq1, scale(h2, 2))
    residuals = [
        add(mul(f0, f2), negate(add(scale(sq1, Fraction(3, 2)), scale(h2, 3)))),
        add(mul(f1, f2), scale(g2, 3)),
        add(mul(f2, f2), negate(add(scale(e4, Fraction(3, 2)), scale(w2, Fraction(-3, 2))))),
        add(mul(f1, core), scale(mul(f0, g2), 2)),
        add(mul(core, core), scale(mul(mul(f0, f0), add(e4, negate(w2))), Fraction(-2, 3))),
        add(add(_tv(sq1, f1, 2), scale(_tv(g2, f0, 2), 2)), scale(_tv(h2, f1, 2), 2)),
        _tv(_tv(f0, f1, 1), f1, 2),
        add(add(mul(sq1, f1), scale(mul(f0, g2), 9)), scale(_tv(mul(f0, f0), f1, 2), -7)),
        add(scale(mul(f1, _tv(f0, f1, 1)), 3), scale(_tv(mul(f0, f0), f0, 3), 7)),
    ]
    failed = [idx for idx, res in enumerate(residuals, 1) if not res.is_zero()]
    return IdentityReport(passed=not failed, failed=failed)


def minimal_equation_u1_check(A: BinaryForm, B: BinaryForm) -> bool:
    """The sextic equation satisfied by u1 over the covariants of u0."""
    if A.order != 2 or B.order != 2:
        raise ValueError("quadratic forms required")
    f0 = transvect(A, B, 0).form
    f1 = transvect(A, B, 1).form
    H = _tv(f0, f0, 2)
    I = _tv(f0, f0, 4)
    T = _tv(f0, H, 1)
    u1_2 = mul(f1, f1)
    u1_4 = mul(u1_2, u1_2)
    phi24 = scale(H, 6)
    phi48 = add(scale(mul(I, mul(f0, f0)), -2), scale(mul(H, H), 12))
    phi612 = scale(mul(T, T), -16)
    residual = add(
        add(mul(u1_2, u1_4), mul(phi24, u1_4)),
        add(mul(phi48, u1_2), phi612),
    )
    return residual.is_zero()
