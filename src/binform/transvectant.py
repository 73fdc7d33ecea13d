"""Transvectants of binary forms and the maps that factor them.

A transvectant of index r pairs two binary forms of orders m and n into a
form of order m+n-2r.  The production route expands Omega^r on A(x)B(y) by
the Leibniz rule into r+1 products of derivatives of A and of B, each a
convolution of two dense int coefficient lists (Olver, Classical Invariant
Theory, 1999, ch. 5), on the primitive parts of A and B with their contents
applied once at the end; the syzygy module runs the same kernel on its own
int coefficient lists.  An independent derivative-sum route in Fractions is
kept as an internal oracle.  The module also provides the projection/section
pair between the tensor space and each transvectant summand, which run on
polycore's split/merge engine (the projection is one merge, the section one
split, on the primitive part of the input), the scaling factors tying them
together, and an exchange identity on Jacobians used by the imbedding
argument.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, perm
from typing import Sequence

from .polycore import (
    MultiForm,
    _check_pair,
    _from_primitive,
    _merge,
    _pack,
    _primitive,
    _split,
    _top,
    _unpack,
    _width,
    add,
    bracket_power,
    mul,
    negate,
    scale,
)


def _check_exponent(token, where: str) -> None:
    """Refuse a string whose decimal exponent exceeds the int/str digit
    limit in absolute value, before Fraction expands 10**exponent in time
    that grows faster than the exponent; such a value has more digits than
    Python converts to a string.  An exponent that int() refuses is left for
    Fraction, which refuses it too."""
    limit = sys.get_int_max_str_digits()  # 0 when the limit is switched off
    if not (isinstance(token, str) and limit):
        return
    _, e, exponent = token.lower().partition("e")
    try:
        too_large = bool(e) and abs(int(exponent)) > limit
    except ValueError:
        return
    if too_large:
        raise ValueError(f"{where} takes decimal exponents up to {limit} in absolute value, "
                         f"got {token!r}")


@dataclass(frozen=True)
class BinaryForm:
    """A binary form: homogeneous of a declared order in a single pair."""

    pair: str
    order: int
    form: MultiForm

    def __post_init__(self):
        _check_pair(self.pair)
        if self.order < 0:
            raise ValueError("negative order")
        if self.form.is_zero():
            return
        if self.form.pairs not in ((), (self.pair,)):
            raise ValueError(f"form involves pairs {self.form.pairs}, expected ({self.pair!r},)")
        if self.form.order(self.pair) != self.order:
            raise ValueError(f"order mismatch for pair {self.pair!r}")

    def is_zero(self) -> bool:
        return self.form.is_zero()

    @classmethod
    def from_coeffs(cls, coeffs: Sequence, pair: str = "x", convention: str = "monomial") -> "BinaryForm":
        """Build from a coefficient list a_0..a_m.

        "monomial" reads sum a_k x1^(m-k) x2^k; "binomial" additionally
        weights a_k by C(m,k).
        """
        if convention not in ("monomial", "binomial"):
            raise ValueError(f"unknown convention {convention!r}")
        m = len(coeffs) - 1
        if m < 0:
            raise ValueError("empty coefficient list")
        terms = {}
        for k, c in enumerate(coeffs):
            c = Fraction(c)
            if convention == "binomial":
                c *= comb(m, k)
            if c:
                terms[(m - k, k)] = c
        return cls(pair, m, MultiForm({pair: m}, terms) if terms else MultiForm.zero())

    def to_coeffs(self, convention: str = "monomial") -> list:
        if convention not in ("monomial", "binomial"):
            raise ValueError(f"unknown convention {convention!r}")
        m = self.order
        out = []
        for k in range(m + 1):
            c = self.form.coefficient({self.pair: (m - k, k)}) if not self.form.is_zero() else Fraction(0)
            if convention == "binomial":
                c = c / comb(m, k)
            out.append(c)
        return out

    def to_json_dict(self, convention: str = "monomial") -> dict:
        return {
            "pair": self.pair,
            "order": self.order,
            "convention": convention,
            "coeffs": [str(c) for c in self.to_coeffs(convention)],
        }

    @classmethod
    def from_json_dict(cls, data) -> "BinaryForm":
        if not isinstance(data, dict):
            raise ValueError("serialized form is not a JSON object")
        data = {"pair": "x", "convention": "monomial", **data}
        for field, kind in (("coeffs", list), ("order", int), ("pair", str), ("convention", str)):
            if not isinstance(data.get(field), kind):
                raise ValueError(f"serialized form needs a field {field!r} of type {kind.__name__}")
        for c in data["coeffs"]:
            _check_exponent(c, "serialized form field 'coeffs'")
        try:
            coeffs = [Fraction(c) for c in data["coeffs"]]
        except (TypeError, ValueError, ZeroDivisionError, OverflowError):
            raise ValueError("serialized form has a non-rational entry in 'coeffs'") from None
        bf = cls.from_coeffs(coeffs, data["pair"], data["convention"])
        if bf.order != data["order"]:
            raise ValueError("order mismatch in serialized form")
        return bf


# ---------------------------------------------------------------------------
# scaling factors
# ---------------------------------------------------------------------------


def _check_index(m: int, n: int, r: int) -> None:
    if r < 0 or r > min(m, n):
        raise ValueError(f"transvectant index out of range: r={r} for orders ({m},{n})")


def factor_f(m: int, n: int, r: int) -> Fraction:
    """Projection-side factor (m-r)!(n-r)!/(m!n!)."""
    _check_index(m, n, r)
    return Fraction(factorial(m - r) * factorial(n - r), factorial(m) * factorial(n))


def factor_h(m: int, n: int, r: int) -> Fraction:
    """Composite factor (m+n-2r+1)!/((m+n-r+1)! r!)."""
    _check_index(m, n, r)
    return Fraction(factorial(m + n - 2 * r + 1), factorial(m + n - r + 1) * factorial(r))


def factor_g(m: int, n: int, r: int) -> Fraction:
    """Section-side factor, defined so that factor_f * factor_g = factor_h."""
    _check_index(m, n, r)
    return factor_h(m, n, r) / factor_f(m, n, r)


# ---------------------------------------------------------------------------
# transvectants
# ---------------------------------------------------------------------------


def _int_coeffs(A: BinaryForm) -> tuple:
    """(content, dense primitive int coefficients of A indexed by x2-exponent);
    a zero form gives content 0."""
    a = [0] * (A.order + 1)
    for key, v in A.form.terms.items():
        a[key[1] if key else 0] = v  # an order-0 form's key is ()
    return _primitive(a)


def _from_ints(pair: str, content, ints: list) -> BinaryForm:
    """The binary form content * sum ints[k] x1^(N-k) x2^k, N = len(ints) - 1."""
    N = len(ints) - 1
    return BinaryForm(pair, N, _from_primitive(
        (pair,), content, (((N - k, k), v) for k, v in enumerate(ints))))


def _transvect_ints(ca, a: list, cb, b: list, m: int, n: int, r: int) -> tuple:
    """(c, t) with (ca*A, cb*B)_r = c * sum t[k] x1^(N-k) x2^k, N = m+n-2r,
    for the dense int coefficient lists a and b of orders m and n.

    Leibniz route: Omega^r = sum_k (-1)^k C(r,k) dx1^(r-k) dx2^k dy1^k dy2^(r-k),
    so t is the sum over k of the convolution of the (r-k, k) derivative of
    A with the (k, r-k) derivative of B; each row of the first carries its
    signed binomial once, and c = ca * cb * f(m,n;r) times the content of
    that sum, so t is primitive.  A zero content gives (0, []).
    """
    if not (ca and cb):
        return 0, []
    t = [0] * (m + n - 2 * r + 1)
    for k in range(r + 1):
        sb = -comb(r, k) if k & 1 else comb(r, k)
        # x1^(m-i) x2^i differentiated (r-k, k) times lands at x2-exponent i-k
        da = [sb * a[i] * perm(m - i, r - k) * perm(i, k) for i in range(k, m - r + k + 1)]
        db = [b[i] * perm(n - i, k) * perm(i, r - k) for i in range(r - k, n - k + 1)]
        db = [(l, y) for l, y in enumerate(db) if y]
        for j, x in enumerate(da):
            if x:
                for l, y in db:
                    t[j + l] += x * y
    g, t = _primitive(t)
    return ca * cb * factor_f(m, n, r) * g, t


def transvect(A: BinaryForm, B: BinaryForm, r: int) -> BinaryForm:
    """The r-th transvectant (A,B)_r, of order m+n-2r.

    Runs `_transvect_ints` on the content and primitive part of A and of
    B, then builds one Fraction per output term.
    """
    if A.pair != B.pair:
        raise ValueError("forms are over different pairs")
    m, n = A.order, B.order
    _check_index(m, n, r)
    if A.is_zero() or B.is_zero():
        return BinaryForm(A.pair, m + n - 2 * r, MultiForm.zero())
    return _from_ints(A.pair, *_transvect_ints(*_int_coeffs(A), *_int_coeffs(B), m, n, r))


def _derivative(form: MultiForm, d1: int, d2: int) -> dict:
    """The terms {(e1, e2): c} of a form in one pair differentiated d1 times
    in its first variable and d2 times in its second; an order-0 form, whose
    pair is pruned, included."""
    out = {}
    for key, c in form.terms.items():
        e1, e2 = key or (0, 0)
        if e1 >= d1 and e2 >= d2:
            out[(e1 - d1, e2 - d2)] = c * perm(e1, d1) * perm(e2, d2)
    return out


def transvect_derivative(A: BinaryForm, B: BinaryForm, r: int) -> BinaryForm:
    """Derivative-sum route for (A,B)_r; internal oracle for transvect.

    It multiplies the derivatives term by term and so shares none of the
    raw kernels with transvect.
    """
    if A.pair != B.pair:
        raise ValueError("forms are over different pairs")
    m, n = A.order, B.order
    _check_index(m, n, r)
    if A.is_zero() or B.is_zero():
        return BinaryForm(A.pair, m + n - 2 * r, MultiForm.zero())
    total: dict = {}
    for i in range(r + 1):
        c = -comb(r, i) if i % 2 else comb(r, i)
        db = _derivative(B.form, i, r - i)
        for (a1, a2), ca in _derivative(A.form, r - i, i).items():
            for (b1, b2), cb in db.items():
                key = (a1 + b1, a2 + b2)
                total[key] = total.get(key, 0) + c * ca * cb
    f = factor_f(m, n, r)
    return BinaryForm(A.pair, m + n - 2 * r,
                      MultiForm._make((A.pair,), {k: v * f for k, v in total.items()}))


# ---------------------------------------------------------------------------
# projection and section
# ---------------------------------------------------------------------------


def project_pi(F: MultiForm, m: int, n: int, r: int) -> MultiForm:
    """Project a bihomogeneous form of orders (m,n) in (x,y) onto the
    order-(m+n-2r) summand, landing in pair x: f(m,n;r) times the merge of
    y into x."""
    _check_index(m, n, r)
    if F.is_zero():
        return MultiForm.zero()
    if F.order("x") != m or F.order("y") != n:
        raise ValueError("order mismatch for pair 'x'/'y'")
    w = _width(m + n, _top(F))
    content, ints = _primitive(list(F.terms.values()))
    t = _merge(_pack(dict(zip(F.terms, ints)), F.pairs, w), w, "x", "y", "x", m, n, m + n - 2 * r)
    pairs = tuple(sorted(set(F.pairs) - {"y"} | {"x"}))
    return _from_primitive(pairs, content * factor_f(m, n, r), _unpack(t, pairs, w).items())


def section_iota(C, m: int, n: int, r: int) -> MultiForm:
    """Section of project_pi: embed an order-(m+n-2r) form in pair x or z
    into the (m,n) tensor space as g(m,n;r)/(m+n-2r)! times its split into
    x and y, its split polarization times (xy)^r."""
    _check_index(m, n, r)
    form = C.form if isinstance(C, BinaryForm) else C
    N = m + n - 2 * r
    if form.is_zero():
        return MultiForm.zero()
    order = form.orders[form.pairs[0]] if form.pairs else 0
    if form.pairs not in ((), ("x",), ("z",)) or order != N:
        raise ValueError(f"order mismatch: section expects a form of order {N}")
    w = _width(m, n, N)
    content, ints = _primitive(list(form.terms.values()))
    # packing the one pair as z relabels a form in x
    t = _split(_pack(dict(zip(form.terms, ints)), ("z",) * len(form.pairs), w),
               w, "z", "x", "y", m, n, N)
    return _from_primitive(("x", "y"), content * factor_g(m, n, r) / factorial(N),
                           _unpack(t, ("x", "y"), w).items())


def trace_element(m: int) -> MultiForm:
    """The canonical invariant (xy)^m in the (m,m) tensor space."""
    if m < 0:
        raise ValueError("negative order")
    return bracket_power("x", "y", m) if m else MultiForm.constant(1)


# ---------------------------------------------------------------------------
# the exchange identity
# ---------------------------------------------------------------------------


def _product(A: BinaryForm, B: BinaryForm) -> BinaryForm:
    return BinaryForm(A.pair, A.order + B.order, mul(A.form, B.form))


def jacobian_exchange_check(A: BinaryForm, B: BinaryForm, Q: BinaryForm, R: BinaryForm) -> bool:
    """Check (AQ,BR)_1 - (AR,BQ)_1 = s(m+n+2s)/((m+s)(n+s)) AB (Q,R)_1."""
    m, n, s = A.order, B.order, Q.order
    if R.order != s:
        raise ValueError("Q and R must have equal orders")
    lhs = add(
        transvect(_product(A, Q), _product(B, R), 1).form,
        negate(transvect(_product(A, R), _product(B, Q), 1).form),
    )
    if s == 0:
        return lhs.is_zero()
    c = Fraction(s * (m + n + 2 * s), (m + s) * (n + s))
    rhs = scale(mul(mul(A.form, B.form), transvect(Q, R, 1).form), c)
    return add(lhs, negate(rhs)).is_zero()


# ---------------------------------------------------------------------------
# randomized inputs for verification routines
# ---------------------------------------------------------------------------


def random_binary_form(m: int, rng, pair: str = "x") -> BinaryForm:
    """Random form with numerators in [-99,99] and denominators in [1,20]."""
    coeffs = [Fraction(rng.randint(-99, 99), rng.randint(1, 20)) for _ in range(m + 1)]
    return BinaryForm.from_coeffs(coeffs, pair)
