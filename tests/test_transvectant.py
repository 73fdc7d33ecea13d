"""Transvectants, projections, and sections."""

import hashlib
from fractions import Fraction as F
from functools import reduce
from math import factorial, gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from binform import seeding
from binform.polycore import (
    MultiForm,
    add,
    bracket_power,
    evaluate,
    mul,
    negate,
    omega_power,
    polarize,
    scale,
    substitute_pair,
)
from binform.transvectant import (
    BinaryForm,
    _int_coeffs,
    _transvect_ints,
    factor_f,
    factor_g,
    factor_h,
    jacobian_exchange_check,
    project_pi,
    random_binary_form,
    section_iota,
    trace_element,
    transvect,
    transvect_derivative,
)


def _rand(m, rng, pair="x"):
    return random_binary_form(m, rng, pair=pair)


class TestBinaryForm:
    def test_monomial_coeffs_round_trip(self):
        A = BinaryForm.from_coeffs([1, 2, 3])
        assert A.order == 2
        assert A.to_coeffs() == [F(1), F(2), F(3)]
        assert evaluate(A.form, {"x": (1, 1)}) == 6

    def test_binomial_convention(self):
        # binomial weights: sum C(2,k) x1^(2-k) x2^k with all coeffs 1 is (x1+x2)^2
        A = BinaryForm.from_coeffs([1, 1, 1], convention="binomial")
        assert evaluate(A.form, {"x": (1, 1)}) == 4
        assert A.to_coeffs(convention="binomial") == [F(1), F(1), F(1)]

    def test_unknown_convention(self):
        with pytest.raises(ValueError, match="unknown convention"):
            BinaryForm.from_coeffs([1, 2], convention="royal")

    def test_order_mismatch(self):
        with pytest.raises(ValueError, match="order mismatch"):
            BinaryForm("x", 3, MultiForm.monomial({"x": (1, 1)}))

    def test_json_round_trip(self):
        A = BinaryForm.from_coeffs([F(1, 3), 0, -2])
        d = A.to_json_dict()
        assert d["coeffs"] == ["1/3", "0", "-2"]
        assert BinaryForm.from_json_dict(d) == A

    def test_order_zero_coeffs(self):
        # the invariant (A, A)_2 has order 0; canonicalisation prunes its pair
        A = BinaryForm.from_coeffs([1, 0, 1])
        inv = transvect(A, A, 2)
        assert inv.form.pairs == ()
        assert inv.to_coeffs() == [2]
        assert inv.to_json_dict()["coeffs"] == ["2"]

    @pytest.mark.parametrize("data,field", [
        ({}, "coeffs"),
        ({"coeffs": ["1", "2"]}, "order"),
        ({"coeffs": "1 2", "order": 1}, "coeffs"),
        ({"coeffs": ["1", "2"], "order": "1"}, "order"),
        ({"coeffs": ["1", "2"], "order": 1, "pair": 7}, "pair"),
        ({"coeffs": [[1], "2"], "order": 1}, "coeffs"),
        ({"coeffs": ["1/0", "2"], "order": 1}, "coeffs"),
    ])
    def test_json_missing_or_ill_typed_field(self, data, field):
        with pytest.raises(ValueError, match=repr(field)):
            BinaryForm.from_json_dict(data)

    def test_json_not_an_object(self):
        with pytest.raises(ValueError, match="not a JSON object"):
            BinaryForm.from_json_dict(["1", "2"])

    def test_unknown_pair_is_refused_for_the_zero_form_too(self):
        # a zero form skipped every pair check and came out in pair "k"
        for build in (lambda: BinaryForm("k", 3, MultiForm.zero()),
                      lambda: BinaryForm.from_coeffs([0, 0], pair="k"),
                      lambda: BinaryForm.from_coeffs([1, 0], pair="k"),
                      lambda: BinaryForm.from_json_dict({"pair": "k", "coeffs": ["0", "0"], "order": 1})):
            with pytest.raises(ValueError, match="unknown pair 'k'"):
                build()
        assert BinaryForm("y", 3, MultiForm.zero()).is_zero()


class TestTransvect:
    def test_pinned_value(self):
        # (x1^2, x2^2)_2 = f * 2!*2! * (Omega picks up the cross term) = 1
        A = BinaryForm.from_coeffs([1, 0, 0])
        B = BinaryForm.from_coeffs([0, 0, 1])
        assert transvect(A, B, 2).form == MultiForm.constant(1)

    def test_zeroth_is_product(self):
        rng = seeding.stream(3, "t0")
        A, B = _rand(3, rng), _rand(4, rng)
        assert transvect(A, B, 0).form == mul(A.form, B.form)

    def test_index_out_of_range(self):
        A = BinaryForm.from_coeffs([1, 2])
        with pytest.raises(ValueError, match="transvectant index out of range"):
            transvect(A, A, 2)

    @pytest.mark.parametrize("r", (-1, 3))
    @pytest.mark.parametrize("route", (transvect, transvect_derivative))
    def test_index_out_of_range_with_a_zero_form(self, route, r):
        # the zero-form shortcut comes after the index check
        Z, B = BinaryForm.from_coeffs([0, 0, 0]), BinaryForm.from_coeffs([1, 0, 1])
        for A, C in ((Z, B), (B, Z)):
            with pytest.raises(ValueError, match="transvectant index out of range"):
                route(A, C, r)

    def test_different_pairs_rejected(self):
        A = BinaryForm.from_coeffs([1, 2])
        B = BinaryForm.from_coeffs([1, 2], pair="y")
        with pytest.raises(ValueError, match="different pairs"):
            transvect(A, B, 1)

    # besides small orders, m+n = 2^k - 1 and 2^k for k = 3..6, where the
    # packed exponent fields of transvect reach their width
    @pytest.mark.parametrize("m,n", [(3, 2), (4, 4), (5, 3), (4, 3), (8, 7), (8, 8), (16, 15),
                                     (16, 16), (32, 31), (32, 32), (63, 1)])
    def test_derivative_route_agrees(self, m, n):
        rng = seeding.stream(7, "routes", m, n)
        A, B = _rand(m, rng), _rand(n, rng)
        for r in range(min(m, n) + 1):
            assert transvect(A, B, r) == transvect_derivative(A, B, r)

    @pytest.mark.parametrize("m,n", [(3, 2), (4, 4), (5, 3)])
    def test_sign_rule(self, m, n):
        rng = seeding.stream(11, "sign", m, n)
        A, B = _rand(m, rng), _rand(n, rng)
        for r in range(min(m, n) + 1):
            lhs = transvect(B, A, r).form
            rhs = scale(transvect(A, B, r).form, (-1) ** r)
            assert lhs == rhs

    def test_constant_operand(self):
        A = BinaryForm("x", 0, MultiForm.constant(F(5, 2)))
        B = BinaryForm.from_coeffs([1, 2, 3])
        assert transvect(A, B, 0).form == scale(B.form, F(5, 2))
        assert transvect(B, A, 0).form == scale(B.form, F(5, 2))

    def test_covariance_under_unimodular_substitution(self):
        # (A,B)_r o g = (A o g, B o g)_r for det-1 substitutions
        from binform.polycore import linear_substitute
        rng = seeding.stream(13, "covariance")
        A, B = _rand(4, rng), _rand(3, rng)
        for trial in range(3):
            a, bb, c = rng.randint(-4, 4), rng.randint(-4, 4), rng.randint(-4, 4)
            g = (1 + a * c, bb + a * (1 + bb * c), c, 1 + bb * c)
            assert g[0] * g[3] - g[1] * g[2] == 1
            for r in range(4):
                direct = linear_substitute(transvect(A, B, r).form, "x", g)
                Ag = BinaryForm("x", 4, linear_substitute(A.form, "x", g))
                Bg = BinaryForm("x", 3, linear_substitute(B.form, "x", g))
                assert transvect(Ag, Bg, r).form == direct


class TestFactors:
    def test_h_value(self):
        assert factor_h(1, 1, 1) == F(1, 2)

    def test_f_times_g_is_h(self):
        for m, n in [(2, 2), (5, 3), (4, 1)]:
            for r in range(min(m, n) + 1):
                assert factor_f(m, n, r) * factor_g(m, n, r) == factor_h(m, n, r)

    def test_r_zero_factors_trivial(self):
        assert factor_f(4, 2, 0) == F(1)
        assert factor_g(4, 2, 0) == F(1)


class TestProjectionSection:
    @pytest.mark.parametrize("m,n", [(1, 1), (2, 2), (3, 2), (4, 3), (6, 6)])
    def test_pi_iota_identity_and_orthogonality(self, m, n):
        rng = seeding.stream(17, "pi-iota", m, n)
        for r in range(min(m, n) + 1):
            w = m + n - 2 * r
            C = random_binary_form(w, rng)
            lifted = section_iota(C, m, n, r)
            back = project_pi(lifted, m, n, r)
            assert back == C.form
            for s in range(min(m, n) + 1):
                if s != r:
                    assert project_pi(lifted, m, n, s).is_zero()

    def test_section_order_mismatch(self):
        C = BinaryForm.from_coeffs([1, 2, 3])
        with pytest.raises(ValueError, match="section expects a form of order"):
            section_iota(C, 5, 3, 1)

    def test_trace_element(self):
        t = trace_element(1)
        assert t == MultiForm.monomial({"x": (1, 0), "y": (0, 1)}) + scale(
            MultiForm.monomial({"x": (0, 1), "y": (1, 0)}), -1
        )


class TestJacobianExchange:
    def test_random_inputs(self):
        rng = seeding.stream(19, "jac")
        for trial in range(5):
            A, B = _rand(3, rng), _rand(2, rng)
            Q, R = _rand(2, rng), _rand(2, rng)
            assert jacobian_exchange_check(A, B, Q, R)

    def test_degenerate_s_zero(self):
        rng = seeding.stream(23, "jac0")
        A, B = _rand(3, rng), _rand(2, rng)
        c = MultiForm.constant(F(7, 3))
        Q = BinaryForm("x", 0, c)
        assert jacobian_exchange_check(A, B, Q, Q)

    def test_unequal_orders_rejected(self):
        rng = seeding.stream(29, "jacbad")
        A, B = _rand(3, rng), _rand(2, rng)
        with pytest.raises(ValueError, match="equal orders"):
            jacobian_exchange_check(A, B, _rand(2, rng), _rand(3, rng))


# ---------------------------------------------------------------------------
# the Fraction omega route as an oracle for transvect
# ---------------------------------------------------------------------------


def _fraction_omega_route(A, B, r):
    """f(m,n;r) * Omega^r A(t) B(s) with s merged back into t, on Fraction
    MultiForms: the omega route transvect took before its Leibniz kernel.

    It runs on polycore's packed-key kernels, which transvect does not call,
    so it shares no kernel with transvect; transvect_derivative is a third
    route, multiplying derivatives term by term."""
    if A.is_zero() or B.is_zero():
        return MultiForm.zero()
    m, n, t = A.order, B.order, A.pair
    s = "y" if t != "y" else "x"
    Bs = substitute_pair(B.form, t, s) if t in B.form.pairs else B.form
    G = omega_power(mul(A.form, Bs), t, s, r)
    if s in G.pairs:
        G = substitute_pair(G, s, t)
    return scale(G, F(factorial(m - r) * factorial(n - r), factorial(m) * factorial(n)))


_coeffs = st.one_of(st.just(0), st.integers(-10**6, 10**6),
                    st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6))


@st.composite
def _transvectant_cases(draw):
    pair = draw(st.sampled_from(("x", "y", "z")))
    m, n = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    A = BinaryForm.from_coeffs(draw(st.lists(_coeffs, min_size=m + 1, max_size=m + 1)), pair)
    B = BinaryForm.from_coeffs(draw(st.lists(_coeffs, min_size=n + 1, max_size=n + 1)), pair)
    r = draw(st.one_of(st.just(0), st.just(min(m, n)), st.integers(0, min(m, n))))
    return A, B, r


def _case(pair, a, b, r):
    return (BinaryForm.from_coeffs(a, pair), BinaryForm.from_coeffs(b, pair), r)


@settings(max_examples=200, deadline=None)
@given(_transvectant_cases())
@example(_case("y", [F(1, 999983), 0, F(-7, 10**6)], [3, F(5, 999999)], 1))
@example(_case("x", [0, 0, 0], [1, 2, 3], 2))
@example(_case("z", [F(5, 2)], [1, F(-1, 3), 2], 0))
@example(_case("x", [1, F(1, 2), F(1, 3), F(1, 4)], [F(2, 3), 0, F(-1, 7), 9], 3))
def test_transvect_matches_the_fraction_route_and_the_derivative_route(case):
    A, B, r = case
    got = transvect(A, B, r)
    assert got.pair == A.pair
    assert got.form == _fraction_omega_route(A, B, r)
    assert got == transvect_derivative(A, B, r)


# m or n = 0, r = 0 and r = min(m, n), where the kernel's derivative lists
# have one entry or the convolution has one term
@pytest.mark.parametrize("m,n", [(0, 0), (0, 4), (5, 0), (1, 1), (1, 6), (4, 4), (6, 3)])
def test_kernel_matches_the_fraction_route_at_the_edges(m, n):
    rng = seeding.stream(19, "kernel-edges", m, n)
    A, B = _rand(m, rng), _rand(n, rng)
    for r in sorted({0, min(m, n)}):
        c, t = _transvect_ints(*_int_coeffs(A), *_int_coeffs(B), m, n, r)
        assert len(t) == m + n - 2 * r + 1
        assert gcd(*t) in (0, 1)  # the kernel returns a primitive part
        N = len(t) - 1
        got = MultiForm._make(("x",), {(N - k, k): c * v for k, v in enumerate(t)})
        assert got == _fraction_omega_route(A, B, r), r


def test_kernel_on_a_zero_content():
    A = BinaryForm.from_coeffs([1, 2, 3])
    assert _transvect_ints(0, [0, 0, 0], *_int_coeffs(A), 2, 2, 1) == (0, [])


# ---------------------------------------------------------------------------
# MultiForm-operation routes as oracles for project_pi and section_iota
# ---------------------------------------------------------------------------


def _pi_by_operations(F_, m, n, r):
    """f(m,n;r) * Omega^r F with y merged into x, by MultiForm operations:
    omega_power, then substitute_pair, then scale."""
    if F_.is_zero():
        return MultiForm.zero()
    G = omega_power(F_, "x", "y", r)
    if "y" in G.pairs:
        G = substitute_pair(G, "y", "x")
    return scale(G, factor_f(m, n, r))


def _iota_by_operations(form, m, n, r):
    """g(m,n;r)/(m+n-2r)! (xy)^r times the split polarization of a form in
    x, z or a constant, by MultiForm operations: substitute_pair, polarize
    twice, scale, then mul(bracket_power)."""
    if form.is_zero():
        return MultiForm.zero()
    if "x" in form.pairs:
        form = substitute_pair(form, "x", "z")
    out = polarize(form, "z", "x", m - r)
    out = polarize(out, "z", "y", n - r)
    out = scale(out, factor_g(m, n, r) / factorial(m + n - 2 * r))
    return mul(out, bracket_power("x", "y", r))


@st.composite
def _weights(draw):
    m, n = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    return m, n, draw(st.one_of(st.just(0), st.just(min(m, n)), st.integers(0, min(m, n))))


@st.composite
def _pi_inputs(draw):
    """A form of orders (m, n) in (x, y) and k in an extra pair p, k = 0
    leaving p out."""
    m, n, r = draw(_weights())
    k = draw(st.integers(0, 3))
    monomials = draw(st.lists(st.tuples(st.integers(0, m), st.integers(0, n),
                                        st.integers(0, k), _coeffs), max_size=8))
    F_ = reduce(add, (MultiForm.monomial({"x": (m - i, i), "y": (n - j, j), "p": (k - l, l)}, c)
                      for i, j, l, c in monomials), MultiForm.zero())
    return F_, m, n, r


@settings(max_examples=200, deadline=None)
@given(_pi_inputs())
def test_project_pi_matches_the_operation_route(case):
    F_, m, n, r = case
    assert project_pi(F_, m, n, r) == _pi_by_operations(F_, m, n, r)


@settings(max_examples=200, deadline=None)
@given(_weights(), st.sampled_from(("x", "z")), st.booleans(),
       st.lists(_coeffs, min_size=13, max_size=13))
def test_section_iota_matches_the_operation_route(weights, pair, as_binary_form, coeffs):
    # an order-0 input is a constant: canonicalisation prunes its pair
    m, n, r = weights
    C = BinaryForm.from_coeffs(coeffs[:m + n - 2 * r + 1], pair)
    got = section_iota(C if as_binary_form else C.form, m, n, r)
    assert got == _iota_by_operations(C.form, m, n, r)


@pytest.mark.parametrize("form,m,n,r", [
    (MultiForm.monomial({"y": (1, 1)}), 2, 2, 1),
    (MultiForm.monomial({"x": (1, 0), "z": (1, 0)}), 2, 2, 1),
    (MultiForm.constant(3), 2, 2, 1),
    (MultiForm.monomial({"z": (2, 1)}), 2, 2, 1),
    (MultiForm({"x": None}, {(1, 0): 1, (2, 0): 1}), 2, 2, 1),
])
def test_section_rejects_a_form_of_the_wrong_pair_or_order(form, m, n, r):
    with pytest.raises(ValueError, match=r"^order mismatch: section expects a form of order 2$"):
        section_iota(form, m, n, r)


def test_transvect_pinned_over_a_seeded_grid():
    # sha256 of repr(form) for every (A, B)_r with orders 0..8 in pairs x, y
    # and z, computed before transvect split off contents
    h = hashlib.sha256()
    for pair in ("x", "y", "z"):
        for m in range(9):
            for n in range(9):
                rng = seeding.stream(5, "pin", pair, m, n)
                A, B = _rand(m, rng, pair), _rand(n, rng, pair)
                for r in range(min(m, n) + 1):
                    h.update(repr(transvect(A, B, r).form).encode())
    assert h.hexdigest() == "1b8293fd422108272351014ebb0d5c3508f9cfb07a468238632444c3c6e9695a"
