import random
from fractions import Fraction as F
from itertools import product
from math import comb, gcd, perm, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from binform import polycore, wigner
from binform.polycore import (
    MultiForm,
    _primitive,
    add,
    bracket_power,
    evaluate,
    exact_divide,
    linear_substitute,
    mul,
    negate,
    omega_power,
    polarize,
    scale,
    substitute_pair,
)
from binform.wigner import NineJArray, ninej_operator


def mono(exps, c=1):
    return MultiForm.monomial(exps, c)


def pair_power(pair, linear, e):
    """(a*x1 + b*x2)^e as a MultiForm."""
    out = MultiForm.constant(1)
    base = mono({pair: (1, 0)}, linear[0]) + mono({pair: (0, 1)}, linear[1])
    for _ in range(e):
        out = mul(out, base)
    return out


# -- pinned examples --------------------------------------------------------


def test_omega_on_x1y2():
    f = mono({"x": (1, 0), "y": (0, 1)})
    assert omega_power(f, "x", "y", 1) == MultiForm.constant(1)


def test_polarize_x1x2_twice():
    g = mono({"x": (1, 1)})
    assert polarize(g, "x", "y", 2) == mono({"y": (1, 1)}, 2)


def test_exact_divide_difference_of_squares():
    num = mono({"x": (2, 0)}) - mono({"x": (0, 2)})
    den = mono({"x": (1, 0)}) - mono({"x": (0, 1)})
    assert exact_divide(num, den) == mono({"x": (1, 0)}) + mono({"x": (0, 1)})


def test_evaluate_example():
    f = mono({"x": (1, 0), "y": (0, 1)})
    assert evaluate(f, {"x": (2, 3), "y": (5, 7)}) == 14


def test_omega_of_bracket_is_two():
    # the r=1, m=n=1 instance: omega[(xy)] = 2, matching a unit factor of 1/2
    assert omega_power(bracket_power("x", "y", 1), "x", "y", 1) == MultiForm.constant(2)


def test_omega_power_on_bracket_power():
    # Omega^r (xy)^r is the constant (r+1)! r! / 1 step by step; check r=3 value
    f = bracket_power("x", "y", 3)
    out = omega_power(f, "x", "y", 3)
    assert out == MultiForm.constant(144)  # 4!*3!/1! = 144


# -- error contracts --------------------------------------------------------


def test_unknown_pair_rejected():
    with pytest.raises(ValueError, match="unknown pair"):
        MultiForm.monomial({"t": (1, 0)})


def test_inactive_pair_errors():
    f = mono({"x": (2, 0)})
    with pytest.raises(ValueError, match="inactive pair"):
        omega_power(f, "x", "y", 1)
    with pytest.raises(ValueError, match="inactive pair"):
        polarize(f, "y", "z", 1)
    with pytest.raises(ValueError, match="inactive pair"):
        substitute_pair(f, "y", "x")


def test_coefficient_at_pruned_pair():
    # order-0 pairs are pruned, so (0, 0) in an inactive pair is the constant term
    c = MultiForm.constant(5)
    assert c.coefficient({"x": (0, 0)}) == 5
    assert mono({"x": (2, 0)}).coefficient({"x": (2, 0), "y": (0, 0)}) == 1
    with pytest.raises(ValueError, match="inactive pair"):
        c.coefficient({"x": (1, 0)})
    with pytest.raises(ValueError, match="unknown pair"):
        c.coefficient({"t": (0, 0)})


def test_degenerate_bracket():
    with pytest.raises(ValueError, match="degenerate bracket"):
        bracket_power("x", "x", 1)


def test_inexact_division():
    f = mono({"x": (2, 0)}) + mono({"x": (0, 2)})
    g = mono({"x": (1, 0)}) - mono({"x": (0, 1)})
    with pytest.raises(ValueError, match="inexact division"):
        exact_divide(f, g)


def test_order_mismatch_rejected():
    with pytest.raises(ValueError, match="order mismatch"):
        MultiForm({"x": 2}, {(1, 0): 1})


def test_missing_assignment():
    f = mono({"x": (1, 0)})
    with pytest.raises(ValueError, match="missing assignment"):
        evaluate(f, {})


# -- structural behavior ----------------------------------------------------


def test_zero_coefficients_purged():
    f = MultiForm({"x": 1}, {(1, 0): 1, (0, 1): 0})
    assert list(f.terms.values()) == [F(1)]


def test_add_zero_preserves_orders():
    f = mono({"x": (2, 1)})
    assert add(f, MultiForm.zero()) == f
    assert add(MultiForm.zero(), f) == f


def test_polarize_past_order_gives_zero_form():
    f = mono({"x": (1, 1)})
    assert polarize(f, "x", "y", 3).is_zero()


def test_inhomogeneous_tag_is_transient():
    f = mono({"x": (1, 0)})
    s = add(f, MultiForm.constant(5))
    assert s.orders["x"] is None
    back = add(s, MultiForm.constant(-5))
    assert back == f and back.orders["x"] == 1


def test_substitute_pair_merges_exponents():
    f = mono({"x": (1, 0), "y": (0, 1)}, 3)
    assert substitute_pair(f, "y", "x") == mono({"x": (1, 1)}, 3)


def test_linear_substitute_expands():
    f = mono({"x": (2, 0)})
    g = linear_substitute(f, "x", (1, 1, 0, 1))  # x1 -> x1 + x2
    assert g == mono({"x": (2, 0)}) + mono({"x": (1, 1)}, 2) + mono({"x": (0, 2)})


def test_polarization_of_linear_powers():
    # (y d/dx)^l (c.x)^m = m!/(m-l)! (c.x)^(m-l) (c.y)^l for l <= m <= 6
    c = (2, -3)
    for m in range(7):
        fx = pair_power("x", c, m)
        for ell in range(m + 1):
            expected = scale(mul(pair_power("x", c, m - ell), pair_power("y", c, ell)), perm(m, ell))
            assert polarize(fx, "x", "y", ell) == expected, (m, ell)


# -- packed-key field boundaries ---------------------------------------------
#
# The kernels pack exponents into fields whose width is the bit length of
# the largest exponent an operation can produce; each case below makes some
# exponent 2^k - 1 or 2^k.  The oracles share no kernel: the inputs are
# expanded by the binomial theorem, and the outputs are compared by
# `evaluate` with closed forms on linear powers.

C, D = (2, -3), (1, 4)
PT = {"x": (3, 1), "y": (-1, 2)}


def _dot(c, pair):
    return c[0] * PT[pair][0] + c[1] * PT[pair][1]


def linear_powers(**powers):
    """prod over pairs p of (c1*p1 + c2*p2)^e, for powers p=(c, e)."""
    pairs = sorted(powers)
    expansions = []
    for name in pairs:
        (c1, c2), e = powers[name]
        expansions.append([((e - k, k), comb(e, k) * c1 ** (e - k) * c2 ** k) for k in range(e + 1)])
    terms = {sum((key for key, _ in picks), ()): prod(c for _, c in picks)
             for picks in product(*expansions)}
    return MultiForm({name: powers[name][1] for name in pairs}, terms)


@pytest.mark.parametrize("e", (7, 8, 15, 16, 31, 32, 63, 64))
def test_kernels_at_field_boundaries(e):
    h = e // 2
    f, g = linear_powers(x=(C, h), y=(D, 1)), linear_powers(x=(D, e - h), y=(C, 2))
    assert evaluate(mul(f, g), PT) == evaluate(f, PT) * evaluate(g, PT)
    # (y d/dx)^l (c.x)^a (c.y)^b = a!/(a-l)! (c.x)^(a-l) (c.y)^(b+l), with b+l = e
    f = linear_powers(x=(C, h), y=(C, e - h))
    assert evaluate(polarize(f, "x", "y", h), PT) == perm(h, h) * _dot(C, "y") ** e
    f = linear_powers(x=(C, e))
    assert evaluate(polarize(f, "x", "y", h), PT) == \
        perm(e, h) * _dot(C, "x") ** (e - h) * _dot(C, "y") ** h
    # Omega^r (c.x)^a (d.y)^b = a!/(a-r)! b!/(b-r)! [c d]^r (c.x)^(a-r) (d.y)^(b-r)
    f = linear_powers(x=(C, e), y=(D, h))
    cd = C[0] * D[1] - C[1] * D[0]
    assert evaluate(omega_power(f, "x", "y", h), PT) == \
        perm(e, h) * perm(h, h) * cd ** h * _dot(C, "x") ** (e - h)
    # merging y into x puts exponents of sum e in the x fields
    f = linear_powers(x=(C, h), y=(D, e - h))
    assert evaluate(substitute_pair(f, "y", "x"), {"x": PT["x"]}) == \
        _dot(C, "x") ** h * _dot(D, "x") ** (e - h)
    (x1, x2), (y1, y2) = PT["x"], PT["y"]
    assert evaluate(bracket_power("x", "y", e), PT) == (x1 * y2 - x2 * y1) ** e


# -- property tests ---------------------------------------------------------


@st.composite
def homogeneous_forms(draw, pairs=("x", "y"), max_order=3):
    orders = {}
    for p in pairs:
        orders[p] = draw(st.integers(min_value=0, max_value=max_order))
    keys = [()]
    for p in pairs:
        m = orders[p]
        keys = [k + (e, m - e) for k in keys for e in range(m + 1)]
    coeffs = draw(
        st.lists(
            st.fractions(min_value=-4, max_value=4, max_denominator=4),
            min_size=len(keys),
            max_size=len(keys),
        )
    )
    return MultiForm(orders, dict(zip(keys, coeffs)))


@settings(max_examples=60, deadline=None)
@given(homogeneous_forms(), homogeneous_forms())
def test_degree_bookkeeping_under_mul(f, g):
    h = mul(f, g)
    if f.is_zero() or g.is_zero():
        assert h.is_zero()
    else:
        for p in ("x", "y"):
            assert h.order(p) == f.order(p) + g.order(p)


@settings(max_examples=60, deadline=None)
@given(homogeneous_forms(), homogeneous_forms())
def test_evaluate_is_a_homomorphism(f, g):
    pt = {"x": (F(2), F(-3)), "y": (F(1, 2), F(5))}
    assert evaluate(add(f, g), pt) == evaluate(f, pt) + evaluate(g, pt)
    assert evaluate(mul(f, g), pt) == evaluate(f, pt) * evaluate(g, pt)


@settings(max_examples=60, deadline=None)
@given(homogeneous_forms(), homogeneous_forms())
def test_exact_divide_recovers_factor(f, g):
    if g.is_zero():
        return
    assert exact_divide(mul(f, g), g) == f


@settings(max_examples=60, deadline=None)
@given(homogeneous_forms(max_order=4))
def test_omega_antisymmetry(f):
    if f.order("x") is None or f.order("y") is None:
        return
    if f.order("x") < 1 or f.order("y") < 1:
        return
    assert omega_power(f, "x", "y", 1) == negate(omega_power(f, "y", "x", 1))


@settings(max_examples=60, deadline=None)
@given(homogeneous_forms(max_order=4), st.integers(min_value=0, max_value=3))
def test_omega_lowers_orders(f, r):
    if f.is_zero() or f.order("x") < max(r, 1) or f.order("y") < max(r, 1):
        return
    out = omega_power(f, "x", "y", r)
    if not out.is_zero():
        assert out.order("x") == f.order("x") - r
        assert out.order("y") == f.order("y") - r


def _falling(n, k):
    """(n)_k = n (n-1) ... (n-k+1), 0 when k > n >= 0."""
    return prod(range(n - k + 1, n + 1))


_exponents = st.integers(min_value=0, max_value=10)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=8), _exponents, _exponents, _exponents, _exponents)
@example(3, 1, 0, 5, 5)  # k >= 2 for a1, k <= 0 for a2: no term
@example(4, 2, 1, 1, 2)  # 2 <= k <= 1: no term
@example(0, 0, 0, 0, 0)
@example(8, 10, 10, 10, 10)
def test_omega_terms_match_the_closed_product(r, ea1, ea2, eb1, eb2):
    # c_k = (-1)^k C(r,k) (ea1)_(r-k) (ea2)_k (eb1)_k (eb2)_(r-k), listed
    # where it is nonzero
    want = [(k, (-1) ** k * comb(r, k) * _falling(ea1, r - k) * _falling(ea2, k)
             * _falling(eb1, k) * _falling(eb2, r - k)) for k in range(r + 1)]
    assert polycore._omega_terms(r, ea1, ea2, eb1, eb2) == [(k, c) for k, c in want if c]


def test_omega_terms_empty_ranges():
    assert polycore._omega_terms(3, 1, 0, 5, 5) == []
    assert polycore._omega_terms(4, 2, 1, 1, 2) == []
    assert polycore._omega_terms(2, 1, 0, 0, 1) == []


def _orders_of_terms(f):
    """The orders a form's terms give: each pair's exponent sum, or None."""
    out = {}
    for i, name in enumerate(f.pairs):
        sums = {key[2 * i] + key[2 * i + 1] for key in f.terms}
        out[name] = sums.pop() if len(sums) == 1 else None
    return out


# homogeneous forms and sums of two, which are inhomogeneous when the
# summands' orders differ
any_forms = st.one_of(homogeneous_forms(), st.builds(add, homogeneous_forms(), homogeneous_forms()))


@settings(max_examples=80, deadline=None)
@given(any_forms, any_forms, st.integers(min_value=0, max_value=3),
       st.fractions(min_value=-3, max_value=3, max_denominator=3))
def test_orders_are_read_off_the_terms(f, g, k, c):
    results = [add(f, g), mul(f, g), scale(f, c)]
    if g:
        results.append(exact_divide(mul(f, g), g))
    if "x" in f.pairs and "y" in f.pairs:
        results.append(omega_power(f, "x", "y", k))
    if "x" in f.pairs:
        results += [polarize(f, "x", "y", k), polarize(f, "x", "z", k),
                    substitute_pair(f, "x", "y"), substitute_pair(f, "x", "z"),
                    linear_substitute(f, "x", (1, c, 2, -1))]
    for h in results:
        assert h.orders == _orders_of_terms(h)
        assert 0 not in h.orders.values()
        assert MultiForm(h.orders, h.terms) == h


def test_declared_order_checked_against_terms():
    with pytest.raises(ValueError, match="order mismatch"):
        MultiForm({"x": 1}, {(1, 0): 1, (2, 0): 1})
    with pytest.raises(ValueError, match="order mismatch"):
        MultiForm({"x": 0, "y": 1}, {(1, 0, 1, 0): 1})
    assert MultiForm({"x": 3}, {}).is_zero()


_nonzero_rationals = st.one_of(
    st.integers(min_value=-10**6, max_value=10**6),
    st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6),
).filter(bool)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(st.just(0), _nonzero_rationals), max_size=8))
def test_primitive_splits_content_and_primitive_part(values):
    content, ints = _primitive(values)
    assert all(type(v) is int for v in ints)
    assert [content * v for v in ints] == values
    if not any(values):
        assert (content, ints) == (0, [0] * len(values))
        return
    assert content > 0
    assert gcd(*ints) == 1


def test_primitive_of_empty_and_zero_values():
    assert _primitive([]) == (0, [])
    assert _primitive([0, F(0)]) == (0, [0, 0])
    assert _primitive([F(-6, 35), 0, F(4, 21)]) == (F(2, 105), [-9, 0, 10])
    assert _primitive([-4, 6, 0]) == (2, [-2, 3, 0])


# -- the one-pass split and merge steps --------------------------------------
#
# The three-pass compositions of the raw kernels that the steps replaced are
# the oracle: a split polarizes twice and multiplies by the bracket power, a
# merge applies the omega power and substitutes both pairs into dst.


def _split_three_pass(t, w, src, a, b, ja, jb, j):
    t = polycore._raw_polarize(t, w, src, a, (ja + j - jb) // 2)
    t = polycore._raw_polarize(t, w, src, b, (jb + j - ja) // 2)
    r = (ja + jb - j) // 2
    return polycore._raw_mul(t, polycore._raw_bracket_power(w, a, b, r)) if r else t


def _merge_three_pass(t, w, a, b, dst, ja, jb, jab):
    t = polycore._raw_omega_power(t, w, a, b, (ja + jb - jab) // 2)
    return polycore._raw_substitute(polycore._raw_substitute(t, w, a, dst), w, b, dst)


_STEP_PAIRS = ("p", "u", "x", "y")
_STEP_WIDTH = 5  # holds every exponent a step below can make: 3 + 4 + 4 < 32


@st.composite
def step_terms(draw):
    """Terms over _STEP_PAIRS with exponents up to 3, not homogeneous in any
    pair, with int or Fraction coefficients: a list of (exps, c)."""
    coeff = draw(st.sampled_from((st.integers(-50, 50), st.fractions(-50, 50, max_denominator=12))))
    exps = st.tuples(*[st.integers(0, 3)] * (2 * len(_STEP_PAIRS)))
    return draw(st.lists(st.tuples(exps, coeff.filter(bool)), min_size=1, max_size=6))


def _packed(terms, w):
    out = {}
    for exps, c in terms:
        key = polycore._key(w, **{name: exps[2 * i: 2 * i + 2] for i, name in enumerate(_STEP_PAIRS)})
        out[key] = out.get(key, 0) + c
    return {k: c for k, c in out.items() if c}


_triads = st.tuples(*[st.integers(0, 4)] * 3).filter(
    lambda t: sum(t) % 2 == 0 and max(t) <= sum(t) - max(t))


@settings(max_examples=200, deadline=None)
@given(step_terms(), st.permutations(_STEP_PAIRS), _triads, st.integers(0, 2))
def test_steps_equal_the_three_pass_compositions(terms, roles, orders, dst_role):
    one, two, three = roles[:3]
    ja, jb, j = orders
    # the other width runs first, so the memos are warm from it
    for w in (_STEP_WIDTH + 1, _STEP_WIDTH):
        t = _packed(terms, w)
        assert polycore._split(t, w, one, two, three, ja, jb, j) == \
            _split_three_pass(t, w, one, two, three, ja, jb, j)
        dst = (one, two, three)[dst_role]  # a, b or a third pair
        assert polycore._merge(t, w, one, two, dst, ja, jb, j) == \
            _merge_three_pass(t, w, one, two, dst, ja, jb, j)


def _stored_slots():
    return sum(len(image) or 1 for _, _, images in polycore._step_images.values()
               for image in images.values())


def test_step_memos_stay_within_their_bound(monkeypatch):
    monkeypatch.setattr(polycore, "_MAX_MEMO_TERMS", 40)
    monkeypatch.setattr(polycore, "_step_images", polycore._Images())
    rng = random.Random(5)
    stored = []
    for _ in range(300):
        terms = [(tuple(rng.randint(0, 3) for _ in range(8)), rng.randint(-9, 9) or 1)
                 for _ in range(4)]
        ja, jb, j = rng.choice([(1, 1, 2), (2, 2, 2), (3, 2, 1), (4, 3, 3), (4, 4, 4)])
        t = _packed(terms, _STEP_WIDTH)
        assert polycore._split(t, _STEP_WIDTH, "x", "y", "p", ja, jb, j) == \
            _split_three_pass(t, _STEP_WIDTH, "x", "y", "p", ja, jb, j)
        assert polycore._merge(t, _STEP_WIDTH, "x", "y", "u", ja, jb, j) == \
            _merge_three_pass(t, _STEP_WIDTH, "x", "y", "u", ja, jb, j)
        assert polycore._step_images.slots == _stored_slots() <= 40
        stored.append(_stored_slots())
    assert any(b < a for a, b in zip(stored, stored[1:]))  # the bound evicted


def test_zero_weight_merges_take_memo_slots(monkeypatch):
    # omega sends x1^k y1^m to 0: an empty image, which must still count
    monkeypatch.setattr(polycore, "_MAX_MEMO_TERMS", 16)
    monkeypatch.setattr(polycore, "_step_images", polycore._Images())
    groups = set()
    for w in range(_STEP_WIDTH, _STEP_WIDTH + 4):
        t = {polycore._key(w, x=(k, 0), y=(m, 0)): k + m + 1 for k in range(8) for m in range(8)}
        for dst in ("x", "y", "u", "p"):
            # one step with 64 misses evicts its own group as it runs
            assert polycore._merge(t, w, "x", "y", dst, 3, 2, 3) == {}
            assert _merge_three_pass(t, w, "x", "y", dst, 3, 2, 3) == {}
            assert polycore._step_images.slots == _stored_slots() <= 16
            groups.update(polycore._step_images)
    assert len(groups) == 16 > len(polycore._step_images)


def test_a_fault_under_fresh_memos_does_not_outlive_them(monkeypatch):
    arr = NineJArray([[1, "1/2", "3/2"], ["1/2", 1, "3/2"], ["3/2", "3/2", 2]])
    true = ninej_operator(arr)
    assert (true.coeff, true.radicand) == (F(1, 48), 1)
    polarize_ = polycore._raw_polarize
    with monkeypatch.context() as patch:
        patch.setattr(polycore, "_step_images", polycore._Images())
        patch.setattr(polycore, "_raw_polarize",
                      lambda t, *args: {k: 2 * c for k, c in polarize_(t, *args).items()})
        assert ninej_operator(arr) != true
    assert ninej_operator(arr) == true


# -- the whole 9-j chain against the three-pass steps -------------------------


def _small_ninej_arrays():
    """Every valid 9-j array with twice-entries at most 3."""
    triads = [t for t in product(range(4), repeat=3)
              if sum(t) % 2 == 0 and max(t) <= sum(t) - max(t)]
    valid = set(triads)
    return [rows for rows in product(triads, repeat=3) if all(col in valid for col in zip(*rows))]


def _chain(tw, w, split, merge):
    """wigner._ninej_chain's steps on tw at field width w, through the given
    split and merge."""
    (j1, j2, j12), (j3, j4, j34), (j13, j24, J) = tw
    t = split({polycore._key(w, z=(J, 0)): 1}, w, "z", "x", "y", j13, j24, J)
    t = split(t, w, "x", "p", "q", j1, j3, j13)
    t = split(t, w, "y", "u", "v", j2, j4, j24)
    t = merge(t, w, "p", "u", "x", j1, j2, j12)
    t = merge(t, w, "q", "v", "y", j3, j4, j34)
    t = merge(t, w, "x", "y", "z", j12, j34, J)
    c = t.pop(polycore._key(w, z=(J, 0)), 0)
    assert not t
    return c


@pytest.mark.parametrize("warm", (False, True))
def test_ninej_chain_equals_the_three_pass_chain(monkeypatch, warm):
    monkeypatch.setattr(polycore, "_step_images", polycore._Images())
    arrays = _small_ninej_arrays()
    assert len(arrays) == 1616
    if warm:  # fill the memo at width 3; the arrays' own widths are 1 and 2
        for tw in arrays:
            assert _chain(tw, 3, polycore._split, polycore._merge) == \
                _chain(tw, 3, _split_three_pass, _merge_three_pass), tw
    for tw in arrays:
        w = polycore._width(*sum(tw, ()))
        assert wigner._ninej_chain(tw) == _chain(tw, w, _split_three_pass, _merge_three_pass), tw
