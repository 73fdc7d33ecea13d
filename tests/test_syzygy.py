"""Syzygy coefficient tables: both computation routes plus verification."""

import hashlib
from fractions import Fraction as F
from math import comb, factorial

import pytest

from binform import seeding, syzygy
from binform.polycore import MultiForm, add, scale
from binform.syzygy import (
    SyzygyTable,
    closed_form_table,
    kappa,
    kappa_oracle,
    minimal_equation_u1_check,
    pi_set,
    reconstruct,
    segre22_identity_check,
    u2_u3_formulas,
    vartheta_table,
    verify_table,
)
from binform.syzygy import _check_admissible, _sample_pair
from binform.transvectant import BinaryForm, random_binary_form, transvect, transvect_derivative

GRIDS = [(5, 3, 2), (5, 3, 3), (7, 5, 4), (8, 6, 5), (6, 6, 4)]


class TestPiSet:
    def test_small_weights(self):
        assert pi_set(5, 3, 2) == [(0, 0)]
        assert pi_set(5, 3, 3) == [(0, 0)]
        assert pi_set(6, 6, 4) == [(0, 0), (0, 1), (1, 0)]

    def test_below_weight_two(self):
        with pytest.raises(ValueError, match="no quadratic syzygies below weight 2"):
            pi_set(5, 3, 1)

    def test_weight_above_min_order(self):
        with pytest.raises(ValueError, match="inadmissible weight"):
            pi_set(5, 3, 4)

    @pytest.mark.parametrize("m,n", [(m, n) for m in range(2, 7) for n in range(2, m + 1)])
    def test_count_matches_wedge_multiplicity(self, m, n):
        # oracle: multiplicity of the order-2(m+n-r) summand in the product
        # of the two alternating-square decompositions
        alpha = [2 * (m - 1) - 4 * a for a in range((m + 1) // 2)]
        beta = [2 * (n - 1) - 4 * b for b in range((n + 1) // 2)]
        for r in range(2, min(m, n) + 1):
            target = 2 * (m + n - r)
            count = sum(
                1
                for x in alpha
                for y in beta
                if abs(x - y) <= target <= x + y and (x + y - target) % 2 == 0
            )
            assert count == len(pi_set(m, n, r)), (m, n, r)


def kappa_support(m, n, r, i, j, p):
    """The index triples (x, y, z) the triple sum for kappa ranges over:
    the enumerator of _kappa_per_term, kept apart from the package's box
    evaluation."""
    a, b = p
    _check_admissible(m, n, r, i, j, a, b)
    pts = []
    for x in range(0, min(n - 2 * b - 1, n - j) + 1):
        ylo = max(0, n - r + 2 * a + 1 - x)
        yhi = min(2 * a + 1, 2 * n - r + 2 * a - 2 * b)
        for y in range(ylo, yhi + 1):
            zlo = max(0, r - m - i - x)
            zhi = min(n - i, r - i - j, n - i + 2 * a + 1 - y)
            for z in range(zlo, zhi + 1):
                pts.append((x, y, z))
    return pts


def _kappa_per_term(m, n, r, i, j, p):
    """kappa by its triple sum with one Fraction per support point: the
    route kappa took before it summed ints over one common denominator."""
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
    total = F(0)
    for x, y, z in kappa_support(m, n, r, i, j, p):
        t1 = (
            f(n - x) * f(m - j + x) * f(n - 2 * b - 1 + x)
            * f(m - 2 * a - 1 + y) * f(r - 2 * a - 2 * b - 2 + y)
            * f(m + n - 2 * i - z) * f(m + n - r + i - j + z)
            * f(n - i + 2 * a + 1 - y - z)
        )
        t2 = (
            f(x) * f(y) * f(z) * f(n - j - x) * f(n - 2 * b - 1 - x)
            * f(2 * a + 1 - y) * f(2 * m - 4 * a - 1 + y)
            * f(2 * n - r + 2 * a - 2 * b - y) * f(n - i - z) * f(r - i - j - z)
            * f(m + n - i + 1 - z) * f(m - r + i + x + z)
            * f(-n + r - 2 * a - 1 + x + y)
        )
        term = F(t1, t2)
        total += -term if (x + y + z) % 2 else term
    if (n - j) % 2:
        total = -total
    return F(n1, n2) * total


def _kappa_tuples(orders):
    return [(m, n, r, i, j, p) for m in orders for n in orders
            for r in range(2, min(m, n) + 1) for p in pi_set(m, n, r)
            for i in range(r + 1) for j in range(r - i + 1)]


class TestKappa:
    def test_inadmissible(self):
        with pytest.raises(ValueError, match="inadmissible lattice point"):
            kappa(5, 3, 2, 0, 2, (1, 0))
        with pytest.raises(ValueError, match="inadmissible index pair"):
            kappa(5, 3, 2, 2, 1, (0, 0))

    @pytest.mark.parametrize("m,n,r", GRIDS)
    def test_sign_rule(self, m, n, r):
        for p in pi_set(m, n, r):
            for i in range(r + 1):
                for j in range(r - i + 1):
                    assert kappa(m, n, r, j, i, p) == (-1) ** (r - i - j) * kappa(
                        m, n, r, i, j, p
                    )

    @pytest.mark.parametrize("m,n,r", GRIDS)
    def test_oracle_agreement(self, m, n, r):
        for p in pi_set(m, n, r):
            for i in range(r + 1):
                for j in range(r - i + 1):
                    assert kappa(m, n, r, i, j, p) == kappa_oracle(m, n, r, i, j, p)

    @pytest.mark.parametrize("m,n,r", GRIDS)
    def test_single_support_triple_at_top(self, m, n, r):
        assert kappa_support(m, n, r, 0, r, (0, 0)) == [(n - r, 1, 0)]
        assert kappa(m, n, r, 0, r, (0, 0)) != 0

    def test_per_term_oracle_up_to_order_nine(self):
        for t in _kappa_tuples(range(2, 10)):
            assert kappa(*t) == _kappa_per_term(*t), t

    def test_per_term_oracle_on_a_sample_at_order_twelve(self):
        top = [t for t in _kappa_tuples(range(2, 13)) if 12 in t[:2]]
        rng = seeding.stream(17, "kappa-per-term")
        for t in rng.sample(top, 150):
            assert kappa(*t) == _kappa_per_term(*t), t

    def test_nonzero_anchor_coefficient_larger_grid(self):
        for m in range(2, 11):
            for n in range(2, 11):
                for r in range(2, min(m, n) + 1):
                    assert kappa(m, n, r, 0, r, (0, 0)) != 0


class TestVarthetaTable:
    def test_order_five_three_weight_two(self):
        t = vartheta_table(5, 3, 2, (0, 0)).anchored((0, 2), -1)
        assert t.coeffs[(0, 0)] == F(21, 8)
        assert t.coeffs[(0, 1)] == F(21, 16)
        assert t.coeffs[(1, 1)] == F(315, 256)

    def test_order_five_three_weight_three(self):
        t = vartheta_table(5, 3, 3, (0, 0)).anchored((0, 3), -1)
        assert t.coeffs[(0, 1)] == F(20, 3)
        assert t.coeffs[(0, 2)] == F(20, 9)
        assert t.coeffs[(1, 2)] == F(25, 14)
        assert t.coeffs[(0, 0)] == 0
        assert t.coeffs[(1, 1)] == 0

    def test_seven_five_four_nine_terms(self):
        t = vartheta_table(7, 5, 4, (0, 1)).anchored((0, 0), 1)
        expected = {
            (0, 0): F(1),
            (0, 1): F(8, 3),
            (0, 2): F(54, 55),
            (0, 3): F(-1, 6),
            (0, 4): F(-10, 63),
            (1, 1): F(-7, 12),
            (1, 2): F(63, 55),
            (1, 3): F(49, 72),
            (2, 2): F(-1512, 3025),
        }
        assert t.coeffs == expected

    def test_eight_six_five_off_origin_point(self):
        t = vartheta_table(8, 6, 5, (1, 0))
        assert t.coeffs[(0, 5)] == F(-2, 63)

    def test_two_two_two(self):
        t = vartheta_table(2, 2, 2, (0, 0)).anchored((0, 2), -1)
        assert t.coeffs[(0, 0)] == 3
        assert t.coeffs[(1, 1)] == F(3, 2)
        assert t.coeffs[(0, 1)] == 0

    def test_anchor_at_zero_rejected(self):
        t = vartheta_table(5, 3, 3, (0, 0))
        with pytest.raises(ValueError, match="cannot anchor at zero"):
            t.anchored((0, 0), 1)

    def test_tables_over_lattice_linearly_independent(self):
        for m, n, r in [(6, 6, 4), (8, 6, 5), (8, 8, 6)]:
            ps = pi_set(m, n, r)
            keys = sorted(vartheta_table(m, n, r, ps[0]).coeffs)
            rows = [
                [vartheta_table(m, n, r, p).coeffs[k] for k in keys] for p in ps
            ]
            rank = 0
            cols = len(keys)
            for c in range(cols):
                piv = next((k for k in range(rank, len(rows)) if rows[k][c] != 0), None)
                if piv is None:
                    continue
                rows[rank], rows[piv] = rows[piv], rows[rank]
                pv = rows[rank][c]
                for k in range(len(rows)):
                    if k != rank and rows[k][c] != 0:
                        f = rows[k][c] / pv
                        rows[k] = [a - f * b for a, b in zip(rows[k], rows[rank])]
                rank += 1
            assert rank == len(ps), (m, n, r)


class TestClosedFormTable:
    @pytest.mark.parametrize("m,n", [(4, 4), (5, 3), (7, 5)])
    def test_verifies_on_random_forms(self, m, n):
        for r in range(2, min(m, n) + 1):
            assert verify_table(closed_form_table(m, n, r), 3, seed=5).passed

    def test_leading_coefficient_positive_up_to_ten(self):
        for m in range(2, 11):
            for n in range(2, 11):
                for r in range(2, min(m, n) + 1):
                    assert closed_form_table(m, n, r).coeffs[(0, r)] > 0

    def test_coin_counting_inequality(self):
        for m in range(2, 13):
            for n in range(2, 13):
                for r in range(2, min(m, n) + 1):
                    assert comb(m + n - r + 1, r) > comb(m, r) + comb(n, r)


class TestU2U3Formulas:
    def test_five_three(self):
        z, w = u2_u3_formulas(5, 3)
        assert z == (F(21, 8), F(315, 256), F(21, 16))
        assert w == (F(20, 3), F(20, 9), F(25, 14))

    def test_symmetric_orders_kill_z3(self):
        for m in [3, 4, 5, 6]:
            z, w = u2_u3_formulas(m, m)
            assert z[2] == 0
            assert w[1] == 0

    def test_matches_vartheta_route(self):
        for m, n in [(5, 3), (4, 4), (6, 3), (7, 4)]:
            z, w = u2_u3_formulas(m, n)
            t2 = vartheta_table(m, n, 2, (0, 0)).anchored((0, 2), -1)
            assert (t2.coeffs[(0, 0)], t2.coeffs[(1, 1)], t2.coeffs[(0, 1)]) == z
            t3 = vartheta_table(m, n, 3, (0, 0)).anchored((0, 3), -1)
            assert (t3.coeffs[(0, 1)], t3.coeffs[(0, 2)], t3.coeffs[(1, 2)]) == w

    def test_too_small(self):
        with pytest.raises(ValueError, match="order too small for closed formula"):
            u2_u3_formulas(2, 5)


class TestVerifyTable:
    def test_zero_table_rejected(self):
        zt = SyzygyTable(5, 3, 2, (0, 0), {(0, 0): F(0)})
        res = verify_table(zt, 1, seed=1)
        assert not res.passed
        assert res.reason == "zero table"

    def test_perturbed_table_fails(self):
        t = vartheta_table(5, 3, 2, (0, 0))
        cases = [SyzygyTable(5, 3, 2, (0, 0), {**t.coeffs, (0, 1): t.coeffs[(0, 1)] + 1})]
        # at m = n = r u_r has order 0, and the perturbed (u_0, u_r)_0 is a
        # product with a constant
        for m in (3, 4):
            c = closed_form_table(m, m, m)
            bad = SyzygyTable(m, m, m, c.point, {**c.coeffs, (0, m): c.coeffs[(0, m)] + 1})
            cases.append(bad)
        for bad in cases:
            res = verify_table(bad, 3, seed=7)
            assert not res.passed
            assert res.reason == "nonzero residual"
            assert res.residual is not None and not res.residual.is_zero()
            # the residual is the Fraction sum of theta_ij (u_i, u_j)_{r-i-j}
            A, B, _, _ = _sample_pair(bad.m, bad.n, 7, res.failed_trial)
            expected = MultiForm.zero()
            for (i, j), c in bad.coeffs.items():
                u_i, u_j = transvect_derivative(A, B, i), transvect_derivative(A, B, j)
                expected = add(expected,
                               scale(transvect_derivative(u_i, u_j, bad.r - i - j).form, c))
            assert res.residual == expected

    def test_draw_cache_over_its_bound_still_verifies(self, monkeypatch):
        monkeypatch.setattr(syzygy, "_draw_cache", {})
        monkeypatch.setattr(syzygy, "_MAX_DRAWS", 2)
        good = vartheta_table(5, 3, 2, (0, 0))
        assert verify_table(good, 5, seed=11).passed
        assert list(syzygy._draw_cache) == [(5, 3, 11, t) for t in (3, 4)]
        assert verify_table(good, 5, seed=11).passed
        assert verify_table(closed_form_table(4, 4, 3), 3, seed=11).passed
        assert len(syzygy._draw_cache) == 2
        bad = SyzygyTable(5, 3, 2, (0, 0), {**good.coeffs, (0, 0): good.coeffs[(0, 0)] * 2})
        assert verify_table(bad, 5, seed=11).failed_trial == 0

    def test_trials_validated(self):
        with pytest.raises(ValueError, match="trials"):
            verify_table(vartheta_table(5, 3, 2, (0, 0)), 0, seed=1)


class TestReconstruct:
    @pytest.mark.parametrize("m,n", [(5, 3), (2, 2), (4, 4)])
    def test_matches_direct_transvectants(self, m, n):
        rng = seeding.stream(31, "recon", m, n)
        A = random_binary_form(m, rng)
        B = random_binary_form(n, rng)
        got = reconstruct(transvect(A, B, 0), transvect(A, B, 1), m, n)
        for r, ur in enumerate(got, start=2):
            assert ur.form == transvect(A, B, r).form

    def test_proportional_forms_have_zero_u1(self):
        rng = seeding.stream(37, "recon-prop")
        A = random_binary_form(3, rng)
        B = BinaryForm("x", 3, MultiForm.constant(F(2, 5)) * A.form)
        u0 = transvect(A, B, 0)
        u1 = transvect(A, B, 1)
        assert u1.is_zero()
        got = reconstruct(u0, u1, 3, 3)
        for r, ur in enumerate(got, start=2):
            assert ur.form == transvect(A, B, r).form

    def test_non_transvectant_inputs_rejected(self):
        rng = seeding.stream(41, "recon-bad")
        bogus0 = random_binary_form(8, rng)
        bogus1 = random_binary_form(6, rng)
        with pytest.raises(ValueError, match="not transvectants of a common pair"):
            reconstruct(bogus0, bogus1, 5, 3)

    def test_order_mismatch_rejected(self):
        rng = seeding.stream(43, "recon-ord")
        u0 = random_binary_form(8, rng)
        u1 = random_binary_form(5, rng)
        with pytest.raises(ValueError, match="order mismatch"):
            reconstruct(u0, u1, 5, 3)


class TestQuadraticPairIdentities:
    def test_random_quadratics(self):
        rng = seeding.stream(47, "segre")
        for trial in range(5):
            A = random_binary_form(2, rng)
            B = random_binary_form(2, rng)
            rep = segre22_identity_check(A, B)
            assert rep.passed, rep.failed
            assert minimal_equation_u1_check(A, B)

    def test_equal_forms_degenerate_consistently(self):
        rng = seeding.stream(53, "segre-eq")
        A = random_binary_form(2, rng)
        rep = segre22_identity_check(A, A)
        assert rep.passed
        assert minimal_equation_u1_check(A, A)

    def test_split_monomial_pair(self):
        A = BinaryForm.from_coeffs([1, 0, 0])
        B = BinaryForm.from_coeffs([0, 0, 1])
        assert segre22_identity_check(A, B).passed

    def test_cross_pair(self):
        A = BinaryForm.from_coeffs([0, 1, 0])
        B = BinaryForm.from_coeffs([1, 0, 1])
        assert minimal_equation_u1_check(A, B)

    def test_non_quadratic_rejected(self):
        A = BinaryForm.from_coeffs([1, 2])
        with pytest.raises(ValueError, match="quadratic"):
            segre22_identity_check(A, A)


def test_dimension_identity():
    for w1 in range(1, 21):
        for w2 in range(1, 21):
            lhs = comb(w1, 2) * comb(w2, 2) + comb(w1 + 1, 2) * comb(w2 + 1, 2)
            assert lhs == comb(w1 * w2 + 1, 2)


def test_tables_and_reconstruction_pinned():
    # sha256 over every vartheta_table and closed_form_table coefficient
    # dict with 2 <= m, n <= 8, and over reconstruct on one seeded pair per
    # (m, n), computed before kappa, verify_table and reconstruct moved to
    # int sums and the Leibniz transvectant kernel
    h = hashlib.sha256()
    for m in range(2, 9):
        for n in range(2, 9):
            for r in range(2, min(m, n) + 1):
                tables = [vartheta_table(m, n, r, p) for p in pi_set(m, n, r)]
                for t in tables + [closed_form_table(m, n, r)]:
                    h.update(repr(sorted(t.coeffs.items())).encode())
            rng = seeding.stream(3, "recon-pin", m, n)
            A, B = random_binary_form(m, rng), random_binary_form(n, rng)
            for u in reconstruct(transvect(A, B, 0), transvect(A, B, 1), m, n):
                h.update(repr(u.form).encode())
    assert h.hexdigest() == "6b419861566e1898cebc7cab203fd4a7c96a915991523b9c8dbe564d4c0eaaa5"
