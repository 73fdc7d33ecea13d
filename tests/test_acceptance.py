"""Acceptance tests: the thirteen checks the verify runner reports on.

Each test wraps exactly one registered check at its published budget, and
re-asserts the headline values inline so this file certifies the same
facts on its own.  All equality is exact; no tolerances anywhere.
"""

import time
from fractions import Fraction

from binform import checks
from binform.symgroup import verify_s5_syzygy
from binform.symgroup import test_conjecture as conjecture_check
from binform.syzygy import vartheta_table

SEED, TRIALS = 42, 5


def _run(func, budget=None):
    t0 = time.perf_counter()
    ok, expected, actual = func(SEED, TRIALS)
    elapsed = time.perf_counter() - t0
    assert ok, f"expected {expected}; got {actual}"
    if budget is not None:
        assert elapsed < budget, f"took {elapsed:.1f}s, budget {budget}s"
    return actual


def test_weight_two_table_for_orders_five_three():
    _run(checks.check_table_5_3_2, budget=1.0)
    t = vartheta_table(5, 3, 2, (0, 0)).anchored((0, 2), -1)
    assert t.coeffs[(0, 0)] == Fraction(21, 8)
    assert t.coeffs[(0, 1)] == Fraction(21, 16)
    assert t.coeffs[(1, 1)] == Fraction(315, 256)


def test_weight_three_table_for_orders_five_three():
    _run(checks.check_table_5_3_3, budget=1.0)
    t = vartheta_table(5, 3, 3, (0, 0)).anchored((0, 3), -1)
    assert t.coeffs[(0, 1)] == Fraction(20, 3)
    assert t.coeffs[(0, 2)] == Fraction(20, 9)
    assert t.coeffs[(1, 2)] == Fraction(25, 14)


def test_weight_four_table_for_orders_seven_five():
    _run(checks.check_table_7_5_4, budget=2.0)
    t = vartheta_table(7, 5, 4, (0, 1)).anchored((0, 0), 1)
    assert len(t.coeffs) == 9
    assert t.coeffs[(2, 2)] == Fraction(-1512, 3025)


def test_single_normalized_coefficient_orders_eight_six():
    _run(checks.check_value_8_6_5, budget=2.0)
    assert vartheta_table(8, 6, 5, (1, 0)).coeffs[(0, 5)] == Fraction(-2, 63)


def test_kappa_routes_agree_on_reference_grids():
    actual = _run(checks.check_kappa_triple_route, budget=120.0)
    assert "169" in actual


def test_all_small_tables_verify_with_random_forms():
    actual = _run(checks.check_random_verification, budget=300.0)
    assert "436 tables" in actual


def test_reconstruction_matches_direct_transvection():
    actual = _run(checks.check_reconstruction, budget=60.0)
    assert "30 random pairs" in actual


def test_quadratic_pair_identities():
    _run(checks.check_quadratic_pairs, budget=30.0)


def test_ninej_routes_and_symmetries():
    actual = _run(checks.check_ninej_routes, budget=300.0)
    assert "134035 exhaustive + 200 random" in actual


def test_stretched_ninej_collapses_to_single_term():
    _run(checks.check_stretched_single_term)


def test_degree_five_relation_coefficients():
    _run(checks.check_relation_degree_5, budget=10.0)
    rep = verify_s5_syzygy()
    assert rep.passed
    assert rep.coefficients == (32, 100, 25, -180)
    assert rep.scale == 1
    assert rep.identity_exact and rep.perturbation_breaks
    assert rep.kernel_dimension == 1
    assert rep.basis_pairs == 16


def test_degree_six_and_seven_conjecture():
    _run(checks.check_conjecture_6_7, budget=10.0)
    for d in (6, 7):
        rep = conjecture_check(d)
        assert rep.passed
        assert rep.coupling_multiplicity == 1
        assert rep.wedge_multiplicity == 1
        assert rep.kernel_dimension == 1
        assert rep.c4_nonzero
        assert rep.coefficients[3] != 0


def test_property_families():
    actual = _run(checks.check_property_families, budget=120.0)
    assert actual == "6/6 families hold"
