"""Acceptance checks behind the verify runner.

Each check is a named callable taking (seed, trials) and returning
(passed, expected, actual).  Ids, grouping, and order are fixed so that
reports are reproducible; all randomness flows through the seeding module.
"""

from fractions import Fraction
from math import comb
from typing import Callable, Dict, List, Tuple

from . import seeding
from .polycore import linear_substitute, scale
from .symgroup import test_conjecture, verify_s5_syzygy
from .syzygy import (
    closed_form_table,
    kappa,
    kappa_oracle,
    minimal_equation_u1_check,
    pi_set,
    reconstruct,
    segre22_identity_check,
    vartheta_table,
    verify_table,
)
from .transvectant import (
    BinaryForm,
    jacobian_exchange_check,
    project_pi,
    random_binary_form,
    section_iota,
    transvect,
)
from .wigner import (
    NineJArray,
    kappa_ninej_arrays,
    kappa_via_ninej,
    ninej_operator,
    ninej_support_size,
    ninej_symmetry_check,
    ninej_triple_sum,
)

CheckOutcome = Tuple[bool, str, str]

GRIDS = ((5, 3, 2), (5, 3, 3), (7, 5, 4), (8, 6, 5), (6, 6, 4))


def _fmt_coeffs(coeffs: Dict[Tuple[int, int], Fraction]) -> str:
    return "{" + ", ".join(f"({i},{j}): {c}" for (i, j), c in sorted(coeffs.items())) + "}"


def _table_check(m: int, n: int, r: int, point, anchor, value,
                 expected: Dict[Tuple[int, int], Fraction]) -> CheckOutcome:
    t = vartheta_table(m, n, r, point)
    if anchor is not None:
        t = t.anchored(anchor, value)
    ok = t.coeffs == expected
    return ok, _fmt_coeffs(expected), _fmt_coeffs(t.coeffs)


def check_table_5_3_2(seed: int, trials: int) -> CheckOutcome:
    F = Fraction
    expected = {(0, 0): F(21, 8), (0, 1): F(21, 16), (0, 2): F(-1), (1, 1): F(315, 256)}
    return _table_check(5, 3, 2, (0, 0), (0, 2), -1, expected)


def check_table_5_3_3(seed: int, trials: int) -> CheckOutcome:
    F = Fraction
    expected = {(0, 0): F(0), (0, 1): F(20, 3), (0, 2): F(20, 9),
                (0, 3): F(-1), (1, 1): F(0), (1, 2): F(25, 14)}
    return _table_check(5, 3, 3, (0, 0), (0, 3), -1, expected)


def check_table_7_5_4(seed: int, trials: int) -> CheckOutcome:
    F = Fraction
    expected = {(0, 0): F(1), (0, 1): F(8, 3), (0, 2): F(54, 55),
                (0, 3): F(-1, 6), (0, 4): F(-10, 63), (1, 1): F(-7, 12),
                (1, 2): F(63, 55), (1, 3): F(49, 72), (2, 2): F(-1512, 3025)}
    return _table_check(7, 5, 4, (0, 1), (0, 0), 1, expected)


def check_value_8_6_5(seed: int, trials: int) -> CheckOutcome:
    got = vartheta_table(8, 6, 5, (1, 0)).coeffs[(0, 5)]
    return got == Fraction(-2, 63), "-2/63", str(got)


def check_kappa_triple_route(seed: int, trials: int) -> CheckOutcome:
    checked = 0
    for (m, n, r) in GRIDS:
        for p in pi_set(m, n, r):
            for i in range(r + 1):
                for j in range(r - i + 1):
                    a = kappa(m, n, r, i, j, p)
                    b = kappa_oracle(m, n, r, i, j, p)
                    c = kappa_via_ninej(m, n, r, i, j, p)
                    if not (a == b == c):
                        return (False, "three routes agree",
                                f"disagreement at {(m, n, r, i, j, p)}: {a}, {b}, {c}")
                    checked += 1
    return True, "three routes agree", f"agree at all {checked} admissible tuples"


def check_random_verification(seed: int, trials: int) -> CheckOutcome:
    tables = 0
    for m in range(2, 9):
        for n in range(2, 9):
            for r in range(2, min(m, n) + 1):
                for p in pi_set(m, n, r):
                    res = verify_table(vartheta_table(m, n, r, p), trials, seed)
                    if not res.passed:
                        return (False, "every table verifies",
                                f"table ({m},{n},{r}) at {p}: {res.reason}")
                    tables += 1
                res = verify_table(closed_form_table(m, n, r), trials, seed)
                if not res.passed:
                    return (False, "every table verifies",
                            f"closed-form table ({m},{n},{r}): {res.reason}")
                tables += 1
    return (True, "every table verifies",
            f"{tables} tables, m,n <= 8, residual zero on {trials} trials")


def check_reconstruction(seed: int, trials: int) -> CheckOutcome:
    pairs = 0
    for (m, n) in ((5, 3), (4, 4), (6, 5)):
        for trial in range(10):
            rng = seeding.stream(seed, "check-recon", m, n, trial)
            A = random_binary_form(m, rng)
            B = random_binary_form(n, rng)
            got = reconstruct(transvect(A, B, 0), transvect(A, B, 1), m, n)
            for r, ur in enumerate(got, start=2):
                if ur.form != transvect(A, B, r).form:
                    return (False, "reconstruction exact",
                            f"mismatch at ({m},{n}) trial {trial} index {r}")
            pairs += 1
    return True, "reconstruction exact", f"{pairs} random pairs, all indices"


def check_quadratic_pairs(seed: int, trials: int) -> CheckOutcome:
    rng = seeding.stream(seed, "check-quadratic")
    for trial in range(20):
        A = random_binary_form(2, rng)
        B = random_binary_form(2, rng)
        rep = segre22_identity_check(A, B)
        if not rep.passed:
            return False, "both identities hold", f"product identity failed, trial {trial}"
        if not minimal_equation_u1_check(A, B):
            return False, "both identities hold", f"minimal equation failed, trial {trial}"
    return True, "both identities hold", "20 random quadratic pairs pass"


def _triad_index(tmax: int) -> tuple:
    """Twice-value triads up to tmax, as a list, a set, and the third
    entries keyed by the first two."""
    triads = [(a, b, c) for a in range(tmax + 1) for b in range(tmax + 1)
              for c in range(abs(a - b), min(a + b, tmax) + 1, 2)]
    by_pair: Dict[Tuple[int, int], List[int]] = {}
    for (a, b, c) in triads:
        by_pair.setdefault((a, b), []).append(c)
    return triads, set(triads), by_pair


def _arrays_upto(tmax: int) -> List[tuple]:
    triads, tset, by_pair = _triad_index(tmax)
    return [(r1, r2, (c1, c2, c3))
            for r1 in triads for r2 in triads
            for c1 in by_pair.get((r1[0], r2[0]), ())
            for c2 in by_pair.get((r1[1], r2[1]), ())
            for c3 in by_pair.get((r1[2], r2[2]), ())
            if (c1, c2, c3) in tset]


def _random_array(rng, tmax: int, triads, tset, by_pair) -> tuple:
    while True:
        r1 = triads[rng.randrange(len(triads))]
        r2 = triads[rng.randrange(len(triads))]
        opts = [by_pair.get((r1[k], r2[k]), ()) for k in range(3)]
        if not all(opts):
            continue
        c1, c2, c3 = (o[rng.randrange(len(o))] for o in opts)
        if (c1, c2, c3) in tset:
            return (r1, r2, (c1, c2, c3))


def check_ninej_routes(seed: int, trials: int) -> CheckOutcome:
    # exhaustive small grid: both routes agree, then the transpose and
    # signed-permutation laws verified against the memoized values; the
    # images permute validated arrays, so they are taken on the tuples
    values: Dict[tuple, object] = {}
    small = _arrays_upto(6)
    for tw in small:
        arr = NineJArray._of_twice(tw)
        v = ninej_triple_sum(arr)
        if ninej_operator(arr) != v:
            return False, "routes agree, symmetry holds", f"route mismatch at {tw}"
        values[tw] = v

    for tw in small:
        v = values[tw]
        r1, r2, r3 = tw
        sg = -1 if sum(map(sum, tw)) // 2 % 2 else 1
        checksum = (
            (values[tuple(zip(*tw))], v),
            (values[(r2, r1, r3)], sg * v),
            (values[tuple((a, c, b) for a, b, c in tw)], sg * v),
            (values[(r2, r3, r1)], v),
        )
        for got, want in checksum:
            if got != want:
                return False, "routes agree, symmetry holds", f"symmetry broken at {tw}"

    triads, tset, by_pair = _triad_index(12)
    rng = seeding.stream(seed, "check-ninej")
    for k in range(200):
        tw = _random_array(rng, 12, triads, tset, by_pair)
        arr = NineJArray._of_twice(tw)
        v = ninej_triple_sum(arr)
        if ninej_operator(arr) != v:
            return False, "routes agree, symmetry holds", f"route mismatch at {tw}"
        if not ninej_symmetry_check(arr, v):
            return False, "routes agree, symmetry holds", f"symmetry broken at {tw}"
    return (True, "routes agree, symmetry holds",
            f"{len(small)} exhaustive + 200 random arrays")


def check_stretched_single_term(seed: int, trials: int) -> CheckOutcome:
    for (m, n, r) in GRIDS:
        _, rearranged = kappa_ninej_arrays(m, n, r, 0, r, (0, 0))
        terms = ninej_support_size(rearranged)
        if terms != 1:
            return False, "single summation term", f"({m},{n},{r}): {terms} terms"
        if kappa_via_ninej(m, n, r, 0, r, (0, 0)) == 0:
            return False, "single summation term", f"({m},{n},{r}): vanishing value"
    return True, "single summation term", f"one term and nonzero value on {len(GRIDS)} grids"


def check_relation_degree_5(seed: int, trials: int) -> CheckOutcome:
    rep = verify_s5_syzygy()
    expected = "coefficients (32, 100, 25, -180), identity exact on 16 pairs"
    actual = (f"coefficients {rep.coefficients}, scale {rep.scale}, "
              f"{rep.matched_scaling}"
              + (f" ({rep.transition})" if rep.transition else ""))
    return rep.passed, expected, actual


def check_conjecture_6_7(seed: int, trials: int) -> CheckOutcome:
    r6 = test_conjecture(6)
    r7 = test_conjecture(7)
    ok = r6.passed and r7.passed
    expected = "multiplicities 1, unique relation, nonzero final coefficient"
    actual = (f"d=6: {r6.coefficients}; d=7: {r7.coefficients}")
    return ok, expected, actual


def _family_dimension_identity() -> bool:
    return all(
        comb(w1, 2) * comb(w2, 2) + comb(w1 + 1, 2) * comb(w2 + 1, 2)
        == comb(w1 * w2 + 1, 2)
        for w1 in range(1, 21) for w2 in range(1, 21))


def _family_coin_inequality() -> bool:
    return all(
        comb(m + n - r + 1, r) > comb(m, r) + comb(n, r)
        for m in range(2, 13) for n in range(2, 13)
        for r in range(2, min(m, n) + 1))


def _family_projection_section(seed: int) -> bool:
    for m in range(1, 7):
        for n in range(1, 7):
            rng = seeding.stream(seed, "check-pi-iota", m, n)
            for r in range(min(m, n) + 1):
                C = random_binary_form(m + n - 2 * r, rng)
                if project_pi(section_iota(C, m, n, r), m, n, r) != C.form:
                    return False
    return True


def _family_sign_rule(seed: int) -> bool:
    for (m, n) in ((3, 2), (4, 4), (5, 3)):
        rng = seeding.stream(seed, "check-sign", m, n)
        A = random_binary_form(m, rng)
        B = random_binary_form(n, rng)
        for r in range(min(m, n) + 1):
            if transvect(B, A, r).form != scale(transvect(A, B, r).form, (-1) ** r):
                return False
    return True


def _family_covariance(seed: int) -> bool:
    rng = seeding.stream(seed, "check-covariance")
    m, n = 4, 3
    A = random_binary_form(m, rng)
    B = random_binary_form(n, rng)
    for _ in range(10):
        a, b, c = rng.randint(-4, 4), rng.randint(-4, 4), rng.randint(-4, 4)
        g = (1 + a * c, b + a * (1 + b * c), c, 1 + b * c)
        for r in range(min(m, n) + 1):
            direct = linear_substitute(transvect(A, B, r).form, "x", g)
            Ag = BinaryForm("x", m, linear_substitute(A.form, "x", g))
            Bg = BinaryForm("x", n, linear_substitute(B.form, "x", g))
            if transvect(Ag, Bg, r).form != direct:
                return False
    return True


def _family_jacobian_exchange(seed: int) -> bool:
    rng = seeding.stream(seed, "check-jacobian")
    for _ in range(10):
        A = random_binary_form(3, rng)
        B = random_binary_form(2, rng)
        Q = random_binary_form(2, rng)
        R = random_binary_form(2, rng)
        if not jacobian_exchange_check(A, B, Q, R):
            return False
    return True


def check_property_families(seed: int, trials: int) -> CheckOutcome:
    families = (
        ("dimension-identity", _family_dimension_identity()),
        ("coin-inequality", _family_coin_inequality()),
        ("projection-section", _family_projection_section(seed)),
        ("sign-rule", _family_sign_rule(seed)),
        ("covariance", _family_covariance(seed)),
        ("jacobian-exchange", _family_jacobian_exchange(seed)),
    )
    failing = [name for name, ok in families if not ok]
    if failing:
        return False, "all 6 families hold", "failing: " + ", ".join(failing)
    return True, "all 6 families hold", "6/6 families hold"


Check = Tuple[str, str, Callable[[int, int], CheckOutcome]]

REGISTRY: Tuple[Check, ...] = (
    ("syzygy-table-5-3-2", "syzygy", check_table_5_3_2),
    ("syzygy-table-5-3-3", "syzygy", check_table_5_3_3),
    ("syzygy-table-7-5-4", "syzygy", check_table_7_5_4),
    ("syzygy-value-8-6-5", "syzygy", check_value_8_6_5),
    ("kappa-triple-route", "bridge", check_kappa_triple_route),
    ("syzygy-random-verify", "syzygy", check_random_verification),
    ("reconstruction", "syzygy", check_reconstruction),
    ("quadratic-pair-identities", "syzygy", check_quadratic_pairs),
    ("ninej-two-routes", "wigner", check_ninej_routes),
    ("stretched-single-term", "bridge", check_stretched_single_term),
    ("relation-degree-5", "symgroup", check_relation_degree_5),
    ("conjecture-degrees-6-7", "symgroup", check_conjecture_6_7),
    ("property-families", "core", check_property_families),
)

SUITES = ("core", "syzygy", "wigner", "bridge", "symgroup", "all")
