"""Inputs and items of the three benchmark workloads.

Every input is generated here from the benchmark seed through
`binform.seeding`; the package only ever receives the generated inputs.
An item is one public call, or a short fixed group of calls, together with
the check of its result.  Item functions return `(ok, value)`: `ok` says
whether the result passed its check and `repr(value)` feeds the run digest.

Items call the package through attribute lookups on `binform` at call time,
so the traced run sees them through the wrappers installed by `tracing`.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import binform as bf
from binform import seeding

# Item counts per workload and size.  "tiny" exists for the benchmark's own
# tests; the driver always runs "full".
SIZES = {
    "full": {
        "grid_arrays": 6000,
        "large_arrays": 150,
        "large_twice_max": (12, 14, 16, 18, 20),
        "kappa_tuples": 300,
        "kappa_max_order": 12,
        "table_max_order": 8,
        "verify_trials": 3,
        "recon_max_order": 8,
        "transvect_orders": (3, 6, 9, 12),
        "sym_max_degree": 7,
        "sym_relation_degrees": (5, 6, 7),
    },
    "tiny": {
        "grid_arrays": 40,
        "large_arrays": 2,
        "large_twice_max": (12,),
        "kappa_tuples": 5,
        "kappa_max_order": 5,
        "table_max_order": 4,
        "verify_trials": 1,
        "recon_max_order": 4,
        "transvect_orders": (3,),
        "sym_max_degree": 5,
        "sym_relation_degrees": (5,),
    },
}

# The pinned degree-5 relation and the grid size that the recoupling inputs
# are drawn from; both are facts about the mathematics, not tuning knobs.
RELATION_D5 = (32, 100, 25, -180)
GRID_TWICE_MAX = 6
GRID_ARRAY_COUNT = 134035


# ---------------------------------------------------------------------------
# recoupling-grid
# ---------------------------------------------------------------------------


def triads(twice_max: int):
    """All triads (a, b, c) of twice-values with every entry <= twice_max."""
    return [(a, b, c) for a in range(twice_max + 1) for b in range(twice_max + 1)
            for c in range(abs(a - b), min(a + b, twice_max) + 1, 2)]


def grid_arrays(twice_max: int):
    """Every 3x3 array of twice-values <= twice_max whose rows and columns
    are triads, as row triples."""
    ts = triads(twice_max)
    tset = set(ts)
    by_pair = {}
    for a, b, c in ts:
        by_pair.setdefault((a, b), []).append(c)
    return [(r1, r2, (c1, c2, c3))
            for r1 in ts for r2 in ts
            for c1 in by_pair.get((r1[0], r2[0]), ())
            for c2 in by_pair.get((r1[1], r2[1]), ())
            for c3 in by_pair.get((r1[2], r2[2]), ())
            if (c1, c2, c3) in tset]


def random_array(rng, twice_max: int):
    """A random array whose largest twice-entry is exactly twice_max and
    whose twice-entries sum to within 4 of 6 * twice_max."""
    ts = triads(twice_max)
    tset = set(ts)
    by_pair = {}
    for a, b, c in ts:
        by_pair.setdefault((a, b), []).append(c)
    while True:
        r1 = ts[rng.randrange(len(ts))]
        r2 = ts[rng.randrange(len(ts))]
        opts = [by_pair.get((r1[k], r2[k]), ()) for k in range(3)]
        if not all(opts):
            continue
        r3 = tuple(o[rng.randrange(len(o))] for o in opts)
        entries = r1 + r2 + r3
        if (r3 in tset and max(entries) == twice_max
                and abs(sum(entries) - 6 * twice_max) <= 4):
            return (r1, r2, r3)


PERMS3 = tuple(itertools.permutations(range(3)))
POOL_FACTOR = 4


def orbit_support(tw) -> int:
    """Lattice points the triple sum visits over the array's transpose and
    its 36 row/column permutations: the work of a symmetry check."""
    arr = bf.NineJArray(half_rows(tw))
    orbit = [arr.transpose()] + [arr.permute(r, c) for r in PERMS3 for c in PERMS3]
    return sum(bf.ninej_support_size(a) for a in orbit)


def large_arrays(rng, twice_max: int, count: int):
    """`count` random arrays of one size stratum, taken at evenly spaced
    ranks of their symmetry-check work among POOL_FACTOR * count draws.
    The seed picks the arrays while the spread of their cost stays the same,
    which keeps wall_s and item_tail_ms steady from seed to seed."""
    pool = sorted((random_array(rng, twice_max) for _ in range(POOL_FACTOR * count)),
                  key=orbit_support)
    return pool[POOL_FACTOR // 2::POOL_FACTOR]


def kappa_tuples(max_order: int):
    """Every admissible (m, n, r, i, j, p) with 2 <= m, n <= max_order."""
    out = []
    for m in range(2, max_order + 1):
        for n in range(2, max_order + 1):
            for r in range(2, min(m, n) + 1):
                for p in bf.pi_set(m, n, r):
                    for i in range(r + 1):
                        for j in range(r - i + 1):
                            out.append((m, n, r, i, j, p))
    return out


def half_rows(tw):
    """Twice-values to the half-integer Fractions a command-line user passes."""
    return [[Fraction(v, 2) for v in row] for row in tw]


def ninej_item(rows, with_symmetry: bool):
    arr = bf.NineJArray(rows)
    via_operator = bf.ninej_operator(arr)
    via_sum = bf.ninej_triple_sum(arr)
    ok = via_operator == via_sum
    if with_symmetry:
        ok = ok and bf.ninej_symmetry_check(arr, via_sum)
    return ok, str(via_sum)


def kappa_item(m, n, r, i, j, p):
    a = bf.kappa(m, n, r, i, j, p)
    b = bf.kappa_oracle(m, n, r, i, j, p)
    c = bf.kappa_via_ninej(m, n, r, i, j, p)
    return a == b == c, str(a)


def recoupling_items(seed: int, size: dict):
    rng = seeding.stream(seed, "bench", "recoupling-grid")
    grid = grid_arrays(GRID_TWICE_MAX)
    items = [("grid", ninej_item, (half_rows(tw), False))
             for tw in rng.sample(grid, size["grid_arrays"])]
    strata = size["large_twice_max"]
    for twice_max in strata:
        for tw in large_arrays(rng, twice_max, size["large_arrays"] // len(strata)):
            items.append(("large", ninej_item, (half_rows(tw), True)))
    for t in rng.sample(kappa_tuples(size["kappa_max_order"]), size["kappa_tuples"]):
        items.append(("kappa", kappa_item, t))
    rng.shuffle(items)
    return items


# ---------------------------------------------------------------------------
# form-syzygies
# ---------------------------------------------------------------------------


def table_item(m, n, r, p, trials, verify_seed):
    if p is None:
        table = bf.closed_form_table(m, n, r)
    else:
        table = bf.vartheta_table(m, n, r, p)
    res = bf.verify_table(table, trials, verify_seed)
    return res.passed, sorted(table.coeffs.items())


def reconstruct_item(A, B):
    m, n = A.order, B.order
    got = bf.reconstruct(bf.transvect(A, B, 0), bf.transvect(A, B, 1), m, n)
    ok = len(got) == min(m, n) - 1 and all(
        u.form == bf.transvect(A, B, r).form for r, u in enumerate(got, start=2))
    return ok, [u.form for u in got]


def transvect_item(A, B):
    out = []
    for r in range(min(A.order, B.order) + 1):
        u = bf.transvect(A, B, r)
        if u.form != bf.transvect_derivative(A, B, r).form:
            return False, None
        out.append(u.form)
    return True, out


def fresh_pair(seed: int, label: str, m: int, n: int):
    rng = seeding.stream(seed, "bench", label, m, n)
    return bf.random_binary_form(m, rng), bf.random_binary_form(n, rng)


def form_items(seed: int, size: dict):
    # Tables run in the order the acceptance check uses, so that tables at
    # one (m, n) share the package's draw cache as they do there.
    verify_seed = seeding.child_seed(seed, "bench", "verify-table")
    trials = size["verify_trials"]
    top = size["table_max_order"]
    items = []
    for m in range(2, top + 1):
        for n in range(2, top + 1):
            for r in range(2, min(m, n) + 1):
                for p in bf.pi_set(m, n, r):
                    items.append(("table", table_item, (m, n, r, p, trials, verify_seed)))
                items.append(("table", table_item, (m, n, r, None, trials, verify_seed)))
    top = size["recon_max_order"]
    for m in range(2, top + 1):
        for n in range(2, m + 1):
            items.append(("reconstruct", reconstruct_item, fresh_pair(seed, "reconstruct", m, n)))
    for m in size["transvect_orders"]:
        for n in size["transvect_orders"]:
            items.append(("transvect", transvect_item, fresh_pair(seed, "transvect", m, n)))
    return items


# ---------------------------------------------------------------------------
# sym-relations
# ---------------------------------------------------------------------------


def generators_item(shape, generators: dict):
    s, c = bf.generator_matrices(shape)
    generators[shape] = (s.entries, c.entries)
    dim = bf.hook_dimension(shape)
    return len(s.entries) == dim and len(c.entries) == dim, (s.entries, c.entries)


def _is_equivariant(M, ql, qm, qn) -> bool:
    """(Q_l x Q_m) M == M Q_n, the defining property of a coupling."""
    dl, dm, dn = len(ql), len(qm), len(qn)
    half = [[[sum(qm[im][jm] * M[jl * dm + jm][k] for jm in range(dm)) for k in range(dn)]
             for im in range(dm)] for jl in range(dl)]
    for il in range(dl):
        for im in range(dm):
            src = M[il * dm + im]
            for k in range(dn):
                lhs = sum(ql[il][jl] * half[jl][im][k] for jl in range(dl))
                if lhs != sum(src[t] * qn[t][k] for t in range(dn)):
                    return False
    return True


def projection_item(lam, mu, nu, generators: dict):
    P = bf.projection_matrix(lam, mu, nu).entries
    ok = (len(P) == bf.hook_dimension(lam) * bf.hook_dimension(mu)
          and any(any(row) for row in P)
          and all(_is_equivariant(P, generators[lam][g], generators[mu][g], generators[nu][g])
                  for g in (0, 1)))
    return ok, P


def conjecture_item(d):
    rep = bf.test_conjecture(d)
    if d == 5:
        ok = rep.passed and rep.coefficients == RELATION_D5
    else:
        ok = rep.passed and rep.kernel_dimension == 1 and rep.c4_nonzero
    return ok, (rep.kernel_dimension, rep.coefficients)


def relation_couplings(d: int):
    """The five couplings of the degree-d relation: standard (x) standard onto
    standard, two-row and trivial, then standard (x) two-row and
    two-row (x) two-row onto standard."""
    std, two, triv = (d - 1, 1), (d - 2, 2), (d,)
    return ((std, std, std), (std, std, two), (std, std, triv), (std, two, std), (two, two, std))


def sym_items(seed: int, size: dict):
    # The workload is deterministic: the seed selects nothing here.  Stages
    # run cold in this order so that module builds, couplings and kernel
    # solves each land in their own items.
    generators: dict = {}
    items = [("generators", generators_item, (shape, generators))
             for d in range(1, size["sym_max_degree"] + 1) for shape in bf.partitions(d)]
    for d in size["sym_relation_degrees"]:
        for lam, mu, nu in relation_couplings(d):
            items.append(("projection", projection_item, (lam, mu, nu, generators)))
    for d in size["sym_relation_degrees"]:
        items.append(("conjecture", conjecture_item, (d,)))
    return items


BUILDERS = {
    "recoupling-grid": recoupling_items,
    "form-syzygies": form_items,
    "sym-relations": sym_items,
}

def build(workload: str, seed: int, size: str):
    return BUILDERS[workload](seed, SIZES[size])
