"""Command-line entry point.

One executable exposes every module: transvectant evaluation, syzygy
tables and their randomized verification, transvectant reconstruction,
3-j/6-j/9-j values, symmetric-group queries, and the acceptance-check
runner.  Output goes to stdout as a human-readable table or as JSON; the
full JSON report can also be written to a file with --out.
"""

import argparse
import json
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from .checks import REGISTRY, SUITES
from .symgroup import (
    RELATION_DEGREES,
    check_shape,
    hook_dimension,
    multiplicity,
    projection_matrix,
    standard_tableaux,
    test_conjecture,
    verify_s5_syzygy,
)
from .syzygy import closed_form_table, reconstruct, vartheta_table, verify_table
from .transvectant import BinaryForm, _check_exponent, transvect
from .wigner import NineJArray, ninej_operator, ninej_triple_sum, sixj, threej


# ---------------------------------------------------------------------------
# suite runner
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    suite: str
    status: str
    expected: str
    actual: str
    elapsed: float


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    seed: int
    trials: int
    results: Tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.status == "pass" for r in self.results)

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "trials": self.trials,
            "passed": self.passed,
            "checks": [
                {
                    "id": r.check_id,
                    "suite": r.suite,
                    "status": r.status,
                    "expected": r.expected,
                    "actual": r.actual,
                    "elapsed": round(r.elapsed, 3),
                }
                for r in self.results
            ],
        }


def run_suite(name: str, seed: int = 42, trials: int = 5) -> SuiteReport:
    """Run one named group of acceptance checks, in registry order."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
    results = []
    for check_id, suite, func in REGISTRY:
        if name != "all" and suite != name:
            continue
        t0 = time.perf_counter()
        try:
            ok, expected, actual = func(seed, trials)
        except Exception as exc:  # a crash is a failure, not an abort
            ok, expected, actual = False, "check completes", f"raised {exc!r}"
        results.append(CheckResult(check_id, suite, "pass" if ok else "fail",
                                   expected, actual, time.perf_counter() - t0))
    return SuiteReport(name, seed, trials, tuple(results))


# ---------------------------------------------------------------------------
# shared output plumbing
# ---------------------------------------------------------------------------


def _emit(payload: dict, pretty_lines: Sequence[str], fmt: str, out: Optional[str]) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in pretty_lines:
            print(line)
    if out:
        try:
            with open(out, "w") as fh:
                json.dump(payload, fh, indent=2, sort_keys=True)
                fh.write("\n")
        except OSError as exc:
            raise ValueError(f"--out: {exc}") from None


def _parse_rationals(text: str, flag: str) -> list:
    tokens = text.replace(",", " ").split()
    for tok in tokens:
        _check_exponent(tok, flag)
    try:
        return [Fraction(tok) for tok in tokens]
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{flag} takes rationals such as 3 or -1/2, got {text!r}") from None


def _parse_form(text: str, flag: str, order: int, convention: str) -> BinaryForm:
    """A form given as a JSON object or as order + 1 inline coefficients."""
    text = text.strip()
    if text.startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{flag} is not valid JSON: {exc}") from None
        except ValueError:
            # json.loads raises a plain ValueError for an integer literal
            # past the int/str digit limit
            raise ValueError(f"{flag} holds a JSON integer of more than "
                             f"{sys.get_int_max_str_digits()} digits") from None
        except RecursionError:
            raise ValueError(f"{flag} is JSON nested too deeply") from None
        try:
            return BinaryForm.from_json_dict(data)
        except ValueError as exc:
            raise ValueError(f"{flag}: {exc}") from None
    coeffs = _parse_rationals(text, flag)
    if len(coeffs) != order + 1:
        raise ValueError(f"{flag}: expected {order + 1} coefficients, got {len(coeffs)}")
    return BinaryForm.from_coeffs(coeffs, convention=convention)


def _parse_shape(text: Optional[str], flag: str) -> tuple:
    if text is None:
        raise ValueError(f"{flag} is required")
    try:
        return check_shape(int(tok) for tok in text.replace(",", " ").split())
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}") from None


def _frac_matrix(entries) -> list:
    return [[str(Fraction(v)) for v in row] for row in entries]


def _report_dict(rep) -> dict:
    out = {}
    for key, val in vars(rep).items():
        if isinstance(val, Fraction):
            out[key] = str(val)
        elif isinstance(val, tuple):
            out[key] = list(val)
        else:
            out[key] = val
    return out


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _require_orders(args, cap: int, command: str) -> None:
    if min(args.m, args.n) < 0:
        raise ValueError(f"{command} takes --m and --n of at least 0")
    if max(args.m, args.n) > cap:
        raise ValueError(f"{command} takes --m and --n of at most {cap}")


def _require_trials(args, command: str) -> None:
    if args.trials < 1:
        raise ValueError(f"{command} takes --trials of at least 1")
    if args.trials > _MAX_VERIFY_TRIALS:
        raise ValueError(f"{command} takes --trials of at most {_MAX_VERIFY_TRIALS}")


def _cmd_transvect(args) -> int:
    _require_orders(args, _MAX_TRANSVECT_ORDER, "transvect")
    A = _parse_form(args.A, "--A", args.m, args.convention)
    B = _parse_form(args.B, "--B", args.n, args.convention)
    if A.order != args.m or B.order != args.n:
        raise ValueError("order of a supplied form disagrees with --m/--n")
    result = transvect(A, B, args.r)
    try:
        payload = result.to_json_dict(args.convention)
    except ValueError:
        # str() refuses an int past the int/str digit limit
        raise ValueError(f"the result has a coefficient whose numerator or denominator has "
                         f"more than {sys.get_int_max_str_digits()} digits, "
                         f"too long to print") from None
    pretty = [f"({args.m},{args.n})_{args.r} coefficients "
              f"[{args.convention}]: " + " ".join(payload["coeffs"])]
    _emit(payload, pretty, args.format, args.out)
    return 0


def _table_for(args):
    if args.closed:
        return closed_form_table(args.m, args.n, args.r)
    return vartheta_table(args.m, args.n, args.r, (args.a, args.b))


def _cmd_syzygy(args) -> int:
    if args.action == "verify":
        _require_orders(args, _MAX_VERIFY_ORDER, "syzygy verify")
        _require_trials(args, "syzygy verify")
    else:
        _require_orders(args, _MAX_SYZYGY_ORDER, "syzygy")
    table = _table_for(args)
    if args.action == "verify":
        res = verify_table(table, args.trials, args.seed)
        payload = {
            "m": args.m, "n": args.n, "r": args.r,
            "point": "closed" if args.closed else [args.a, args.b],
            "trials": args.trials, "seed": args.seed,
            "passed": res.passed, "reason": res.reason,
        }
        status = "pass" if res.passed else f"FAIL ({res.reason})"
        _emit(payload, [f"syzygy verify ({args.m},{args.n},{args.r}): {status}"],
              args.format, args.out)
        return 0 if res.passed else 1
    payload = table.to_json_dict()
    pretty = [f"weight-{args.r} syzygy table for orders ({args.m},{args.n}), "
              f"point {payload['point']}:"]
    for key, val in sorted(payload["coeffs"].items()):
        pretty.append(f"  theta[{key}] = {val}")
    _emit(payload, pretty, args.format, args.out)
    return 0


def _cmd_reconstruct(args) -> int:
    _require_orders(args, _MAX_RECONSTRUCT_ORDER, "reconstruct")
    if min(args.m, args.n) < 1:
        # u_1 = (f, g)_1 needs both orders at least 1
        raise ValueError("reconstruct takes --m and --n of at least 1")
    u0 = _parse_form(args.u0, "--u0", args.m + args.n, "monomial")
    u1 = _parse_form(args.u1, "--u1", args.m + args.n - 2, "monomial")
    forms = reconstruct(u0, u1, args.m, args.n)
    payload = {"m": args.m, "n": args.n,
               "transvectants": [f.to_json_dict() for f in forms]}
    pretty = []
    for r, f in enumerate(forms, start=2):
        pretty.append(f"u_{r}: " + " ".join(f.to_json_dict()["coeffs"]))
    _emit(payload, pretty, args.format, args.out)
    return 0


# Caps on twice-entries (2j and 2|m|) of the recoupling commands, set where
# the costliest inputs found took about 1 s per command, start-up included.
# Timed since then from the command line, start-up included, on 2 shared
# cores with Python 3.11, best of 5 in each of three rounds: `threej --j
# 400,400,400 --m 400,-400,0` 0.51-0.82 s, `sixj` with every entry 64
# 0.38-0.47 s, and `ninej` on {20 20 20; 20 20 20; 20 20 0} by both routes
# 0.18-0.25 s.  The cost grows about as the fourth power of the entries:
# threej(1000, 1000, 1000, 0, 0, 0) takes 25 s.
_MAX_THREEJ_TWICE = 800
_MAX_SIXJ_TWICE = 128
_MAX_NINEJ_TWICE = 40

# Caps on the orders of the form commands and on the --trials of `syzygy
# verify` and `verify`, set where the costliest inputs found took about 1 s
# before transvect, verify_table, reconstruct and kappa moved to int sums and
# the Leibniz kernel.  Timed since then, start-up included, on 2 shared cores
# with Python 3.11 (before in brackets): `transvect` with m = n = 110 and
# r = 55, coefficients (k % 7 - 3)/(k % 5 + 1), 0.25 s (0.70 s); the `syzygy`
# table at m = n = r = 18, point (7, 0), the costliest point, 0.41 s (1.06 s);
# `syzygy verify` at m = n = r = 10 with 12 trials 0.29-0.41 s at every
# lattice point and for the closed form (0.55-1.01 s); `reconstruct` at
# m = n = 12 0.34 s (0.75 s); `verify --suite syzygy` 1.6 s at the default 5
# trials and 2.7 s at 12 (5.2 and 10.3 s).
_MAX_TRANSVECT_ORDER = 110
_MAX_SYZYGY_ORDER = 18
_MAX_VERIFY_ORDER = 10
_MAX_VERIFY_TRIALS = 12
_MAX_RECONSTRUCT_ORDER = 12


def _require_cap(entries: Sequence[Fraction], cap: int, flag: str) -> None:
    if any(abs(2 * v) > cap for v in entries):
        raise ValueError(f"{flag}: entries are limited to {cap}/2 in absolute value")


def _cmd_ninej(args) -> int:
    rows = [_parse_rationals(row, "--array") for row in args.array.split(";")]
    _require_cap([v for row in rows for v in row], _MAX_NINEJ_TWICE, "--array")
    arr = NineJArray(rows)
    values = {}
    if args.method in ("operator", "both"):
        values["operator"] = ninej_operator(arr)
    if args.method in ("triplesum", "both"):
        values["triplesum"] = ninej_triple_sum(arr)
    agree = len(set(map(str, values.values()))) == 1
    payload = {"array": str(arr), "method": args.method,
               **{k: str(v) for k, v in values.items()}}
    pretty = [f"{k}: {v}" for k, v in values.items()]
    if args.method == "both":
        payload["agree"] = agree
        pretty.append("routes agree" if agree else "ROUTES DISAGREE")
    _emit(payload, pretty, args.format, args.out)
    return 0 if agree else 1


def _cmd_threej(args) -> int:
    js = _parse_rationals(args.j, "--j")
    ms = _parse_rationals(args.m, "--m")
    for flag, entries in (("--j", js), ("--m", ms)):
        if len(entries) != 3:
            raise ValueError(f"threej expects exactly 3 entries in {flag}, got {len(entries)}")
        _require_cap(entries, _MAX_THREEJ_TWICE, flag)
    j1, j2, j = js
    m1, m2, m = ms
    v = threej(j1, j2, j, m1, m2, m)
    _emit({"j": [str(x) for x in (j1, j2, j)],
           "m": [str(x) for x in (m1, m2, m)], "value": str(v)},
          [str(v)], args.format, args.out)
    return 0


def _cmd_sixj(args) -> int:
    js = _parse_rationals(args.js, "--js")
    if len(js) != 6:
        raise ValueError("sixj expects exactly 6 entries")
    _require_cap(js, _MAX_SIXJ_TWICE, "--js")
    v = sixj(js)
    _emit({"js": [str(x) for x in js], "value": str(v)}, [str(v)],
          args.format, args.out)
    return 0


# `sym tableaux` lists every tableau; the caps bound the factorial in
# hook_dimension and the size of the listing
_MAX_TABLEAU_BOXES = 100
_MAX_TABLEAUX = 10_000

# Caps on `sym mult` and `sym projmat`, timed per command with start-up on
# 2 shared cores with Python 3.11.  `mult` sums characters over every
# partition of d: three distinct near-staircase shapes of 29 boxes take
# 0.7-0.9 s, of 30 boxes 1.2-1.3 s.  `projmat` builds d + 1 matrices per
# module and works in the tensor space of dimension dim(l) * dim(m).  Timed
# since its kernels read only nonzero matrix entries, three runs each, no
# bytecode caches: at the caps (5,5) x (1^10) -> (2^5), product 42, takes
# 0.26-0.28 s and (1^22) x (21,1) -> (2,1^20) 0.20-0.21 s.  Past them, with
# the caps lifted, (5,3) x (5,3) -> (7,1), product 784, takes 0.13-0.14 s,
# (4,2,2) x (1^8) -> (3,3,1,1), product 56, 0.32-0.36 s, (28,1) x (29) ->
# (28,1) 0.36-0.37 s, (9,1) x (5,5) -> (6,4), product 378, 1.3 s and
# (9,1) x (8,2) -> (7,2,1), product 315, 2.9-3.0 s: the product does not
# track the cost.
_MAX_MULT_BOXES = 29
_MAX_PROJMAT_BOXES = 22
_MAX_PROJMAT_DIMS = 42


def _cmd_sym(args) -> int:
    if args.action == "tableaux":
        shape = _parse_shape(args.shape, "--shape")
        if sum(shape) > _MAX_TABLEAU_BOXES or hook_dimension(shape) > _MAX_TABLEAUX:
            raise ValueError(f"--shape {shape}: tableaux lists shapes of at most "
                             f"{_MAX_TABLEAU_BOXES} boxes with at most {_MAX_TABLEAUX} tableaux")
        tabs = standard_tableaux(shape)
        payload = {"shape": list(shape), "count": len(tabs),
                   "tableaux": [[list(row) for row in t.rows] for t in tabs]}
        _emit(payload, [str(t) for t in tabs], args.format, args.out)
        return 0
    if args.action in ("mult", "projmat"):
        l, m, n = (_parse_shape(getattr(args, f), f"--{f}") for f in "lmn")
        boxes = max(map(sum, (l, m, n)))
    if args.action == "mult":
        if boxes > _MAX_MULT_BOXES:
            raise ValueError(f"mult takes partitions of at most {_MAX_MULT_BOXES} boxes")
        v = multiplicity(l, m, n)
        _emit({"l": list(l), "m": list(m), "n": list(n), "multiplicity": v},
              [f"multiplicity: {v}"], args.format, args.out)
        return 0
    if args.action == "projmat":
        if boxes > _MAX_PROJMAT_BOXES or hook_dimension(l) * hook_dimension(m) > _MAX_PROJMAT_DIMS:
            raise ValueError(f"projmat takes partitions of at most {_MAX_PROJMAT_BOXES} "
                             f"boxes with dim(l) * dim(m) at most {_MAX_PROJMAT_DIMS}")
        M = projection_matrix(l, m, n)
        payload = {"l": list(l), "m": list(m), "n": list(n),
                   "matrix": _frac_matrix(M.entries)}
        pretty = [" ".join(str(v) for v in row) for row in M.entries]
        _emit(payload, pretty, args.format, args.out)
        return 0
    if args.action == "verify":
        if args.d == 5:
            rep = verify_s5_syzygy()
        else:
            rep = test_conjecture(args.d)
        payload = _report_dict(rep)
        pretty = [f"{key}: {val}" for key, val in payload.items()]
        _emit(payload, pretty, args.format, args.out)
        return 0 if rep.passed else 1
    raise ValueError(f"unknown sym action {args.action!r}")


def _cmd_verify(args) -> int:
    _require_trials(args, "verify")
    report = run_suite(args.suite, args.seed, args.trials)
    payload = report.to_json_dict()
    width = max((len(r.check_id) for r in report.results), default=10)
    pretty = [f"suite {report.suite}  (seed {report.seed}, trials {report.trials})"]
    for r in report.results:
        pretty.append(f"  {r.check_id:<{width}}  {r.status:<4}  {r.elapsed:8.2f}s")
        if r.status != "pass":
            pretty.append(f"    expected: {r.expected}")
            pretty.append(f"    actual:   {r.actual}")
    pretty.append("PASS" if report.passed else "FAIL")
    _emit(payload, pretty, args.format, args.out)
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "pretty"), default="pretty")
    common.add_argument("--seed", type=int, default=42)
    common.add_argument("--out", default=None, help="write the JSON report here")

    parser = argparse.ArgumentParser(
        prog="binform",
        description="Exact transvectants, syzygies, recoupling symbols, "
                    "and symmetric-group projections.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transvect", parents=[common],
                       help="transvectant of two binary forms")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--A", required=True, help="JSON form or inline coefficients")
    p.add_argument("--B", required=True, help="JSON form or inline coefficients")
    p.add_argument("--convention", choices=("monomial", "binomial"),
                   default="monomial")
    p.set_defaults(func=_cmd_transvect)

    p = sub.add_parser("syzygy", parents=[common],
                       help="weight-r syzygy table, optionally verified")
    p.add_argument("action", nargs="?", choices=("verify",), default=None)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--a", type=int, default=0, help="lattice point, first part")
    p.add_argument("--b", type=int, default=0, help="lattice point, second part")
    p.add_argument("--closed", action="store_true",
                   help="use the closed-form table instead of a lattice point")
    p.add_argument("--trials", type=int, default=5)
    p.set_defaults(func=_cmd_syzygy)

    p = sub.add_parser("reconstruct", parents=[common],
                       help="recover higher transvectants from the first two")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--u0", required=True,
                   help="the order-(m+n) form, as JSON or inline coefficients")
    p.add_argument("--u1", required=True,
                   help="the order-(m+n-2) form, as JSON or inline coefficients")
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("ninej", parents=[common], help="9-j symbol")
    p.add_argument("--array", required=True,
                   help='"j1 j2 j12; j3 j4 j34; j13 j24 J"')
    p.add_argument("--method", choices=("operator", "triplesum", "both"),
                   default="both")
    p.set_defaults(func=_cmd_ninej)

    p = sub.add_parser("threej", parents=[common], help="3-j symbol")
    p.add_argument("--j", required=True, help='"j1 j2 j"')
    p.add_argument("--m", required=True, help='"m1 m2 m"')
    p.set_defaults(func=_cmd_threej)

    p = sub.add_parser("sixj", parents=[common], help="6-j symbol")
    p.add_argument("--js", required=True, help='"j1 j2 j3 j4 j5 j6"')
    p.set_defaults(func=_cmd_sixj)

    p = sub.add_parser("sym", parents=[common],
                       help="symmetric-group tableaux, multiplicities, couplings")
    p.add_argument("action", choices=("tableaux", "mult", "projmat", "verify"))
    p.add_argument("--shape", help='partition like "3,2"')
    p.add_argument("--l", help="first partition")
    p.add_argument("--m", help="second partition")
    p.add_argument("--n", help="target partition")
    p.add_argument("--d", type=int, choices=RELATION_DEGREES,
                   help="degree for the relation check")
    p.set_defaults(func=_cmd_sym)

    p = sub.add_parser("verify", parents=[common], help="run acceptance suites")
    p.add_argument("--suite", required=True)
    p.add_argument("--trials", type=int, default=5)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        # argparse reads an option given as a lone "--" (--A=--) as []
        for name, value in vars(args).items():
            if value == []:
                raise ValueError(f"--{name} expects one value, got '--'")
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
