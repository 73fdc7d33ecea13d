"""Exact Wigner 3-j, 6-j and 9-j symbols.

Values are quadratic surds q*sqrt(s) with q rational and s squarefree,
held as three ints from the factorial ratio to the final comparison.

The operator route is a recoupling tree on the highest-weight form
z1^(2j), run on polycore's split/merge engine: a split polarises one pair
into two and multiplies by their bracket, a merge contracts two pairs by an
omega power into a third.  The coupling coefficient (hence the 3-j symbol)
is one split, the 6-j symbol two splits and two merges, the 9-j symbol
three of each.  The syzygy module's kappa_oracle is the 9-j chain of the
kappa array times K.  The 9-j triple sum and the syzygy module's kappa
share one evaluator, _triple_sum, and derive their shifts separately; the
operator chain shares neither.  kappa_via_ninej reaches kappa through the
9-j triple sum.  _triple_sum builds each factor list in one index from its
first term by the ratio of consecutive terms (one multiply and one exact
division per entry) and each list in two indices as a running product; it
runs the longest of its three axes innermost, in one sum over a product,
so the Python loops cover only the two shorter ones.

Square roots only ever arise from ratios of factorials, so surds are
assembled from prime exponents via Legendre's formula; nothing ever
factors a large integer.  The exponents of n! for n <= 64 are packed into
one int each at import, so a ratio's exponents are one sum (larger calls
sum Legendre's formula directly), and each route hands its rational
prefactor to sqrt_factorial_ratio as two ints instead of building a
Fraction.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, permutations
from math import factorial, gcd, isqrt, perm
from operator import itemgetter, mul
from struct import unpack
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from .polycore import _key, _merge, _split, _width
from .transvectant import factor_h

HalfIntLike = Union["HalfInt", int, str, Fraction]


# ---------------------------------------------------------------------------
# half-integers
# ---------------------------------------------------------------------------


@dataclass(frozen=True, order=True)
class HalfInt:
    """A nonnegative half-integer, stored as twice its value."""

    twice: int

    def __post_init__(self):
        if not isinstance(self.twice, int) or self.twice < 0:
            raise ValueError(f"not a nonnegative half-integer: {self.twice}/2")

    def __str__(self) -> str:
        return str(self.twice // 2) if self.twice % 2 == 0 else f"{self.twice}/2"


def _signed_twice(value: HalfIntLike) -> int:
    """Twice a possibly negative half-integer (projections m)."""
    # Fraction first: the command line and the benchmark pass Fractions
    if isinstance(value, Fraction):
        if value.denominator not in (1, 2):
            raise ValueError(f"not a half-integer: {value}")
        return value.numerator * (2 // value.denominator)
    if isinstance(value, HalfInt):
        return value.twice
    if isinstance(value, int):
        return 2 * value
    if isinstance(value, str):
        return _signed_twice(Fraction(value))
    raise TypeError(f"cannot interpret {value!r} as a half-integer")


def _twice(value: HalfIntLike) -> int:
    twice = _signed_twice(value)
    if twice < 0:
        raise ValueError(f"not a nonnegative half-integer: {twice}/2")
    return twice


def _halves(*twice: int) -> List[int]:
    """The integers whose twice-values are `twice`."""
    return [t // 2 for t in twice]


# ---------------------------------------------------------------------------
# quadratic surds
# ---------------------------------------------------------------------------


class QuadraticSurd:
    """Exact value coeff*sqrt(radicand), radicand squarefree positive.

    Held as three ints, num/den * sqrt(rad): num/den in lowest terms with
    den > 0, and rad 1 when num is 0.  `coeff` and `radicand` are the public
    view of them.  The constructor takes an int radicand below
    MAX_RADICAND and moves its square factors into the coefficient."""

    __slots__ = ("num", "den", "rad")

    MAX_RADICAND = 10 ** 12

    def __init__(self, coeff, radicand: int = 1):
        if not isinstance(radicand, int):
            raise ValueError(f"radicand must be an int, not {radicand!r}")
        if radicand < 1:
            raise ValueError("radicand must be positive")
        if radicand >= self.MAX_RADICAND:
            raise ValueError(f"radicand {radicand} is not below {self.MAX_RADICAND}")
        coeff = Fraction(coeff)
        root, radicand = _square_part(radicand) if coeff else (1, 1)
        coeff *= root
        self.num, self.den, self.rad = coeff.numerator, coeff.denominator, radicand

    @classmethod
    def _of(cls, num: int, den: int, rad: int) -> "QuadraticSurd":
        """num/den * sqrt(rad) for ints already in the form above, unchecked."""
        self = object.__new__(cls)
        self.num, self.den, self.rad = num, den, rad
        return self

    @staticmethod
    def zero() -> "QuadraticSurd":
        return QuadraticSurd._of(0, 1, 1)

    @property
    def coeff(self) -> Fraction:
        return Fraction(self.num, self.den)

    @property
    def radicand(self) -> int:
        return self.rad

    def is_zero(self) -> bool:
        return not self.num

    def is_rational(self) -> bool:
        return self.rad == 1

    def to_fraction(self) -> Fraction:
        if self.rad != 1:
            raise ValueError("irrational value")
        return Fraction(self.num, self.den)

    def __mul__(self, other):
        if isinstance(other, QuadraticSurd):
            g = gcd(self.rad, other.rad)
            return _lowest(self.num * other.num * g, self.den * other.den,
                           (self.rad // g) * (other.rad // g))
        if not isinstance(other, (int, Fraction)):
            other = Fraction(other)
        return _lowest(self.num * other.numerator, self.den * other.denominator, self.rad)

    __rmul__ = __mul__

    def __neg__(self):
        return QuadraticSurd._of(-self.num, self.den, self.rad)

    def __eq__(self, other):
        if not isinstance(other, QuadraticSurd):
            return NotImplemented
        return self.num == other.num and self.den == other.den and self.rad == other.rad

    def __hash__(self):
        return hash((self.coeff, self.rad))

    def __str__(self) -> str:
        coeff = str(self.num) if self.den == 1 else f"{self.num}/{self.den}"
        return coeff if self.rad == 1 else f"{coeff} * sqrt({self.rad})"

    def __repr__(self) -> str:
        return f"QuadraticSurd(coeff=Fraction({self.num}, {self.den}), radicand={self.rad})"


def _square_part(n: int) -> Tuple[int, int]:
    """(root, free) with n = root**2 * free and free squarefree, for n >= 1.
    Trial division runs while d**3 <= rest; the rest left then has every
    prime factor above its cube root, so it is 1, a prime, a product of two
    distinct primes or the square of a prime, and one isqrt settles it."""
    root, free, rest, d = 1, 1, n, 2
    while d * d * d <= rest:
        if rest % d == 0:
            e = 0
            while rest % d == 0:
                rest //= d
                e += 1
            root *= d ** (e // 2)
            if e & 1:
                free *= d
        d += 1
    s = isqrt(rest)
    return (root * s, free) if s * s == rest else (root, free * rest)


def _lowest(num: int, den: int, rad: int) -> QuadraticSurd:
    """The surd num/den * sqrt(rad), for den > 0 and rad squarefree."""
    if not num:
        return QuadraticSurd._of(0, 1, 1)
    g = gcd(num, den)
    return QuadraticSurd._of(num // g, den // g, rad)


# ---------------------------------------------------------------------------
# square roots of factorial ratios
# ---------------------------------------------------------------------------
#
# The Legendre exponents of n! for n <= _TOP are packed into one int at
# import, as polycore packs a monomial's exponents: the exponent of the k-th
# prime in the 16-bit field at bit 16k.  Packing is linear, so the exponents
# of a ratio of at most _SPAN such factorials are one signed sum, each field
# within +-_SPAN * e_2(_TOP!) = +-2,016.  Adding 2**15 to every field up to
# the highest nonzero one makes each field its exponent plus 2**15 with no
# borrow between fields, and flipping bit 15 back leaves the exponent in
# two's complement.  Any other call (an argument past the table, more
# arguments, a generator) sums Legendre's formula directly.


def _sieve(limit: int) -> List[int]:
    if limit < 2:
        return []
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
    return [p for p in range(2, limit + 1) if flags[p]]


def _legendre(n: int, p: int) -> int:
    total = 0
    pk = p
    while pk <= n:
        total += n // pk
        pk *= p
    return total


_TOP, _SPAN = 64, 32  # the table's largest argument, and arguments per sum
_PRIMES = _sieve(_TOP)
_PACKED = {n: sum(_legendre(n, p) << 16 * k for k, p in enumerate(_PRIMES))
           for n in range(_TOP + 1)}
_BIASES = [sum(1 << 16 * k + 15 for k in range(count)) for count in range(len(_PRIMES) + 1)]

# the direct path refuses larger arguments (sqrt(100000!) has 228,000 digits)
_MAX_ARGUMENT = 10 ** 5


def _direct_exponents(numerators: Iterable[int],
                      denominators: Iterable[int]) -> Tuple[List[int], List[int]]:
    """(primes, exponents) of prod(a!)/prod(b!) by Legendre's formula."""
    counts = Counter(numerators)
    counts.subtract(denominators)
    low, top = min(counts, default=0), max(counts, default=0)
    if low < 0:
        raise ValueError(f"negative factorial argument {low}")
    if top > _MAX_ARGUMENT:
        raise ValueError(f"factorial argument {top} is too large: the limit is {_MAX_ARGUMENT}")
    primes = _sieve(top)
    return primes, [sum(c * _legendre(a, p) for a, c in counts.items()) for p in primes]


def sqrt_factorial_ratio(numerators: Iterable[int], denominators: Iterable[int],
                         num: int = 1, den: int = 1) -> QuadraticSurd:
    """Exactly num/den * sqrt(prod(a! for a in numerators) / prod(b!)), for
    ints num and den > 0 and factorial arguments in 0.._MAX_ARGUMENT; a zero
    num gives zero without reading the rest."""
    if den < 1:
        raise ValueError(f"den must be positive, got {den}")
    if not num:
        return QuadraticSurd._of(0, 1, 1)
    try:
        if len(numerators) + len(denominators) > _SPAN:
            raise KeyError  # the fields are sized for _SPAN arguments
        get = _PACKED.__getitem__
        total = sum(map(get, numerators)) - sum(map(get, denominators))
    except (KeyError, TypeError):
        primes, exps = _direct_exponents(numerators, denominators)
    else:
        count = total.bit_length() // 16 + 1  # up to the highest nonzero field
        bias = _BIASES[count]
        primes = _PRIMES
        exps = unpack(f"<{count}h", ((total + bias) ^ bias).to_bytes(2 * count, "little"))
    rad = 1
    for p, e in zip(primes, exps):
        if e:
            if e & 1:
                rad *= p
            half = e >> 1  # floor: p^e = (p^half)^2 * p^(e - 2*half)
            if half > 0:
                num *= p ** half
            elif half:
                den *= p ** -half
    g = gcd(num, den)
    return QuadraticSurd._of(num // g, den // g, rad)


# ---------------------------------------------------------------------------
# triads
# ---------------------------------------------------------------------------


def _triad_defects(j1: int, j2: int, j: int) -> Optional[Tuple[int, int, int]]:
    """The triangle defects of twice-values, or None if they form no triad."""
    defects = (j1 + j2 - j, j2 + j - j1, j + j1 - j2)
    # the defects differ by even numbers, so one parity test covers all three
    return defects if min(defects) >= 0 and defects[0] % 2 == 0 else None


def _require_triad(j1: int, j2: int, j: int, where: str) -> None:
    if _triad_defects(j1, j2, j) is None:
        raise ValueError(f"not a triad: {where} ({j1}/2, {j2}/2, {j}/2)")


# ---------------------------------------------------------------------------
# the recoupling-tree engine: packed exponent keys, twice-values j
# ---------------------------------------------------------------------------
#
# A chain's forms are dicts from polycore's packed keys to int coefficients,
# run through polycore's split and merge.  Every exponent in a chain is at
# most the order of its pair, one of the chain's twice-entries; with
# w = _width(twice-entries) no field carries into the next.


def _chain_scalar(t: dict, w: int, j: int) -> int:
    """The scalar c of a chain that must end at c*z1^j; consumes t."""
    c = t.pop(_key(w, z=(j, 0)), 0)
    if t:
        raise ValueError("operator chain inconsistent")
    return c


# ---------------------------------------------------------------------------
# coupling coefficients and 3-j symbols
# ---------------------------------------------------------------------------


def _check_projection(j: int, m: int) -> None:
    # m ranges over M_j: same parity as j, |m| <= j
    if abs(m) > j or (j - m) % 2:
        raise ValueError(f"projection {m}/2 out of range for j={j}/2")


def _coupling_args(j1: HalfIntLike, j2: HalfIntLike, j: HalfIntLike,
                   m1: HalfIntLike, m2: HalfIntLike, m: HalfIntLike) -> Tuple[int, ...]:
    """Twice-values (j1, j2, j, m1, m2, m), checked for admissibility."""
    a1, a2, a = _twice(j1), _twice(j2), _twice(j)
    b1, b2, b = _signed_twice(m1), _signed_twice(m2), _signed_twice(m)
    _require_triad(a1, a2, a, "(j1, j2, j)")
    _check_projection(a1, b1)
    _check_projection(a2, b2)
    _check_projection(a, b)
    return a1, a2, a, b1, b2, b


def _coupling_parts(a1: int, a2: int, a: int, b1: int, b2: int,
                    b: int) -> Tuple[int, List[int], List[int]]:
    """(c, nums, dens) with the coupling coefficient of _coupling equal to
    c/(2j)! * sqrt(prod(nums!)/prod(dens!)); c is 0 when it vanishes."""
    if b1 + b2 != b:
        return 0, [], []
    w = _width(a1, a2, a)
    t = _split({_key(w, z=((a - b) // 2, (a + b) // 2)): 1}, w, "z", "x", "y", a1, a2, a)
    key = _key(w, x=((a1 - b1) // 2, (a1 + b1) // 2), y=((a2 - b2) // 2, (a2 + b2) // 2))
    # phase (-1)^((j+m)+(j1+m1)+(j2+m2)) from the three basis forms; the
    # surd combines sqrt(binom(2j, j-m)), the two monomial norms, and the
    # isometry constant into one factorial ratio
    r = (a1 + a2 - a) // 2
    sgn = -1 if ((a + b) // 2 + (a1 + b1) // 2 + (a2 + b2) // 2) % 2 else 1
    return (sgn * t.get(key, 0),
            [a, a + 1, (a1 - b1) // 2, (a1 + b1) // 2, (a2 - b2) // 2, (a2 + b2) // 2],
            [(a - b) // 2, (a + b) // 2, a1 + a2 - r + 1, r, a1 - r, a2 - r])


def _coupling(a1: int, a2: int, a: int, b1: int, b2: int, b: int) -> QuadraticSurd:
    """Vector coupling coefficient <e_{j1 m1} x e_{j2 m2} | i(e_{jm})>, for
    the twice-values (j1, j2, j, m1, m2, m) that _coupling_args checks.

    The injection is the isometric Clebsch-Gordan section with the standard
    (Brussaard/Condon-Shortley) positive phase: its constant is the positive
    root sqrt((2j1)!(2j2)!(2j+1)! / ((j1+j2+j+1)! and the three defects)).
    """
    c, nums, dens = _coupling_parts(a1, a2, a, b1, b2, b)
    return sqrt_factorial_ratio(nums, dens, c, factorial(a))


def threej(j1: HalfIntLike, j2: HalfIntLike, j: HalfIntLike,
           m1: HalfIntLike, m2: HalfIntLike, m: HalfIntLike) -> QuadraticSurd:
    """Wigner 3-j symbol (j1 j2 j; m1 m2 m): the coupling coefficient to
    (j, -m) times (-1)^(j1-j2-m) / sqrt(2j+1)."""
    a1, a2, a, b1, b2, b = _coupling_args(j1, j2, j, m1, m2, m)
    if b1 + b2 + b != 0:
        return QuadraticSurd.zero()
    sgn = -1 if ((a1 - a2 - b) // 2) % 2 else 1
    c, nums, dens = _coupling_parts(a1, a2, a, b1, b2, -b)
    return sqrt_factorial_ratio(nums + [a], dens + [a + 1], sgn * c, factorial(a))


# ---------------------------------------------------------------------------
# 6-j symbols
# ---------------------------------------------------------------------------


def sixj(js: Sequence[HalfIntLike]) -> QuadraticSurd:
    """6-j symbol {j1 j2 j12; j3 J j23}, row-major input order."""
    if len(js) != 6:
        raise ValueError("sixj expects six entries")
    j1, j2, j12, j3, J, j23 = (_twice(v) for v in js)
    _require_triad(j1, j2, j12, "(j1, j2, j12)")
    _require_triad(j2, j3, j23, "(j2, j3, j23)")
    _require_triad(j12, j3, J, "(j12, j3, J)")
    _require_triad(j1, j23, J, "(j1, j23, J)")

    w = _width(j1, j2, j12, j3, J, j23)
    t = _split({_key(w, z=(J, 0)): 1}, w, "z", "u", "y", j1, j23, J)
    t = _split(t, w, "y", "v", "w", j2, j3, j23)
    t = _merge(t, w, "u", "v", "x", j1, j2, j12)
    alpha = _chain_scalar(_merge(t, w, "x", "w", "z", j12, j3, J), w, J)

    p1 = _halves(j1 + j12 - j2, j2 + j12 - j1, j12 + J - j3, j3 + J - j12)
    p2 = _halves(j1 + j23 - J, j1 + J - j23, j23 + J - j1, j2 + j3 - j23,
                 j2 + j23 - j3, j3 + j23 - j2, j1 + j2 - j12, j12 + j3 - J)
    p3 = _halves(j1 + j2 + j12 + 2, j2 + j3 + j23 + 2, j1 + j23 + J + 2, j12 + j3 + J + 2)
    sgn = -1 if ((j1 + j2 + j3 + J) // 2) % 2 else 1
    return sqrt_factorial_ratio(p1, p2 + p3, sgn * (J + 1) * alpha)


# ---------------------------------------------------------------------------
# 9-j symbols
# ---------------------------------------------------------------------------


_PERMS3 = frozenset(permutations(range(3)))


class NineJArray:
    """3x3 array of half-integers whose rows and columns are all triads,
    held as twice-values; HalfInt appears only in `rows` and `str`."""

    __slots__ = ("_tw",)

    def __init__(self, rows: Sequence[Sequence[HalfIntLike]]):
        self._set(tuple(tuple(map(_twice, row)) for row in rows))

    @classmethod
    def _of_twice(cls, tw: Sequence[Sequence[int]]) -> "NineJArray":
        """The array of nonnegative twice-values tw, triads still checked."""
        self = object.__new__(cls)
        self._set(tuple(map(tuple, tw)))
        return self

    @classmethod
    def _image(cls, tw: Tuple[Tuple[int, ...], ...]) -> "NineJArray":
        """The transpose or row/column permutation tw of a valid array.  A
        triad stays a triad in any order, so tw needs no check."""
        self = object.__new__(cls)
        self._tw = tw
        return self

    def _set(self, tw: Tuple[Tuple[int, ...], ...]) -> None:
        try:
            (a, b, c), (d, e, f), (g, h, i) = tw
        except ValueError:
            raise ValueError("nine entries expected") from None
        # row 1, column 1, row 2, ...: the first that fails is reported
        for k, triad in enumerate(((a, b, c), (a, d, g), (d, e, f), (b, e, h), (g, h, i), (c, f, i))):
            if _triad_defects(*triad) is None:
                _require_triad(*triad, f"{('row', 'column')[k % 2]} {k // 2 + 1}")
        self._tw = tw

    @property
    def rows(self) -> Tuple[Tuple[HalfInt, ...], ...]:
        return tuple(tuple(HalfInt(v) for v in row) for row in self._tw)

    def twice_rows(self) -> Tuple[Tuple[int, ...], ...]:
        return self._tw

    def transpose(self) -> "NineJArray":
        return NineJArray._image(tuple(zip(*self._tw)))

    def permute(self, row_perm: Sequence[int], col_perm: Sequence[int]) -> "NineJArray":
        if tuple(row_perm) not in _PERMS3 or tuple(col_perm) not in _PERMS3:
            raise ValueError(f"not permutations of (0, 1, 2): {row_perm}, {col_perm}")
        r = self._tw
        return NineJArray._image(tuple(tuple(r[i][k] for k in col_perm) for i in row_perm))

    def entry_sum_twice(self) -> int:
        return sum(map(sum, self._tw))

    def __eq__(self, other):
        return isinstance(other, NineJArray) and self._tw == other._tw

    def __hash__(self):
        return hash(self._tw)

    def __str__(self):
        return "; ".join(" ".join(str(e) for e in row) for row in self.rows)


def _ninej_q_lists(tw: Sequence[Sequence[int]]) -> Tuple[List[int], List[int], List[int]]:
    (j1, j2, j12), (j3, j4, j34), (j13, j24, J) = tw
    q1 = _halves(j1 + j12 - j2, j2 + j12 - j1, j3 + j34 - j4,
                 j4 + j34 - j3, j12 + J - j34, j34 + J - j12)
    q2 = _halves(j1 + j2 + j12 + 2, j3 + j4 + j34 + 2, j13 + j24 + J + 2,
                 j1 + j3 + j13 + 2, j2 + j4 + j24 + 2, j12 + j34 + J + 2)
    q3 = _halves(j1 + j2 - j12, j3 + j4 - j34, j13 + j24 - J, j13 + J - j24,
                 j24 + J - j13, j1 + j3 - j13, j1 + j13 - j3, j3 + j13 - j1,
                 j2 + j4 - j24, j2 + j24 - j4, j4 + j24 - j2, j12 + j34 - J)
    return q1, q2, q3


def _ninej_chain(tw: Sequence[Sequence[int]]) -> int:
    """The scalar by which the 9-j recoupling chain multiplies z1^(2J),
    for the array of twice-values tw."""
    (j1, j2, j12), (j3, j4, j34), (j13, j24, J) = tw
    w = _width(j1, j2, j12, j3, j4, j34, j13, j24, J)
    t = _split({_key(w, z=(J, 0)): 1}, w, "z", "x", "y", j13, j24, J)
    t = _split(t, w, "x", "p", "q", j1, j3, j13)
    t = _split(t, w, "y", "u", "v", j2, j4, j24)
    t = _merge(t, w, "p", "u", "x", j1, j2, j12)
    t = _merge(t, w, "q", "v", "y", j3, j4, j34)
    return _chain_scalar(_merge(t, w, "x", "y", "z", j12, j34, J), w, J)


def ninej_operator(arr: NineJArray) -> QuadraticSurd:
    """9-j symbol via the recoupling operator chain on z1^(2J)."""
    tw = arr.twice_rows()
    beta = _ninej_chain(tw)
    q1, q2, q3 = _ninej_q_lists(tw)
    J = tw[2][2]
    return sqrt_factorial_ratio(q1, q2 + q3, (J + 1) * beta)


def _triple_sum_params(tw: Sequence[Sequence[int]]) -> Tuple[Tuple[int, ...], ...]:
    """The shifts (x1..x5), (y1..y5), (z1..z5), (p1, p2, p3) of the triple sum."""
    (j1, j2, j12), (j3, j4, j34), (j13, j24, J) = tw
    x1 = j34
    x2 = (j3 + j4 - j34) // 2
    x3 = (j12 - j34 + J) // 2
    x4 = (-j3 + j4 + j34) // 2
    x5 = (j12 + j34 - J) // 2
    y1 = (-j2 + j4 + j24) // 2
    y2 = (j13 + j24 - J) // 2
    y3 = j24 + 1
    y4 = (j2 + j4 - j24) // 2
    y5 = (j13 - j24 + J) // 2
    z1 = j1
    z2 = (-j1 + j2 + j12) // 2
    z3 = (j1 + j3 + j13 + 2) // 2
    z4 = (j1 + j3 - j13) // 2
    z5 = (j1 - j2 + j12) // 2
    p1 = (j1 + j3 - j24 + J) // 2
    p2 = (-j2 + j3 - j34 + j24) // 2
    p3 = (-j1 + j2 - j34 + J) // 2
    return (x1, x2, x3, x4, x5), (y1, y2, y3, y4, y5), (z1, z2, z3, z4, z5), (p1, p2, p3)


def _triple_sum(xs: Sequence[int], ys: Sequence[int], zs: Sequence[int],
                ps: Sequence[int]) -> Tuple[int, int]:
    """(total, den) with total/den the sum over x, y, z of (-1)^(x+y+z) times
    (x1-x)! (x2+x)! (x3+x)! / (x! (x4-x)! (x5-x)!)
    * (y1+y)! (y2+y)! / (y! (y3+y)! (y4-y)! (y5-y)!)
    * (z1-z)! (z2+z)! / (z! (z3-z)! (z4-z)! (z5-z)!)
    * (p1-y-z)! / ((p2+x+y)! (p3+x+z)!).

    With X, Y, Z = min(x4, x5), min(y4, y5), min(z4, z5), the caller
    guarantees p1 >= Y + Z, a term at the corner (X, Y, Z):
    p2 + X + Y >= 0 and p3 + X + Z >= 0, and factorials in x, y or z alone
    with arguments >= 0 over the box: x1 >= X, z1 >= Z, z3 >= Z and
    x2, x3, y1, y2, y3, z2 >= 0."""
    x1, x2, x3, x4, x5 = xs
    y1, y2, y3, y4, y5 = ys
    z1, z2, z3, z4, z5 = zs
    p1, p2, p3 = ps
    # The sum runs over the box x <= X, y <= Y, z <= Z.  Every bound of the
    # lattice that couples two indices is a zero of 1/(p2+x+y)! or
    # 1/(p3+x+z)!, carried by the zero-extended lists B[k] = 1/(p3+k)! and
    # C[k] = 1/(p2+k)!; and A[k] = (p1-k)! cuts nothing.  Over one common
    # denominator, the 13 denominator factorials each at its largest
    # argument M over the box, a denominator factorial arg! becomes the int
    # M!/arg!.  The factors in x, y or z alone are lists with leading zeros
    # below the least index that has a term; each runs from that term by the
    # ratio of consecutive terms, an exact division of ints.  A, B and C are
    # running products from the top, where B and C are 1 and a zero factor
    # (p3+k or p2+k = 0) zeroes every entry below it.
    X, Y, Z = min(x4, x5), min(y4, y5), min(z4, z5)
    mxy, mxz = p2 + X + Y, p3 + X + Z
    x_lo, y_lo, z_lo = max(0, -p2 - Y, -p3 - Z), max(0, -p2 - X), max(0, -p3 - X)
    f = factorial
    den = 1
    for m in (X, x4 - x_lo, x5 - x_lo, Y, y3 + Y, y4 - y_lo, y5 - y_lo,
              Z, z3 - z_lo, z4 - z_lo, z5 - z_lo, mxy, mxz):
        den *= f(m)
    w = (-1) ** x_lo * f(x1 - x_lo) * f(x2 + x_lo) * f(x3 + x_lo) * perm(X, X - x_lo)
    wx = [0] * x_lo + [w]
    for x in range(x_lo, X):
        w = -w * (x2 + x + 1) * (x3 + x + 1) * (x4 - x) * (x5 - x) // ((x1 - x) * (x + 1))
        wx.append(w)
    w = (-1) ** y_lo * f(y1 + y_lo) * f(y2 + y_lo) * perm(Y, Y - y_lo) * perm(y3 + Y, Y - y_lo)
    wy = [0] * y_lo + [w]
    for y in range(y_lo, Y):
        w = -w * (y1 + y + 1) * (y2 + y + 1) * (y4 - y) * (y5 - y) // ((y + 1) * (y3 + y + 1))
        wy.append(w)
    w = (-1) ** z_lo * f(z1 - z_lo) * f(z2 + z_lo) * perm(Z, Z - z_lo)
    wz = [0] * z_lo + [w]
    for z in range(z_lo, Z):
        w = -w * (z2 + z + 1) * (z3 - z) * (z4 - z) * (z5 - z) // ((z1 - z) * (z + 1))
        wz.append(w)
    A = list(accumulate(range(p1 - Y - Z + 1, p1 + 1), mul, initial=f(p1 - Y - Z)))[::-1]
    B = list(accumulate(range(mxz, p3, -1), mul, initial=1))[::-1]
    C = list(accumulate(range(mxy, p2, -1), mul, initial=1))[::-1]
    # The summand couples the indices in pairs, through C[x+y], B[x+z] and
    # A[y+z].  Each axis is (size, least index, weights, the pair list of the
    # other two axes, that list's leading zeros); the longest runs innermost,
    # in one sum over a product, and the shortest outermost.
    (U, u_lo, wu, pvw, _), (V, v_lo, wv, puw, _), (_, _, ww, puv, puv_lo) = sorted(
        ((X, x_lo, wx, A, 0), (Y, y_lo, wy, B, max(0, -p3)), (Z, z_lo, wz, C, max(0, -p2))),
        key=itemgetter(0))
    tails = [pvw[v:] for v in range(V + 1)]
    total = 0
    for u in range(u_lo, U + 1):
        row = list(map(mul, ww, puw[u:]))
        inner = 0
        for v in range(max(v_lo, puv_lo - u), V + 1):  # the first v with puv[u + v] != 0
            inner += wv[v] * puv[u + v] * sum(map(mul, row, tails[v]))
        total += wu[u] * inner
    return total, den


def ninej_triple_sum(arr: NineJArray) -> QuadraticSurd:
    """9-j symbol via the three-index summation formula."""
    tw = arr.twice_rows()
    (j1, j2, j12), (j3, j4, j34), (j13, j24, J) = tw
    # p1 = y5 + z4, and the triangle rules put a term at the box's corner
    xs, ys, zs, ps = _triple_sum_params(tw)
    total, den = _triple_sum(xs, ys, zs, ps)

    # the brackets [a,b,c] = sqrt((a-b+c)!(a+b-c)!(a+b+c+1)!/(-a+b+c)!) of
    # (j3,j1,j13), (j2,j4,j24), (J,j13,j24) over those of (j3,j4,j34),
    # (j2,j1,j12), (J,j12,j34); args twice-values
    nums = _halves(j3 - j1 + j13, j3 + j1 - j13, j3 + j1 + j13 + 2,
                   j2 - j4 + j24, j2 + j4 - j24, j2 + j4 + j24 + 2,
                   J - j13 + j24, J + j13 - j24, J + j13 + j24 + 2,
                   -j3 + j4 + j34, -j2 + j1 + j12, -J + j12 + j34)
    dens = _halves(-j3 + j1 + j13, -j2 + j4 + j24, -J + j13 + j24,
                   j3 - j4 + j34, j3 + j4 - j34, j3 + j4 + j34 + 2,
                   j2 - j1 + j12, j2 + j1 - j12, j2 + j1 + j12 + 2,
                   J - j12 + j34, J + j12 - j34, J + j12 + j34 + 2)
    sgn = -1 if xs[4] % 2 else 1
    return sqrt_factorial_ratio(nums, dens, sgn * total, den)


def ninej_support_size(arr: NineJArray) -> int:
    """Number of lattice triples (x, y, z) with a term in the triple sum."""
    (_, _, _, x4, x5), (_, _, _, y4, y5), (_, _, _, z4, z5), (_, p2, p3) = \
        _triple_sum_params(arr.twice_rows())
    # the terms at one x fill a y-range times a z-range, cut below by
    # p2 + x + y >= 0 and p3 + x + z >= 0 (see _triple_sum)
    Y, Z = min(y4, y5), min(z4, z5)
    return sum(max(0, Y + 1 - max(0, -p2 - x)) * max(0, Z + 1 - max(0, -p3 - x))
               for x in range(min(x4, x5) + 1))


_ROW_PERMS = [((0, 1, 2), 1), ((0, 2, 1), -1), ((1, 0, 2), -1),
              ((1, 2, 0), 1), ((2, 0, 1), 1), ((2, 1, 0), -1)]


def ninej_symmetry_check(arr: NineJArray, value=None) -> bool:
    """Transpose invariance plus the sign law for all 36 row/column
    permutations, checked with the triple-sum route."""
    if value is None:
        value = ninej_triple_sum(arr)
    if ninej_triple_sum(arr.transpose()) != value:
        return False
    # the value under one odd permutation; two odd ones cancel
    odd_value = -value if arr.entry_sum_twice() // 2 % 2 else value
    identity = (0, 1, 2)
    for rp, rsgn in _ROW_PERMS:
        for cp, csgn in _ROW_PERMS:
            if rp == identity and cp == identity:
                continue
            if ninej_triple_sum(arr.permute(rp, cp)) != (value if rsgn == csgn else odd_value):
                return False
    return True


# ---------------------------------------------------------------------------
# kappa through the 9-j bridge
# ---------------------------------------------------------------------------


def _check_admissible(m: int, n: int, r: int, i: int, j: int, a: int, b: int) -> None:
    if r < 2:
        raise ValueError("no quadratic syzygies below weight 2")
    if r > min(m, n):
        raise ValueError(f"inadmissible weight r={r} for orders ({m},{n})")
    if a < 0 or b < 0 or 2 * (a + b + 1) > r:
        raise ValueError(f"inadmissible lattice point ({a},{b}) for weight {r}")
    if i < 0 or j < 0 or i + j > r:
        raise ValueError(f"inadmissible index pair ({i},{j}) for weight {r}")


def _kappa_twice_rows(m: int, n: int, r: int, i: int, j: int, a: int, b: int) -> List[List[int]]:
    """Twice the entries of the 9-j array carrying kappa_ij at (a, b)."""
    return [
        [m, n, m + n - 2 * i],
        [m, n, m + n - 2 * j],
        [2 * m - 4 * a - 2, 2 * n - 4 * b - 2, 2 * (m + n - r)],
    ]


def _kappa_scale(m: int, n: int, r: int, i: int, j: int, a: int, b: int) -> Fraction:
    """K, the factor turning the 9-j chain scalar of the kappa array into kappa."""
    return (
        factor_h(m, n, i) * factor_h(m, n, j)
        * factor_h(m + n - 2 * i, m + n - 2 * j, r - i - j)
        / (factorial(2 * m + 2 * n - 2 * r)
           * factorial(2 * m - 4 * a - 2) * factorial(2 * n - 4 * b - 2))
    )


def kappa_ninej_arrays(m: int, n: int, r: int, i: int, j: int,
                       p: Tuple[int, int]) -> Tuple[NineJArray, NineJArray]:
    """The 9-j array carrying kappa, and its rearrangement that feeds the
    triple sum (rows 2 and 3 swapped, columns 1 and 3 swapped, transposed;
    the net permutation leaves the value unchanged)."""
    a, b = p
    rows = _kappa_twice_rows(m, n, r, i, j, a, b)
    base = NineJArray._of_twice(rows)
    swapped = base.permute((0, 2, 1), (2, 1, 0)).transpose()
    return base, swapped


def kappa_via_ninej(m: int, n: int, r: int, i: int, j: int,
                    p: Tuple[int, int]) -> Fraction:
    """Third route to the syzygy coefficient: through a 9-j symbol."""
    a, b = p
    _check_admissible(m, n, r, i, j, a, b)
    base, rearranged = kappa_ninej_arrays(m, n, r, i, j, p)
    value = ninej_triple_sum(rearranged)

    q1, q2, q3 = _ninej_q_lists(base.twice_rows())
    scale = _kappa_scale(m, n, r, i, j, a, b)
    J2 = 2 * (m + n - r)
    out = sqrt_factorial_ratio(q2 + q3, q1, scale.numerator, scale.denominator * (J2 + 1)) * value
    if not out.is_rational():
        raise ValueError("normalization mismatch")
    return out.to_fraction()
