"""Exact sparse arithmetic for polynomials in paired variables.

Every variable comes in a pair (x1, x2) drawn from a fixed registry of pair
names.  A MultiForm is a sparse polynomial over the rationals in any subset
of those pairs, with a homogeneity order per pair read off its terms; an
order a caller declares is checked against them.  On top of the
ring operations this module provides the differential operators that drive
everything else in the package: the omega operator (the 2x2 polarization
determinant), single-pair polarization, bracket monomials, pair
substitution, and exact division.  The operators and the product run on
one set of raw kernels over packed int exponent keys; a MultiForm packs
its tuple keys at that boundary.  Two steps, a split of one pair into two
and a merge of two pairs into one, are the one engine behind the 9-j
operator chain and the transvectant projection and section; both run
through `_step`, one pass over the input terms with one memo of monomial
images keyed by step signature, bounded at _MAX_MEMO_TERMS image slots.
`_primitive` is the package's one split of rational values into a content
and a primitive int part.  Transvectants of two binary forms run on their
own dense Leibniz kernel in the transvectant module.

All values are immutable and all operations are pure: inputs are never
mutated and equal inputs give equal outputs.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from math import comb, gcd, lcm, perm
from typing import Mapping, Optional, Sequence, Tuple, Union

Coeff = Union[int, Fraction]

PAIR_NAMES = ("p", "q", "u", "v", "w", "x", "y", "z")

_PAIR_SET = frozenset(PAIR_NAMES)


def _check_pair(name: str) -> None:
    if name not in _PAIR_SET:
        raise ValueError(f"unknown pair {name!r}")


# ---------------------------------------------------------------------------
# Raw kernels.
#
# The heavy pipelines (the 9-j operator chain, the transvectant projection
# and section, the MultiForm operations) run on plain dicts from packed
# exponent keys to coefficients.
# A key holds one exponent per slot (pair k of PAIR_NAMES has slots 2k and
# 2k+1) in a field of w bits, slot s at bit s*w, so a product of monomials
# is one integer addition (Monagan & Pearce, "Polynomial Division Using
# Dynamic Arrays, Heaps, and Packed Exponent Vectors", CASC 2007).  Callers
# pick w from the largest exponent an operation can produce, so no field
# carries into the next; MultiForm operations pack their tuple keys at the
# boundary with `_pack` and unpack with `_unpack`.  When the coefficients
# are ints the arithmetic stays in ints, which is several times faster than
# Fraction; `_primitive` splits rational values into a content and ints so
# that callers can feed their kernels ints and apply the content once at
# the end, with `_from_primitive`.  Kernels never mutate their input, and a
# zero power returns the input itself.
# ---------------------------------------------------------------------------


def _primitive(values: Sequence) -> tuple:
    """Split rational values into (content, ints), values == content * ints.

    The content is a positive Fraction and the ints are coprime, so they
    are the primitive part (Knuth, TAOCP vol. 2, 4.6.1); values that are
    all zero, or none, give content 0 and zeros.
    """
    num = gcd(*[v.numerator for v in values])
    if not num:
        return 0, [0] * len(values)
    den = lcm(*[v.denominator for v in values])
    if den == 1:  # int values: no denominator to scale out
        return Fraction(num), [v.numerator // num for v in values]
    return Fraction(num, den), [v.numerator * (den // v.denominator) // num for v in values]


def _from_primitive(pairs: tuple, content, items) -> "MultiForm":
    """The form content * sum(v * monomial(key)) over pairs, for the
    (exponent tuple, int v) items."""
    num, den = content.numerator, content.denominator
    return MultiForm._make(pairs, {key: Fraction(v * num, den) for key, v in items if v})


def _raw_add_into(acc: dict, terms: Mapping) -> None:
    for key, c in terms.items():
        nc = acc.get(key, 0) + c
        if nc:
            acc[key] = nc
        else:
            acc.pop(key, None)


def _width(*entries: int) -> int:
    """The field width that holds every exponent up to max(entries)."""
    return max(entries).bit_length()


def _offsets(w: int, name: str) -> Tuple[int, int]:
    """The bit offsets of pair name's two exponent fields."""
    s = 2 * PAIR_NAMES.index(name) * w
    return s, s + w


def _key(w: int, **exps: Tuple[int, int]) -> int:
    """Packed key with the given (e1, e2) per pair name, zero elsewhere."""
    key = 0
    for name, (e1, e2) in exps.items():
        o1, o2 = _offsets(w, name)
        key += (e1 << o1) + (e2 << o2)
    return key


def _pack(terms: Mapping, pairs: tuple, w: int) -> dict:
    """Terms keyed by exponent tuples laid out over pairs, rekeyed by packed
    keys of field width w."""
    offs = [o for name in pairs for o in _offsets(w, name)]
    return {sum([e << o for e, o in zip(key, offs)]): c for key, c in terms.items()}


def _unpack(terms: Mapping, pairs: tuple, w: int) -> dict:
    """Packed terms rekeyed by exponent tuples laid out over pairs; the
    fields of every other pair must be zero."""
    offs = [o for name in pairs for o in _offsets(w, name)]
    mask = (1 << w) - 1
    return {tuple([key >> o & mask for o in offs]): c for key, c in terms.items()}


def _raw_mul(t1: Mapping, t2: Mapping) -> dict:
    out: dict = {}
    get = out.get
    for k1, c1 in t1.items():
        for k2, c2 in t2.items():
            key = k1 + k2
            nc = get(key, 0) + c1 * c2
            if nc:
                out[key] = nc
            else:
                del out[key]
    return out


def _omega_terms(r: int, ea1: int, ea2: int, eb1: int, eb2: int) -> list:
    """(k, c) for the terms c * a1^(ea1-r+k) a2^(ea2-k) b1^(eb1-k) b2^(eb2-r+k)
    that omega^r sends a1^ea1 a2^ea2 b1^eb1 b2^eb2 to.

    omega = d/da1 d/db2 - d/da2 d/db1, so omega^r is
    sum_k (-1)^k C(r,k) da1^(r-k) da2^k db1^k db2^(r-k), and
    c = (-1)^k C(r,k) (ea1)_(r-k) (ea2)_k (eb1)_k (eb2)_(r-k).
    """
    terms = []
    for k in range(max(0, r - ea1, r - eb2), min(r, ea2, eb1) + 1):
        i = r - k
        c = comb(r, k) * perm(ea1, i) * perm(ea2, k) * perm(eb1, k) * perm(eb2, i)
        terms.append((k, -c if k & 1 else c))
    return terms


def _raw_omega_power(terms: Mapping, w: int, a: str, b: str, r: int) -> Mapping:
    if r == 0:
        return terms
    (a1, a2), (b1, b2) = _offsets(w, a), _offsets(w, b)
    mask = (1 << w) - 1
    moves = [((r - k) << a1) + (k << a2) + (k << b1) + ((r - k) << b2) for k in range(r + 1)]
    out: dict = {}
    get = out.get
    for key, c in terms.items():
        for k, ck in _omega_terms(r, key >> a1 & mask, key >> a2 & mask,
                                  key >> b1 & mask, key >> b2 & mask):
            nk = key - moves[k]
            nc = get(nk, 0) + c * ck
            if nc:
                out[nk] = nc
            else:
                del out[nk]
    return out


def _raw_polarize(terms: Mapping, w: int, src: str, dst: str, ell: int) -> Mapping:
    # (dst . d/dsrc)^ell = sum_k C(ell,k) dst1^k dst2^(ell-k) dsrc1^k dsrc2^(ell-k)
    if ell == 0:
        return terms
    (s1, s2), (d1, d2) = _offsets(w, src), _offsets(w, dst)
    mask = (1 << w) - 1
    binoms = [comb(ell, k) for k in range(ell + 1)]
    moves = [(k << d1) - (k << s1) + ((ell - k) << d2) - ((ell - k) << s2)
             for k in range(ell + 1)]
    out: dict = {}
    get = out.get
    for key, c in terms.items():
        e1, e2 = key >> s1 & mask, key >> s2 & mask
        for k in range(max(0, ell - e2), min(ell, e1) + 1):
            nk = key + moves[k]
            nc = get(nk, 0) + c * binoms[k] * perm(e1, k) * perm(e2, ell - k)
            if nc:
                out[nk] = nc
            else:
                del out[nk]
    return out


def _raw_substitute(terms: Mapping, w: int, src: str, dst: str) -> dict:
    # merge pair src into pair dst, zeroing the src fields
    (s1, s2), (d1, d2) = _offsets(w, src), _offsets(w, dst)
    mask = (1 << w) - 1
    m1, m2 = (1 << d1) - (1 << s1), (1 << d2) - (1 << s2)
    out: dict = {}
    get = out.get
    for key, c in terms.items():
        nk = key + (key >> s1 & mask) * m1 + (key >> s2 & mask) * m2
        nc = get(nk, 0) + c
        if nc:
            out[nk] = nc
        else:
            del out[nk]
    return out


def _raw_bracket_power(w: int, a: str, b: str, r: int) -> dict:
    # (ab)^r = sum_k (-1)^k C(r,k) a1^(r-k) a2^k b1^k b2^(r-k)
    (a1, a2), (b1, b2) = _offsets(w, a), _offsets(w, b)
    return {((r - k) << a1) + (k << a2) + (k << b1) + ((r - k) << b2):
            -comb(r, k) if k & 1 else comb(r, k) for k in range(r + 1)}


# ---------------------------------------------------------------------------
# The split and merge steps.
#
# Both steps run on one engine, `_step`: one pass over the input terms that
# looks up each term's monomial, in the fields the step reads, in one memo
# keyed by step signature.  An image is a tuple of (key offset, coefficient)
# items.  A split, signature (w, src, a, b, ja, jb, j), sends src1^e1
# src2^e2 to the same terms wherever it sits, shifted, so its image is the
# kernels run once on that monomial.  A merge, signature (w, a, b, dst, r),
# sends a1^ea1 a2^ea2 b1^eb1 b2^eb2 to dst1^(ea1+eb1-r) dst2^(ea2+eb2-r)
# times the sum of the `_omega_terms` coefficients: one item, or none when
# that sum is 0; the offset is right whether dst is a, b or a third pair.
# A signature's rule, computed once per group, gives the fields it reads and
# its image function.  The memo is a module global looked up at call time.
# It holds at most _MAX_MEMO_TERMS image slots, an image taking
# max(1, len(image)) so that empty images count too, and drops its oldest
# half when full: a dict scans past the slots its deleted oldest entries
# leave, so dropping them one at a time would be quadratic.
# ---------------------------------------------------------------------------

_MAX_MEMO_TERMS = 1 << 16


class _Images(dict):
    """Step images by step signature, each in a (field mask, image function,
    {monomial: image}) group, with the number of image slots stored."""

    __slots__ = ("slots",)

    def __init__(self):
        super().__init__()
        self.slots = 0


_step_images = _Images()


def _oldest_half(memo: dict) -> list:
    return list(islice(memo, (len(memo) + 1) // 2))


def _step(t: dict, sig: tuple, rule) -> dict:
    """The step with signature sig on t; rule(sig) gives the mask of the
    fields the step reads and the function from a monomial to its image."""
    group = _step_images.get(sig) or (*rule(sig), {})
    field, fill, images = group
    out: dict = {}
    get = out.get
    for key, c in t.items():
        mono = key & field
        image = images.get(mono)
        if image is None:
            image = fill(mono)
            images = _remember(sig, group, mono, image, images)
        for move, ci in image:
            nk = key + move
            nc = get(nk, 0) + c * ci
            if nc:
                out[nk] = nc
            else:
                del out[nk]
    return out


def _remember(sig: tuple, group: tuple, mono: int, image: tuple, images: dict) -> dict:
    """Store image in the memo; return the images to look up next, those of
    sig in the memo, which the eviction may have replaced by a new group."""
    memo = _step_images
    slots = len(image) or 1
    if slots > _MAX_MEMO_TERMS:
        return images
    while memo.slots + slots > _MAX_MEMO_TERMS:
        for old in _oldest_half(memo):
            memo.slots -= sum([len(i) or 1 for i in memo.pop(old)[2].values()])
    live = memo.get(sig)
    if live is None:
        live = memo[sig] = (group[0], group[1], {})
    live[2][mono] = image
    memo.slots += slots
    return live[2]


def _split(t: dict, w: int, src: str, a: str, b: str, ja: int, jb: int, j: int) -> dict:
    """Split pair src, of order j, into pairs a and b of orders ja and jb."""
    return _step(t, (w, src, a, b, ja, jb, j), _split_rule)


def _split_rule(sig: tuple) -> tuple:
    w, src, a, b, ja, jb, j = sig
    r = (ja + jb - j) // 2
    bracket = _raw_bracket_power(w, a, b, r)

    def image(mono: int) -> tuple:
        t = _raw_polarize({mono: 1}, w, src, a, (ja + j - jb) // 2)
        t = _raw_polarize(t, w, src, b, (jb + j - ja) // 2)
        if r:
            t = _raw_mul(t, bracket)
        return tuple([(key - mono, c) for key, c in t.items()])
    return ((1 << 2 * w) - 1) << _offsets(w, src)[0], image


def _merge(t: dict, w: int, a: str, b: str, dst: str, ja: int, jb: int, jab: int) -> dict:
    """Couple pairs a and b, of orders ja and jb, to order jab in pair dst,
    which may be one of them."""
    return _step(t, (w, a, b, dst, (ja + jb - jab) // 2), _merge_rule)


def _merge_rule(sig: tuple) -> tuple:
    w, a, b, dst, r = sig
    (a1, a2), (b1, b2), (d1, d2) = _offsets(w, a), _offsets(w, b), _offsets(w, dst)
    mask = (1 << w) - 1

    def image(mono: int) -> tuple:
        ea1, ea2, eb1, eb2 = mono >> a1 & mask, mono >> a2 & mask, mono >> b1 & mask, mono >> b2 & mask
        weight = sum([c for _, c in _omega_terms(r, ea1, ea2, eb1, eb2)])
        if not weight:
            return ()
        return ((((ea1 + eb1 - r) << d1) + ((ea2 + eb2 - r) << d2) - mono, weight),)
    return (mask << a1) | (mask << a2) | (mask << b1) | (mask << b2), image


# ---------------------------------------------------------------------------
# MultiForm
# ---------------------------------------------------------------------------


class MultiForm:
    """A sparse rational polynomial in registered variable pairs.

    Terms are keyed by flattened exponent tuples laid out pair by pair in
    alphabetical pair order: for pairs ("x", "y") the key (2, 0, 1, 1)
    means x1^2 * y1 * y2.  `orders` gives the homogeneity order of the
    form in each active pair, read off the terms: the exponent sum they
    share in that pair, or None when they disagree (a transient state that
    arises from adding forms of different orders and is never produced by
    the operator routes).  Pairs of order 0 are pruned.

    The constructor's `orders` names the pairs the exponent keys lay out
    and may declare their orders; a declared int is checked against the
    terms, None declares nothing.
    """

    __slots__ = ("pairs", "orders", "terms", "_hash")

    def __init__(self, orders: Mapping[str, Optional[int]], terms: Mapping[tuple, Coeff]):
        pairs = tuple(sorted(orders))
        for name in pairs:
            _check_pair(name)
            o = orders[name]
            if o is not None and (not isinstance(o, int) or o < 0):
                raise ValueError(f"bad order for pair {name!r}: {o!r}")
        width = 2 * len(pairs)
        for key in terms:
            if len(key) != width or any((not isinstance(e, int)) or e < 0 for e in key):
                raise ValueError(f"bad exponent key {key!r} for pairs {pairs!r}")
        self._canonicalize(pairs, {tuple(key): Fraction(c) for key, c in terms.items()})
        if self.terms:
            for name in pairs:
                if orders[name] is not None and self.order(name) != orders[name]:
                    raise ValueError(f"order mismatch for pair {name!r}")

    @classmethod
    def _make(cls, pairs: tuple, terms: Mapping[tuple, Coeff]) -> "MultiForm":
        # internal fast path: trusted layout, still canonicalized
        self = object.__new__(cls)
        self._canonicalize(pairs, terms)
        return self

    def _canonicalize(self, pairs: tuple, terms: Mapping[tuple, Coeff]) -> None:
        # the one place a form's shape is decided: a pair's order is its
        # exponent sum, None when the terms disagree, and pairs of order 0
        # are pruned
        terms = {k: Fraction(c) for k, c in terms.items() if c}
        keep = []
        orders = {}
        drop = set()
        for i, name in enumerate(pairs):
            sums = {key[2 * i] + key[2 * i + 1] for key in terms}
            if sums <= {0}:  # the zero form, or order 0 in this pair
                drop.update((2 * i, 2 * i + 1))
            else:
                keep.append(name)
                orders[name] = sums.pop() if len(sums) == 1 else None
        if drop:
            terms = {
                tuple(e for j, e in enumerate(key) if j not in drop): c
                for key, c in terms.items()
            }
        object.__setattr__(self, "pairs", tuple(keep))
        object.__setattr__(self, "orders", orders)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "_hash", None)

    # -- queries ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def order(self, pair: str) -> Optional[int]:
        _check_pair(pair)
        if pair not in self.orders:
            return 0
        return self.orders[pair]

    def _slot(self, pair: str) -> int:
        try:
            return 2 * self.pairs.index(pair)
        except ValueError:
            raise ValueError(f"inactive pair {pair!r}") from None

    def coefficient(self, exps: Mapping[str, tuple]) -> Fraction:
        """Coefficient of the monomial with the given per-pair exponents."""
        key = [0] * (2 * len(self.pairs))
        for name, (e1, e2) in exps.items():
            if (e1, e2) == (0, 0) and self.order(name) == 0:
                continue  # canonicalisation prunes pairs of order 0
            s = self._slot(name)
            key[s] = e1
            key[s + 1] = e2
        return self.terms.get(tuple(key), Fraction(0))

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiForm):
            return NotImplemented
        return self.pairs == other.pairs and self.terms == other.terms

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.pairs, frozenset(self.terms.items())))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        if not self.terms:
            return "MultiForm(0)"
        bits = []
        for key in sorted(self.terms, reverse=True):
            c = self.terms[key]
            mono = []
            for i, name in enumerate(self.pairs):
                for comp in (0, 1):
                    e = key[2 * i + comp]
                    if e == 1:
                        mono.append(f"{name}{comp + 1}")
                    elif e > 1:
                        mono.append(f"{name}{comp + 1}^{e}")
            body = "*".join(mono) if mono else "1"
            bits.append(f"{c}*{body}" if mono else f"{c}")
        return "MultiForm(" + " + ".join(bits) + ")"

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "MultiForm":
        return MultiForm._make((), {})

    @staticmethod
    def constant(c: Coeff) -> "MultiForm":
        return MultiForm._make((), {(): c})

    @staticmethod
    def monomial(exps: Mapping[str, tuple], coeff: Coeff = 1) -> "MultiForm":
        """Single-term form, e.g. monomial({"x": (2, 1)}, 3) = 3*x1^2*x2."""
        orders = {name: e1 + e2 for name, (e1, e2) in exps.items()}
        pairs = tuple(sorted(orders))
        key = []
        for name in pairs:
            key.extend(exps[name])
        return MultiForm(orders, {tuple(key): coeff})

    # -- operator sugar ----------------------------------------------------

    def __add__(self, other: "MultiForm") -> "MultiForm":
        return add(self, other)

    def __sub__(self, other: "MultiForm") -> "MultiForm":
        return add(self, negate(other))

    def __neg__(self) -> "MultiForm":
        return negate(self)

    def __mul__(self, other):
        if isinstance(other, MultiForm):
            return mul(self, other)
        return scale(self, other)

    def __rmul__(self, other):
        return scale(self, other)


# ---------------------------------------------------------------------------
# ring operations
# ---------------------------------------------------------------------------


def _aligned(terms: Mapping, old_pairs: tuple, new_pairs: tuple) -> dict:
    if old_pairs == new_pairs:
        return dict(terms)
    slot_of = {name: i for i, name in enumerate(new_pairs)}
    width = 2 * len(new_pairs)
    out = {}
    for key, c in terms.items():
        nk = [0] * width
        for i, name in enumerate(old_pairs):
            j = slot_of[name]
            nk[2 * j] = key[2 * i]
            nk[2 * j + 1] = key[2 * i + 1]
        out[tuple(nk)] = c
    return out


def add(f: MultiForm, g: MultiForm) -> MultiForm:
    if not f.terms:
        return g
    if not g.terms:
        return f
    pairs = tuple(sorted(set(f.pairs) | set(g.pairs)))
    terms = _aligned(f.terms, f.pairs, pairs)
    _raw_add_into(terms, _aligned(g.terms, g.pairs, pairs))
    return MultiForm._make(pairs, terms)


def negate(f: MultiForm) -> MultiForm:
    return MultiForm._make(f.pairs, {k: -c for k, c in f.terms.items()})


def scale(f: MultiForm, c: Coeff) -> MultiForm:
    c = Fraction(c)
    return MultiForm._make(f.pairs, {k: v * c for k, v in f.terms.items()})


def _top(f: MultiForm) -> int:
    """A bound on every exponent of f: its largest pair order, or its
    largest exponent when some pair has no single order."""
    orders = f.orders.values()
    if None in orders:
        return max(map(max, f.terms))
    return max(orders, default=0)


def _packed_op(f: MultiForm, pairs: tuple, w: int, kernel, *args) -> MultiForm:
    """kernel applied to f's terms packed in fields of width w, the result
    read back over pairs."""
    return MultiForm._make(pairs, _unpack(kernel(_pack(f.terms, f.pairs, w), *args), pairs, w))


def mul(f: MultiForm, g: MultiForm) -> MultiForm:
    if not f.terms or not g.terms:
        return MultiForm.zero()
    pairs = tuple(sorted(set(f.pairs) | set(g.pairs)))
    w = _width(_top(f) + _top(g))
    return _packed_op(f, pairs, w, _raw_mul, _pack(g.terms, g.pairs, w))


def evaluate(f: MultiForm, assignment: Mapping[str, tuple]) -> Fraction:
    """Evaluate at rational points, one (value1, value2) per active pair."""
    for name in f.pairs:
        if name not in assignment:
            raise ValueError(f"missing assignment for pair {name!r}")
    vals = [(Fraction(assignment[name][0]), Fraction(assignment[name][1])) for name in f.pairs]
    total = Fraction(0)
    for key, c in f.terms.items():
        term = c
        for i, (a1, a2) in enumerate(vals):
            e1, e2 = key[2 * i], key[2 * i + 1]
            if e1:
                term *= a1 ** e1
            if e2:
                term *= a2 ** e2
        total += term
    return total


def exact_divide(f: MultiForm, g: MultiForm) -> MultiForm:
    """Quotient f/g when g divides f exactly; raises otherwise.

    Runs lexicographic leading-term reduction: lex is multiplicative, so
    when f = q*g the leading term of f factors as LT(q)*LT(g) and the
    reduction peels off one quotient term per step.
    """
    if not g.terms:
        raise ZeroDivisionError("division by zero form")
    pairs = tuple(sorted(set(f.pairs) | set(g.pairs)))
    rem = _aligned(f.terms, f.pairs, pairs)
    gt = _aligned(g.terms, g.pairs, pairs)
    glt = max(gt)
    gc = gt[glt]
    quot: dict = {}
    while rem:
        rlt = max(rem)
        qk = tuple(a - b for a, b in zip(rlt, glt))
        if any(e < 0 for e in qk):
            raise ValueError("inexact division")
        qc = rem[rlt] / gc
        quot[qk] = qc
        for k, c in gt.items():
            nk = tuple(a + b for a, b in zip(qk, k))
            nc = rem.get(nk, 0) - qc * c
            if nc:
                rem[nk] = nc
            else:
                rem.pop(nk, None)
    return MultiForm._make(pairs, quot)


# ---------------------------------------------------------------------------
# differential and bracket operators
# ---------------------------------------------------------------------------


def omega_power(f: MultiForm, a: str, b: str, r: int) -> MultiForm:
    """Apply the omega operator for pairs (a, b) r times in one pass.

    omega = d/da1 d/db2 - d/da2 d/db1.  Lowers the order in each of the
    two pairs by r.
    """
    _check_pair(a)
    _check_pair(b)
    if a == b:
        raise ValueError(f"degenerate pair {a!r}")
    if r < 0:
        raise ValueError("negative operator power")
    if r == 0:
        return f
    f._slot(a)
    f._slot(b)
    w = _width(_top(f))
    return _packed_op(f, f.pairs, w, _raw_omega_power, w, a, b, r)


def polarize(f: MultiForm, src: str, dst: str, ell: int) -> MultiForm:
    """Apply the polarization operator (dst . d/dsrc) ell times in one pass.

    Moves ell degrees from pair src to pair dst.  When ell exceeds the
    order in src the result is the zero form.
    """
    _check_pair(src)
    _check_pair(dst)
    if src == dst:
        raise ValueError(f"degenerate pair {src!r}")
    if ell < 0:
        raise ValueError("negative operator power")
    if ell == 0:
        return f
    f._slot(src)
    w = _width(_top(f) + ell)
    pairs = tuple(sorted(set(f.pairs) | {dst}))
    return _packed_op(f, pairs, w, _raw_polarize, w, src, dst, ell)


def bracket_power(a: str, b: str, r: int) -> MultiForm:
    """The bracket monomial (ab)^r = (a1*b2 - a2*b1)^r, expanded."""
    _check_pair(a)
    _check_pair(b)
    if a == b:
        raise ValueError(f"degenerate bracket ({a}{b})")
    if r < 0:
        raise ValueError("negative bracket power")
    if r == 0:
        return MultiForm.constant(1)
    w = _width(r)
    pairs = tuple(sorted((a, b)))
    return MultiForm._make(pairs, _unpack(_raw_bracket_power(w, a, b, r), pairs, w))


def substitute_pair(f: MultiForm, src: str, dst: str) -> MultiForm:
    """Rename pair src to dst, merging exponents if dst is already active."""
    _check_pair(src)
    _check_pair(dst)
    if src == dst:
        return f
    f._slot(src)
    w = _width(2 * _top(f))
    pairs = tuple(sorted(set(f.pairs) - {src} | {dst}))
    return _packed_op(f, pairs, w, _raw_substitute, w, src, dst)


def linear_substitute(f: MultiForm, pair: str, coeffs: tuple) -> MultiForm:
    """Apply x1 -> a*x1 + b*x2, x2 -> c*x1 + d*x2 to one pair."""
    _check_pair(pair)
    s = f._slot(pair)
    a, b, c, d = (Fraction(v) for v in coeffs)
    out: dict = {}
    for key, co in f.terms.items():
        e1, e2 = key[s], key[s + 1]
        for i in range(e1 + 1):
            for j in range(e2 + 1):
                mult = co * comb(e1, i) * comb(e2, j) * a**i * b**(e1 - i) * c**j * d**(e2 - j)
                if not mult:
                    continue
                nk = list(key)
                nk[s] = i + j
                nk[s + 1] = (e1 - i) + (e2 - j)
                nk = tuple(nk)
                nc = out.get(nk, 0) + mult
                if nc:
                    out[nk] = nc
                else:
                    del out[nk]
    return MultiForm._make(f.pairs, out)

