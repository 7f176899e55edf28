"""Clifford algebras of signature (p, q) and sparse multivector arithmetic.

An Algebra fixes an orthonormal basis e1..en where the first p vectors square
to +1 and the remaining q square to -1 (diagonal nondegenerate metric only).
Basis blades are encoded as bitmasks: bit i-1 set means e_i is a factor, with
factors kept in ascending index order and reordering signs folded into
coefficients. A Multivector is a sparse map from basis blades to real
coefficients; coefficients at or below the algebra tolerance are dropped after
every operation, so "is zero" means "has no terms".

The product of basis blades a and b is the blade a ^ b (bitwise xor) with a
sign of -1 exactly when (m & b) has an odd number of bits, where the mask m
of a is the reordering parity mask (a >> 1) ^ (a >> 2) ^ ... xor the shared
negative-square factors a & minus_mask. Each factor of b passes every higher
factor of a, and each shared factor that squares to -1 adds its metric sign
(Dorst, Fontijne & Mann, Geometric Algebra for Computer Science, ch. 19).
Index tuples given at the API are sorted into blades by the same rule: each
index passes every higher index placed before it, one sign flip per pass.

Products run one pair loop in one of three regimes, chosen first from the
dimension and then, above n = 6, from the operand sizes:

- With n <= 6, every product runs in Python over the term dicts and reads
  each pair's sign and selection from a table of the signature and product
  kind: row ka holds, for every blade kb, the sign of ka*kb (+1.0 or -1.0)
  when the product keeps the pair and 0.0 when it does not. The tables are
  built on first use and kept per signature, so fresh algebras of one
  signature share them; all four kinds take 140 KiB and 2.3 ms to build at
  n = 6. Multiplying by the +-1.0 entry is an exact negation, so the sums are
  the ones the bit computation below gives, bit for bit. These algebras
  never import numpy: its import (80-110 ms) costs about as much as a
  hundred of the largest products there, 64 x 64 blades, which take 0.4-0.9
  ms each in the loop against 0.1 ms in numpy (2-CPU x86-64 VM).
- With n >= 7, small products (fewer than _DENSE_MIN_PAIRS blade pairs, or
  fewer pairs than the algebra has blades) run the same Python loop, but
  work out each left blade's sign mask and selection from its bits: the
  blade tables would take 0.5 MiB and 8 ms to build at n = 7 and 2 MiB and
  26 ms at n = 8.
- With n >= 7, larger products, where the algebra's 2^n blades are no more
  than the pairs (so the arrays of 2^n sums and signs are no larger than the
  work, and the keys fit int64 however large max_dimension is), run in
  numpy, which is imported only then. The keys and coefficients become
  arrays and the sign masks of the left keys are computed once, in
  ceil(log2 n) doubling steps. The pair sign is read from a table of 2^n
  parities, +1.0 or -1.0 for the popcount of m & b, and multiplied in. The
  select decides the path of each block of rows: _gp_select keeps every
  pair, so a geometric product's block is used as it is; any other select
  gives its kept pairs once, and only they are gathered, multiplied and
  signed, even where its operands happen to keep them all. np.add.at then
  adds each kept pair into a dense array of 2^n sums. The result is the
  Python loop's, bit for bit: np.add.at adds the pairs one at a time in the
  loop's order, and the blades are put in the order the loop first meets
  them (np.minimum.at of the pair index).

The prune and every result after it are therefore the same whichever regime
runs.

A product whose result grades are known in advance (a versor or blade
sandwich keeps the grades of what it moves, and A reverse(A) below has
only grades 0 and 1 mod 4) takes _graded_product. With n <= 6 and fewer
blades of those grades than the right operand has terms, it takes each kept
blade x in turn and sums, over the left terms ka in order, the pairs with
the right term at ka ^ x into one local sum, so an n = 6 vector sandwich
visits 32 x 6 pairs instead of 32 x 32. The first hit records where the
full product first meets x. So each kept blade sums its pairs in the full
product's order, and the result is the full product's terms at those
grades, bit for bit and in the same key order; the other grades, which are
roundoff, are never formed. Otherwise it forms the full product and
filters it by _grade_part, the one grade projection, which grade,
even_part, odd_part and grade_nonscalar take too.

A composite is built in the algebra's twin with tolerance 0 and pruned once,
on return: the exp series of a bivector that is not a blade; the blades a_S
of vectors, their volume test and their reciprocals, kept in the frames
module's _Wedges memo; and the blade and versor sandwiches of the
transforms module, whose inverse and first product both stay in the twin.

Every inverse is _twin_inverse's: reverse(A)/|A|^2, formed in the twin for
A scaled exactly by a power of two to |A| in [1, 2), so |A|^2 neither
overflows nor underflows. It is the inverse of A whenever A reverse(A) is a
nonzero scalar s, whatever A's grades: then A (reverse(A)/s) = 1, and in a
finite-dimensional algebra a right inverse is two-sided. inverse() takes it
through _checked_inverse after that square test alone (_reverse_square);
apply_versor takes it there after the versor check (_versor_square), which
is one grade parity, then the square test; the blade transforms take it
after is_blade. The test and the inverse share one product: the square
test forms A reverse(A) for the scaled A once, and |A|^2 is its scalar
part, which sums scalar_product's pairs in its order, so the inverse is
_twin_inverse's, bit for bit. The versor check is exact for n <= 5 and
admits non-versors from n = 6: in Cl(6,0), V = e123 + e456 passes it, and
apply_versor(e1, V) returns 0.

Every verdict that a residue is roundoff is _negligible's, read at the
algebra's tolerance tol: a residue R formed from an object X is roundoff when
no coefficient of R exceeds tol * |X|^d, with |.| the coefficient norm and d
the degree of R in X. d = 1 for a residue linear in X: F + Fbar or F - Fbar
against the matrix of a map F, and F(A) - lambda A against F(A) in
eigenblade_check. d = 2 for a quadratic one: u ^ A in is_blade, the
non-scalar part of A reverse(A) in the square test, B ^ B in exp, and |A|^2
in inverse() and rotor_from_vectors. A reverse(A) is its own reverse, so
its grades 2 and 3 mod 4 vanish identically, and for A of one parity its
odd grades too: the square test forms and reads only its grades 4, 8, ...
for one parity, and 1, 4, 5, 8, 9, ... for mixed parity. A wedge
is also roundoff when its norm is, with d = 1, against Hadamard's bound on
it, sum |c| prod |v_i| for the wedges c v_1 ^ ... ^ v_k it sums
(_hadamard_negligible): so vectors are dependent, and F(A) is 0 in
eigenblade_check. A vector whose norm overflows leaves that bound inf at
every scale and raises NonFiniteError, as |A| does in _unit_scaled. The
wedge V of vectors v_i is singular when <reverse(V) V>_0 is roundoff, or
when the vectors are dependent. is_blade, the square test and _twin_inverse
form their residues from that same scaled A in the twin (_unit_scaled), so
neither the prune nor the float range can hide them; eigenblade_check
forms its residues in the twin.

A coefficient that is NaN or infinite (an overflow, or an inf/nan input)
raises NonFiniteError wherever terms are pruned, instead of being pruned
to zero or printed as inf.

Multivectors and algebras are immutable values; every operation is a pure
function and results may be shared freely across threads.
"""

import math
from itertools import combinations
from numbers import Integral, Real

MAX_DIMENSION = 12
DEFAULT_TOLERANCE = 1e-10

_EXP_SERIES_TERMS = 24
_INF = math.inf

# The sign of each involution on a grade-r blade, indexed by r % 4: all three
# repeat with period 4 in r.
_GRADE_INVOLUTION_SIGNS = (1.0, -1.0, 1.0, -1.0)
_REVERSE_SIGNS = (1.0, 1.0, -1.0, -1.0)
_CLIFFORD_CONJUGATE_SIGNS = (1.0, -1.0, -1.0, 1.0)

# Every product up to this dimension runs in the Python loop and reads each
# pair's sign and selection from a table of the signature and product kind.
# All four kinds of one signature take 140 KiB and 2.3 ms to build at n = 6;
# at n = 7 they would take 0.5 MiB and 8 ms, at n = 8 2 MiB and 26 ms (2-CPU
# x86-64 VM, Python 3.11), so above 6 the loop works the sign out from the
# blade bits.
_TABLE_MAX_N = 6
# (n, minus mask, select function) -> pair table. Kept per signature, not per
# Algebra, so fresh algebras of one signature share them; at most four tables
# for each of the 28 signatures with n <= 6.
_PAIR_TABLES = {}

# Above _TABLE_MAX_N, products with at least this many blade pairs take the
# numpy branch. The bit loop wins below about 512 pairs (a contraction at 512
# pairs runs 0.8-1.0x as fast in numpy); from 1024 pairs numpy wins on every
# product kind measured for n = 7..12. Up to _TABLE_MAX_N the table loop runs
# whatever the pair count: 1024 pairs take it 0.1-0.2 ms against 0.06-0.1 ms
# in numpy, whose import costs 80-110 ms.
_DENSE_MIN_PAIRS = 1024
# Pairs per numpy block: keeps the block's temporaries under about 1 MB. A
# block makes about fifteen numpy calls, each one pass over its kept pairs
# (over all its pairs, for the geometric product), the two scatters included.
_DENSE_BLOCK_PAIRS = 1 << 13


class GAError(Exception):
    """Base class for geometric-algebra errors."""


class AlgebraMismatch(GAError):
    """Operands belong to different algebras."""


class NotInvertible(GAError):
    """A null versor, null blade, or singular object cannot be inverted."""


class GradeError(GAError):
    """The operand does not have the grade structure the operation needs."""


class NonFiniteError(GAError):
    """A coefficient is NaN or infinite: an overflow, or a non-finite input."""


class Algebra:
    """The signature (p, q): p basis vectors square to +1, q square to -1.

    Attributes:
        p: count of +1-squaring basis vectors.
        q: count of -1-squaring basis vectors.
        n: total dimension p + q.
        tolerance: finite nonnegative zero-test threshold for coefficients.
        metric: tuple of +-1.0 metric entries, length n.

    Raises ValueError when p or q is not a nonnegative integer, when p + q
    exceeds max_dimension, or when the tolerance is not finite and nonnegative.
    """

    __slots__ = ("p", "q", "n", "tolerance", "metric", "_minus_mask")

    def __init__(self, p, q, tolerance=DEFAULT_TOLERANCE, max_dimension=MAX_DIMENSION):
        if not (isinstance(p, Integral) and isinstance(q, Integral)):
            raise ValueError("signature counts must be integers")
        if p < 0 or q < 0:
            raise ValueError("signature counts must be nonnegative")
        if p + q > max_dimension:
            raise ValueError(
                f"dimension {p + q} exceeds the configured maximum {max_dimension}")
        if not 0 <= tolerance < math.inf:
            raise ValueError("tolerance must be finite and nonnegative")
        self.p = int(p)
        self.q = int(q)
        self.n = self.p + self.q
        self.tolerance = float(tolerance)
        self.metric = (1.0,) * self.p + (-1.0,) * self.q
        self._minus_mask = ((1 << self.q) - 1) << self.p

    def __eq__(self, other):
        if not isinstance(other, Algebra):
            return NotImplemented
        return (self.p, self.q, self.tolerance) == (other.p, other.q, other.tolerance)

    def __hash__(self):
        return hash((self.p, self.q, self.tolerance))

    def __repr__(self):
        return f"Algebra({self.p}, {self.q})"

    # -- construction helpers ------------------------------------------------

    def zero(self):
        return Multivector._make(self, {})

    def scalar(self, value):
        return Multivector._make(self, {0: float(value)})

    def basis_vector(self, i):
        """The basis vector e_i, 1-based."""
        return self.blade((i,))

    def vector(self, components):
        """A grade-1 multivector from n components; ValueError for any other count."""
        comps = [float(c) for c in components]
        if len(comps) != self.n:
            raise ValueError(f"expected {self.n} components, got {len(comps)}")
        return Multivector._make(
            self, {1 << i: c for i, c in enumerate(comps)})

    def blade(self, indices, coeff=1.0):
        """The basis blade e_i1 ^ ... ^ e_ir times coeff, indices in any order.

        Raises ValueError for an index outside 1..n or a repeated index.
        """
        return self.multivector({tuple(indices): coeff})

    def multivector(self, terms):
        """Build a multivector from a mapping of index tuples to coefficients."""
        return Multivector(self, terms)

    @property
    def I(self):
        """The volume element e1 e2 ... en."""
        if self.n == 0:
            raise GAError("a scalar-only algebra has no volume element")
        return Multivector._make(self, {(1 << self.n) - 1: 1.0})

    @property
    def I_inverse(self):
        """I^-1 = +-I: reversing I gives (-1)^(n(n-1)/2), and I reverse(I) = (-1)^q."""
        volume = self.I
        if not volume:  # a tolerance of 1 or more prunes I
            raise NotInvertible(f"null versor has no inverse: {volume}")
        return -volume if (self.n * (self.n - 1) // 2 + self.q) & 1 else volume

    def basis_blades(self):
        """All 2^n basis blades as index tuples, ordered by grade then lexicographically."""
        blades = [_bits_to_indices(bits) for bits in range(1 << self.n)]
        blades.sort(key=lambda t: (len(t), t))
        return blades

    # -- blade-level product -------------------------------------------------

    def blade_product(self, x, y):
        """Product of two basis blades given as index tuples.

        Returns (result index tuple, sign), where sign is the reordering
        parity times the metric factors of the shared indices. Raises
        ValueError for an index outside 1..n or a repeated index.
        """
        a, xs = _blade_key(self.n, x)
        b, ys = _blade_key(self.n, y)
        sign = -1.0 if (_sign_mask(a, self._minus_mask, self.n) & b).bit_count() & 1 else 1.0
        return _bits_to_indices(a ^ b), sign * xs * ys


def _sign_mask(a, minus_mask, n):
    """The mask m of blade a < 2^n: the product a*b has sign -1 when m & b has odd popcount.

    m is (a >> 1) ^ (a >> 2) ^ ... ^ (a >> (n-1)) ^ (a & minus_mask). The
    shifts are xored as a prefix sum in ceil(log2 n) doubling steps, the same
    code for an int or an int64 array of blades.
    """
    x = a >> 1
    shift = 1
    while shift < n:
        x ^= x >> shift
        shift <<= 1
    return x ^ (a & minus_mask)


def _gp_select(ka):
    """Every pair: the geometric product."""
    return 0, 0


def _outer_select(ka):
    """Pairs with no common factor: the outer product."""
    return ka, 0


def _lcontract_select(ka):
    """Pairs whose left blade lies in the right one: the left contraction."""
    return ka, ka


def _rcontract_select(ka):
    """Pairs whose right blade lies in the left one: the right contraction."""
    return ~ka, 0


def _pair_table(n, minus_mask, select):
    """The pair table of a signature and product kind, built on first use.

    Row ka, column kb holds the sign of the blade product ka*kb (+1.0 or
    -1.0) when select keeps the pair, and 0.0 when it does not.
    """
    key = (n, minus_mask, select)
    table = _PAIR_TABLES.get(key)
    if table is None:
        blades = range(1 << n)
        rows = []
        for ka in blades:
            f, g = select(ka)
            mask = _sign_mask(ka, minus_mask, n)
            rows.append(tuple((-1.0 if (mask & kb).bit_count() & 1 else 1.0)
                              if kb & f == g else 0.0 for kb in blades))
        table = _PAIR_TABLES[key] = tuple(rows)
    return table


def _blade_key(n, indices):
    """The bitmask of the blade e_i1 e_i2 ... and its sign (+1.0 or -1.0).

    Each index passes the factors already placed that are higher than it.
    Raises ValueError for an index outside 1..n or a repeated index.
    """
    bits = 0
    sign = 1.0
    for i in indices:
        if not 1 <= i <= n:
            raise ValueError(f"basis index {i} outside 1..{n}")
        bit = 1 << (i - 1)
        if bits & bit:
            raise ValueError(f"repeated basis index {i} in blade")
        if (bits >> i).bit_count() & 1:
            sign = -sign
        bits |= bit
    return bits, sign


def _pruned(raw, tol):
    """The terms of raw above tol; raises NonFiniteError on a NaN or inf value."""
    # NaN fails both comparisons and inf the second, so a non-finite value is
    # always dropped: only a dict that lost a term needs a closer look.
    terms = {k: v for k, v in raw.items() if tol < abs(v) < _INF}
    if len(terms) != len(raw):
        for v in raw.values():
            if not math.isfinite(v):
                raise NonFiniteError(f"coefficient is not finite: {v!r}")
    return terms


def _negligible(residue, reference, tol, degree):
    """True when no value in residue exceeds tol * |reference|^degree: the residue is roundoff.

    |.| is the coefficient norm, and degree is the residue's degree in the
    reference: 1 for a residue linear in it (F + Fbar, F(A) - lambda A), 2
    for one quadratic in it (A reverse(A), u ^ A, B ^ B, |A|^2). residue
    and reference are sequences or dict views of finite values, read twice
    when |reference| overflows. A bound above the largest float exceeds
    every finite residue.
    """
    if not residue:  # the common case forms no norm
        return True
    size = math.hypot(*reference)
    if size == _INF:  # at most 4096 finite values: their norm at 2^-64 is finite
        return _negligible([math.ldexp(x, -64 * degree) for x in residue],
                           [math.ldexp(x, -64) for x in reference], tol, degree)
    return max(map(abs, residue)) <= (tol * size if degree == 1 else tol * size * size)


def _hadamard_negligible(size, terms, tol):
    """True when size, the norm of a sum of wedges, is roundoff against Hadamard's bound on it.

    Each wedge c v_1 ^ ... ^ v_k of the sum is given as its finite factors
    |c| (left out where c = 1), |v_1|, ..., |v_k|, and the bound is the sum
    of their products. It is linear in each term's largest factor, so where
    it overflows, those factors and size are scaled alike by 2^-512.
    """
    bound = sum(map(math.prod, terms))
    if bound == _INF:
        terms = [sorted(t) for t in terms]
        if any(t[-1] == _INF for t in terms):  # a vector whose norm overflows
            raise NonFiniteError("|v| is not finite: inf")
        return _hadamard_negligible(math.ldexp(size, -512), [
            [*t[:-1], math.ldexp(t[-1], -512)] for t in terms], tol)
    return _negligible((size,), (bound,), tol, 1)


def _unit_scaled(a):
    """(a 2^j in the twin, 2^j) for the power of two 2^j that brings |a| into [1, 2).

    |.| is the coefficient norm; scaling by 2^j is exact. j is at most 1023,
    so a subnormal |a| stays below 1. Raises NonFiniteError when |a| overflows.
    """
    size = math.hypot(*a._terms.values())
    if size == _INF:
        raise NonFiniteError(f"|A| is not finite: {size!r}")
    scale = math.ldexp(1.0, min(1 - math.frexp(size)[1], 1023))
    return Multivector._make(_twin(a.algebra), {k: v * scale for k, v in a._terms.items()}), scale


def _twin_inverse(a, tol):
    """reverse(A)/|A|^2 in the twin, or None when |A|^2 is roundoff by _negligible at tol.

    |A|^2 = <reverse(A) A>_0 is formed for A 2^j, scaled by _unit_scaled, so
    it neither overflows nor underflows, and A^-1 = reverse(A 2^j) / |A 2^j|^2
    * 2^j. Scaling by a power of two is exact, so wherever |A|^2 is
    representable the verdict and A^-1 are the unscaled formula's, bit for
    bit. That formula is the inverse of a versor only: the caller checks.
    """
    unit, scale = _unit_scaled(a)
    return _unit_inverse(unit, scale, unit.scalar_product(unit), tol)


def _unit_inverse(unit, scale, n2, tol):
    """reverse(unit) / n2 * scale, or None when n2 = |unit|^2 is roundoff at tol."""
    if _negligible((n2,), unit._terms.values(), tol, 2):
        return None
    return Multivector._make(unit.algebra, {k: _REVERSE_SIGNS[k.bit_count() & 3] * u / n2 * scale
                                            for k, u in unit._terms.items()})


def _reverse_square(a):
    """(A 2^j in the twin, 2^j, <A 2^j reverse(A 2^j)>_0) when A reverse(A) is scalar, else None.

    The square test, the one rule of inverse(): A reverse(A) is scalar when
    its non-scalar part is roundoff (_negligible, degree 2), read for A
    scaled by _unit_scaled. A reverse(A) is its own reverse, so only its
    grades r with r mod 4 below the number of A's grade parities can be
    nonzero: 0 mod 4 for one parity, 0 and 1 mod 4 for mixed parity. Only
    they are formed (_graded_product). Its scalar part sums the pairs of
    scalar_product in its order, so it is |A 2^j|^2 bit for bit.
    """
    parities = len({k.bit_count() & 1 for k in a._terms})
    unit, scale = _unit_scaled(a)
    grades = {r for r in range(a.algebra.n + 1) if r & 3 < parities}
    square = _graded_product(unit, unit.reverse(), grades)._terms
    if not _negligible([x for k, x in square.items() if k], unit._terms.values(),
                       a.algebra.tolerance, 2):
        return None
    return unit, scale, square.get(0, 0.0)


def _versor_square(v):
    """_reverse_square(V) when V passes the versor check, else None.

    The versor check is one grade parity (zero has none), then the square
    test. It is exact for n <= 5, where every invertible V that passes is a
    product of vectors (Lounesto, Clifford Algebras and Spinors, the chapter
    on spin groups), and admits non-versors from n = 6: in Cl(6,0), V = e123
    + e456 passes, and apply_versor(e1, V) returns 0.
    """
    return _reverse_square(v) if len({k.bit_count() & 1 for k in v._terms}) == 1 else None


def _checked_inverse(a, versor):
    """A^-1 in the twin, from the one A reverse(A) of the square test.

    inverse() passes versor False and needs only the square test
    (_reverse_square); the versor action passes True and needs the versor
    check (_versor_square). Raises GradeError when A fails it, and
    NotInvertible when A is zero or null; only the versor route calls A a
    versor. The inverse is _twin_inverse's, bit for bit.
    """
    if not a:
        raise NotInvertible(f"null versor has no inverse: {a}" if versor
                            else f"A reverse(A) is null, so A has no inverse: {a}")
    square = _versor_square(a) if versor else _reverse_square(a)
    if square is None:
        raise GradeError(f"not a versor (mixed parity, or V reverse(V) is not scalar): {a}"
                         if versor else f"not a versor, and A reverse(A) is not scalar: {a}")
    inverse = _unit_inverse(*square, a.algebra.tolerance)
    if inverse is None:
        raise NotInvertible(f"null versor has no inverse: {a}" if versor
                            else f"A reverse(A) is null, so A has no inverse: {a}")
    return inverse


def _dense_product(algebra, left, right, select):
    """The Python product loop over the term dicts left x right, in numpy.

    Returns the product as a Multivector whose terms are the loop's sums bit
    for bit, pruned in numpy to the tolerance and kept in the order the loop
    first meets each blade. Raises NonFiniteError for the first sum in that
    order that is not finite. The select decides each block's path:
    _gp_select keeps every pair, so a geometric product's block is used as
    it is; any other select gives its kept pairs once, and only they are
    gathered.
    """
    import numpy as np

    n = algebra.n
    ka = np.fromiter(left, np.int64, len(left))
    va = np.fromiter(left.values(), np.float64, len(left))
    kb = np.fromiter(right, np.int64, len(right))
    vb = np.fromiter(right.values(), np.float64, len(right))
    masks = _sign_mask(ka, algebra._minus_mask, n)
    sign = 1.0 - 2.0 * (np.bitwise_count(np.arange(1 << n)) & 1)
    sums = np.zeros(1 << n)
    w = len(kb)
    pairs = len(ka) * w
    first = np.full(1 << n, pairs, np.int64)
    rows = max(1, _DENSE_BLOCK_PAIRS // w)
    # An overflow leaves inf or NaN, silently as in the Python loop, for the
    # prune to report.
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, len(ka), rows):
            stop = min(start + rows, len(ka))
            a, va_rows, mask_rows = ka[start:stop], va[start:stop], masks[start:stop]
            if select is _gp_select:
                blades = (a[:, None] ^ kb).ravel()
                products = (va_rows[:, None] * vb * sign[mask_rows[:, None] & kb]).ravel()
                order = np.arange(start * w, stop * w)
            else:
                f, g = select(a[:, None])
                order = ((kb & f) == g).ravel().nonzero()[0]
                r = order // w  # a scalar divisor: faster than np.divmod
                c = order - r * w
                b = kb[c]
                blades = a[r] ^ b
                products = va_rows[r] * vb[c] * sign[mask_rows[r] & b]
                order += start * w
            np.add.at(sums, blades, products)
            np.minimum.at(first, blades, order)
    met = np.flatnonzero(first < pairs)
    met = met[np.argsort(first[met])]
    values = sums[met]
    finite = np.isfinite(values)
    if not finite.all():
        raise NonFiniteError(f"coefficient is not finite: {float(values[~finite][0])!r}")
    keep = np.abs(values) > algebra.tolerance
    mv = object.__new__(Multivector)
    mv.algebra = algebra
    mv._terms = dict(zip(met[keep].tolist(), values[keep].tolist()))
    return mv


def _bits_to_indices(bits):
    out = []
    i = 1
    while bits:
        if bits & 1:
            out.append(i)
        bits >>= 1
        i += 1
    return tuple(out)


def _format_coeff(c):
    if c.is_integer() and abs(c) < 1e16:
        return str(int(c))
    return repr(c)


class Multivector:
    """A sparse multivector: mapping from basis blades to real coefficients.

    Immutable. Build via the Algebra helpers or Multivector(algebra, terms)
    where terms maps index tuples (any order, no repeats) to coefficients.
    Multivector(...) raises ValueError for an index outside 1..n or a
    repeated index.
    """

    # _versor_inverse, V^-1 in the twin, is set by transforms.apply_versor once
    # V passes its versor check, and read by nothing else; unset on every other object.
    __slots__ = ("algebra", "_terms", "_versor_inverse")

    def __init__(self, algebra, terms):
        raw = {}
        for key, value in terms.items():
            bits, sign = _blade_key(algebra.n, key)
            raw[bits] = raw.get(bits, 0.0) + sign * float(value)
        self.algebra = algebra
        self._terms = _pruned(raw, algebra.tolerance)

    @classmethod
    def _make(cls, algebra, raw):
        """Internal constructor from a bitmask-keyed dict; prunes to tolerance."""
        mv = object.__new__(cls)
        mv.algebra = algebra
        mv._terms = _pruned(raw, algebra.tolerance)
        return mv

    # -- inspection ----------------------------------------------------------

    @property
    def terms(self):
        """Copy of the term map keyed by index tuples."""
        return {_bits_to_indices(k): v for k, v in self._terms.items()}

    @property
    def grades(self):
        """The set of grades present (empty for zero)."""
        return frozenset(k.bit_count() for k in self._terms)

    @property
    def scalar_part(self):
        return self._terms.get(0, 0.0)

    def coefficient(self, indices):
        """Coefficient of the given basis blade; indices may be in any order.

        Raises ValueError for an index outside 1..n or a repeated index.
        """
        bits, sign = _blade_key(self.algebra.n, indices)
        return sign * self._terms.get(bits, 0.0)

    def __getitem__(self, indices):
        return self.coefficient(indices)

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        return self.algebra == other.algebra and self._terms == other._terms

    def __hash__(self):
        return hash((self.algebra, frozenset(self._terms.items())))

    def isclose(self, other, tol=None):
        """True when every coefficient of self - other is within tol."""
        return self.max_coeff_diff(other) <= (self.algebra.tolerance if tol is None else tol)

    def max_coeff_diff(self, other):
        other = self._coerce(other)
        keys = self._terms.keys() | other._terms.keys()
        return max((abs(self._terms.get(k, 0.0) - other._terms.get(k, 0.0))
                    for k in keys), default=0.0)

    def __str__(self):
        if not self._terms:
            return "0"
        parts = []
        for bits in sorted(self._terms, key=lambda b: (b.bit_count(), _bits_to_indices(b))):
            c = self._terms[bits]
            if bits == 0:
                body = _format_coeff(abs(c))
            else:
                name = "".join(str(i) for i in _bits_to_indices(bits))
                body = f"{_format_coeff(abs(c))}*e{name}"
            if not parts:
                parts.append(body if c >= 0 else "-" + body)
            else:
                parts.append(("+ " if c >= 0 else "- ") + body)
        return " ".join(parts)

    def __repr__(self):
        return f"Multivector(Cl({self.algebra.p},{self.algebra.q}): {self})"

    # -- linear structure ----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Multivector):
            if other.algebra != self.algebra:
                raise AlgebraMismatch(
                    f"operands from different algebras: {self.algebra!r} vs {other.algebra!r}")
            return other
        if isinstance(other, Real):
            return self.algebra.scalar(other)
        raise TypeError(f"cannot combine Multivector with {type(other).__name__}")

    def __add__(self, other):
        other = self._coerce(other)
        raw = dict(self._terms)
        for k, v in other._terms.items():
            raw[k] = raw.get(k, 0.0) + v
        return Multivector._make(self.algebra, raw)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        raw = dict(self._terms)
        for k, v in other._terms.items():
            raw[k] = raw.get(k, 0.0) - v
        return Multivector._make(self.algebra, raw)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return Multivector._make(self.algebra, {k: -v for k, v in self._terms.items()})

    def __truediv__(self, scalar):
        if not isinstance(scalar, Real):
            raise TypeError("can only divide a multivector by a real scalar")
        scalar = float(scalar)
        if scalar == 0.0:
            raise NotInvertible("cannot divide a multivector by zero")
        return Multivector._make(
            self.algebra, {k: v / scalar for k, v in self._terms.items()})

    # -- products ------------------------------------------------------------

    def _product(self, other, select, into=None):
        """Sum of the blade products of self and other over the kept pairs, in into.

        select is one of the four module-level select functions: select(ka)
        gives (f, g) for a left blade ka, or for a column of them as an int64
        array, and the pair (ka, kb) is kept when kb & f == g. into is the
        algebra the sum is pruned in: self's, or its twin to keep every term.
        """
        other = self._coerce(other)
        alg = into or self.algebra
        right = other._terms.items()
        raw = {}
        get = raw.get
        if alg.n <= _TABLE_MAX_N:
            table = _pair_table(alg.n, alg._minus_mask, select)
            for ka, va in self._terms.items():
                row = table[ka]
                for kb, vb in right:
                    s = row[kb]
                    if s:
                        bits = ka ^ kb
                        raw[bits] = get(bits, 0.0) + s * va * vb
            return Multivector._make(alg, raw)
        pairs = len(self._terms) * len(right)
        if pairs >= _DENSE_MIN_PAIRS and (1 << alg.n) <= pairs:
            return _dense_product(alg, self._terms, other._terms, select)
        minus_mask = alg._minus_mask
        for ka, va in self._terms.items():
            f, g = select(ka)
            mask = _sign_mask(ka, minus_mask, alg.n)
            nva = -va
            for kb, vb in right:
                if kb & f != g:
                    continue
                bits = ka ^ kb
                raw[bits] = get(bits, 0.0) + (nva if (mask & kb).bit_count() & 1 else va) * vb
        return Multivector._make(alg, raw)

    def __mul__(self, other):
        if isinstance(other, Real):
            other = float(other)
            return Multivector._make(
                self.algebra, {k: v * other for k, v in self._terms.items()})
        return self._product(other, _gp_select)

    def __rmul__(self, other):
        if isinstance(other, Real):
            return self * other
        return NotImplemented

    def __xor__(self, other):
        """Outer product: the grade r+s parts of the blade products."""
        if isinstance(other, Real):
            return self * other
        return self._product(other, _outer_select)

    def __rxor__(self, other):
        if isinstance(other, Real):
            return self * other
        return NotImplemented

    def left_contract(self, other):
        """A .| B: the grade s-r parts of the blade products (zero when r > s)."""
        return self._product(other, _lcontract_select)

    def right_contract(self, other):
        """A |. B: the grade r-s parts of the blade products (zero when s > r)."""
        return self._product(other, _rcontract_select)

    def scalar_product(self, other):
        """<reverse(A) B>_0, the metric pairing. Symmetric; returns a float.

        Raises NonFiniteError when the sum overflows or is NaN.
        """
        other = self._coerce(other)
        minus_mask = self.algebra._minus_mask
        total = 0.0
        for k, v in self._terms.items():
            w = other._terms.get(k)
            if w is None:
                continue
            # The reverse sign and the blade-square reordering sign cancel.
            sign = -1.0 if (k & minus_mask).bit_count() & 1 else 1.0
            total += sign * v * w
        if not -_INF < total < _INF:
            raise NonFiniteError(f"coefficient is not finite: {total!r}")
        return total

    def commutator(self, other):
        """[A, B] = (AB - BA)/2."""
        other = self._coerce(other)
        return (self * other - other * self) / 2.0

    # -- grade operations ----------------------------------------------------

    def grade(self, r):
        """The grade-r part; zero when r is negative or above the dimension."""
        return _grade_part(self.algebra, self._terms, (r,))

    def even_part(self):
        return _grade_part(self.algebra, self._terms, range(0, self.algebra.n + 1, 2))

    def odd_part(self):
        return _grade_part(self.algebra, self._terms, range(1, self.algebra.n + 1, 2))

    def _involute(self, signs):
        """Each grade-r term times signs[r % 4]."""
        return Multivector._make(
            self.algebra, {k: signs[k.bit_count() & 3] * v for k, v in self._terms.items()})

    def grade_involution(self):
        """Negate odd grades: (-1)^r per grade."""
        return self._involute(_GRADE_INVOLUTION_SIGNS)

    def reverse(self):
        """Reverse the factors of each blade: (-1)^(r(r-1)/2) per grade."""
        return self._involute(_REVERSE_SIGNS)

    __invert__ = reverse

    def clifford_conjugate(self):
        """Grade involution composed with reversion: (-1)^(r(r+1)/2) per grade."""
        return self._involute(_CLIFFORD_CONJUGATE_SIGNS)

    # -- norms, inverses, duality ---------------------------------------------

    def norm_squared(self):
        """|A|^2 = <reverse(A) A>_0; may be negative in mixed signature.

        Raises NonFiniteError when it overflows or is NaN.
        """
        return self.scalar_product(self)

    def inverse(self):
        """The inverse reverse(A)/|A|^2, formed at unit scale and pruned once.

        That formula is A's inverse whenever A reverse(A) is a nonzero scalar,
        of one grade parity or not: (1 + e123)^-1 = (1 - e123)/2 in Cl(3,0).
        Raises GradeError when A reverse(A) has a non-scalar part beyond
        roundoff, as 2 + e1 + e12 does. Raises NotInvertible when A is zero,
        when |A|^2 is roundoff by the residue rule, or when every coefficient
        of A^-1 falls to the prune. Raises NonFiniteError when |A| or A^-1
        overflows.
        """
        inverse = Multivector._make(self.algebra, _checked_inverse(self, versor=False)._terms)
        if not inverse:
            raise NotInvertible(f"the inverse of {self} falls below the tolerance")
        return inverse

    def dual(self):
        """A I^-1: maps a blade to its orthogonal complement."""
        return self * self.algebra.I_inverse

    def inverse_dual(self):
        """A I: undoes dual()."""
        return self * self.algebra.I

    # -- structure predicates --------------------------------------------------

    def is_homogeneous(self):
        return len(self.grades) <= 1

    def is_blade(self):
        """Blade test: A factors into vectors (Dorst, Fontijne & Mann, section 21.6).

        Zero is a blade; nonzero scalars and mixed-grade A are not; grades 1,
        n - 1 and n always factor. Otherwise, with e_E the basis blade of A's
        largest coefficient, each of the r vectors u = e_(E-i) .| A, i in E,
        must divide A: u ^ A must be roundoff (the Pluecker relations). The u
        are independent, as their e_i parts are, so A is a multiple of their wedge.
        """
        grades, n, tol = self.grades, self.algebra.n, self.algebra.tolerance
        if len(grades) > 1 or 0 in grades:
            return False
        if not grades or grades & {1, n - 1, n}:
            return True
        a = _unit_scaled(self)[0]
        top = max(a._terms, key=lambda k: abs(a._terms[k]))
        for bit in (1 << i for i in range(n) if top >> i & 1):
            u = Multivector._make(a.algebra, {top ^ bit: 1.0}).left_contract(a)
            if not _negligible((u ^ a)._terms.values(), a._terms.values(), tol, 2):
                return False
        return True

    def grade_nonscalar(self):
        return _grade_part(self.algebra, self._terms, range(1, self.algebra.n + 1))

    def is_versor(self):
        """Versor test: one grade parity, and A reverse(A) scalar to roundoff.

        Exact for n <= 5. From n = 6 it admits non-versors: in Cl(6,0),
        e123 + e456 passes, and apply_versor(e1, e123 + e456) returns 0.
        """
        return _versor_square(self) is not None

    # -- exponential ------------------------------------------------------------

    def exp(self):
        """Exponential of a bivector.

        Blades (B^B, the grade-4 part of B B, is roundoff) get the closed forms
        driven by the sign of B^2; other bivectors take the power series.
        Raises GradeError for anything that is not a pure bivector, and
        NonFiniteError when B B or the result overflows.
        """
        if self._terms and self.grades != frozenset({2}):
            raise GradeError(f"exp is defined here for bivectors only, got grades "
                             f"{sorted(self.grades)}")
        one = self.algebra.scalar(1.0)
        square = self * self
        tol = self.algebra.tolerance
        if _negligible(square.grade(4)._terms.values(), self._terms.values(), tol, 2):
            beta = square.scalar_part
            if beta > tol:
                w = math.sqrt(beta)
                try:
                    return one * math.cosh(w) + self * (math.sinh(w) / w)
                except OverflowError:
                    raise NonFiniteError(f"exp overflows: cosh({w!r})") from None
            if beta < -tol:
                w = math.sqrt(-beta)
                return one * math.cos(w) + self * (math.sin(w) / w)
            return one + self
        return self._exp_series()

    def _exp_series(self):
        alg = self.algebra
        exact = _twin(alg)
        biggest = max(abs(v) for v in self._terms.values())
        halvings = 0
        while biggest > 0.5:
            biggest /= 2.0
            halvings += 1
        base = Multivector._make(exact, self._terms) * math.ldexp(1.0, -halvings)
        acc = term = exact.scalar(1.0)
        for i in range(1, _EXP_SERIES_TERMS + 1):
            term = term * base / float(i)
            acc = acc + term
        for _ in range(halvings):
            acc = acc * acc
        return Multivector._make(alg, acc._terms)


def _grade_part(algebra, terms, grades):
    """The bitmask-keyed terms at the blades of the given grades, in order, pruned in algebra.

    grades is any container of grades; a grade r is kept when r in grades,
    so (r,) compares r by ==.
    """
    return Multivector._make(algebra, {k: v for k, v in terms.items() if k.bit_count() in grades})


def _graded_product(left, right, grades, into=None):
    """The terms of left * right at the blades of the given grades, pruned in into.

    into is left's algebra by default; a sandwich built in the twin passes
    the algebra it prunes its result in. Each kept blade x sums the pairs
    (ka, ka ^ x) over the left terms in order, as the full product does,
    and the blades keep the order in which the full product first meets
    them, so the result is the full product's filtered to the grades, bit
    for bit. With n <= 6 and fewer kept blades than right has terms, that
    visits |left| x |kept| pairs, not |left| x |right|; otherwise the full
    product is formed and filtered.
    """
    alg = into or left.algebra
    n, terms = alg.n, right._terms
    if n > _TABLE_MAX_N or sum(math.comb(n, r) for r in grades) >= len(terms):
        return _grade_part(alg, (left * right)._terms, grades)
    bits = [1 << i for i in range(n)]
    kept = [sum(c) for r in grades for c in combinations(bits, r)]
    table = _pair_table(n, alg._minus_mask, _gp_select)
    rows = [(ka, va, table[ka]) for ka, va in left._terms.items()]
    position = {kb: j for j, kb in enumerate(terms)}
    get, width = terms.get, len(terms)
    raw, first = {}, {}
    for x in kept:
        s = None
        for i, (ka, va, row) in enumerate(rows):
            kb = ka ^ x
            vb = get(kb)
            if vb is not None:
                if s is None:  # the full product meets x first at pair (i, j)
                    first[x] = i * width + position[kb]
                    s = 0.0
                s += row[kb] * va * vb
        if s is not None:
            raw[x] = s
    return Multivector._make(alg, {x: raw[x] for x in sorted(raw, key=first.__getitem__)})


def _twin(algebra):
    """The algebra with tolerance 0, where composites are built.

    A copy of algebra's fields, which its __init__ checked once, with the
    tolerance set to 0: it skips the checks, which cost several times the copy.
    """
    twin = object.__new__(Algebra)
    twin.p, twin.q, twin.n, twin.metric = algebra.p, algebra.q, algebra.n, algebra.metric
    twin._minus_mask, twin.tolerance = algebra._minus_mask, 0.0
    return twin


def exp_bivector(B, theta):
    """The rotor exp(-B theta / 2) by Multivector.exp; GradeError unless B is a bivector."""
    if not isinstance(B, Multivector):
        raise TypeError("exp_bivector needs a Multivector")
    if B and B.grades != frozenset({2}):
        raise GradeError(f"exp_bivector needs a bivector, got grades {sorted(B.grades)}")
    return (B * (-theta / 2.0)).exp()
