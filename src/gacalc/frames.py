"""Frames of vectors, reciprocal frames, and coordinates in a blade basis.

A frame is an ordered, linearly independent list of vectors a_1..a_k. Each
subset I wedges into a blade a_I of a basis of the subalgebra the frame
spans, once, in the _Wedges memo of the vectors in the algebra's
tolerance-0 twin (last paragraph). The reciprocal blades follow from them
by duality (Dorst, Fontijne & Mann, section 3.8), with V = a_1 ^ ... ^ a_k
the frame volume and I^c the positions not in I:

    a^I = (-1)^(sum of (i - 1) over i in I) a_(I^c) V^-1

They pair with the frame blades, a_I.scalar_product(a^J) = delta_IJ, and
I = {i} gives the reciprocal vectors a^i. A blade is pruned once, when it
leaves the twin, so the volume of a small frame can read 0 though the frame
is built from the exact one; a reciprocal blade pruned to 0 raises
NotInvertible, as it cannot pair to 1. The frame raises when V is singular
by the wedge rule of the algebra module: the vectors are dependent, |V| <=
tol * prod |a_i| in coefficient norms, or V is null. That test runs when
the frame is built; the volume and the reciprocal vectors are built on
first access, as a round trip (components, then expand) reads neither.
components pairs one product D = A reverse(V^-1) with each frame blade
a_(I^c), summing over the blade's terms (at most C(n, s) for grade s)
rather than over D's. The pairings are summed inline, with
scalar_product's metric sign moved onto D once: the same sums, with no
call per subset.

The _Wedges memo holds the blades a_S of vectors, their volume test and
their reciprocals for Frame, LinearMap and gram_schmidt. With n <= 6 it
sums each wedge a_S = a_R ^ v, with R the set S without its top position
and v that position's vector, as minors: each blade T of the grade of S
gets the sum of +-a_R[T without t] v[t] over the bits t of T, in one local
sum. The (T without t, t, sign) parts come from a plan kept per dimension,
as the algebra module's pair tables are (_minor_plan: 192 parts at n = 6,
about 20 KB, built in 0.1 ms), and the +-v[t] from each vector's signed
coordinates, built once when the memo is. A wedge with fewer blade pairs
than the plan has parts at its grade (basis vectors, sparse vectors), and
every wedge above n = 6, takes the pair loop instead. One finiteness test
per wedge raises NonFiniteError for an inf or NaN, and exact zeros are
dropped, as the twin's prune drops them. Only the memo sets its entries:
gram_schmidt reads the prefix blades a_1 ^ ... ^ a_j of its inputs and
their inverses (volume_inverse) from it, wedges nothing itself, and writes
none.
"""

import math
from itertools import combinations

from .algebra import (_INF, _TABLE_MAX_N, GradeError, Multivector, NonFiniteError, NotInvertible,
                      _blade_key, _hadamard_negligible, _pruned, _twin, _twin_inverse)

# Bits 1, 3, 5, ...: the set positions of bits sum to an odd number exactly
# when bits & _ODD_POSITIONS has an odd number of bits.
_ODD_POSITIONS = int("10" * 32, 2)

# n -> _minor_plan(n), for n <= _TABLE_MAX_N.
_MINOR_PLANS = {}


class Frame:
    """An ordered independent vector frame with its reciprocal frame.

    Frame(vectors) raises ValueError when there are no vectors or more of
    them than the dimension n.
    """

    __slots__ = ("algebra", "vectors", "_blades", "_volume_inverse", "_volume", "_reciprocal")

    def __init__(self, vectors):
        vectors = tuple(vectors)
        if not vectors:
            raise ValueError("a frame needs at least one vector")
        for v in vectors:
            if not isinstance(v, Multivector):
                raise TypeError("frame entries must be Multivectors")
            if v.grades - {1}:
                raise GradeError(f"frame entries must be vectors, got {v}")
        algebra = vectors[0].algebra
        if len(vectors) > algebra.n:
            raise ValueError(
                f"{len(vectors)} vectors cannot be independent in dimension {algebra.n}")
        self.algebra = algebra
        self.vectors = vectors
        self._blades = _Wedges(algebra, vectors)
        self._volume_inverse = self._blades.volume_inverse(len(vectors))
        if self._volume_inverse is None:
            raise NotInvertible("frame volume is not invertible (dependent vectors "
                                "or a null volume)")
        self._volume = self._reciprocal = None

    @property
    def volume(self):
        """The frame volume a_1 ^ ... ^ a_k, pruned; built on first access."""
        if self._volume is None:
            self._volume = self.blade(range(1, len(self) + 1))
        return self._volume

    @property
    def reciprocal(self):
        """The reciprocal vectors (a^1, ..., a^k); built on first access."""
        if self._reciprocal is None:
            self._reciprocal = tuple(self.reciprocal_blade((i,))
                                     for i in range(1, len(self) + 1))
        return self._reciprocal

    def __len__(self):
        return len(self.vectors)

    def __repr__(self):
        return f"Frame({len(self.vectors)} vectors in Cl({self.algebra.p},{self.algebra.q}))"

    def blade(self, subset):
        """Wedge of the frame vectors with the given 1-based positions, in order.

        Raises ValueError for a position outside 1..len(self) or a repeated one.
        """
        return self.expand({tuple(subset): 1.0})

    def reciprocal_blade(self, subset):
        """Wedge of the reciprocal vectors with the given 1-based positions, in order.

        Raises NotInvertible when the blade, which pairs to 1 with the frame
        blade, falls below the tolerance when it leaves the twin, and
        ValueError for a position outside 1..len(self) or a repeated one.
        """
        bits, sign = _blade_key(len(self), subset)
        blade = self._blades.reciprocal(self._volume_inverse, len(self), bits)
        blade = _linear_combination(self.algebra, [(sign, blade._terms)])
        if not blade:
            raise NotInvertible(f"the reciprocal blade of {tuple(subset)} falls below "
                                "the tolerance")
        return blade

    def _subsets(self):
        """(ascending subset, its bits) for every subset, by grade then lexicographically."""
        # the combinations of the positions and of their bits run in step
        k = len(self.vectors)
        positions, bits = range(1, k + 1), [1 << i for i in range(k)]
        for r in range(k + 1):
            yield from zip(combinations(positions, r), map(sum, combinations(bits, r)))

    def blade_table(self):
        """All 2^k frame blades with their reciprocals.

        Returns a list of (subset, blade, reciprocal_blade) with ascending
        subsets ordered by grade then lexicographically. The pairing
        blade_I.scalar_product(reciprocal_blade_J) = <reverse(blade_I)
        reciprocal_blade_J>_0 = delta_IJ.
        """
        return [(subset, self.blade(subset), self.reciprocal_blade(subset))
                for subset, _ in self._subsets()]

    def components(self, A):
        """Coordinates of A in the frame blade basis: subset I -> A.scalar_product(a^I).

        That is <reverse(A) a^I>_0, which moves round to
        +-<reverse(a_(I^c)) D>_0, so one product D = A reverse(V^-1) serves
        every I, and each pairing sums over the terms of a_(I^c) alone. A
        coordinate c_I is dropped when |c_I| |a_I|, the size of its term in
        A, is within tolerance. Raises NonFiniteError, as scalar_product does,
        when a pairing overflows. Faithful (expand inverts it) when A lies in
        the subalgebra the frame spans; for a full frame that is every
        multivector.
        """
        w = self._volume_inverse.reverse()
        D = Multivector._make(w.algebra, self.vectors[0]._coerce(A)._terms) * w
        minus, blades, tol = self.algebra._minus_mask, self._blades, self.algebra.tolerance
        # scalar_product's sign (-1)^(negative factors of e_k), moved onto D
        get = {k: -d if (k & minus).bit_count() & 1 else d for k, d in D._terms.items()}.get
        full = (1 << len(self)) - 1
        out = {}
        for subset, mask in self._subsets():
            total = 0.0
            for k, x in blades[full ^ mask]._terms.items():
                d = get(k)
                if d is not None:
                    total += x * d
            if not -_INF < total < _INF:
                raise NonFiniteError(f"coefficient is not finite: {total!r}")
            c = _dual_sign(mask) * total
            if abs(c) * math.hypot(*blades[mask]._terms.values()) > tol:
                out[subset] = c
        return out

    def expand(self, components):
        """Rebuild a multivector from blade-basis coordinates (subset -> coeff).

        Raises ValueError for a position outside 1..len(self) or a repeated one.
        """
        keys = ((_blade_key(len(self), tuple(s)), float(c)) for s, c in components.items())
        return self._blades.combine((bits, sign * c) for (bits, sign), c in keys)

    def expand_by_vectors(self, A):
        """The sum over i of a^i ^ (a_i .| A) for homogeneous A of grade r.

        Equals r A for A in the frame's span; exposed mainly as a self-test
        of the reciprocal frame. Built in the twin and pruned once. Raises
        AlgebraMismatch for a foreign A and GradeError for mixed-grade input.
        """
        blades, k, w = self._blades, len(self), self._volume_inverse
        A = Multivector._make(w.algebra, self.vectors[0]._coerce(A)._terms)
        if len(A.grades) > 1:
            raise GradeError(f"expand_by_vectors needs homogeneous input, got {A}")
        return _linear_combination(self.algebra, (
            (1.0, (blades.reciprocal(w, k, 1 << i) ^ blades[1 << i].left_contract(A))._terms)
            for i in range(k)))


def _minor_plan(n):
    """For each grade r of an algebra with n <= _TABLE_MAX_N, (parts, [(x, parts of x)]).

    The parts of a blade x are (x without e_t, i) for each bit t of x:
    e_(x without t) ^ e_t is +-e_x, with one sign flip for each higher bit
    of x that e_t passes, and i is t for + and t + n for -, an index into a
    vector's coordinates followed by their negations. parts counts them
    over the grade, r C(n, r). Built on first use and kept per dimension,
    as the pair tables are; 192 parts at n = 6.
    """
    plan = _MINOR_PLANS.get(n)
    if plan is None:
        grades = [[] for _ in range(n + 1)]
        for x in range(1 << n):
            grades[x.bit_count()].append((x, tuple(
                (x ^ 1 << t, t + n if (x >> t + 1).bit_count() & 1 else t)
                for t in range(n) if x >> t & 1)))
        plan = _MINOR_PLANS[n] = [(r * len(blades), blades) for r, blades in enumerate(grades)]
    return plan


def _signed_coordinates(n, vector):
    """A vector's coordinates v_1..v_n, then their negations: _minor_plan's indices."""
    return [s * vector._terms.get(1 << t, 0.0) for s in (1.0, -1.0) for t in range(n)]


class _Wedges(dict):
    """The wedges a_S of vectors a_1..a_k in the twin, keyed by the bits of S.

    a_S = a_(S without max S) ^ a_(max S) is wedged on first lookup and kept:
    as minors with n <= 6 (_minor_plan), from each vector's signed
    coordinates, built once here, or by the pair loop for sparse factors
    and above. Entries are set here and in __missing__ only. The
    singularity rule reads the norms of the vectors. Raises AlgebraMismatch
    for a foreign vector, and NonFiniteError for a wedge that overflows.
    """

    __slots__ = ("algebra", "_norms", "_signed")

    def __init__(self, algebra, vectors):
        twin, zero = _twin(algebra), algebra.zero()
        super().__init__({1 << i: Multivector._make(twin, zero._coerce(v)._terms)
                          for i, v in enumerate(vectors)})
        self[0] = twin.scalar(1.0)
        self.algebra = algebra
        self._norms = [math.hypot(*v._terms.values()) for v in vectors]
        self._signed = [_signed_coordinates(algebra.n, v) for v in vectors]

    def __missing__(self, bits):
        top = 1 << (bits.bit_length() - 1)
        rest, vector = self[bits ^ top], self[top]
        n, a = self.algebra.n, rest._terms
        plan = _minor_plan(n)[bits.bit_count()] if n <= _TABLE_MAX_N else None
        if plan is None or len(a) * len(vector._terms) < plan[0]:
            blade = self[bits] = rest ^ vector
            return blade
        # a_S[T] is the sum over the bits t of T of +-a_rest[T without t] v[t]
        v, get, raw = self._signed[top.bit_length() - 1], a.get, {}
        for out, parts in plan[1]:
            c = 0.0
            for sub, i in parts:
                c += get(sub, 0.0) * v[i]
            if c:  # the twin's prune drops exact zeros
                raw[out] = c
        if not -_INF < sum(raw.values()) < _INF:  # NaN fails both
            raw = _pruned(raw, 0.0)  # raises for a term that is not finite
        blade = self[bits] = object.__new__(Multivector)
        blade.algebra, blade._terms = rest.algebra, raw
        return blade

    def volume_inverse(self, k):
        """_twin_inverse(V) for V = a_1 ^ ... ^ a_k; None when V is singular by the wedge rule."""
        volume, tol = self[(1 << k) - 1], self.algebra.tolerance
        if _hadamard_negligible(math.hypot(*volume._terms.values()), [self._norms[:k]], tol):
            return None
        return _twin_inverse(volume, tol)

    def reciprocal(self, volume_inverse, k, bits):
        """The wedge of the reciprocal vectors a^i of a_1..a_k at the set bits i of bits.

        By duality (Dorst, Fontijne & Mann, section 3.8) it is _dual_sign(bits)
        a_C V^-1, with C the bits of 1..k not in bits and V^-1 = volume_inverse(k).
        """
        blade = self[((1 << k) - 1) ^ bits] * volume_inverse
        return blade if _dual_sign(bits) > 0 else -blade

    def combine(self, items):
        """The sum of c a_S over (bits of S, c) pairs, pruned once in the algebra."""
        return _linear_combination(self.algebra, ((c, self[bits]._terms) for bits, c in items))


def _dual_sign(bits):
    """(-1)^(sum of the set bit positions of bits), the sign in _Wedges.reciprocal."""
    return -1.0 if (bits & _ODD_POSITIONS).bit_count() & 1 else 1.0


def _linear_combination(algebra, pairs):
    """The sum of c * terms over (c, bitmask-keyed terms) pairs, pruned once."""
    raw = {}
    for c, terms in pairs:
        for k, v in terms.items():
            raw[k] = raw.get(k, 0.0) + c * v
    return Multivector._make(algebra, raw)
