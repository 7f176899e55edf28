"""Frames of vectors, reciprocal frames, and coordinates in a blade basis.

A frame is an ordered, linearly independent list of vectors a_1..a_k. Each
subset I wedges into a blade a_I of a basis of the subalgebra the frame
spans, once, in the _Wedges memo of the vectors in the algebra's
tolerance-0 twin (summed as minors up to n = 6). The reciprocal blades
follow from them by duality (Dorst, Fontijne & Mann, section 3.8), with
V = a_1 ^ ... ^ a_k the frame volume and I^c the positions not in I:

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
"""

import math
from itertools import combinations

from .algebra import (_INF, GradeError, Multivector, NonFiniteError, NotInvertible, _blade_key,
                      _dual_sign, _linear_combination, _Wedges)


class Frame:
    """An ordered independent vector frame with its reciprocal frame."""

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
        """Wedge of the frame vectors with the given 1-based positions, in order."""
        return self.expand({tuple(subset): 1.0})

    def reciprocal_blade(self, subset):
        """Wedge of the reciprocal vectors with the given 1-based positions, in order.

        Raises NotInvertible when the blade, which pairs to 1 with the frame
        blade, falls below the tolerance when it leaves the twin.
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
        """Rebuild a multivector from blade-basis coordinates (subset -> coeff)."""
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
