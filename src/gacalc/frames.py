"""Frames of vectors, reciprocal frames, and coordinates in a blade basis.

A frame is an ordered, linearly independent list of vectors a_1..a_k whose
wedge (the frame volume) is invertible. The reciprocal frame a^1..a^k
satisfies a^i . a_j = delta_ij and is built eagerly at construction:

    a^i = (-1)^(i-1) (a_1 ^ ... ^ a_(i-1) ^ a_(i+1) ^ ... ^ a_k) V^-1

with V the frame volume. Subsets I of the frame wedge into a blade basis a_I
for the subalgebra the frame spans, and the reciprocal blades a^I pair with
it: a_I.scalar_product(a^J) = <reverse(a_I) a^J>_0 = delta_IJ. Only the
frame blades are wedged, each once, from the blade of the subset without its
top position, and kept: 2^k wedges per frame however often they run. The
reciprocal blades follow from them by duality (Dorst, Fontijne & Mann,
section 3.8), with I^c the positions not in I:

    a^I = (-1)^(sum of (i - 1) over i in I) a_(I^c) V^-1

so components(A), the pairings of A with every a^I, takes one product
D = A reverse(V^-1) and then one scalar product of D with each a_(I^c).
"""

import math
from itertools import combinations

from .algebra import (GradeError, Multivector, NotInvertible, _blade_key, _dual_sign,
                      _linear_combination, _reciprocal_blade, _subset_wedge)


class Frame:
    """An ordered independent vector frame with its reciprocal frame."""

    __slots__ = ("algebra", "vectors", "reciprocal", "volume", "_blades", "_volume_inverse")

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
        self._blades = {0: algebra.scalar(1.0)}
        self.volume = _subset_wedge(vectors, self._blades, (1 << len(vectors)) - 1)
        try:
            self._volume_inverse = self.volume.inverse()
        except NotInvertible:
            raise NotInvertible("frame volume is not invertible (dependent vectors "
                                "or a null volume)") from None
        self.reciprocal = tuple(
            _reciprocal_blade(vectors, self._blades, self._volume_inverse, 1 << i)
            for i in range(len(vectors)))

    def __len__(self):
        return len(self.vectors)

    def __repr__(self):
        return f"Frame({len(self.vectors)} vectors in Cl({self.algebra.p},{self.algebra.q}))"

    def blade(self, subset):
        """Wedge of the frame vectors with the given 1-based positions, in order."""
        bits, sign = _blade_key(len(self), subset)
        blade = _subset_wedge(self.vectors, self._blades, bits)
        return blade if sign > 0 else -blade

    def reciprocal_blade(self, subset):
        """Wedge of the reciprocal vectors with the given 1-based positions, in order."""
        bits, sign = _blade_key(len(self), subset)
        blade = _reciprocal_blade(self.vectors, self._blades, self._volume_inverse, bits)
        return blade if sign > 0 else -blade

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
        return [(subset, _subset_wedge(self.vectors, self._blades, mask),
                 _reciprocal_blade(self.vectors, self._blades, self._volume_inverse, mask))
                for subset, mask in self._subsets()]

    def components(self, A):
        """Coordinates of A in the frame blade basis: subset I -> A.scalar_product(a^I).

        That is <reverse(A) a^I>_0, which moves round to
        +-<reverse(A reverse(V^-1)) a_(I^c)>_0, so one product D =
        A reverse(V^-1) serves every I. D is formed with V^-1 scaled by a
        power of two to a unit size and the pairings are scaled back, which
        is exact: the prune cannot empty D however large the frame volume.
        Faithful (expand inverts it) when A lies in the subalgebra the frame
        spans; for a full frame that is every multivector.
        """
        w = self._volume_inverse.reverse()
        exponent = math.frexp(math.hypot(*w._terms.values()))[1]
        D = A * (w * math.ldexp(1.0, -exponent))
        full = (1 << len(self.vectors)) - 1
        out = {}
        for subset, mask in self._subsets():
            blade = _subset_wedge(self.vectors, self._blades, full ^ mask)
            c = math.ldexp(_dual_sign(mask) * D.scalar_product(blade), exponent)
            if abs(c) > self.algebra.tolerance:
                out[subset] = c
        return out

    def expand(self, components):
        """Rebuild a multivector from blade-basis coordinates (subset -> coeff)."""
        return _linear_combination(self.algebra, (
            (float(coeff), self.blade(tuple(subset))._terms)
            for subset, coeff in components.items()))

    def expand_by_vectors(self, A):
        """The sum over i of a^i ^ (a_i .| A) for homogeneous A of grade r.

        Equals r A for A in the frame's span; exposed mainly as a self-test
        of the reciprocal frame. Raises GradeError for mixed-grade input.
        """
        if len(A.grades) > 1:
            raise GradeError(f"expand_by_vectors needs homogeneous input, got {A}")
        return _linear_combination(self.algebra, (
            (1.0, (recip ^ a.left_contract(A))._terms)
            for a, recip in zip(self.vectors, self.reciprocal)))
