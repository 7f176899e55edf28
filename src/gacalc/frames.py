"""Frames of vectors, reciprocal frames, and coordinates in a blade basis.

A frame is an ordered, linearly independent list of vectors a_1..a_k whose
wedge (the frame volume) is invertible. The reciprocal frame a^1..a^k
satisfies a^i . a_j = delta_ij and is built eagerly at construction:

    a^i = (-1)^(i-1) (a_1 ^ ... ^ a_(i-1) ^ a_(i+1) ^ ... ^ a_k) V^-1

with V the frame volume. Subsets of the frame wedge into a blade basis for
the subalgebra the frame spans; components/expand convert multivectors to
and from coordinates in that basis. Each subset blade of the frame and of
its reciprocal is wedged once, from the blade of the subset without its top
position, and kept: 2^k wedges per frame however often they run.
"""

from itertools import combinations

from .algebra import (GradeError, Multivector, NotInvertible, _blade_key,
                      _linear_combination, _subset_wedge)


class Frame:
    """An ordered independent vector frame with its reciprocal frame."""

    __slots__ = ("algebra", "vectors", "reciprocal", "volume", "_blades",
                 "_reciprocal_blades")

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
        full = (1 << len(vectors)) - 1
        self.volume = _subset_wedge(vectors, self._blades, full)
        try:
            volume_inverse = self.volume.inverse()
        except NotInvertible:
            raise NotInvertible("frame volume is not invertible (dependent vectors "
                                "or a null volume)") from None
        self.reciprocal = tuple(
            _subset_wedge(vectors, self._blades, full ^ (1 << i)) * volume_inverse
            * (-1.0 if i & 1 else 1.0)
            for i in range(len(vectors)))
        self._reciprocal_blades = {0: self._blades[0]}

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
        blade = _subset_wedge(self.reciprocal, self._reciprocal_blades, bits)
        return blade if sign > 0 else -blade

    def blade_table(self):
        """All 2^k frame blades with their reciprocals.

        Returns a list of (subset, blade, reciprocal_blade) with ascending
        subsets ordered by grade then lexicographically. The pairing
        <blade_I * reciprocal_blade_J>_0 = delta_IJ.
        """
        # the combinations of the positions and of their bits run in step
        k = len(self.vectors)
        positions, bits = range(1, k + 1), [1 << i for i in range(k)]
        return [(subset, _subset_wedge(self.vectors, self._blades, mask),
                 _subset_wedge(self.reciprocal, self._reciprocal_blades, mask))
                for r in range(k + 1)
                for subset, mask in zip(combinations(positions, r),
                                        map(sum, combinations(bits, r)))]

    def components(self, A):
        """Coordinates of A in the frame blade basis: subset -> <A * a^I>_0.

        Faithful (expand inverts it) when A lies in the subalgebra the frame
        spans; for a full frame that is every multivector.
        """
        out = {}
        for subset, _, recip in self.blade_table():
            c = A.scalar_product(recip)
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
