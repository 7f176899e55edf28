"""Orthogonal transformations built from blades and versors.

Projection and rejection split a multivector against an invertible blade;
reflection and rotation are versor sandwiches. The versor convention
throughout: a versor V of parity m acts on X as

    V(X) = V X V^-1            (m even)
    V(X) = V ghat(X) V^-1      (m odd, ghat = grade involution)

which makes every versor action grade-preserving and outermorphic.
Projection, rejection, reflection and the versor action are composites in
the algebra module's sense: B^-1 or V^-1 (_twin_inverse) and the first
product are built in the algebra's twin with tolerance 0, and only the
result is pruned. So a large blade keeps all of B^-1, and scaling B or V by
a power of two leaves the answer the same, bit for bit. Each keeps the
grades of A, so its last product computes only those grades
(_graded_product in the algebra module): the full sandwich's terms at A's
grades, bit for bit, and the roundoff the full product leaves in the other
grades (odd grades of a vector moved by a large mixed-signature versor) is
never formed.

apply_versor (and so rotate) checks V and inverts it on its first call
with that object (_checked_inverse after the versor check: one grade parity,
then the square test, which is all inverse() asks) and keeps V^-1 in V's
private _versor_inverse slot, so that transforming many multivectors by
one versor checks and inverts it once. A V that fails the check or has no
inverse keeps nothing and raises again on every call. Nothing else reads
the slot, and nothing is kept by value. A null rotor factor is one with no
_twin_inverse. gram_schmidt walks the chain of prefix blades A_j = a_1 ^
... ^ a_j, with A_0 = 1: b_j = <A_(j-1)^-1 A_j>_1 is a_j rejected from
A_(j-1). Every A_j and A_j^-1 is read from one _Wedges memo of the inputs,
the chain Frame(vectors[:j]) reads, and all of them are tested before any
b_j is formed, so gram_schmidt raises what the first failing prefix frame
raises; each b_j is pruned once. The memo lives in the frames module, which
gram_schmidt imports only when it runs: the calculator imports this module
and never loads frames.
"""

from .algebra import (GradeError, Multivector, NotInvertible, _checked_inverse, _gp_select,
                      _graded_product, _lcontract_select, _outer_select, _twin_inverse)


def _blade_operands(A, B, what):
    """A in the algebra of the blade B, and B^-1 in the twin; what names B in the errors."""
    if not isinstance(B, Multivector):
        raise TypeError(f"{what} must be a Multivector")
    if not B.is_blade():
        raise GradeError(f"{what} must be a blade, got {B}")
    inverse = _twin_inverse(B, B.algebra.tolerance)
    if inverse is None:
        raise NotInvertible(f"{what} is null and cannot be inverted: {B}")
    return B._coerce(A), inverse


def _sandwich(left, right, select, inverse, A):
    """The grades of A in (left right) inverse, with left right built in the twin: pruned once."""
    return _graded_product(left._product(right, select, inverse.algebra), inverse, A.grades,
                           A.algebra)


def project(A, B):
    """Projection of A onto the subspace of the invertible blade B: (A .| B) B^-1."""
    A, inverse = _blade_operands(A, B, "projection target")
    return _sandwich(A, B, _lcontract_select, inverse, A)


def reject(A, B):
    """Rejection of A from the invertible blade B: (A ^ B) B^-1.

    For vectors this is A - project(A, B), the component orthogonal to B.
    """
    A, inverse = _blade_operands(A, B, "rejection target")
    return _sandwich(A, B, _outer_select, inverse, A)


def reflect(A, B):
    """Reflection of A in the invertible r-blade B: B ghat^r(A) B^-1.

    For a vector B this is the reflection along B (B flips, its orthogonal
    complement stays); for a hyperplane use the blade of the hyperplane.
    """
    A, inverse = _blade_operands(A, B, "mirror")
    r = next(iter(B.grades))
    moved = A.grade_involution() if r & 1 else A
    return _sandwich(B, moved, _gp_select, inverse, A)


def apply_versor(A, V):
    """Versor action on A: V A V^-1 (even V) or V ghat(A) V^-1 (odd V).

    Raises GradeError when V mixes parities or V reverse(V) is not scalar,
    NotInvertible when V is zero or null. V^-1 is kept on V once V passes,
    so later calls with the same V skip the check and the inversion. The
    check is exact for n <= 5 and admits non-versors from n = 6: in Cl(6,0),
    apply_versor(e1, e123 + e456) returns 0.
    """
    if not isinstance(V, Multivector):
        raise TypeError("versor must be a Multivector")
    if getattr(V, "_versor_inverse", None) is None:
        V._versor_inverse = _checked_inverse(V, versor=True)
    A = V._coerce(A)
    moved = A.grade_involution() if min(V.grades) & 1 else A
    return _sandwich(V, moved, _gp_select, V._versor_inverse, A)


def rotor_from_vectors(m, n):
    """The rotor R = m n from two invertible vectors.

    R X R^-1 rotates by twice the angle from n to m in the m ^ n plane.
    With unit m, n the result is a unit rotor; half-angle bisector inputs
    give the rotation taking n's direction to m's reflection image.
    """
    for v, name in ((m, "m"), (n, "n")):
        if not isinstance(v, Multivector):
            raise TypeError(f"rotor factor {name} must be a Multivector")
        if v.grades - {1}:
            raise GradeError(f"rotor factor {name} must be a vector, got {v}")
        if _twin_inverse(v, v.algebra.tolerance) is None:
            raise NotInvertible(f"rotor factor {name} is null: {v}")
    return m * n


def rotate(A, R):
    """Rotation R A R^-1 by an even versor (rotor) R."""
    if not isinstance(R, Multivector):
        raise TypeError("rotor must be a Multivector")
    if any(g & 1 for g in R.grades):
        raise GradeError(f"rotors must be even, got grades {sorted(R.grades)}")
    return apply_versor(A, R)


def gram_schmidt(vectors):
    """Orthogonalize vectors by successive rejection.

    b_j = <A_(j-1)^-1 A_j>_1, with A_j = a_1 ^ ... ^ a_j and A_0 = 1, is
    the rejection of a_j from the blade of the inputs before it (so b_1 =
    a_1); the outputs are mutually orthogonal and wedge to the same blades
    as the inputs. Each b_j is pruned once, at the algebra's tolerance, so
    a coefficient of b_j at or below it is dropped and the outputs are
    orthogonal only to that tolerance: a short b_j can visibly lose a
    direction. Raises what the first failing Frame(vectors[:j]) raises,
    from the same wedges and the same rule: NotInvertible when the inputs
    are dependent or A_j is null (possible in mixed signature), and
    NonFiniteError, with the same text, when A_j or a norm overflows.
    """
    vectors = list(vectors)
    for a in vectors:
        if not isinstance(a, Multivector):
            raise TypeError("gram_schmidt needs Multivectors")
        if a.grades - {1}:
            raise GradeError(f"gram_schmidt needs vectors, got {a}")
    if not vectors:
        return []
    from .frames import _Wedges

    alg = vectors[0].algebra
    memo = _Wedges(alg, vectors)
    inverses = [memo[0]]
    for j in range(1, len(vectors) + 1):
        inverses.append(memo.volume_inverse(j))
        if inverses[j] is None:
            raise NotInvertible("vectors are linearly dependent, or span a null blade")
    return [_graded_product(inverse, memo[(1 << j) - 1], {1}, alg)
            for j, inverse in enumerate(inverses[:-1], 1)]
