"""Projection, rejection, reflection, rotation, and versor tests."""

import math
import random

import pytest

from gacalc import (
    Algebra,
    Frame,
    GAError,
    GradeError,
    LinearMap,
    Multivector,
    NonFiniteError,
    NotInvertible,
    apply_versor,
    exp_bivector,
    factor_isometry,
    gram_schmidt,
    project,
    reflect,
    reject,
    rotate,
    rotor_from_vectors,
)
from gacalc import algebra, frames

import gen

E2 = Algebra(2, 0)
E3 = Algebra(3, 0)
E4 = Algebra(4, 0)
STA = Algebra(1, 3)


def test_project_and_reject_split_a_vector():
    a = E3.vector([1.0, 0.0, 1.0])
    b = E3.basis_vector(1)
    assert project(a, b) == E3.basis_vector(1)
    assert reject(a, b) == E3.basis_vector(3)


def test_project_plus_reject_is_identity_on_vectors():
    rng = random.Random(41)
    for alg in (E2, E3, STA):
        for r in range(1, alg.n + 1):
            blade = gen.rand_invertible_blade(alg, rng, r)
            a = gen.rand_vector(alg, rng)
            recombined = project(a, blade) + reject(a, blade)
            assert recombined.max_coeff_diff(a) < 1e-9


def test_projection_is_idempotent():
    rng = random.Random(42)
    for alg in (E3, STA):
        for r in range(1, alg.n + 1):
            blade = gen.rand_invertible_blade(alg, rng, r)
            a = gen.rand_mv(alg, rng)
            once = project(a, blade)
            assert project(once, blade).max_coeff_diff(once) < 1e-8


def test_projection_ignores_blade_scale():
    rng = random.Random(43)
    blade = gen.rand_invertible_blade(E3, rng, 2)
    a = gen.rand_mv(E3, rng)
    assert project(a, blade * 3.5).max_coeff_diff(project(a, blade)) < 1e-10


def test_projection_distributes_over_wedge():
    rng = random.Random(44)
    for alg in (E3, STA):
        for _ in range(20):
            r = rng.randrange(1, alg.n + 1)
            s = rng.randrange(1, 4)
            blade = gen.rand_invertible_blade(alg, rng, r)
            vs = [gen.rand_vector(alg, rng) for _ in range(s)]
            wedge = vs[0]
            piecewise = project(vs[0], blade)
            for v in vs[1:]:
                wedge = wedge ^ v
                piecewise = piecewise ^ project(v, blade)
            assert project(wedge, blade).max_coeff_diff(piecewise) < 1e-8


def test_rejection_distributes_over_wedge():
    rng = random.Random(45)
    for alg in (E3, STA):
        for _ in range(20):
            r = rng.randrange(1, alg.n + 1)
            s = rng.randrange(1, 4)
            blade = gen.rand_invertible_blade(alg, rng, r)
            vs = [gen.rand_vector(alg, rng) for _ in range(s)]
            wedge = vs[0]
            piecewise = reject(vs[0], blade)
            for v in vs[1:]:
                wedge = wedge ^ v
                piecewise = piecewise ^ reject(v, blade)
            assert reject(wedge, blade).max_coeff_diff(piecewise) < 1e-8


def test_transform_argument_validation():
    a = E3.basis_vector(1)
    with pytest.raises(GradeError):
        project(a, 1 + E3.basis_vector(2))  # not a blade
    with pytest.raises(NotInvertible):
        project(STA.basis_vector(1), STA.vector([1.0, 1.0, 0.0, 0.0]))
    with pytest.raises(TypeError):
        reject(a, 2.0)
    # a real A is the scalar it names, which every one of them keeps
    two = E3.scalar(2.0)
    plane, rotor = E3.blade((1, 2)), exp_bivector(E3.blade((1, 2)), 0.6)
    for moved in (project(2.0, plane), reject(2.0, plane), reflect(2, a), reflect(2.0, plane),
                  apply_versor(2.0, a), rotate(2.0, rotor)):
        assert moved.isclose(two, tol=1e-12)
    with pytest.raises(TypeError):
        apply_versor("x", rotor)


@pytest.mark.parametrize("transform, what", [
    (project, "projection target"), (reject, "rejection target"), (reflect, "mirror")])
def test_null_blade_message(transform, what):
    with pytest.raises(NotInvertible) as raised:
        transform(STA.basis_vector(2), STA.vector([1.0, 1.0, 0.0, 0.0]))
    assert str(raised.value) == f"{what} is null and cannot be inverted: 1*e1 + 1*e2"


def test_null_frame_volume_message():
    with pytest.raises(NotInvertible) as raised:
        Frame([STA.vector([1.0, 1.0, 0.0, 0.0])])
    assert str(raised.value) == (
        "frame volume is not invertible (dependent vectors or a null volume)")


def test_reflection_in_a_hyperplane():
    # reflect(x, b) mirrors across the hyperplane perpendicular to b
    e1, e3 = E3.basis_vector(1), E3.basis_vector(3)
    assert reflect(e1, e1) == -e1
    assert reflect(e3, e1) == e3


def test_reflection_twice_is_identity():
    rng = random.Random(46)
    for alg in (E3, STA):
        for r in range(1, alg.n + 1):
            blade = gen.rand_invertible_blade(alg, rng, r)
            a = gen.rand_mv(alg, rng)
            assert reflect(reflect(a, blade), blade).max_coeff_diff(a) < 1e-8


def test_reflection_preserves_norms():
    rng = random.Random(47)
    for _ in range(20):
        blade = gen.rand_invertible_blade(E3, rng, rng.randrange(1, 4))
        a = gen.rand_mv(E3, rng)
        assert abs(reflect(a, blade).norm_squared() - a.norm_squared()) < 1e-8


def test_rotor_from_two_vectors():
    m = E2.vector([1.0, 1.0]) / math.sqrt(2.0)
    n = E2.basis_vector(1)
    r = rotor_from_vectors(m, n)
    assert r.scalar_part == pytest.approx(math.cos(math.pi / 4))
    assert r.coefficient((1, 2)) == pytest.approx(-math.sin(math.pi / 4))
    # rotates by twice the angle between the factors
    assert rotate(E2.basis_vector(1), r).max_coeff_diff(E2.basis_vector(2)) < 1e-12


def test_rotor_from_vectors_validation():
    with pytest.raises(GradeError):
        rotor_from_vectors(E2.scalar(1.0), E2.basis_vector(1))
    with pytest.raises(NotInvertible):
        rotor_from_vectors(STA.vector([1.0, 1.0, 0.0, 0.0]), STA.basis_vector(1))


def test_rotation_by_exponential_rotor():
    rng = random.Random(48)
    for _ in range(20):
        theta = rng.uniform(-math.pi, math.pi)
        r = exp_bivector(E3.blade((1, 2), 1.0), theta)
        got = rotate(E3.basis_vector(1), r)
        want = E3.vector([math.cos(theta), math.sin(theta), 0.0])
        assert got.max_coeff_diff(want) < 1e-12


def test_rotations_compose():
    r1 = exp_bivector(E3.blade((1, 2), 1.0), 0.7)
    r2 = exp_bivector(E3.blade((2, 3), 1.0), -1.1)
    a = gen.rand_mv(E3, random.Random(49))
    sequential = rotate(rotate(a, r1), r2)
    combined = rotate(a, r2 * r1)
    assert sequential.max_coeff_diff(combined) < 1e-10


def test_rotation_preserves_grades_and_inner_products():
    rng = random.Random(50)
    r = exp_bivector(E3.blade((1, 3), 1.0), 0.9)
    for _ in range(20):
        a = gen.rand_mv(E3, rng, grades={2})
        b = gen.rand_mv(E3, rng, grades={2})
        assert rotate(a, r).grades <= {2}
        before = a.scalar_product(b)
        after = rotate(a, r).scalar_product(rotate(b, r))
        assert abs(before - after) < 1e-9


def test_rotate_rejects_odd_versors():
    with pytest.raises(GradeError):
        rotate(E3.basis_vector(2), E3.basis_vector(1))


def test_apply_versor_handles_odd_versors():
    # conjugation by a vector with the parity twist is the hyperplane mirror
    e1, e2 = E3.basis_vector(1), E3.basis_vector(2)
    assert apply_versor(e1, e1) == -e1
    assert apply_versor(e2, e1) == e2
    assert apply_versor(e1, e1) == reflect(e1, e1)


def test_apply_versor_is_an_isometry():
    rng = random.Random(51)
    for alg in (E3, STA):
        for _ in range(20):
            versor = gen.rand_versor(alg, rng, rng.randrange(1, 4))
            a = gen.rand_vector(alg, rng)
            b = gen.rand_vector(alg, rng)
            before = a.scalar_product(b)
            after = apply_versor(a, versor).scalar_product(apply_versor(b, versor))
            assert abs(before - after) < 1e-8 * max(1.0, abs(before))


def test_apply_versor_validation():
    with pytest.raises(NotInvertible):
        apply_versor(E3.basis_vector(1), E3.zero())
    with pytest.raises(GradeError):
        apply_versor(E3.basis_vector(1), 1 + E3.basis_vector(1))  # mixed parity
    with pytest.raises(GradeError):
        apply_versor(E3.basis_vector(1), 1 + E3.blade((1, 2, 3), 1.0))


@pytest.mark.parametrize("V", [1 + E3.blade((1, 2, 3)), E3.basis_vector(1) + E3.blade((2, 3))],
                         ids=["1+e123", "e1+e23"])
def test_an_invertible_mixed_parity_multivector_is_not_a_versor(V):
    # inverse() accepts V, as V reverse(V) = 2, but the versor action also
    # needs one grade parity
    assert V.inverse() * V == E3.scalar(1.0)
    assert not V.is_versor()
    with pytest.raises(GradeError, match="^not a versor"):
        apply_versor(E3.basis_vector(1), V)
    with pytest.raises(GradeError):
        rotate(E3.basis_vector(1), V)


def test_apply_versor_checks_and_inverts_a_versor_once(monkeypatch):
    checks = []
    versor_square = algebra._versor_square
    monkeypatch.setattr(algebra, "_versor_square",
                        lambda v: checks.append(v) or versor_square(v))
    rng = random.Random(16)
    alg = Algebra(6, 0)
    versor = gen.rand_versor(alg, rng, 6)
    images = [apply_versor(alg.basis_vector(i), versor) for i in range(1, 7)]
    assert checks == [versor]
    rotor = gen.rand_versor(alg, rng, 2)
    x = gen.rand_mv(alg, rng)
    rotate(x, rotor)
    rotate(x, rotor)
    assert checks == [versor, rotor]
    # the kept inverse changes no result, and no value-level view of V
    for i, image in enumerate(images, start=1):
        want = versor * alg.basis_vector(i) * versor.inverse()  # six mirrors: even
        assert list(image._terms.items()) == list(want._terms.items())
    copy = Multivector._make(alg, dict(versor._terms))
    assert versor == copy and hash(versor) == hash(copy)
    assert versor.terms == copy.terms
    assert list(versor.inverse()._terms.items()) == list(copy.inverse()._terms.items())


def test_apply_versor_results_match_the_sandwich_bit_for_bit():
    rng = random.Random(61)
    for n in range(1, 7):
        for q in range(n + 1):
            alg = Algebra(n - q, q)
            for count in range(1, n + 1):
                versor = gen.rand_versor(alg, rng, count)
                inverse = versor.inverse()
                for x in [gen.rand_mv(alg, rng) for _ in range(3)]:
                    moved = x.grade_involution() if count & 1 else x
                    want = versor * moved * inverse
                    for _ in range(2):  # first call checks V, the second reads the kept inverse
                        got = apply_versor(x, versor)
                        assert list(got._terms.items()) == list(want._terms.items())
                        if not count & 1:
                            got = rotate(x, versor)
                            assert list(got._terms.items()) == list(want._terms.items())


def test_a_large_mixed_signature_versor_moves_vectors_to_vectors():
    # ten mirrors in Cl(3,3): the full sandwich V e1 V^-1 carried
    # 1.15e-10 e12345 on an image of scale 3.9e3, and LinearMap refused it
    alg = Algebra(3, 3)
    rng = random.Random(6)
    count, mirrors = rng.randint(1, 12), []
    while len(mirrors) < count:  # mirrors with |v^2| >= 1e-3
        v = alg.vector([rng.uniform(-1, 1) for _ in range(alg.n)])
        if abs(v.norm_squared()) >= 1e-3:
            mirrors.append(v)
    assert count == 10
    V = math.prod(mirrors, start=alg.scalar(1.0))
    basis = [alg.basis_vector(i) for i in range(1, alg.n + 1)]
    images = [apply_versor(e, V) for e in basis]
    assert all(image.grades == {1} for image in images)
    w, factors = factor_isometry(LinearMap(alg, images))
    assert len(factors) == 6
    for e, image in zip(basis, images):
        biggest = max(map(abs, image.terms.values()))
        assert apply_versor(e, w).max_coeff_diff(image) < 1e-6 * biggest


def test_a_failed_versor_check_is_not_kept(monkeypatch):
    checks = []
    versor_square = algebra._versor_square
    monkeypatch.setattr(algebra, "_versor_square",
                        lambda v: checks.append(v) or versor_square(v))
    e1, e2 = E3.basis_vector(1), E3.basis_vector(2)
    not_versor = 1 + e1
    null = STA.vector([1.0, 1.0, 0.0, 0.0])
    for _ in range(3):
        with pytest.raises(GradeError):
            apply_versor(e2, not_versor)
        with pytest.raises(GradeError):
            rotate(E4.basis_vector(1), 1 + E4.I)  # R ~R = 2 + 2 e1234
        with pytest.raises(NotInvertible):
            apply_versor(STA.basis_vector(1), null)
    assert len(checks) == 9


def test_rotor_and_gram_schmidt_overflow_is_nonfinite():
    # |m|^2 = inf passed the null test's residue rule as roundoff: "rotor
    # factor m is null", and "intermediate blade is null"
    e1, e2 = E3.basis_vector(1), E3.basis_vector(2)
    with pytest.raises(NonFiniteError, match="^coefficient is not finite: inf$"):
        rotor_from_vectors(e1 * 1e160, e2 * 1e160)
    # A_2 = e2 ^ e1 = -1e320 e12, the wedge Frame([e2 * 1e160, e1 * 1e160]) forms
    with pytest.raises(NonFiniteError, match="^coefficient is not finite: -inf$"):
        gram_schmidt([e2 * 1e160, e1 * 1e160])
    # |B_1|^2 = 1e320 overflowed here too; B_1^-1 is now formed at unit scale
    b1, b2 = gram_schmidt([e1 * 1e160, e2])
    assert b1 == e1 * 1e160 and b2.isclose(e2, tol=1e-15)


def test_small_blades_and_vectors_are_not_null():
    # each raised NotInvertible: |A|^2 was compared with the bare tolerance
    e1, e2 = E3.basis_vector(1), E3.basis_vector(2)
    assert project(e1, E3.blade((1, 2), 1e-6)) == e1
    rotor = rotor_from_vectors(e1, e1 * 1e-6)
    assert rotor == E3.scalar(1e-6) and rotate(e2, rotor) == e2
    assert gram_schmidt([e1 * 1e-4, (e1 + e2) * 1e-4]) == [e1 * 1e-4, e2 * 1e-4]


@pytest.mark.parametrize("scale", [10.0, 30.0])
def test_large_blades_and_versors_pass_the_residue_tests(scale):
    # a ^ b ^ c has coefficients near scale^3, and the roundoff in A ^ A and
    # A reverse(A) grows with them: an absolute residue test rejected 101 of
    # these 200 blades at +-10 and all of them at +-30
    alg = Algebra(5, 0)
    rng = random.Random(3)
    e1 = alg.basis_vector(1)
    for _ in range(200):
        a, b, c = (alg.vector([rng.uniform(-scale, scale) for _ in range(5)])
                   for _ in range(3))
        blade = a ^ b ^ c
        size = blade.norm_squared()
        inside, outside = project(e1, blade), reject(e1, blade)
        assert inside.grades <= {1} and outside.grades <= {1}
        assert (inside + outside).max_coeff_diff(e1) < 1e-9
        assert (inside ^ blade).max_coeff_diff(alg.zero()) < 1e-9 * size
        assert outside.left_contract(blade).max_coeff_diff(alg.zero()) < 1e-9 * size
        mirrored = reflect(e1, blade)
        assert mirrored.grades == {1}
        assert abs(mirrored.norm_squared() - 1.0) < 1e-9
        x = alg.vector([rng.uniform(-1, 1) for _ in range(5)])
        moved = apply_versor(x, a * b * c)
        assert moved.grades <= {1}
        assert abs(moved.norm_squared() - x.norm_squared()) < 1e-9


def test_large_blades_and_versors_keep_their_inverse():
    # B^-1 = 1e-11 e1 and R^-1 = -1e-12 e12 fell to the prune: every one was 0
    e1, e2 = E3.basis_vector(1), E3.basis_vector(2)
    x, mirror = e1 + e2, e1 * 1e11
    for got, want in ((project(x, mirror), e1), (reject(x, mirror), e2),
                      (reflect(x, mirror), e2 - e1), (apply_versor(x, mirror), e2 - e1),
                      (rotate(e1, E3.blade((1, 2), 1e12)), -e1)):
        assert got.grades == {1} and got.max_coeff_diff(want) <= 1e-15


SCALE_SIGNATURES = [(p, n - p) for n in range(1, 7) for p in range(n + 1)] + [(4, 3), (8, 0)]


@pytest.mark.parametrize("p, q", SCALE_SIGNATURES)
def test_blade_and_versor_sandwiches_do_not_depend_on_scale(p, q):
    # B^-1 and V^-1 were pruned in the algebra: from |B| ~ 1e6 the prune took
    # part of B^-1 (answers off by up to 10%), and from ~1e10 all of it
    alg = Algebra(p, q)
    rng = random.Random(f"sandwich scale {p},{q}")
    for _ in range(2 if alg.n > 6 else 4):
        B = gen.rand_invertible_blade(alg, rng, rng.randrange(1, alg.n + 1))
        V = gen.rand_versor(alg, rng, rng.randrange(1, alg.n + 1))
        A = gen.rand_mv(alg, rng)

        def sandwiches(blade, versor):
            return [list(x._terms.items()) for x in (
                project(A, blade), reject(A, blade), reflect(A, blade), apply_versor(A, versor))]

        want = sandwiches(B, V)
        for j in range(-25, 26):
            scale = math.ldexp(1.0, j)
            blade, versor = B * scale, V * scale
            # skip a scale where an input coefficient falls to the prune
            if len(blade.terms) == len(B.terms) and len(versor.terms) == len(V.terms):
                assert sandwiches(blade, versor) == want, j


BIVECTOR_SIGNATURES = [(p, n - p) for n in range(2, 7) for p in range(n + 1)]


@pytest.mark.parametrize("p, q", BIVECTOR_SIGNATURES)
def test_exp_of_any_bivector_is_a_rotor(p, q):
    # a series pruned after every term left R reverse(R) a ~1e-10 non-scalar
    # residue, and rotate rejected most dense bivectors from n = 4 on
    alg = Algebra(p, q)
    rng = random.Random(10 * p + q)
    planes = [b for b in alg.basis_blades() if len(b) == 2]
    for _ in range(10):
        bivector = alg.multivector({b: rng.uniform(-1, 1) for b in planes})
        rotor = bivector.exp()
        x = alg.vector([rng.uniform(-1, 1) for _ in range(alg.n)])
        size = max(1.0, sum(c * c for c in rotor.terms.values())) ** 2
        for moved in (rotate(x, rotor), apply_versor(x, rotor)):
            assert moved.grades <= {1}
            assert abs(moved.norm_squared() - x.norm_squared()) < 1e-9 * size


def test_rotations_by_huge_boosts_raise_or_are_isometries():
    # exp of a bivector with coefficients near +-10 in Cl(3,3) has coefficients
    # near 1e10, so R reverse(R) = 1 is left after cancelling terms near 1e20:
    # the residue rule accepts R, and |R|^2 must be tested by the same rule, or
    # the sandwich is divided by roundoff (14 of these 50 were off by up to 5%)
    alg = Algebra(3, 3)
    rng = random.Random(7)
    planes = [b for b in alg.basis_blades() if len(b) == 2]
    raised = 0
    for _ in range(50):
        rotor = alg.multivector({b: rng.uniform(-10, 10) for b in planes}).exp()
        x = alg.vector([rng.uniform(-1, 1) for _ in range(6)])
        try:
            moved = rotate(x, rotor)
        except NotInvertible:
            raised += 1
            continue
        size = sum(c * c for c in moved.terms.values())
        assert abs(moved.norm_squared() - x.norm_squared()) <= 1e-6 * max(1.0, size)
    assert raised


SIGNATURES = [(p, n - p) for n in range(1, 7) for p in range(n + 1)]


def _graded(product, grades):
    return [(k, v) for k, v in product._terms.items() if k.bit_count() in grades]


def _gram_schmidt_by_full_products(vectors):
    """gram_schmidt with each step's full product cut to grade 1.

    b_j = <A_(j-1)^-1 A_j>_1 with A_0 = 1, and A_j = a_1 ^ ... ^ a_j and
    A_j^-1 read from a memo of the inputs.
    """
    memo, out = frames._Wedges(vectors[0].algebra, vectors), []
    inverse = memo[0]
    for j in range(1, len(vectors) + 1):
        out.append((inverse * memo[(1 << j) - 1]).grade(1))
        inverse = memo.volume_inverse(j)
        if inverse is None:
            raise NotInvertible("dependent or null")
    return [Multivector._make(vectors[0].algebra, b._terms) for b in out]


@pytest.mark.parametrize("p, q", SIGNATURES)
def test_blade_transforms_and_gram_schmidt_keep_the_input_grades(p, q):
    # each one's last product computes only the grades of its input: the
    # full product's terms there, bit for bit and in its key order
    rng = random.Random(f"input grades {p},{q}")
    alg = Algebra(p, q)
    for r in range(1, alg.n + 1):
        B = gen.rand_invertible_blade(alg, rng, r)
        inverse = B.inverse()
        for A in (gen.rand_vector(alg, rng), gen.rand_mv(alg, rng)):
            moved = A.grade_involution() if r & 1 else A
            for got, full in ((reflect(A, B), B * moved * inverse),
                              (project(A, B), A.left_contract(B) * inverse),
                              (reject(A, B), (A ^ B) * inverse)):
                assert got.grades <= A.grades
                assert list(got._terms.items()) == _graded(full, A.grades)
    for k in range(1, alg.n + 1):
        vectors = [gen.rand_vector(alg, rng) for _ in range(k)]
        try:
            want = _gram_schmidt_by_full_products(vectors)
        except NotInvertible:
            continue
        got = gram_schmidt(vectors)
        assert all(b.grades <= {1} for b in got)
        assert [list(b._terms.items()) for b in got] == [list(b._terms.items()) for b in want]


def test_gram_schmidt_orthogonalizes():
    rng = random.Random(52)
    for alg in (E2, E3, Algebra(5, 0)):
        vs = [gen.rand_vector(alg, rng) for _ in range(alg.n)]
        try:
            out = gram_schmidt(vs)
        except NotInvertible:
            continue
        assert len(out) == len(vs)
        for i in range(len(out)):
            for j in range(i):
                assert abs(out[i].scalar_product(out[j])) < 1e-9
        # successive spans agree: wedges match up to the same value
        lhs, rhs = vs[0], out[0]
        assert lhs.max_coeff_diff(rhs) < 1e-12
        for i in range(1, len(vs)):
            lhs = lhs ^ vs[i]
            rhs = rhs ^ out[i]
            assert lhs.max_coeff_diff(rhs) < 1e-8


def _near_dependent(alg, rng, k, digits=6):
    """k vectors: k - 1 random ones, then a combination of them plus a basis
    vector over cond = 10^U(0, digits)."""
    vs = [alg.vector([rng.uniform(-1, 1) for _ in range(alg.n)]) for _ in range(k - 1)]
    last = alg.basis_vector(rng.randint(1, alg.n)) * 10 ** -rng.uniform(0, digits)
    for v in vs:
        last = last + v * rng.uniform(-1, 1)
    return vs + [last]


def test_gram_schmidt_stays_orthogonal_on_near_dependent_vectors():
    # b_(j+1) was rejected from the blade of the outputs before it, B_j, so
    # the roundoff of every b_i entered each later rejection. Over these
    # 3000 draws max |b_i . b_j| / |b_i| |b_j| reached 2.1e-13 (7 draws above
    # 2e-14), against 3.2e-15 when a_(j+1) is rejected from the blade A_j of
    # the inputs. In Euclidean signature both stay near 1e-15. Tolerance 0,
    # so that no coefficient of a short b_j falls to the absolute prune.
    worst = 0.0
    for draw in range(3000):
        p, q = [(2, 2), (3, 3), (5, 1)][draw % 3]
        alg = Algebra(p, q, tolerance=0.0)
        rng = random.Random(f"near dependent {draw}")
        bs = gram_schmidt(_near_dependent(alg, rng, rng.randint(2, alg.n)))
        size = [math.hypot(*b._terms.values()) for b in bs]
        worst = max(worst, *(abs(bs[i].scalar_product(bs[j])) / (size[i] * size[j])
                             for i in range(len(bs)) for j in range(i)))
    assert worst < 2e-14


def _first_error(call):
    """The GAError call raises, or None."""
    try:
        call()
    except GAError as error:
        return error
    return None


@pytest.mark.parametrize("p, q", SIGNATURES)
def test_gram_schmidt_refuses_exactly_where_a_prefix_frame_does(p, q):
    # both read the wedges A_j of the inputs and the one volume rule, so
    # gram_schmidt raises what the first failing Frame(vs[:j]) raises: the
    # same type, and the same text for an overflow. It wedged a_j ^ A_(j-1)
    # itself, and said "inf" where Frame's A_j = A_(j-1) ^ a_j said "-inf"
    alg = Algebra(p, q)
    rng = random.Random(f"refusal {p},{q}")
    n, e = alg.n, alg.basis_vector
    cases = []
    for draw in range(24):
        k = rng.randint(1, n)
        if draw % 3 == 0 or n == 1:
            vs = [gen.rand_vector(alg, rng) for _ in range(k)]
        else:  # on both sides of the rule's threshold, cond ~ 1 / tol
            vs = _near_dependent(alg, rng, max(k, 2), digits=14)
        cases.append(vs)
    if n > 1:  # exactly dependent: small integers, third = first + second
        a = alg.vector([rng.randint(-3, 3) for _ in range(n)])
        b = alg.vector([rng.randint(-3, 3) for _ in range(n)])
        cases += [[a, b, a + b][:n], [a, a * 2.0], [e(1), e(2), e(1) - e(2) * 4.0][:n]]
    if (p, q) in ((1, 3), (2, 2)):  # a null vector, and a null 2-blade prefix
        null = e(1) + e(n)
        cases += [[null, e(2)], [e(2), null, e(3)], [e(2), e(3), null]]
    for _ in range(12):  # coefficients 1e150 to 1e200, some zero: wedges overflow
        cases.append([alg.vector([rng.choice((0.0, 1.0, -1.0)) * 10 ** rng.uniform(150, 200)
                                  for _ in range(n)]) for _ in range(rng.randint(1, n))])
    if (p, q) == (1, 1):  # |a_2| overflows, and so would b_2, 3.5e310 e1 + ...
        cases.append([alg.vector([1.0, 0.999]), alg.vector([1.7e308, 1e308])])
    refused, overflows = set(), 0
    for i, vs in enumerate(cases):
        frame_error = next(filter(None, (_first_error(lambda: Frame(vs[:j]))
                                         for j in range(1, len(vs) + 1))), None)
        error = _first_error(lambda: gram_schmidt(vs))
        assert type(error) is type(frame_error), vs
        if isinstance(error, NonFiniteError):
            assert str(error) == str(frame_error), vs
            overflows += 1
        if isinstance(error, NotInvertible):
            refused.add(i)
    if n > 1:
        assert refused and overflows


def test_gram_schmidt_reads_every_blade_from_the_memo(monkeypatch):
    # b_j = <A_(j-1)^-1 A_j>_1 reads A_j from the memo, which sums dense
    # vectors' wedges as minors; a_j ^ A_(j-1) took the pair loop k - 1 times
    wedges = []
    xor = Multivector.__xor__
    monkeypatch.setattr(Multivector, "__xor__",
                        lambda self, other: wedges.append(1) or xor(self, other))
    alg = Algebra(6, 0)
    rng = random.Random("memo blades")
    vs = [alg.vector([rng.uniform(1, 2) for _ in range(6)]) for _ in range(6)]
    assert len(gram_schmidt(vs)) == 6
    assert wedges == []


def test_gram_schmidt_keeps_small_independent_vectors():
    # the rejection 1e-12 e12 fell to the prune: "vectors are linearly dependent"
    e1, e2 = E3.basis_vector(1), E3.basis_vector(2)
    assert gram_schmidt([e1 * 1e-6, (e1 + e2) * 1e-6]) == [e1 * 1e-6, e2 * 1e-6]


def test_gram_schmidt_first_vector_kept():
    vs = [E3.vector([1.0, 1.0, 0.0]), E3.basis_vector(1)]
    out = gram_schmidt(vs)
    assert out[0] == vs[0]
    assert abs(out[0].scalar_product(out[1])) < 1e-12


def test_gram_schmidt_rejects_dependent_vectors():
    e1 = E3.basis_vector(1)
    with pytest.raises(NotInvertible):
        gram_schmidt([e1, 2 * e1])


def test_gram_schmidt_rejects_null_intermediates():
    with pytest.raises(NotInvertible):
        gram_schmidt([STA.vector([1.0, 1.0, 0.0, 0.0]), STA.basis_vector(3)])

