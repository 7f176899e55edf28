"""Frame and reciprocal-frame tests."""

import functools
import itertools
import math
import operator
import random

import pytest

from gacalc import (Algebra, AlgebraMismatch, Frame, GradeError, LinearMap, Multivector,
                    NotInvertible, OperatorError, gram_schmidt)

import gen

E2 = Algebra(2, 0)
E3 = Algebra(3, 0)
STA = Algebra(1, 3)


def skewed_frame(alg, rng, k=None):
    """Random frame of k vectors (default n), resampled until comfortably invertible."""
    while True:
        vs = [gen.rand_vector(alg, rng) for _ in range(alg.n if k is None else k)]
        f = None
        try:
            f = Frame(vs)
        except NotInvertible:
            continue
        if abs(f.volume.norm_squared()) > 1e-2:
            return f


def test_two_vector_example():
    e1, e2 = E2.basis_vector(1), E2.basis_vector(2)
    f = Frame([e1, e1 + e2])
    assert f.reciprocal[0] == e1 - e2
    assert f.reciprocal[1] == e2
    assert f.volume == (e1 ^ (e1 + e2))


def test_a_small_frame_builds_and_round_trips():
    # the volume 1e-9 e123 has |V|^2 = 1e-18, which met the bare tolerance
    f = Frame([E3.basis_vector(i) * 1e-3 for i in (1, 2, 3)])
    assert f.reciprocal == tuple(E3.basis_vector(i) * 1e3 for i in (1, 2, 3))
    a = E3.multivector({(): 1.0, (1,): 2.0, (1, 2): 3.0, (1, 2, 3): 4.0})
    assert f.expand(f.components(a)).isclose(a, tol=1e-12)


def test_a_small_frame_builds_at_the_default_tolerance():
    # the volume 1e-18 e123456 fell to the prune, and the frame raised
    alg = Algebra(6, 0)
    f = Frame([alg.basis_vector(i) * 1e-3 for i in range(1, 7)])
    assert not f.volume  # 1e-18 e123456 is pruned on output, after the frame is built
    assert all(r.isclose(alg.basis_vector(i) * 1e3, tol=1e-9)
               for i, r in enumerate(f.reciprocal, start=1))
    a = alg.multivector({b: 0.5 + len(b) for b in alg.basis_blades()})
    assert _relative_diff(f.expand(f.components(a)), a) < 1e-12


def test_dependent_vectors_rejected():
    e1 = E2.basis_vector(1)
    with pytest.raises(NotInvertible):
        Frame([e1, 2 * e1])


def test_nearly_parallel_vectors_are_independent():
    # |e1 ^ (e1 + 1e-6 e2)| = 1e-6 is far above roundoff; a rule comparing
    # |V|^2 with tol * prod |v_i|^2 refused it as dependent
    e1, e2 = E2.basis_vector(1), E2.basis_vector(2)
    vectors = [e1, e1 + e2 * 1e-6]
    f = Frame(vectors)
    assert f.reciprocal[0].isclose(e1 - e2 * 1e6, tol=1e-6)
    assert f.reciprocal[1].isclose(e2 * 1e6, tol=1e-6)
    a = E2.multivector({(): 1.0, (1,): -2.0, (2,): 0.5, (1, 2): 3.0})
    assert _relative_diff(f.expand(f.components(a)), a) < 1e-9
    rows = LinearMap(E2, vectors).inverse().matrix()
    assert rows[0] == pytest.approx([1.0, -1e6], rel=1e-9)
    assert rows[1] == pytest.approx([0.0, 1e6], rel=1e-9)
    assert gram_schmidt(vectors) == [e1, e2 * 1e-6]


def test_a_volume_null_to_roundoff_is_rejected():
    # (cos 1.6 e1 + sin 1.6 e2 + e3)^2 is -1.1e-16 in Cl(2,1), not 0: the
    # null test of the wedge rule refuses it, not a division by zero
    alg = Algebra(2, 1)
    v = alg.vector([math.cos(1.6), math.sin(1.6), 1.0])
    assert v.norm_squared() != 0.0
    with pytest.raises(NotInvertible):
        Frame([v])
    with pytest.raises(NotInvertible):
        gram_schmidt([v, alg.basis_vector(1)])


def test_null_volume_rejected():
    # e1 + e2 is null in (1,3); a frame containing only it has null volume
    with pytest.raises(NotInvertible):
        Frame([STA.vector([1.0, 1.0, 0.0, 0.0])])


def test_frame_input_validation():
    with pytest.raises(ValueError):
        Frame([])
    with pytest.raises(TypeError):
        Frame([1.0])
    with pytest.raises(GradeError):
        Frame([E2.scalar(1.0), E2.basis_vector(1)])
    with pytest.raises(ValueError):
        Frame([E2.basis_vector(1), E2.basis_vector(2), E2.vector([1.0, 1.0])])


def test_a_reciprocal_below_the_tolerance_is_not_invertible():
    # a^1 = 1e-11 e1 was pruned: reciprocal[0] and reciprocal_blade((1, 2))
    # were 0, so a^i . a_j = delta_ij failed silently, and blade_table with them
    e1, e2 = E3.basis_vector(1), E3.basis_vector(2)
    f = Frame([e1 * 1e11, e2])
    assert f.reciprocal_blade((2,)).isclose(e2, tol=1e-12)
    for call in (lambda: f.reciprocal, lambda: f.reciprocal_blade((1, 2)), f.blade_table):
        with pytest.raises(NotInvertible, match="falls below the tolerance"):
            call()
    # the frame itself still round-trips, from its blades in the twin
    x = e1 * 3.0 + e2
    assert f.expand(f.components(x)).isclose(x, tol=1e-12)


def test_reciprocal_delta_relations():
    rng = random.Random(101)
    for alg in (E2, E3, STA, Algebra(5, 0)):
        for _ in range(10):
            f = skewed_frame(alg, rng)
            for i, ri in enumerate(f.reciprocal):
                for j, aj in enumerate(f.vectors):
                    want = 1.0 if i == j else 0.0
                    assert abs(ri.scalar_product(aj) - want) < 1e-8


def test_reciprocal_of_orthonormal_euclidean_frame_is_itself():
    f = Frame([E3.basis_vector(i) for i in (1, 2, 3)])
    assert f.reciprocal == f.vectors


def test_reciprocal_flips_sign_on_minus_squares():
    f = Frame([STA.basis_vector(i) for i in (1, 2, 3, 4)])
    assert f.reciprocal[0] == STA.basis_vector(1)
    for i in (1, 2, 3):
        assert f.reciprocal[i] == -STA.basis_vector(i + 1)


def test_sum_a_i_a_upper_i_is_dimension():
    rng = random.Random(55)
    for alg in (E2, E3, STA):
        f = skewed_frame(alg, rng)
        total = alg.zero()
        for a, r in zip(f.vectors, f.reciprocal):
            total = total + a * r
        assert total.max_coeff_diff(alg.scalar(float(alg.n))) < 1e-8


def test_blade_table_layout():
    rng = random.Random(77)
    f = skewed_frame(E3, rng)
    table = f.blade_table()
    assert len(table) == 8
    assert [subset for subset, _, _ in table] == [
        (), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)]
    # blades pair off with their reciprocals like the vectors do
    for si, bi, _ in table:
        for sj, _, rj in table:
            want = 1.0 if si == sj else 0.0
            assert abs(rj.scalar_product(bi) - want) < 1e-8
    # every frame size lists each subset once, sorted by grade then lexicographically
    E6 = Algebra(6, 0)
    for k in range(1, 7):
        f = skewed_frame(E6, rng, k)
        table = f.blade_table()
        subsets = [subset for subset, _, _ in table]
        every_subset = [tuple(i + 1 for i in range(k) if bits >> i & 1) for bits in range(1 << k)]
        assert subsets == sorted(every_subset, key=lambda s: (len(s), s))
        for subset, blade, recip in table:
            assert blade == f.blade(subset)
            assert recip == f.reciprocal_blade(subset)


def test_blade_and_reciprocal_blade_selection():
    rng = random.Random(12)
    f = skewed_frame(E3, rng)
    assert f.blade(()) == E3.scalar(1.0)
    assert f.blade((2,)) == f.vectors[1]
    assert f.blade((1, 3)) == (f.vectors[0] ^ f.vectors[2])
    assert f.blade((3, 1)) == -(f.vectors[0] ^ f.vectors[2])
    with pytest.raises(ValueError):
        f.blade((0,))
    with pytest.raises(ValueError):
        f.blade((4,))


def _in_span(vectors, rng):
    """A random multivector in the subalgebra the vectors span, wedged without a frame."""
    alg = vectors[0].algebra
    return sum((functools.reduce(operator.xor, s, alg.scalar(gen.rand_coeff(rng)))
                for r in range(len(vectors) + 1) for s in itertools.combinations(vectors, r)),
               alg.zero())


def test_component_round_trip():
    rng = random.Random(313)
    # full frames in Euclidean and mixed signatures, then partial frames (k < n)
    for alg, k in ((E2, 2), (E3, 3), (STA, 4), (Algebra(2, 2), 4), (Algebra(3, 1), 4),
                   (Algebra(3, 1), 2), (Algebra(4, 0), 3)):
        for _ in range(8):
            f = skewed_frame(alg, rng, k)
            a = gen.rand_mv(alg, rng) if k == alg.n else _in_span(f.vectors, rng)
            comps = f.components(a)
            back = f.expand(comps)
            assert back.max_coeff_diff(a) < 1e-8


@pytest.mark.parametrize("p, q", [(3, 0), (2, 2), (5, 0), (3, 3)])
def test_each_frame_blade_is_wedged_once(p, q, monkeypatch):
    # components and expand used to re-wedge every subset blade on each call:
    # about k 2^k wedges per call, on top of k^2 to build the frame
    rng = random.Random(f"wedges {p},{q}")
    alg = Algebra(p, q)
    wedges = []
    wedge = Multivector.__xor__

    def counting_wedge(a, b):
        wedges.append(1)
        return wedge(a, b)

    monkeypatch.setattr(Multivector, "__xor__", counting_wedge)
    f = skewed_frame(alg, rng)
    a = gen.rand_mv(alg, rng)
    assert f.expand(f.components(a)).max_coeff_diff(a) < 1e-8
    assert len(wedges) <= 2 * 2 ** alg.n
    built = len(wedges)
    f.expand(f.components(a))
    f.blade_table()
    assert len(wedges) == built


def test_a_round_trip_builds_no_reciprocal_blade(monkeypatch):
    # volume and reciprocal are built on first access; components pairs
    # with the frame blades and expand sums them, so neither needs a^I
    calls = []
    reciprocal_blade = Frame.reciprocal_blade
    monkeypatch.setattr(Frame, "reciprocal_blade",
                        lambda self, subset: calls.append(subset) or reciprocal_blade(self, subset))
    rng = random.Random("lazy frame")
    alg = Algebra(3, 3)
    f = skewed_frame(alg, rng)
    a = gen.rand_mv(alg, rng)
    assert f.expand(f.components(a)).max_coeff_diff(a) < 1e-8
    assert calls == []
    assert len(f.reciprocal) == 6 and len(calls) == 6
    assert f.reciprocal is f.reciprocal and len(calls) == 6
    assert f.volume == f.blade(range(1, 7))


SIGNATURES = [(n - q, q) for n in range(1, 7) for q in range(n + 1)]


def near_identity_frame(alg, rng, k):
    """The frame e_i + (a vector with entries up to 0.3), i = 1..k: well conditioned."""
    return Frame([alg.basis_vector(i) + gen.rand_vector(alg, rng) * 0.15
                  for i in range(1, k + 1)])


def _chain(f, subset):
    """A reciprocal blade by its definition: the wedge of the reciprocal vectors."""
    return functools.reduce(operator.xor, (f.reciprocal[i - 1] for i in subset),
                            f.algebra.scalar(1.0))


def _relative_diff(a, b):
    scale = max(map(abs, [*a._terms.values(), *b._terms.values()]), default=1.0)
    return a.max_coeff_diff(b) / scale


@pytest.mark.parametrize("p, q", SIGNATURES)
def test_blades_pair_with_their_reciprocals_by_the_scalar_product(p, q):
    # blade_I.scalar_product(reciprocal_blade_J) = <~a_I a^J>_0 = delta_IJ;
    # the geometric-product pairing <a_I a^J>_0 is -1 for I = J of grade 2
    alg = Algebra(p, q)
    rng = random.Random(f"pairing {p},{q}")
    for k in sorted({1, max(1, alg.n - 2), alg.n}):
        table = near_identity_frame(alg, rng, k).blade_table()
        for si, blade, _ in table:
            for sj, _, recip in table:
                assert abs(blade.scalar_product(recip) - (si == sj)) < 1e-12
        if k >= 2:
            _, blade, recip = table[k + 1]
            assert abs((blade * recip).scalar_part + 1.0) < 1e-12


@pytest.mark.parametrize("p, q", SIGNATURES)
def test_reciprocal_blades_and_components_match_the_wedge_of_reciprocal_vectors(p, q):
    # the reciprocal blades come from the frame blades by duality, not from
    # wedging the reciprocal vectors; the two agree on well-conditioned frames
    alg = Algebra(p, q)
    rng = random.Random(f"duality {p},{q}")
    for k in range(1, alg.n + 1):
        f = near_identity_frame(alg, rng, k)
        subsets = [s for r in range(k + 1) for s in itertools.permutations(range(1, k + 1), r)]
        for subset in rng.sample(subsets, min(40, len(subsets))):
            assert _relative_diff(f.reciprocal_blade(subset), _chain(f, subset)) < 1e-12
        for subset, _, recip in f.blade_table():
            assert _relative_diff(recip, _chain(f, subset)) < 1e-12
        a = gen.rand_mv(alg, rng)
        got = f.components(a)
        want = {subset: a.scalar_product(_chain(f, subset)) for subset, _, _ in f.blade_table()}
        biggest = max(map(abs, want.values()))
        assert all(abs(got.get(s, 0.0) - c) <= 1e-12 * biggest for s, c in want.items())


def test_components_of_a_large_frame_keep_every_coordinate():
    # V^-1 is about 2.4e-10 e123456: A reverse(V^-1) formed at that scale
    # loses 0.37 of A to the prune, and wedging the reciprocal vectors 1.6e-4
    rng = random.Random(40)
    alg = Algebra(6, 0)
    f = Frame([(alg.basis_vector(i) + gen.rand_vector(alg, rng) * 0.1) * 40.0
               for i in range(1, 7)])
    a = gen.rand_mv(alg, rng, density=1.0)
    assert _relative_diff(f.expand(f.components(a)), a) < 1e-8


def test_components_keep_a_small_coordinate_of_a_large_blade():
    # the grade-6 coordinate, about 1e-11, fell to the absolute tolerance
    # though it multiplies a blade of size about 5e10: the round trip lost 1.97
    rng = random.Random(0)
    alg = Algebra(6, 0)
    f = Frame([(alg.basis_vector(i) + gen.rand_vector(alg, rng) * 0.15) * 60.0
               for i in range(1, 7)])
    a = gen.rand_mv(alg, rng, density=1.0)
    assert _relative_diff(f.expand(f.components(a)), a) < 1e-12


@pytest.mark.parametrize("scale", [1e100, 1e150, 1e-100, 1e-150])
def test_a_huge_or_tiny_frame_gives_components(scale):
    # V^-1 formed |V|^2 first: it overflowed at |V| = 1e200 (NonFiniteError)
    # and underflowed to 0.0 at |V| = 1e-200 (NotInvertible)
    alg = Algebra(2, 0, tolerance=1e-300)
    f = Frame([alg.vector([scale, 0.0]), alg.vector([0.0, scale])])
    assert f.components(alg.vector([scale, 0.0])) == {(1,): pytest.approx(1.0, rel=1e-15)}
    x = alg.multivector({(): 2.0, (1,): 3.0 * scale, (1, 2): -scale * scale})
    assert _relative_diff(f.expand(f.components(x)), x) < 1e-12
    huge = Frame([E2.vector([1e100, 0.0]), E2.vector([0.0, 1e100])])
    assert huge.components(E2.vector([1e100, 0.0])) == {(1,): 1.0}


def _frame_answers(vectors, a):
    """Frame's round trip of a (None when Frame raises), whether the map of
    the vectors inverts (n vectors only), gram_schmidt's outputs (None when
    it raises), and Frame's expand_by_vectors of each grade of a (None when
    Frame raises)."""
    try:
        f = Frame(vectors)
        round_trip = f.expand(f.components(a))
        by_vectors = [f.expand_by_vectors(a.grade(r)) for r in range(len(vectors) + 1)]
    except NotInvertible:
        round_trip = by_vectors = None
    inverts = None
    if len(vectors) == a.algebra.n:
        try:
            LinearMap(a.algebra, vectors).inverse()
            inverts = True
        except OperatorError:
            inverts = False
    try:
        orthogonal = gram_schmidt(vectors)
    except NotInvertible:
        orthogonal = None
    return round_trip, inverts, orthogonal, by_vectors


@pytest.mark.parametrize("p, q", SIGNATURES)
def test_frame_map_and_gram_schmidt_answers_do_not_depend_on_scale(p, q):
    # the absolute prune emptied the volume or a rejection of small vectors,
    # and det was compared with the bare tolerance: a 1e-3 frame raised
    alg = Algebra(p, q)
    rng = random.Random(f"frame scale {p},{q}")
    null = alg.basis_vector(1) + alg.basis_vector(alg.n)
    for draw in range(8):
        k = rng.randrange(1, alg.n + 1)
        vectors = [gen.rand_vector(alg, rng) for _ in range(k)]
        if draw == 1 and k > 1:  # dependent
            vectors[-1] = vectors[0] * 0.5 - vectors[1] * 2.0
        if draw == 2 and p and q:  # a null vector
            vectors[0] = null
        a = _in_span(vectors, rng)
        round_trip, inverts, orthogonal, by_vectors = _frame_answers(vectors, a)
        if round_trip is not None:
            assert _relative_diff(round_trip, a) < 1e-8
            for r, b in enumerate(by_vectors):  # r A for A of grade r
                assert _relative_diff(b, a.grade(r) * float(r)) < 1e-8
        for j in (-30, -20, -10, 10, 30, *rng.sample(range(-29, 30), 4)):
            s = math.ldexp(1.0, j)
            scaled = [v * s for v in vectors]
            if any(len(w.terms) != len(v.terms) for v, w in zip(vectors, scaled)):
                continue  # a coefficient fell to the prune
            got = _frame_answers(scaled, a)
            assert got[0] == round_trip and got[1] == inverts, (vectors, j)
            assert got[3] == by_vectors, (vectors, j)
            assert (got[2] is None) == (orthogonal is None), (vectors, j)
            assert all(c.grades <= {1} for c in got[2] or ()), (vectors, j)
            for b, c in zip(orthogonal or (), got[2] or ()):
                if len(c.terms) == len((b * s).terms):
                    assert c == b * s, (vectors, j)


def test_components_drop_negligible_entries():
    f = Frame([E2.basis_vector(1), E2.basis_vector(2)])
    comps = f.components(E2.basis_vector(2))
    assert comps == {(2,): 1.0}


def test_expand_by_vectors_scales_by_grade():
    rng = random.Random(99)
    f = skewed_frame(E3, rng)
    for r in range(4):
        a = gen.rand_mv(E3, rng, grades={r})
        got = f.expand_by_vectors(a)
        assert got.max_coeff_diff(a * float(r)) < 1e-8


def test_expand_by_vectors_of_a_small_frame():
    # each a_i .| A = 1e-11 e_j fell to the prune, and r A read 0
    f = Frame([E3.basis_vector(i) * 1e-6 for i in (1, 2, 3)])
    got = f.expand_by_vectors(E3.blade((1, 2), 1e-5))
    assert _relative_diff(got, E3.blade((1, 2), 2e-5)) < 1e-12


def test_expand_by_vectors_needs_homogeneous_input():
    f = Frame([E2.basis_vector(1), E2.basis_vector(2)])
    with pytest.raises(GradeError):
        f.expand_by_vectors(1 + E2.basis_vector(1))
    with pytest.raises(AlgebraMismatch):
        f.expand_by_vectors(E3.basis_vector(1))


def test_partial_frame():
    f = Frame([E3.basis_vector(1), E3.vector([1.0, 1.0, 0.0])])
    assert len(f) == 2
    assert f.volume == E3.blade((1, 2), 1.0)
    for i, ri in enumerate(f.reciprocal):
        for j, aj in enumerate(f.vectors):
            want = 1.0 if i == j else 0.0
            assert abs(ri.scalar_product(aj) - want) < 1e-12


def test_len_and_repr():
    f = Frame([E2.basis_vector(1), E2.basis_vector(2)])
    assert len(f) == 2
    assert "Frame" in repr(f)
