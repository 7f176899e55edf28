"""Outermorphism, adjoint, determinant, and isometry-factoring tests."""

import math
import random

import numpy as np
import pytest

from gacalc import (
    Algebra,
    Frame,
    LinearMap,
    NonFiniteError,
    OperatorError,
    apply_versor,
    exp_bivector,
    factor_isometry,
)
from gacalc import linops

import gen
import oracles

E2 = Algebra(2, 0)
E3 = Algebra(3, 0)
STA = Algebra(1, 3)


def rand_map(alg, rng):
    return LinearMap(alg, [gen.rand_vector(alg, rng) for _ in range(alg.n)])


def versor_map(alg, rng, count):
    """Orthogonal map built by conjugation with a random versor."""
    v = gen.rand_versor(alg, rng, count)
    return LinearMap(alg, [apply_versor(alg.basis_vector(i + 1), v)
                           for i in range(alg.n)])


# -- construction and application ------------------------------------------------

def test_identity_map():
    f = LinearMap.identity(E3)
    a = gen.rand_mv(E3, random.Random(1))
    assert f(a) == a
    assert f.determinant() == 1.0


def test_images_validation():
    with pytest.raises(ValueError):
        LinearMap(E3, [E3.basis_vector(1)])  # wrong count
    with pytest.raises(TypeError):
        LinearMap(E3, [1.0, 2.0, 3.0])
    with pytest.raises(Exception):
        LinearMap(E3, [E3.scalar(1.0)] * 3)  # not vectors


def test_from_matrix_uses_columns_as_images():
    f = LinearMap.from_matrix(E2, [[0.0, -1.0], [1.0, 0.0]])
    assert f(E2.basis_vector(1)) == E2.basis_vector(2)
    assert f(E2.basis_vector(2)) == -E2.basis_vector(1)
    assert f.matrix() == [[0.0, -1.0], [1.0, 0.0]]


def test_linear_on_scalars_and_sums():
    rng = random.Random(2)
    f = rand_map(E3, rng)
    a, b = gen.rand_mv(E3, rng), gen.rand_mv(E3, rng)
    assert f(E3.scalar(2.5)) == E3.scalar(2.5)
    assert f(a + b).max_coeff_diff(f(a) + f(b)) < 1e-10


def test_extends_as_outermorphism():
    rng = random.Random(3)
    for alg in (E3, STA):
        f = rand_map(alg, rng)
        for _ in range(20):
            a = gen.rand_mv(alg, rng)
            b = gen.rand_mv(alg, rng)
            assert f(a ^ b).max_coeff_diff(f(a) ^ f(b)) < 1e-8


def test_composition_matches_nested_application():
    rng = random.Random(4)
    f, g = rand_map(E3, rng), rand_map(E3, rng)
    a = gen.rand_mv(E3, rng)
    assert (f @ g)(a).max_coeff_diff(f(g(a))) < 1e-10
    assert f.compose(g)(a) == (f @ g)(a)


def test_map_arithmetic():
    rng = random.Random(5)
    f, g = rand_map(E3, rng), rand_map(E3, rng)
    v = gen.rand_vector(E3, rng)
    assert (f + g)(v).max_coeff_diff(f(v) + g(v)) < 1e-12
    assert (f - g)(v).max_coeff_diff(f(v) - g(v)) < 1e-12
    assert f.scale(2.0)(v).max_coeff_diff(f(v) * 2.0) < 1e-12


# -- adjoint ------------------------------------------------------------------------

def test_adjoint_is_transpose_in_euclidean_signature():
    rng = random.Random(6)
    f = rand_map(E3, rng)
    m = np.array(f.matrix())
    mt = np.array(f.adjoint().matrix())
    assert np.allclose(m.T, mt, atol=1e-12)


def test_adjoint_swap_example_in_mixed_signature():
    # swapping a plus-square axis with a minus-square one picks up signs
    images = [STA.basis_vector(4), STA.basis_vector(2),
              STA.basis_vector(3), STA.basis_vector(1)]
    f = LinearMap(STA, images)
    adj = f.adjoint()
    assert adj(STA.basis_vector(1)) == -STA.basis_vector(4)
    assert adj(STA.basis_vector(4)) == -STA.basis_vector(1)
    assert adj(STA.basis_vector(2)) == STA.basis_vector(2)


def test_adjoint_moves_across_scalar_product():
    rng = random.Random(7)
    for alg in (E3, STA, Algebra(2, 2)):
        f = rand_map(alg, rng)
        adj = f.adjoint()
        for _ in range(20):
            a = gen.rand_mv(alg, rng)
            b = gen.rand_mv(alg, rng)
            lhs = f(a).scalar_product(b)
            rhs = a.scalar_product(adj(b))
            assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(lhs))


def test_adjoint_of_adjoint():
    rng = random.Random(8)
    for alg in (E3, STA):
        f = rand_map(alg, rng)
        back = f.adjoint().adjoint()
        for i, img in enumerate(back.images):
            assert img.max_coeff_diff(f.images[i]) < 1e-12


def test_adjoint_moves_inside_contraction():
    rng = random.Random(9)
    f = rand_map(STA, rng)
    adj = f.adjoint()
    for _ in range(20):
        a = gen.rand_mv(STA, rng)
        b = gen.rand_mv(STA, rng)
        lhs = a.left_contract(adj(b))
        rhs = adj(f(a).left_contract(b))
        assert lhs.max_coeff_diff(rhs) < 1e-7


# -- determinant and inverse -----------------------------------------------------------

def test_determinant_of_diagonal_map():
    f = LinearMap.diagonal(E3, [2.0, 4.0, 1.0])
    assert f.determinant() == pytest.approx(8.0, abs=1e-12)


def test_determinant_of_scalar_only_algebra():
    alg = Algebra(0, 0)
    f = LinearMap(alg, [])
    assert f.determinant() == 1.0
    assert f.inverse().images == ()


def test_determinant_is_multiplicative():
    rng = random.Random(10)
    for alg in (E2, E3, STA):
        for _ in range(20):
            f, g = rand_map(alg, rng), rand_map(alg, rng)
            want = f.determinant() * g.determinant()
            got = (f @ g).determinant()
            assert abs(got - want) < 1e-9 * max(1.0, abs(want))


def test_determinant_matches_numpy():
    rng = random.Random(11)
    for _ in range(20):
        f = rand_map(E3, rng)
        assert f.determinant() == pytest.approx(
            float(np.linalg.det(np.array(f.matrix()))), abs=1e-9)


def test_determinant_of_adjoint():
    rng = random.Random(12)
    f = rand_map(STA, rng)
    assert f.adjoint().determinant() == pytest.approx(f.determinant(), abs=1e-10)


def test_inverse_round_trip():
    rng = random.Random(13)
    for alg in (E2, E3, STA):
        for _ in range(10):
            f = rand_map(alg, rng)
            if abs(f.determinant()) < 0.05:
                continue
            inv = f.inverse()
            for _ in range(5):
                a = gen.rand_mv(alg, rng)
                assert inv(f(a)).max_coeff_diff(a) < 1e-7
                assert f(inv(a)).max_coeff_diff(a) < 1e-7


def test_inverse_example():
    f = LinearMap.diagonal(E3, [2.0, 4.0, 1.0])
    inv = f.inverse()
    assert inv(E3.basis_vector(1)).max_coeff_diff(E3.basis_vector(1) * 0.5) < 1e-12
    assert inv(E3.basis_vector(2)).max_coeff_diff(E3.basis_vector(2) * 0.25) < 1e-12


def test_a_small_diagonal_map_inverts():
    f = LinearMap.diagonal(E3, [1e-3] * 3)
    inv = f.inverse()
    for i, row in enumerate(inv.matrix()):
        assert row == pytest.approx([1e3 if j == i else 0.0 for j in range(3)], rel=1e-12)
    a = E3.multivector({(): 1.0, (1,): 2.0, (1, 2): 3.0, (1, 2, 3): 4.0})
    assert inv(f(a)).isclose(a, tol=1e-12) and f(inv(a)).isclose(a, tol=1e-12)


def test_small_maps_invert_at_the_default_tolerance():
    # F(I) = 1e-18 e123456 fell to the prune: "map is singular (det = 0.0)"
    alg = Algebra(6, 0)
    f = LinearMap.diagonal(alg, [1e-3] * 6)
    assert f.determinant() == pytest.approx(1e-18, rel=1e-12)
    inv = f.inverse()
    for i, row in enumerate(inv.matrix()):
        assert row == pytest.approx([1e3 if j == i else 0.0 for j in range(6)], rel=1e-12)
    x = alg.vector([1.0, -2.0, 3.0, 0.5, 4.0, -1.5])
    assert inv(f(x)).isclose(x, tol=1e-12)


@pytest.mark.parametrize("scale", [1e100, 1e150, 1e-100, 1e-150])
def test_a_huge_or_tiny_diagonal_map_inverts(scale):
    # |V|^2 = 1e400 of the volume V = 1e200 e12 overflowed (NonFiniteError),
    # and |V|^2 = 1e-400 underflowed to 0.0 (OperatorError, "map is singular")
    alg = Algebra(2, 0, tolerance=1e-300)
    inv = LinearMap.diagonal(alg, [scale, scale]).inverse()
    (a, b), (c, d) = inv.matrix()
    assert (b, c) == (0.0, 0.0) and a == d == pytest.approx(1.0 / scale, rel=1e-15)
    x = alg.vector([3.0, -2.0])
    assert inv(x * scale).isclose(x, tol=1e-12)
    # in E2 the inverse's entries 1e-100 fall to the tolerance: that is the
    # zero map, which is no inverse
    with pytest.raises(OperatorError, match="falls below the tolerance"):
        LinearMap.diagonal(E2, [1e100, 1e100]).inverse()


def test_an_inverse_map_the_algebra_cannot_store_is_an_error():
    # F^-1(e1) = 1e-11 e1 fell to the prune, and a singular "inverse" was returned
    with pytest.raises(OperatorError, match="falls below the tolerance"):
        LinearMap.diagonal(E3, [1e11, 1.0, 1.0]).inverse()


def test_inverse_and_determinant_match_a_pure_python_solve():
    # the blade images F(e_S) were pruned after every wedge: at entries of
    # 1e-2 to 5e-2, det was off by up to 100% and inverses by up to 8.4e-3
    rng = random.Random(3)
    alg = Algebra(6, 0)
    inverted = 0
    for _ in range(60):
        scale = rng.uniform(1e-2, 5e-2)
        f = LinearMap.from_matrix(alg, [[rng.uniform(-1.0, 1.0) * scale for _ in range(6)]
                                        for _ in range(6)])
        want, det = oracles.inverse_and_determinant(f.matrix())
        assert abs(f.determinant() - det) <= 1e-12 * abs(det)
        hadamard = math.prod(math.hypot(*img.terms.values()) for img in f.images)
        try:
            got = f.inverse().matrix()
        except OperatorError:
            assert abs(det) <= 2e-10 * hadamard  # only maps singular by the rule are refused
            continue
        inverted += 1
        biggest = max(abs(x) for row in want for x in row)
        assert all(abs(g - w) <= 1e-12 * biggest
                   for grow, wrow in zip(got, want) for g, w in zip(grow, wrow))
    assert inverted >= 50


def test_inverse_is_the_frame_route_bit_for_bit():
    # the inverse reads the reciprocal vectors off its own blade images with
    # the expression Frame uses; building a Frame of the images gives the
    # same terms in the same order
    rng = random.Random(16)
    for n in range(1, 7):
        for q in range(n + 1):
            alg = Algebra(n - q, q)
            for scale in (1e-2, 1.0, 10.0):
                F = LinearMap(alg, [gen.rand_vector(alg, rng) * scale for _ in range(n)])
                F(gen.rand_mv(alg, rng))  # the inverse also works from a filled memo
                try:
                    got = F.inverse()
                except OperatorError:
                    continue
                want = LinearMap.from_matrix(alg, [
                    [m * f._terms.get(1 << i, 0.0) for i, m in enumerate(alg.metric)]
                    for f in Frame(F.images).reciprocal])
                assert ([list(img._terms.items()) for img in got.images]
                        == [list(img._terms.items()) for img in want.images])


def test_singular_map_has_no_inverse():
    f = LinearMap.diagonal(E3, [1.0, 1.0, 0.0])
    assert f.determinant() == 0.0
    with pytest.raises(OperatorError):
        f.inverse()


def test_rank_deficient_maps_kill_high_blades():
    # images spanning a plane send every 3-blade to zero
    rng = random.Random(14)
    u, v = gen.rand_vector(E3, rng), gen.rand_vector(E3, rng)
    coeffs = [(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(3)]
    f = LinearMap(E3, [u * a + v * b for a, b in coeffs])
    assert abs(f.determinant()) < 1e-9
    assert not f(E3.I)
    assert f(E3.blade((1, 2), 1.0)).grades <= {2}


# -- symmetric and skew structure ----------------------------------------------------

def test_symmetric_plus_skew_recovers_map():
    rng = random.Random(15)
    f = rand_map(STA, rng)
    total = f.symmetric_part() + f.skew_part()
    v = gen.rand_vector(STA, rng)
    assert total(v).max_coeff_diff(f(v)) < 1e-12


def test_skew_bivector_example():
    f = LinearMap(E3, [2 * E3.basis_vector(2), -2 * E3.basis_vector(1), E3.zero()])
    assert str(f.skew_bivector()) == "2*e12"


def test_skew_bivector_reconstructs_the_map():
    rng = random.Random(16)
    for alg in (E3, STA):
        raw = rand_map(alg, rng)
        f = raw.skew_part()
        b = f.skew_bivector()
        for i in range(alg.n):
            e = alg.basis_vector(i + 1)
            assert e.left_contract(b).max_coeff_diff(f(e)) < 1e-10


def test_skew_bivector_rejects_symmetric_maps():
    with pytest.raises(OperatorError):
        LinearMap.diagonal(E3, [1.0, 2.0, 3.0]).skew_bivector()


def test_symmetric_and_skew_parts_of_huge_maps_are_finite():
    # F + Fbar was formed before halving, so entries near 1e308 overflowed
    big = LinearMap.from_matrix(E2, [[1e308, 1e308], [-1e308, 1e308]])
    assert big.symmetric_part().matrix() == [[1e308, 0.0], [0.0, 1e308]]
    assert big.skew_part().matrix() == [[0.0, 1e308], [-1e308, 0.0]]
    assert LinearMap.diagonal(E2, [1e308, 1e308]).symmetric_part().matrix() == [
        [1e308, 0.0], [0.0, 1e308]]
    for f in (big, LinearMap.from_matrix(E2, [[0.0, 1e308], [-1e308, 0.0]])):
        with pytest.raises(OperatorError, match="not symmetric"):
            f.symmetric_eigenframe()
    # where nothing overflows, the parts are the halved sums as before
    rng = random.Random(19)
    for alg in (E3, STA):
        f = rand_map(alg, rng)
        assert f.symmetric_part().images == (f + f.adjoint()).scale(0.5).images
        assert f.skew_part().images == (f - f.adjoint()).scale(0.5).images


def test_symmetric_eigenframe_diagonal():
    f = LinearMap.diagonal(E3, [3.0, -1.0, 2.0])
    values, vectors = f.symmetric_eigenframe()
    assert values == sorted(values)
    assert values == pytest.approx([-1.0, 2.0, 3.0])
    for lam, a in zip(values, vectors):
        assert f(a).max_coeff_diff(a * lam) < 1e-10


def test_symmetric_eigenframe_random():
    rng = random.Random(17)
    for _ in range(10):
        raw = rand_map(E3, rng)
        f = raw.symmetric_part()
        values, vectors = f.symmetric_eigenframe()
        for lam, a in zip(values, vectors):
            assert f(a).max_coeff_diff(a * lam) < 1e-8
        # orthonormal frame: spectral resynthesis reproduces the map
        for _ in range(5):
            x = gen.rand_vector(E3, rng)
            resum = E3.zero()
            for lam, a in zip(values, vectors):
                resum = resum + a * (lam * x.scalar_product(a))
            assert resum.max_coeff_diff(f(x)) < 1e-8


def test_symmetric_eigenframe_requires_euclidean_symmetric():
    with pytest.raises(OperatorError):
        LinearMap.diagonal(STA, [1.0, 1.0, 1.0, 1.0]).symmetric_eigenframe()
    skew = LinearMap(E2, [E2.basis_vector(2), -E2.basis_vector(1)])
    with pytest.raises(OperatorError):
        skew.symmetric_eigenframe()


def rand_symmetric(n, rng, lo=-1.0, hi=1.0):
    m = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            m[i][j] = m[j][i] = rng.uniform(lo, hi)
    return m


def assert_eigenframe(matrix, values, vectors, tol):
    """Ascending values, |M v_k - lambda_k v_k| <= tol and an orthonormal frame."""
    n = len(matrix)
    assert values == sorted(values)
    assert all(type(lam) is float for lam in values)
    for lam, v in zip(values, vectors):
        assert v.grades <= {1}
        c = [v.coefficient((i + 1,)) for i in range(n)]
        residual = [sum(matrix[i][j] * c[j] for j in range(n)) - lam * c[i] for i in range(n)]
        assert math.hypot(*residual) <= tol
    for i, u in enumerate(vectors):
        for j, v in enumerate(vectors):
            assert abs(u.scalar_product(v) - (i == j)) <= 1e-12


@pytest.mark.parametrize("n", range(1, 13))
def test_symmetric_eigenframe_matches_eigvalsh(n):
    alg = Algebra(n, 0)
    rng = random.Random(f"jacobi {n}")
    for _ in range(10):
        m = rand_symmetric(n, rng)
        values, vectors = LinearMap.from_matrix(alg, m).symmetric_eigenframe()
        want = np.linalg.eigvalsh(np.array(m))
        radius = max(map(abs, want))
        assert max(abs(a - b) for a, b in zip(values, want)) <= 1e-12 * radius
        assert_eigenframe(m, values, vectors, 1e-12 * radius)


@pytest.mark.parametrize("diagonal, values", [
    pytest.param([1.0] * 4, [1.0] * 4, id="identity"),
    pytest.param([2.0, -1.0, 2.0, 2.0], [-1.0, 2.0, 2.0, 2.0], id="repeated"),
    pytest.param([0.0] * 3, [0.0] * 3, id="zero"),
    pytest.param([-3.0], [-3.0], id="n=1"),
])
def test_symmetric_eigenframe_degenerate_diagonal(diagonal, values):
    alg = Algebra(len(diagonal), 0)
    m = [[d if i == j else 0.0 for j in range(len(diagonal))] for i, d in enumerate(diagonal)]
    got, vectors = LinearMap.from_matrix(alg, m).symmetric_eigenframe()
    assert got == values
    assert_eigenframe(m, got, vectors, 0.0)


def test_symmetric_eigenframe_of_the_scalar_algebra_is_empty():
    assert LinearMap(Algebra(0, 0), []).symmetric_eigenframe() == ([], [])


def test_symmetric_eigenframe_rank_one():
    u = [1.0, -2.0, 0.5, 3.0, 1.5]
    m = [[a * b for b in u] for a in u]
    values, vectors = LinearMap.from_matrix(Algebra(5, 0), m).symmetric_eigenframe()
    square = sum(a * a for a in u)
    assert values[-1] == pytest.approx(square, rel=1e-14)
    assert max(map(abs, values[:-1])) <= 1e-14 * square
    assert_eigenframe(m, values, vectors, 1e-13 * square)
    top = [vectors[-1].coefficient((i + 1,)) for i in range(5)]
    assert abs(sum(a * b for a, b in zip(top, u))) == pytest.approx(math.sqrt(square))


@pytest.mark.parametrize("shift", [400, -400])
def test_symmetric_eigenframe_scales_exactly(shift):
    # tolerance 0, so that 2^-400 entries are not pruned away
    alg = Algebra(5, 0, tolerance=0.0)
    m = rand_symmetric(5, random.Random(5))
    values, vectors = LinearMap.from_matrix(alg, m).symmetric_eigenframe()
    scaled = [[math.ldexp(x, shift) for x in row] for row in m]
    got, got_vectors = LinearMap.from_matrix(alg, scaled).symmetric_eigenframe()
    assert got == [math.ldexp(lam, shift) for lam in values]
    assert got_vectors == vectors


def test_symmetric_eigenframe_near_overflow():
    # the difference of the diagonal and the eigenvalues themselves stay finite
    f = LinearMap.from_matrix(E2, [[1e308, 1e300], [1e300, -1e308]])
    values, vectors = f.symmetric_eigenframe()
    assert values == [-1e308, 1e308]
    assert abs(vectors[0].coefficient((2,))) == 1.0
    assert abs(vectors[1].coefficient((1,))) == 1.0


def test_symmetric_eigenframe_overflowing_eigenvalue():
    f = LinearMap.from_matrix(E2, [[1e308, 1e308], [1e308, 1e308]])  # eigenvalue 2e308
    with pytest.raises(NonFiniteError):
        f.symmetric_eigenframe()


def test_symmetric_eigenframe_raises_without_convergence(monkeypatch):
    monkeypatch.setattr(linops, "_JACOBI_SWEEPS", 1)
    f = LinearMap.from_matrix(E2, [[1.0, 1.0], [1.0, 2.0]])
    with pytest.raises(OperatorError, match="did not converge"):
        f.symmetric_eigenframe()
    assert LinearMap.diagonal(E2, [2.0, 1.0]).symmetric_eigenframe()[0] == [1.0, 2.0]


# -- verdicts at every scale ------------------------------------------------------------

@pytest.mark.parametrize("method, message", [
    ("symmetric_eigenframe", "map is not symmetric"),
    ("skew_bivector", "map is not skew"),
])
def test_one_small_entry_is_neither_symmetric_nor_skew(method, message):
    # the halved skew (or symmetric) part, 7.5e-11, fell to the prune
    f = LinearMap.from_matrix(E2, [[0.0, 1.5e-10], [0.0, 0.0]])
    with pytest.raises(OperatorError, match=message):
        getattr(f, method)()


def _split_maps(alg, rng):
    """Metric-symmetric and skew maps, exact and with one entry moved by 1e-13 and 1e-7."""
    n, eta = alg.n, alg.metric
    maps = []
    for sign in (1.0, -1.0):  # Fbar = sign F
        m = [[0.0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + (sign > 0)):
                x = rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 1.0)
                m[i][j], m[j][i] = x, sign * eta[i] * eta[j] * x
        maps.append(m)
        for moved in (1e-13, 1e-7):
            m = [row[:] for row in m]
            m[n - 1][0] *= 1.0 + moved
            maps.append(m)
    return maps


def _refusals(f):
    """Whether symmetric_eigenframe and skew_bivector raise OperatorError."""
    out = []
    for method in (f.symmetric_eigenframe, f.skew_bivector):
        try:
            method()
        except OperatorError:
            out.append(True)
        else:
            out.append(False)
    return out


@pytest.mark.parametrize("p, q", [(2, 0), (3, 0), (4, 0), (1, 3), (2, 2)])
def test_split_and_eigenblade_answers_do_not_depend_on_scale(p, q):
    # the split tests pruned the halved symmetric or skew part at the
    # absolute tolerance, and eigenblade_check compared the pruned F(A) with
    # lambda A at tol * max(1, |lambda|): small maps passed, large ones not
    alg = Algebra(p, q)
    rng = random.Random(f"linops scale {p},{q}")
    e = [alg.basis_vector(i) for i in range(1, alg.n + 1)]
    diagonal = [rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 1.0) for _ in range(alg.n)]
    stretch = LinearMap.diagonal(alg, [1.0, 2.0] + diagonal[2:])
    v, w = gen.rand_vector(alg, rng), gen.rand_vector(alg, rng)
    flat = LinearMap(alg, [v, w, v + w, *rand_map(alg, rng).images][:alg.n])  # F(e123) = 0
    maps = [LinearMap.from_matrix(alg, m) for m in _split_maps(alg, rng)]
    maps += [LinearMap.diagonal(alg, diagonal), stretch, flat, rand_map(alg, rng)]
    blades = [*e, e[0] + e[1] * 1e-5, e[0] ^ e[1], alg.I, gen.rand_vector(alg, rng)]
    if alg.n > 2:
        blades.append(e[0] ^ e[1] ^ e[2])
    for f in maps:
        refusals = _refusals(f)
        values = [f.eigenblade_check(a) for a in blades]
        for j in (-30, -20, -10, 10, 30, *rng.sample(range(-29, 30), 4)):
            s = math.ldexp(1.0, j)
            scaled = f.scale(s)
            if any(len(a.terms) != len(b.terms) for a, b in zip(f.images, scaled.images)):
                continue  # a coefficient fell to the prune
            assert _refusals(scaled) == refusals, (f.matrix(), j)
            for a, lam in zip(blades, values):
                r = max(a.grades)
                want = None if lam is None else math.ldexp(lam, j * r)
                assert scaled.eigenblade_check(a) == want, (f.matrix(), a, j)
    # the exact and 1e-13 maps pass their own test; the 1e-7 ones do not
    if q == 0:
        assert [_refusals(f)[0] for f in maps[:3]] == [False, False, True]
    assert [_refusals(f)[1] for f in maps[3:6]] == [False, False, True]
    # diag(s, 2s) moves e1 + 1e-5 e2 off its line, at every scale
    assert stretch.eigenblade_check(e[0] + e[1] * 1e-5) is None
    # F(e123) = v ^ w ^ (v + w) is roundoff in the twin: eigenvalue 0
    if alg.n > 2:
        assert flat.eigenblade_check(blades[-1]) == 0.0
    # Hadamard's bound on F(e1 + e2), 2e308 and above, overflows; F(e1 + e2) does not
    huge = LinearMap.diagonal(alg, [1e308] * alg.n)
    huge_stretch = LinearMap.diagonal(alg, [1e308, 5e307] + [1e308] * (alg.n - 2))
    for j in (0, -1, -30, *rng.sample(range(-29, -1), 2)):
        s = math.ldexp(1.0, j)
        assert huge.scale(s).eigenblade_check(e[0] + e[1]) == 1e308 * s, j
        assert huge_stretch.scale(s).eigenblade_check(e[0] + e[1]) is None, j
        assert huge.scale(-s).eigenblade_check(e[0] - e[1]) == -1e308 * s, j


# -- eigenblades ------------------------------------------------------------------------

def test_eigenblade_check_reads_an_overflowing_bound():
    # Hadamard's bound on F(e1 + e2), sum |c_S| prod |F(e_i)| = 2e308,
    # overflows while F(e1 + e2) is finite
    e1, e2 = E2.basis_vector(1), E2.basis_vector(2)
    f = LinearMap.diagonal(E2, [1e308, 1e308])
    assert f.eigenblade_check(e1 + e2) == 1e308
    assert f.eigenblade_check(e1 - e2 * 0.5) == 1e308
    # F(A) - lambda A = -2e308 e2 would overflow; its half does not
    assert LinearMap.diagonal(E2, [1e308, -1e308]).eigenblade_check(e1 + e2) is None

def test_volume_element_is_always_an_eigenblade():
    rng = random.Random(18)
    for alg in (E2, E3, STA):
        f = rand_map(alg, rng)
        lam = f.eigenblade_check(alg.I)
        assert lam is not None
        assert lam == pytest.approx(f.determinant(), abs=1e-9)


def test_rotation_plane_is_an_eigenplane():
    r = exp_bivector(E3.blade((1, 2), 1.0), 0.8)
    f = LinearMap(E3, [rotate_vec(r, i) for i in (1, 2, 3)])
    assert f.eigenblade_check(E3.blade((1, 2), 1.0)) == pytest.approx(1.0)
    assert f.eigenblade_check(E3.blade((1, 3), 1.0)) is None


def rotate_vec(r, i):
    alg = r.algebra
    return apply_versor(alg.basis_vector(i), r)


def test_zero_eigenvalue_is_reported():
    f = LinearMap.diagonal(E3, [0.0, 1.0, 1.0])
    lam = f.eigenblade_check(E3.basis_vector(1))
    assert lam == 0.0
    assert lam is not None


def test_eigenblade_check_rejects_zero_input():
    f = LinearMap.identity(E3)
    with pytest.raises(ValueError):
        f.eigenblade_check(E3.zero())


# -- isometry factorization ----------------------------------------------------------------

def test_factor_identity_map():
    v, factors = factor_isometry(LinearMap.identity(E3))
    assert factors == []
    assert v == E3.scalar(1.0)


def test_factor_single_reflection():
    f = LinearMap(E3, [-E3.basis_vector(1), E3.basis_vector(2), E3.basis_vector(3)])
    v, factors = factor_isometry(f)
    assert len(factors) == 1
    assert factors[0].grades == frozenset({1})


def test_factor_rotation_needs_two_reflections():
    r = exp_bivector(E2.blade((1, 2), 1.0), 0.7)
    f = LinearMap(E2, [apply_versor(E2.basis_vector(i), r) for i in (1, 2)])
    v, factors = factor_isometry(f)
    assert len(factors) == 2
    check_factored(f, v, factors)


def check_factored(f, v, factors):
    alg = f.algebra
    hat = len(factors) % 2
    vinv = v.inverse()
    for i in range(alg.n):
        x = alg.basis_vector(i + 1)
        moved = x.grade_involution() if hat else x
        assert (v * moved * vinv).max_coeff_diff(f(x)) < 1e-8


def test_factor_random_euclidean_isometries():
    # the mirrors reflect the working images in closed form; W ghat^m(e_i) W^-1
    # still rebuilds F(e_i) at n = 6, with up to six mirrors
    rng = random.Random(19)
    for alg in (E2, E3, Algebra(4, 0), Algebra(6, 0)):
        for _ in range(10):
            f = versor_map(alg, rng, rng.randrange(1, alg.n + 1))
            v, factors = factor_isometry(f)
            assert len(factors) <= alg.n
            check_factored(f, v, factors)


def test_factor_boost_in_mixed_signature():
    alg = Algebra(1, 1)
    b = alg.blade((1, 2), 1.0)
    assert (b * b).scalar_part == 1.0
    rot = (b * 0.45).exp()
    f = LinearMap(alg, [apply_versor(alg.basis_vector(i), rot) for i in (1, 2)])
    v, factors = factor_isometry(f)
    assert len(factors) <= 2 * alg.n
    check_factored(f, v, factors)


def test_factor_random_mixed_signature_isometries():
    rng = random.Random(20)
    for _ in range(10):
        f = versor_map(STA, rng, rng.randrange(1, 4))
        v, factors = factor_isometry(f)
        assert len(factors) <= 2 * STA.n
        check_factored(f, v, factors)


def test_factor_mirrors_are_unit_vectors_in_mixed_signature():
    # the reflections leave roundoff in grades 3 and 5 of the working images,
    # and the mirrors took it on: the factor grades were [1], [1, 3], [1, 5],
    # [1, 5], [1, 5], and their product failed the versor check
    alg = Algebra(3, 3)
    rng = random.Random(17)
    count, mirrors = rng.randint(1, 6), []
    while len(mirrors) < count:  # mirrors with |v^2| >= 1e-3
        v = alg.vector([rng.uniform(-1, 1) for _ in range(alg.n)])
        if abs(v.norm_squared()) >= 1e-3:
            mirrors.append(v)
    V = math.prod(mirrors, start=alg.scalar(1.0))
    f = LinearMap(alg, [apply_versor(alg.basis_vector(i), V) for i in range(1, alg.n + 1)])
    w, factors = factor_isometry(f)
    assert len(factors) == 5
    for v in factors:
        assert v.grades == {1} and abs(abs(v.norm_squared()) - 1.0) < 1e-9
    for i in range(1, alg.n + 1):
        want = f(alg.basis_vector(i))
        biggest = max(map(abs, want.terms.values()))
        assert apply_versor(alg.basis_vector(i), w).max_coeff_diff(want) < 1e-6 * biggest


def _factor_by_multivectors(F):
    """factor_isometry with Multivector images and mirrors: the reference for its lists."""
    alg = F.algebra
    tol = alg.tolerance * linops._ISOMETRY_SLACK
    current, factors = list(F.images), []

    def pull_back(c):
        unit = c / math.sqrt(abs(c.norm_squared()))
        factors.append(unit)
        square = unit.norm_squared()
        current[:] = [x + unit * (-2.0 * unit.scalar_product(x) / square) for x in current]

    for i in range(alg.n):
        target, g = alg.basis_vector(i + 1), current[i]
        if g.isclose(target, tol=tol):
            continue
        if abs((g - target).norm_squared()) > tol:
            pull_back(g - target)
        else:
            pull_back(g + target)
            pull_back(target)
    return factors


@pytest.mark.parametrize("p, q", [(p, n - p) for n in range(1, 7) for p in range(n + 1)])
def test_factor_isometry_reflects_coordinates_as_multivectors_would(p, q):
    # the working images and mirrors are coordinate lists, pruned where a
    # Multivector is: the same mirrors, to roundoff, as Multivector algebra
    # finds, and their product
    rng = random.Random(f"factor lists {p},{q}")
    alg = Algebra(p, q)
    for count in range(1, alg.n + 1):
        for _ in range(2):
            f = versor_map(alg, rng, count)
            want = _factor_by_multivectors(f)
            v, factors = factor_isometry(f)
            assert len(factors) == len(want)
            # boosts with images up to 2e4 amplify the roundoff of each sum's order
            assert all(x.max_coeff_diff(y) <= 1e-9 * math.hypot(*y._terms.values())
                       for x, y in zip(factors, want))
            assert v == math.prod(factors, start=alg.scalar(1.0))


def test_factor_rejects_non_isometries():
    with pytest.raises(OperatorError):
        factor_isometry(LinearMap.diagonal(E3, [2.0, 1.0, 1.0]))


def test_isometries_are_multiplicative_over_the_geometric_product():
    rng = random.Random(21)
    f = versor_map(E3, rng, 2)
    for _ in range(20):
        a = gen.rand_mv(E3, rng)
        b = gen.rand_mv(E3, rng)
        assert f(a * b).max_coeff_diff(f(a) * f(b)) < 1e-8
