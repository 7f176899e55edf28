"""The library contract: a public call returns a result or raises a GAError.

The admitted exceptions outside GAError are the argument errors of a
malformed call: TypeError for an argument of the wrong type, ValueError
where a docstring names it.

The fuzz makes only well-formed calls, so each must return or raise a
GAError: from one seed, draws of operands at coefficients from 1e-300 to
1.7e308, plus the subnormal +-5e-324, at the tolerances 1e-10, 1e-300 and 0,
in every Cl(p,q) with n <= 6 (ids "small-p,q") and in Cl(7,0) and Cl(4,3)
(ids "large-p,q"), whose dense products run in numpy. A draw whose operands
already raise a GAError is skipped, and eigenblade_check is never passed
zero, which its docstring refuses with ValueError.

A second seeded fuzz draws the operands the square test accepts and the
versor check refuses: a + b e_S with |S| = 3 mod 4, and at n >= 6 sums of
two orthogonal blades, such as e123 + e456 and 1 + e123456. It also checks
that a mixed-parity operand is never a versor.
"""

import math
import operator
import random
from functools import reduce

import pytest

from gacalc import (
    Algebra,
    AlgebraMismatch,
    Frame,
    GAError,
    GradeError,
    LinearMap,
    OrbitState,
    SimulationError,
    apply_versor,
    conserved,
    factor_isometry,
    gram_schmidt,
    orbit_radius,
    orbital_period,
    project,
    reflect,
    reject,
    rotate,
    rotor_from_vectors,
    simulate,
)

E3 = Algebra(3, 0)
e1, e2 = E3.basis_vector(1), E3.basis_vector(2)


@pytest.mark.parametrize("call, error", [
    (lambda: gram_schmidt([1.0]), TypeError),
    (lambda: rotor_from_vectors(1.0, e1), TypeError),
    (lambda: rotate(e1, 1.0), TypeError),
    (lambda: factor_isometry(1.0), TypeError),
    (lambda: LinearMap.identity(E3).compose(1.0), TypeError),
    (lambda: simulate(1.0, 1e-3, 10), SimulationError),
    (lambda: orbit_radius(1.0, 0.0), SimulationError),
    (lambda: orbital_period(1.0), SimulationError),
], ids=["gram_schmidt", "rotor_from_vectors", "rotate", "factor_isometry", "compose",
        "simulate", "orbit_radius", "orbital_period"])
def test_a_malformed_argument_is_an_argument_error(call, error):
    # each died with a bare AttributeError: 'float' object has no attribute ...
    with pytest.raises(error):
        call()


_F = LinearMap.from_matrix(E3, [[2.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 3.0]])
_FRAME = Frame([e1, e2])
_ROTOR = rotor_from_vectors(e1, e2)


@pytest.mark.parametrize("call", [
    lambda x: _F(x),
    lambda x: _F.eigenblade_check(x),
    lambda x: _F @ LinearMap.identity(x.algebra),
    lambda x: LinearMap(E3, [x] * 3),
    lambda x: _F + LinearMap.identity(x.algebra),
    lambda x: _F - LinearMap.identity(x.algebra),
    lambda x: Frame([e1, x]),
    lambda x: _FRAME.components(x),
    lambda x: _FRAME.expand_by_vectors(x),
    lambda x: gram_schmidt([e1, x]),
    lambda x: project(x, e1 ^ e2),
    lambda x: reject(x, e1 ^ e2),
    lambda x: reflect(x, e1 ^ e2),
    lambda x: apply_versor(x, e1 * e2),
    lambda x: rotate(x, _ROTOR),
    lambda x: rotor_from_vectors(e1, x),
], ids=["apply", "eigenblade_check", "compose", "LinearMap", "add", "sub", "Frame",
        "components", "expand_by_vectors", "gram_schmidt", "project", "reject", "reflect",
        "apply_versor", "rotate", "rotor_from_vectors"])
@pytest.mark.parametrize("foreign", [Algebra(2, 0), Algebra(3, 0, tolerance=1e-12)],
                         ids=["Cl(2,0)", "Cl(3,0)-tol-1e-12"])
def test_a_foreign_operand_is_an_algebra_mismatch(call, foreign):
    # the LinearMap rows raised ValueError, which no docstring named
    with pytest.raises(AlgebraMismatch, match="operands from different algebras"):
        call(foreign.basis_vector(2))


FUZZ_SEED = "library contract"
FUZZ_DRAWS = 120
TOLERANCES = (1e-10, 1e-300, 0.0)
_REFUSED = object()


def _outcome(call, *args):
    """call(*args), or _REFUSED for a GAError; any other exception fails the draw."""
    try:
        return call(*args)
    except GAError:
        return _REFUSED


def _coefficient(rng, exponent):
    """A signed coefficient of about 10^exponent, at most 1.7e308, or now and then +-5e-324."""
    if rng.random() < 0.05:
        return rng.choice((5e-324, -5e-324))
    scale = 10.0 ** max(-300, min(exponent, 308))
    return rng.choice((1.0, -1.0)) * min(rng.uniform(1.0, 10.0) * scale, 1.7e308)


def _exponent(rng):
    """An operand's scale: half the draws near 1, half anywhere from 1e-300 to 1e308."""
    return rng.randint(-3, 3) if rng.random() < 0.5 else rng.randint(-300, 308)


def _vector(alg, rng, exponent=None):
    """A dense or sparse vector, its coefficients within a few decades of one scale."""
    exponent = _exponent(rng) if exponent is None else exponent
    sparse = rng.random() < 0.3
    return alg.vector([0.0 if sparse and rng.random() < 0.5
                       else _coefficient(rng, exponent + rng.randint(-2, 2))
                       for _ in range(alg.n)])


def _vectors(alg, rng, exponent=None):
    """1 to n vectors, each at a scale of its own unless exponent is given."""
    return [_vector(alg, rng, exponent) for _ in range(rng.randint(1, alg.n))]


def _operand(alg, rng):
    """A vector, a blade, a versor, or a sparse or full sum of basis blades."""
    kind, exponent = rng.randrange(5), _exponent(rng)
    if kind == 0:
        return _vector(alg, rng, exponent)
    if kind in (1, 2):  # a wedge of vectors, or their geometric product
        op = operator.xor if kind == 1 else operator.mul
        return reduce(op, _vectors(alg, rng, exponent // 2))
    blades = alg.basis_blades()
    if kind == 3:
        blades = rng.sample(blades, rng.randint(1, min(4, len(blades))))
    return alg.multivector({b: _coefficient(rng, exponent + rng.randint(-2, 2)) for b in blades})


def _products(alg, rng):
    A, B = _operand(alg, rng), _operand(alg, rng)
    for call in (A.__mul__, A.__xor__, A.left_contract, A.right_contract, A.scalar_product):
        _outcome(call, B)
    for call in (A.norm_squared, A.inverse, A.dual, A.inverse_dual, A.is_blade, A.is_versor,
                 A.grade(2).exp):
        _outcome(call)


def _transforms(alg, rng):
    A, B, V = _operand(alg, rng), _operand(alg, rng), _operand(alg, rng)
    for call in (project, reject, reflect):
        _outcome(call, A, B)
    _outcome(apply_versor, A, V)
    _outcome(rotate, A, V.even_part())
    _outcome(rotor_from_vectors, _vector(alg, rng), _vector(alg, rng))
    _outcome(gram_schmidt, _vectors(alg, rng))


def _frame(alg, rng):
    A = _operand(alg, rng)
    frame = _outcome(Frame, _vectors(alg, rng))
    if frame is _REFUSED:
        return
    components = _outcome(frame.components, A)
    if components is not _REFUSED:
        _outcome(frame.expand, components)
    _outcome(lambda: frame.reciprocal)
    _outcome(lambda: frame.volume)


def _linear_map(alg, rng):
    F = LinearMap(alg, [_vector(alg, rng) for _ in range(alg.n)])
    G = LinearMap(alg, [_vector(alg, rng) for _ in range(alg.n)])
    A, blade = _operand(alg, rng), reduce(operator.xor, _vectors(alg, rng))
    _outcome(F, A)
    if blade:
        _outcome(F.eigenblade_check, blade)
    _outcome(F.compose, G)
    for call in (F.determinant, F.inverse, F.adjoint, F.symmetric_eigenframe, F.skew_bivector):
        _outcome(call)
    S, K = _outcome(F.symmetric_part), _outcome(F.skew_part)
    if S is not _REFUSED:
        _outcome(S.symmetric_eigenframe)
    if K is not _REFUSED:
        _outcome(K.skew_bivector)


def _isometry(alg, rng):
    V = reduce(operator.mul, _vectors(alg, rng, rng.randint(-3, 3)))
    images = [apply_versor(alg.basis_vector(i), V) for i in range(1, alg.n + 1)]
    _outcome(factor_isometry, LinearMap(alg, images))


def _kepler(alg, rng):
    space = Algebra(3, 0, tolerance=alg.tolerance)
    m, k = abs(_coefficient(rng, _exponent(rng))), _coefficient(rng, _exponent(rng))
    state = OrbitState(_vector(space, rng), _vector(space, rng), m, k)
    cons = _outcome(conserved, state)
    if cons is not _REFUSED:
        _outcome(orbit_radius, cons, rng.uniform(-math.pi, math.pi))
        _outcome(orbital_period, cons)
    dt = abs(_coefficient(rng, rng.randint(-6, 2)))
    _outcome(simulate, state, dt, rng.randint(0, 8), rng.randint(1, 3))


_FAMILIES = (_products, _transforms, _frame, _linear_map, _isometry, _kepler)


@pytest.mark.parametrize("p, q", [
    *(pytest.param(p, n - p, id=f"small-{p},{n - p}") for n in range(1, 7) for p in range(n + 1)),
    pytest.param(7, 0, id="large-7,0"),
    pytest.param(4, 3, id="large-4,3"),
])
def test_a_well_formed_call_returns_or_raises_a_gaerror(p, q):
    rng = random.Random(f"{FUZZ_SEED} {p},{q}")
    algebras = [Algebra(p, q, tolerance=tol) for tol in TOLERANCES]
    for draw in range(FUZZ_DRAWS):
        alg, family = rng.choice(algebras), rng.choice(_FAMILIES)
        try:
            family(alg, rng)
        except GAError:  # the draw's operands already raise: skipped
            pass
        except Exception as exc:
            raise AssertionError(f"draw {draw}, {family.__name__} at tolerance "
                                 f"{alg.tolerance}: {exc!r}") from exc


MIXED_SEED = "mixed parity"
MIXED_DRAWS = 40


def _two_blade_sum(alg, rng):
    """a + b e_S with |S| = 3 mod 4, or at n >= 6 now and then c e_S + d e_T with S, T disjoint."""
    exponent = _exponent(rng)
    if alg.n >= 6 and rng.random() < 0.5:
        indices = rng.sample(range(1, alg.n + 1), rng.randint(1, alg.n))
        cut = rng.randint(0, len(indices) - 1)
        blades = (indices[:cut], indices[cut:])
    else:
        blades = ((), rng.sample(range(1, alg.n + 1), rng.choice((3, 7) if alg.n >= 7 else (3,))))
    return alg.multivector({tuple(b): _coefficient(rng, exponent + rng.randint(-2, 2))
                            for b in blades})


@pytest.mark.parametrize("p, q", [
    *(pytest.param(p, n - p, id=f"small-{p},{n - p}") for n in range(3, 7) for p in range(n + 1)),
    pytest.param(7, 0, id="large-7,0"),
    pytest.param(4, 3, id="large-4,3"),
])
def test_a_mixed_parity_operand_is_never_a_versor(p, q):
    # inverse() accepts any A whose A reverse(A) is scalar, but the versor
    # action still needs one grade parity: that holds at every tolerance
    rng = random.Random(f"{MIXED_SEED} {p},{q}")
    algebras = [Algebra(p, q, tolerance=tol) for tol in TOLERANCES]
    for draw in range(MIXED_DRAWS):
        alg = rng.choice(algebras)
        try:
            V, A = _two_blade_sum(alg, rng), _operand(alg, rng)
        except GAError:  # the draw's operands already raise: skipped
            continue
        try:
            for call, *args in ((V.inverse,), (V.is_versor,), (apply_versor, A, V), (rotate, A, V)):
                _outcome(call, *args)
        except Exception as exc:
            raise AssertionError(f"draw {draw} at tolerance {alg.tolerance}: {exc!r}") from exc
        if len({g & 1 for g in V.grades}) > 1:
            assert not V.is_versor()
            with pytest.raises(GradeError):
                apply_versor(A, V)
