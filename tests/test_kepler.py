"""Kepler-problem tests: conserved quantities, orbit geometry, integration."""

import dataclasses
import io
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from gacalc import (
    Algebra,
    Conserved,
    GAError,
    NonFiniteError,
    OrbitState,
    SimulationError,
    conserved,
    orbit_radius,
    orbital_period,
    simulate,
)
from gacalc import kepler
from gacalc.kepler import CSV_HEADER, _components, _csv_row, _stumpff, _write_rows, write_csv

E3 = Algebra(3, 0)


def state(r, v, m=1.0, k=1.0):
    return OrbitState(E3.vector(r), E3.vector(v), m, k)


CIRCLE = state((1.0, 0.0, 0.0), (0.0, 1.0, 0.0))


# -- state validation ----------------------------------------------------------

def test_state_validation():
    with pytest.raises(SimulationError):
        OrbitState(E3.scalar(1.0), E3.basis_vector(2))
    with pytest.raises(SimulationError):
        OrbitState(Algebra(2, 0).vector([1.0, 0.0]), Algebra(2, 0).basis_vector(2))
    with pytest.raises(SimulationError):
        state((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), m=0.0)
    with pytest.raises(SimulationError):
        state((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), k=0.0)


@pytest.mark.parametrize("field, value, message", [
    ("m", math.nan, "mass m must be positive and finite"),
    ("m", math.inf, "mass m must be positive and finite"),
    ("k", math.inf, "force constant k must be nonzero and finite"),
    ("k", math.nan, "force constant k must be nonzero and finite"),
    ("t", math.nan, "time t must be finite"),
    ("t", -math.inf, "time t must be finite"),
])
def test_nonfinite_constants_rejected(field, value, message):
    # OrbitState(m=nan) used to be accepted and fail later as "radius nan"
    args = {"m": 1.0, "k": 1.0, "t": 0.0, field: value}
    with pytest.raises(SimulationError, match=message):
        OrbitState(E3.basis_vector(1), E3.basis_vector(2), **args)


def test_states_are_frozen():
    with pytest.raises(Exception):
        CIRCLE.m = 2.0


# -- conserved quantities ---------------------------------------------------------

def test_circular_orbit_constants():
    cons = conserved(CIRCLE)
    assert str(cons.angular_momentum) == "1*e12"
    assert not cons.eccentricity
    assert cons.energy == pytest.approx(-0.5)
    assert cons.l == pytest.approx(1.0)
    assert not cons.radial


def test_eccentric_orbit_constants():
    cons = conserved(state((1.0, 0.0, 0.0), (0.0, 1.2, 0.0)))
    assert cons.l == pytest.approx(1.2)
    ecc = math.sqrt(cons.eccentricity.norm_squared())
    assert ecc == pytest.approx(1.2 ** 2 - 1.0)  # e = l^2/(mk r) - 1 at periapsis
    assert cons.energy == pytest.approx(0.5 * 1.2 ** 2 - 1.0)


def test_radial_orbit_flagged():
    cons = conserved(state((1.0, 0.0, 0.0), (-0.3, 0.0, 0.0)))
    assert cons.radial
    assert cons.l == 0.0
    assert not cons.angular_momentum


def test_near_radial_orbit_is_not_radial():
    # |L| = 1e-6 is above the pruning tolerance, so the orbit keeps its plane
    cons = conserved(state((1.0, 0.0, 0.0), (0.5, 1e-6, 0.0)))
    assert not cons.radial
    assert cons.l == pytest.approx(1e-6)
    assert cons.energy == pytest.approx(0.5 * (0.25 + 1e-12) - 1.0)


def test_eccentricity_is_a_vector():
    # L v = L |. v + L ^ v with L ^ v = 0; the full product left a roundoff e123
    r, v = [1e5 * x for x in (1.1, 1.1, 0.3)], [1e5 * x for x in (0.9, -0.2, 0.5)]
    cons = conserved(state(r, v))
    assert cons.eccentricity.grades <= {1}


def test_conserved_rejects_zero_radius():
    with pytest.raises(SimulationError):
        conserved(state((0.0, 0.0, 0.0), (0.0, 1.0, 0.0)))


def test_conserved_rejects_what_is_not_a_state():
    # conserved() reads the coordinates of r and v that an OrbitState checked
    with pytest.raises(SimulationError, match="expected an OrbitState, got tuple"):
        conserved((E3.basis_vector(1), E3.basis_vector(2)))


def test_angular_momentum_dual_is_the_cross_product():
    rng = random.Random(60)
    for _ in range(25):
        r = [rng.uniform(-2, 2) for _ in range(3)]
        v = [rng.uniform(-2, 2) for _ in range(3)]
        m = rng.uniform(0.5, 3.0)
        if sum(x * x for x in r) < 0.1:
            continue
        cons = conserved(state(tuple(r), tuple(v), m=m))
        got = cons.angular_momentum.dual()
        cx, cy, cz = oracles.cross3(r, v)
        want = E3.vector([m * cx, m * cy, m * cz])
        assert got.max_coeff_diff(want) < 1e-12


def test_energy_eccentricity_relation_on_random_states():
    rng = random.Random(61)
    for _ in range(50):
        r = [rng.uniform(-2, 2) for _ in range(3)]
        v = [rng.uniform(-2, 2) for _ in range(3)]
        if sum(x * x for x in r) < 0.1:
            continue
        m = rng.uniform(0.5, 2.0)
        k = rng.choice([1.0, -1.0]) * rng.uniform(0.5, 2.0)
        cons = conserved(state(tuple(r), tuple(v), m=m, k=k))
        if cons.radial:
            continue
        lhs = cons.energy
        rhs = (m * k * k / (2 * cons.l ** 2)) * (cons.eccentricity.norm_squared() - 1)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


# -- orbit geometry -----------------------------------------------------------------

def test_orbit_radius_circular():
    cons = conserved(CIRCLE)
    for theta in (0.0, 1.0, math.pi, 5.0):
        assert orbit_radius(cons, theta) == pytest.approx(1.0)


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
def test_orbit_radius_rejects_nonfinite_angle(theta):
    # orbit_radius(cons, nan) used to return nan
    with pytest.raises(SimulationError, match="angle .* is not finite"):
        orbit_radius(conserved(CIRCLE), theta)


def test_orbit_radius_elliptic():
    cons = conserved(state((1.0, 0.0, 0.0), (0.0, 1.2, 0.0)))
    e = math.sqrt(cons.eccentricity.norm_squared())
    semilatus = cons.l ** 2
    assert orbit_radius(cons, 0.0) == pytest.approx(semilatus / (1 + e))
    assert orbit_radius(cons, math.pi) == pytest.approx(semilatus / (1 - e))


def test_orbit_radius_hyperbolic_rejects_forbidden_angles():
    # fast escape orbit: e > 1, angles near the asymptote are out of range
    cons = conserved(state((1.0, 0.0, 0.0), (0.0, 2.0, 0.0)))
    e = math.sqrt(cons.eccentricity.norm_squared())
    assert e > 1.0
    limit = math.acos(-1.0 / e)
    assert orbit_radius(cons, limit - 0.1) > 0.0
    with pytest.raises(SimulationError):
        orbit_radius(cons, limit + 0.1)
    with pytest.raises(SimulationError):
        orbit_radius(cons, math.pi)


def test_orbit_radius_repulsive_branch():
    # k < 0: the denominator must be negative, angles near periapsis direction
    cons = conserved(state((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), k=-1.0), )
    e = math.sqrt(cons.eccentricity.norm_squared())
    assert e > 1.0
    r_at_pi = orbit_radius(cons, math.pi)
    assert r_at_pi == pytest.approx(1.0)  # the launch point sits opposite e
    with pytest.raises(SimulationError):
        orbit_radius(cons, 0.0)


def test_orbital_period_kepler_third_law():
    cons = conserved(state((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)))
    assert orbital_period(cons) == pytest.approx(2 * math.pi)
    # unbound orbits have no period
    unbound = conserved(state((1.0, 0.0, 0.0), (0.0, 1.5, 0.0)))
    with pytest.raises(SimulationError):
        orbital_period(unbound)


@pytest.mark.parametrize("mk", [
    pytest.param(1e-200, id="mk-underflows"),  # m k was a ZeroDivisionError
    pytest.param(1e-160, id="mk-subnormal"),  # m k subnormal returned inf
    pytest.param(1.0, id="unit"),
])
def test_orbit_radius_that_is_not_finite_raises(mk):
    # r = (1e300/3, 0, 0), v = (0, 3e-150, 0) and m = k: e = 2 and l^2/mk = 1e300,
    # so 1 + e cos(theta) = 1.7e-11 just inside the asymptote gives a radius past 1.8e308
    space = Algebra(3, 0, tolerance=1e-300)
    cons = conserved(OrbitState(space.vector((1e300 / 3, 0.0, 0.0)),
                                space.vector((0.0, 3e-150, 0.0)), mk, mk))
    assert (cons.m, cons.k) == (mk, mk)
    assert math.hypot(*_components(cons.eccentricity)) == pytest.approx(2.0)
    with pytest.raises(NonFiniteError, match="conic radius is not finite"):
        orbit_radius(cons, math.acos(-0.5) - 1e-11)


# -- the orbit's own m and k ---------------------------------------------------------

HEAVY_CIRCLE = state((1.0, 0.0, 0.0), (0.0, 2.0, 0.0), m=2.0, k=8.0)


def test_conic_reads_m_and_k_from_the_orbit():
    # m v^2 / r = k / r^2 at r = 1, v = 2, m = 2, k = 8: a circle of period pi.
    # With m = k = 1 assumed, the radius read 16.0 and the period 0.2777
    cons = conserved(HEAVY_CIRCLE)
    assert (cons.m, cons.k) == (2.0, 8.0)
    for theta in (0.0, 1.0, math.pi):
        assert orbit_radius(cons, theta) == pytest.approx(1.0, rel=1e-15)
    assert orbital_period(cons) == pytest.approx(math.pi, rel=1e-15)


@pytest.mark.parametrize("call", [
    lambda cons: orbit_radius(cons, 0.0, m=2.0),
    lambda cons: orbit_radius(cons, 0.0, k=8.0),
    lambda cons: orbital_period(cons, m=2.0),
    lambda cons: orbital_period(cons, k=8.0),
], ids=["orbit_radius-m", "orbit_radius-k", "orbital_period-m", "orbital_period-k"])
def test_conic_functions_take_no_m_or_k(call):
    with pytest.raises(TypeError):
        call(conserved(HEAVY_CIRCLE))


def test_a_conserved_states_its_m_and_k():
    cons = conserved(HEAVY_CIRCLE)
    with pytest.raises(TypeError):  # no default m = k = 1 to fall back on
        Conserved(cons.angular_momentum, cons.eccentricity, cons.energy, cons.l, cons.radial)
    # a hand-built Conserved with m = 0 is refused, not a ZeroDivisionError
    massless = dataclasses.replace(cons, m=0.0)
    with pytest.raises(SimulationError, match="mass m must be positive"):
        orbit_radius(massless, 0.0)
    with pytest.raises(SimulationError, match="mass m must be positive"):
        orbital_period(massless)


def test_the_conic_passes_through_its_own_state():
    # theta is the angle from e to r; at it the conic radius is |r|, whatever
    # m, k and the branch. |v| ~ sqrt(|k/m|) puts |mv^2 r / k| near 1
    rng = random.Random("conic through the state")
    space = Algebra(3, 0, tolerance=0.0)
    worst, checked = 0.0, 0
    for _ in range(3000):
        m = 10.0 ** rng.uniform(-20, 20)
        k = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-20, 20)
        r = [rng.uniform(-1, 1) for _ in range(3)]
        v = [rng.uniform(-1, 1) * math.sqrt(abs(k / m)) for _ in range(3)]
        cons = conserved(OrbitState(space.vector(r), space.vector(v), m, k))
        if cons.radial:
            continue
        e = _components(cons.eccentricity)
        cross = (e[1] * r[2] - e[2] * r[1], e[2] * r[0] - e[0] * r[2], e[0] * r[1] - e[1] * r[0])
        theta = math.atan2(math.hypot(*cross), sum(a * b for a, b in zip(e, r)))
        rlen = math.hypot(*r)
        worst = max(worst, abs(orbit_radius(cons, theta) - rlen) / rlen)
        checked += 1
    assert checked > 2900
    assert worst <= 1e-9


def test_orbital_period_that_is_not_finite_raises():
    # a ** 3 raised a bare OverflowError
    cons = conserved(state((1e150, 0.0, 0.0), (0.0, 1e-80, 0.0)))
    with pytest.raises(NonFiniteError, match="orbital period is not finite"):
        orbital_period(cons)


# -- integration -----------------------------------------------------------------------

def test_simulate_argument_validation():
    with pytest.raises(SimulationError):
        simulate(CIRCLE, 0.0, 10)
    with pytest.raises(SimulationError):
        simulate(CIRCLE, 1e-3, -1)
    with pytest.raises(SimulationError):
        simulate(CIRCLE, 1e-3, 10, record_every=0)
    assert simulate(CIRCLE, 1e-3, 0) == [CIRCLE]


_TOO_SMALL = "too small for the inverse-square force"


@pytest.mark.parametrize("r0, min_radius, message", [
    pytest.param((0.0, 0.0, 0.0), 0.0, _TOO_SMALL, id="origin"),
    # the tolerance prunes 1e-200 to 0, below the minimum; the message was
    # "too small" only because min_radius^2 underflowed to 0
    pytest.param((1e-200, 0.0, 0.0), 1e-200, "0.000e[+]00 fell below the minimum allowed",
                 id="r2-underflow"),
    pytest.param((1e-110, 0.0, 0.0), 0.0, _TOO_SMALL, id="r3-underflow"),
])
def test_force_underflow_raises_simulation_error(r0, min_radius, message):
    # |r|^3 underflows to 0 while |r| >= min_radius holds: this used to
    # fail with a bare ZeroDivisionError
    s0 = state(r0, (0.0, 1.0, 0.0))
    with pytest.raises(SimulationError, match=message):
        simulate(s0, 1e-3, 10, min_radius=min_radius)


_FINAL_TIME = r"final time t0 \+ steps\*dt must be finite"
_MIN_RADIUS = "min_radius must be nonnegative and finite, got "


@pytest.mark.parametrize("dt, steps, min_radius, t0, message", [
    pytest.param(math.nan, 10, 1e-8, 0.0, "dt must be finite, got nan", id="dt-nan"),
    pytest.param(math.inf, 10, 1e-8, 0.0, "dt must be finite, got inf", id="dt-inf"),
    pytest.param(1e300, 10 ** 10, 1e-8, 0.0, _FINAL_TIME, id="steps-dt-overflow"),
    pytest.param(1e-3, 10 ** 400, 1e-8, 0.0, _FINAL_TIME, id="steps-beyond-float"),
    pytest.param(1e307, 10, 1e-8, 1.7e308, _FINAL_TIME, id="t0-overflow"),
    pytest.param(1e-3, 10, -1.0, 0.0, _MIN_RADIUS + "-1.0", id="min-radius-negative"),
    pytest.param(1e-3, 10, math.nan, 0.0, _MIN_RADIUS + "nan", id="min-radius-nan"),
    pytest.param(1e-3, 10, math.inf, 0.0, _MIN_RADIUS + "inf", id="min-radius-inf"),
])
def test_simulate_rejects_invalid_arguments(dt, steps, min_radius, t0, message):
    # a non-finite dt used to surface as "time t must be finite" from a
    # recorded state, and a bad min_radius as a radius below the minimum
    s0 = OrbitState(E3.basis_vector(1), E3.basis_vector(2), t=t0)
    with pytest.raises(SimulationError, match=message):
        simulate(s0, dt, steps, min_radius=min_radius)


def test_simulate_records_initial_and_final():
    states = simulate(CIRCLE, 1e-3, 10)
    assert len(states) == 11
    assert states[0] == CIRCLE
    assert states[-1].t == pytest.approx(0.01)


def test_simulate_thins_records():
    states = simulate(CIRCLE, 1e-3, 10, record_every=4)
    assert [s.t for s in states] == pytest.approx([0.0, 0.004, 0.008, 0.01])


def test_simulate_keeps_m_k_t_metadata():
    s0 = state((1.0, 0.0, 0.0), (0.0, 1.1, 0.0), m=2.0, k=3.0)
    states = simulate(s0, 1e-3, 5)
    assert states[-1].m == 2.0
    assert states[-1].k == 3.0


def test_circular_orbit_returns_after_one_period():
    period = 2 * math.pi
    steps = 20000
    states = simulate(CIRCLE, period / steps, steps, record_every=steps)
    final = states[-1]
    assert final.r.max_coeff_diff(CIRCLE.r) < 1e-6
    assert final.v.max_coeff_diff(CIRCLE.v) < 1e-6


def test_conserved_quantities_drift_slowly():
    c0 = conserved(CIRCLE)
    states = simulate(CIRCLE, 1e-3, 5000, record_every=500)
    for s in states[1:]:
        c = conserved(s)
        assert abs(c.energy - c0.energy) < 1e-10
        assert c.angular_momentum.max_coeff_diff(c0.angular_momentum) < 1e-10


def test_second_law_equal_areas():
    # the swept-area rate |r ^ v| / 2 stays constant along an eccentric orbit
    s0 = state((1.0, 0.0, 0.0), (0.0, 1.2, 0.0))
    rate0 = 0.5 * math.sqrt((s0.r ^ s0.v).norm_squared())
    for s in simulate(s0, 1e-3, 8000, record_every=800):
        rate = 0.5 * math.sqrt((s.r ^ s.v).norm_squared())
        assert abs(rate - rate0) < 1e-8 * rate0


def test_hyperbolic_escape_radius_grows():
    s0 = state((1.0, 0.0, 0.0), (0.0, 2.0, 0.0))  # E > 0
    states = simulate(s0, 1e-3, 6000, record_every=600)
    radii = [math.sqrt(s.r.norm_squared()) for s in states]
    assert all(b > a for a, b in zip(radii, radii[1:]))
    assert conserved(states[-1]).energy == pytest.approx(conserved(s0).energy)


def test_repulsive_force_pushes_outward():
    s0 = state((1.0, 0.0, 0.0), (0.0, 0.5, 0.0), k=-1.0)
    states = simulate(s0, 1e-3, 4000, record_every=400)
    radii = [math.sqrt(s.r.norm_squared()) for s in states]
    assert all(b > a for a, b in zip(radii, radii[1:]))
    assert conserved(s0).energy > 0.0


def test_plunge_hits_the_radius_guard():
    s0 = state((1.0, 0.0, 0.0), (-1.0, 0.0, 0.0))
    with pytest.raises(SimulationError):
        simulate(s0, 1e-3, 2000, min_radius=0.5)


def test_blowup_is_reported_not_propagated():
    s0 = state((1.0, 0.0, 0.0), (0.0, 1.0, 0.0))
    with pytest.raises(SimulationError):
        simulate(s0, 1e200, 5)


def test_sampled_radii_match_the_conic():
    s0 = state((1.0, 0.0, 0.0), (0.0, 1.2, 0.0))
    cons = conserved(s0)
    e = math.sqrt(cons.eccentricity.norm_squared())
    ehat = cons.eccentricity / e
    for s in simulate(s0, 1e-3, 5000, record_every=500):
        rlen = math.sqrt(s.r.norm_squared())
        cos_theta = s.r.scalar_product(ehat) / rlen
        cos_theta = max(-1.0, min(1.0, cos_theta))
        want = orbit_radius(cons, math.acos(cos_theta))
        assert rlen == pytest.approx(want, rel=1e-7)


def _exact_stumpff(psi, k):
    """c_k(psi) = sum_j (-psi)^j / (2j + k)!, summed exactly until a term is below 2^-120 of it."""
    term, total, j = Fraction(1, math.factorial(k)), Fraction(0), 0
    while abs(term) > abs(total) / 2 ** 120:
        total += term
        term *= -Fraction(psi) / ((2 * j + k + 1) * (2 * j + k + 2))
        j += 1
    return total


@pytest.mark.parametrize("psi", [0.0, 1e-8, 0.01, 0.2499, 0.25, 0.3, 1.0, 3.7, 10.0, 39.0, 100.0])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_stumpff_functions_match_their_series(psi, sign):
    # the error is read against 1/k!, times cosh(sqrt(-psi)) where psi < 0
    psi *= sign
    size = math.cosh(math.sqrt(-psi)) if psi < 0 else 1.0
    for k, got in enumerate(_stumpff(psi)):
        want = _exact_stumpff(psi, k)
        bound = (1e-14 if k == 0 else 1e-15) * size / math.factorial(k)
        assert abs(got - float(want)) <= bound, (k, got, float(want))


def test_stumpff_functions_of_a_small_argument_match_their_series():
    # |psi| <= 2^-16 takes the series to psi^2, whose psi^3 terms lie below
    # 2^-60 of c2 and c3; on either side of the cut each c_k is within 2^-52
    # of the exact series, relative
    rng = random.Random("small psi")
    cut = 2.0 ** -16
    edges = [cut, math.nextafter(cut, 1.0), 1e-6, 2.0 ** -40, 5e-324, 0.0]
    for psi in edges + [-x for x in edges] + [rng.uniform(-cut, cut) for _ in range(300)]:
        for k, got in enumerate(_stumpff(psi)):
            want = _exact_stumpff(psi, k)
            assert abs(Fraction(got) - want) <= want * Fraction(2) ** -52, (psi, k, got)


ECCENTRIC = state((1.0, 0.0, 0.0), (0.0, 0.03, 0.0))  # e = 0.9991, pericentre 4.5e-4


def test_eccentric_orbit_closes_after_one_period():
    # RK4 threw this orbit out of the well: after one period, r was about 75
    # and E went from -0.99955 to +2286
    steps = 22230
    dt = orbital_period(conserved(ECCENTRIC)) / steps
    final = simulate(ECCENTRIC, dt, steps, record_every=steps)[-1]
    assert final.r.max_coeff_diff(ECCENTRIC.r) < 1e-9
    assert final.v.max_coeff_diff(ECCENTRIC.v) < 1e-9 * 0.03
    energy = conserved(ECCENTRIC).energy
    for s in simulate(ECCENTRIC, dt, steps):
        assert abs(conserved(s).energy - energy) < 1e-10 * abs(energy)


@pytest.mark.parametrize("v0, before", [
    pytest.param((0.0, 1e-6, 0.0), 11000, id="near-radial"),
    pytest.param((0.0, 0.0, 0.0), 11000, id="radial"),
    pytest.param((-0.3, 0.0, 0.0), 5000, id="radial-inward"),
])
def test_a_fall_through_the_centre_is_a_collision(v0, before):
    # these orbits dive below the default 1e-8; RK4 flung them out with E
    # up to 4.9e6, and the calls returned
    s0 = state((1.0, 0.0, 0.0), v0)
    for every in (1, 1000, 30000):
        with pytest.raises(SimulationError, match="fell below the minimum allowed"):
            simulate(s0, 1e-4, 30000, record_every=every)
    assert len(simulate(s0, 1e-4, before, record_every=1000)) == 1 + before // 1000
    # at min_radius 0 a radial fall reaches |r| = 0; the near-radial orbit
    # turns at 5e-13 and comes back
    if v0[1]:
        states = simulate(s0, 1e-4, 30000, record_every=1000, min_radius=0.0)
        energy = conserved(s0).energy
        assert all(abs(conserved(s).energy - energy) < 1e-6 for s in states)
    else:
        with pytest.raises(SimulationError, match="0.000e[+]00 is too small for the inverse"):
            simulate(s0, 1e-4, 30000, record_every=1000, min_radius=0.0)


@pytest.mark.parametrize("start, steps, every", [
    pytest.param(0, 30000, 1, id="dense"),
    pytest.param(0, 13000, 13000, id="radial-velocity-0-to-positive"),
    pytest.param(10000, 20000, 20000, id="radial-velocity-negative-at-both-ends"),
    pytest.param(0, 30000, 30000, id="longer-than-a-period"),
])
def test_the_guard_finds_a_pericentre_inside_a_record(start, steps, every):
    # the pericentre comes at t = 1.11 and every 2.22 after; one record
    # interval from `start` steps on holds it, though the radial velocity
    # r.v turns from < 0 to >= 0 across none of the last three
    s0 = simulate(ECCENTRIC, 1e-4, start, record_every=max(start, 1))[-1]
    with pytest.raises(SimulationError, match=r"radius 4\.5\d*e-04 fell below"):
        simulate(s0, 1e-4, steps, record_every=every, min_radius=0.01)
    assert simulate(ECCENTRIC, 1e-4, 11000, record_every=every, min_radius=0.01)


def test_an_overflowing_start_state_is_refused():
    # simulate() returned records that conserved() then refused
    s0 = state((1e200, 0.0, 0.0), (0.0, 1e200, 0.0))
    with pytest.raises(NonFiniteError, match="coefficient is not finite: inf"):
        simulate(s0, 1e-3, 2)


def test_a_record_whose_radius_overflows_is_refused():
    # |r| = 1.8e308 overflows while rx + ry does not: the record was
    # returned, conserved() refused it, and the next record, from r0 = inf,
    # moved on a straight line
    s0 = state((1e308, -1e308, 0.0), (1.0, -1.0, 0.0), k=-1.0)
    with pytest.raises(SimulationError, match="state became nonfinite at step 1"):
        simulate(s0, 3e307, 1)


def test_a_record_near_the_float_limit_is_kept():
    # rx + ry = 2e308 overflowed, and the record was refused as "state
    # became nonfinite", though its |r| = 1.4e308 and its row are finite
    s0 = state((1e308, 1e308, 0.0), (0.0, 0.0, 1.0))
    final = simulate(s0, 1.0, 1)[-1]
    assert final.r.coefficient((3,)) == pytest.approx(1.0, rel=1e-12)
    assert conserved(final).energy == pytest.approx(conserved(s0).energy, rel=1e-12)


@pytest.mark.parametrize("v", [0.0, -1e-80, 1.0])
def test_a_solve_across_many_decades_converges(v):
    # a repulsive start at |r| = 1e150, one record 1e280 later: s = tau/|r|
    # starts near 1e130 and the root lies near 1e64; halving the bracket
    # took ~220 steps and raised "did not converge" after 100
    exact = Algebra(3, 0, tolerance=0.0)
    s0 = OrbitState(exact.vector((1e150, 0.0, 0.0)), exact.vector((v, 0.0, 0.0)), k=-1.0)
    energy = conserved(s0).energy
    final = simulate(s0, 1e280, 1)[-1]
    rx, vx = final.r.coefficient((1,)), final.v.coefficient((1,))
    assert rx == pytest.approx(math.sqrt(2.0 * energy) * 1e280, rel=1e-12)
    assert 0.5 * vx * vx + 1.0 / rx == pytest.approx(energy, rel=1e-12)
    # |r|^2 overflows and |r| does not: conserved() keeps the final state,
    # which it refused while |r| was the root of |r|^2
    assert conserved(final).energy == pytest.approx(energy, rel=1e-12)


@pytest.mark.parametrize("r, v, m, k, dt", [
    # 1e10 periods in one record: r came back as 1.0 e1 - 1.01 e2, off the circle
    pytest.param((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), 1.0, 1.0, 2e10 * math.pi, id="1e10-periods"),
    # a flyby 1e30 times closer than its start: r0 G1 and sigma G2 cancel
    # from 1e186 down to tau, so F's root is roundoff; a solve that
    # converged there gave r = 3.9e93 where the flyby reaches about 8.8e60
    pytest.param((0.0, 4.5e13, 0.0), (0.0, -2e65, 1.4e35), 150.0, 1800.0, 4.4e-5, id="flyby"),
])
def test_a_record_the_solve_cannot_resolve_is_refused(r, v, m, k, dt):
    exact = Algebra(3, 0, tolerance=0.0)
    s0 = OrbitState(exact.vector(r), exact.vector(v), m, k)
    with pytest.raises(SimulationError, match="Kepler solve lost its precision at step 1"):
        simulate(s0, dt, 1)


def _direction(theta, phi):
    return (math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta))


@st.composite
def _orbits(draw):
    """Bound, near-parabolic (|E| < 1e-3), hyperbolic and repulsive orbits
    whose pericentre stays above a quarter of the start radius."""
    kind = draw(st.sampled_from(["bound", "near-parabolic", "hyperbolic", "repulsive"]))
    radius, m, k = (draw(st.floats(lo, hi)) for lo, hi in ((0.5, 2.0), (0.5, 2.0), (0.5, 2.0)))
    theta, phi = draw(st.floats(0.0, math.pi)), draw(st.floats(0.0, 2 * math.pi))
    gamma, alpha = draw(st.floats(-0.5, 0.5)), draw(st.floats(0.0, 2 * math.pi))
    # v/|v| leaves the tangent plane at the flight angle gamma
    out, tangent = _direction(theta, phi), _direction(theta + math.pi / 2, phi)
    normal = oracles.cross3(out, tangent)
    along = [math.cos(gamma) * (math.cos(alpha) * t + math.sin(alpha) * n) + math.sin(gamma) * o
             for o, t, n in zip(out, tangent, normal)]
    # the speed is |v|^2 = ratio 2|mu|/r: the escape speed at ratio 1
    ratio = {"bound": st.floats(0.5, 0.8), "hyperbolic": st.floats(1.5, 3.0),
             "near-parabolic": st.floats(-9e-4, 9e-4).map(lambda d: 1.0 + d * radius / k),
             "repulsive": st.floats(0.05, 1.0)}[kind]
    k = -k if kind == "repulsive" else k
    speed = math.sqrt(draw(ratio) * 2 * abs(k) / (m * radius))
    return OrbitState(E3.vector([radius * x for x in out]), E3.vector([speed * x for x in along]),
                      m, k)


def _vector(mv):
    return [mv.coefficient((i,)) for i in (1, 2, 3)]


def _close(got, want, rel):
    return max(abs(a - b) for a, b in zip(got, want)) <= rel * math.hypot(*want)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_orbits())
def test_closed_form_matches_rk4_at_a_tenth_of_the_step(s0):
    states = simulate(s0, 2e-3, 200, record_every=25)
    reference = oracles.kepler_rk4(_vector(s0.r), _vector(s0.v), s0.k / s0.m, 2e-4, 2000, 250)
    assert len(states) == len(reference) == 9
    for s, (step, r, v) in zip(states, reference):
        assert s.t == pytest.approx(step * 2e-4, rel=1e-12)
        assert _close(_vector(s.r), r, 1e-9) and _close(_vector(s.v), v, 1e-9), (s, r, v)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_orbits(), st.sampled_from([3, 25, 200]))
def test_dense_and_sparse_records_agree(s0, every):
    dense = simulate(s0, 2e-3, 200)
    sparse = simulate(s0, 2e-3, 200, record_every=every)
    assert [s.t for s in sparse] == [dense[i].t for i in [*range(0, 200, every), 200]]
    for s in sparse:
        d = dense[round(s.t / 2e-3)]
        assert _close(_vector(s.r), _vector(d.r), 1e-12)
        assert _close(_vector(s.v), _vector(d.v), 1e-12)


# -- CSV ---------------------------------------------------------------------------------

def test_write_csv_layout():
    buf = io.StringIO()
    write_csv([CIRCLE], buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "t,rx,ry,rz,vx,vy,vz,L_yz,L_zx,L_xy,ex,ey,ez,E"
    row = lines[1].split(",")
    assert [float(x) for x in row] == pytest.approx(
        [0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, -0.5])


def test_write_csv_bivector_component_signs():
    # orbit tipped into the yz plane: L = e23, whose dual is the x axis
    s = state((0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
    buf = io.StringIO()
    write_csv([s], buf)
    row = buf.getvalue().splitlines()[1].split(",")
    l_yz, l_zx, l_xy = (float(x) for x in row[7:10])
    assert (l_yz, l_zx, l_xy) == (1.0, 0.0, 0.0)
    cons = conserved(s)
    assert cons.angular_momentum.dual() == E3.vector([l_yz, l_zx, l_xy])


def _repeating_records(seed, count=300):
    """Seeded (t, r, v) records whose L, e and E fields repeat within and across columns.

    Coordinates come from a few exact values, so many rows share their
    conserved values and equal values meet in different columns. Planar
    orbits give L_zx = -0.0 beside 0.0 fields, -0.0 and 1e-11 coordinates are
    pruned, and some records sit at the centre, where the row raises.
    """
    rng = random.Random(seed)
    values = (0.0, -0.0, 0.5, 1.0, -1.0, 2.0, 1e-11)
    return [(rng.choice((0.0, 1.5e-3, -7.25)), *(rng.choice(values) for _ in range(6)))
            for _ in range(count)]


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("m, k", [(1.0, 1.0), (2.0, -0.5)])
def test_csv_lines_are_the_repr_of_every_field(seed, m, k):
    # the L, e and E fields come from a memo of reprs shared by the seven
    # columns: no line differs from writing each field by repr
    records, rows = [], []
    for record in _repeating_records(seed):
        try:
            rows.append(_csv_row(*record, m, k, E3.tolerance))
        except SimulationError:
            continue
        records.append(record)
    want = [",".join(CSV_HEADER)] + [",".join(map(repr, row)) for row in rows]
    buf = io.StringIO()
    _write_rows(iter(rows), buf)
    assert buf.getvalue().splitlines() == want
    states = [OrbitState(E3.vector(r[1:4]), E3.vector(r[4:]), m, k, r[0]) for r in records]
    buf = io.StringIO()
    write_csv(states, buf)
    assert buf.getvalue().splitlines() == want
    # the records hit what the memo must keep apart or share
    fields = [line.split(",")[7:] for line in want[1:]]
    assert any(f[1] == "-0.0" and "0.0" in f for f in fields)
    assert any(len({x for x in f if float(x)}) < sum(1 for x in f if float(x)) for f in fields)


def test_a_full_memo_starts_over(monkeypatch):
    # a run whose conserved values never repeat keeps at most _REPRS_MAX
    # strings; clearing the memo changes no byte
    rng = random.Random("memo")
    rows = [_csv_row(rng.uniform(0, 1), *(rng.uniform(-2, 2) for _ in range(6)), 1.0, 1.0, 1e-10)
            for _ in range(50)]
    full = io.StringIO()
    _write_rows(iter(rows), full)
    monkeypatch.setattr(kepler, "_REPRS_MAX", 4)
    small = io.StringIO()
    _write_rows(iter(rows), small)
    assert small.getvalue() == full.getvalue()
    assert full.getvalue().splitlines()[1:] == [",".join(map(repr, row)) for row in rows]


def _csv_fields(s):
    """The fields of s's CSV row, computed with Multivector operations."""
    cons = oracles.kepler_conserved(s)
    L, e = cons.angular_momentum, cons.eccentricity
    vector = lambda mv: [mv.coefficient((i,)) for i in (1, 2, 3)]
    return [s.t, *vector(s.r), *vector(s.v), L.coefficient((2, 3)),
            -L.coefficient((1, 3)), L.coefficient((1, 2)), *vector(e), cons.energy]


def _coordinates(tol):
    return st.one_of(
        st.sampled_from([0.0, -0.0, tol, -tol]),
        st.floats(-2 * tol, 2 * tol),
        st.builds(lambda sign, exp: sign * 10.0 ** exp,
                  st.sampled_from([1.0, -1.0]), st.floats(-12, 150)))


@st.composite
def _states(draw):
    algebra = draw(st.sampled_from([E3, Algebra(3, 0, tolerance=1e-6)]))
    coordinate = _coordinates(algebra.tolerance)
    r = draw(st.tuples(coordinate, coordinate, coordinate))
    v = draw(st.tuples(coordinate, coordinate, coordinate))
    m = 10.0 ** draw(st.floats(-20, 20))
    k = draw(st.sampled_from([1.0, -1.0])) * 10.0 ** draw(st.floats(-20, 20))
    t = draw(st.sampled_from([0.0, -0.0, 1.5e-3, -7.25]))
    return OrbitState(algebra.vector(r), algebra.vector(v), m, k, t)


@settings(max_examples=400, deadline=None)
@given(_states())
def test_csv_row_is_conserved_bit_for_bit(s):
    buf = io.StringIO()
    try:
        want = [repr(x) for x in _csv_fields(s)]
    except SimulationError:
        with pytest.raises(SimulationError, match="singularity"):
            write_csv([s], buf)
        return
    except NonFiniteError as error:
        with pytest.raises(NonFiniteError) as raised:
            write_csv([s], buf)
        assert str(raised.value) == str(error)
        return
    write_csv([s], buf)
    assert buf.getvalue().splitlines()[1].split(",") == want


@settings(max_examples=400, deadline=None)
@given(_states())
def test_conserved_matches_the_oracle(s):
    # the float kernel against the Multivector formulas: L, e and E bit for
    # bit; l = |L| is summed e12, e13, e23, where the formulas sum L's terms
    # in the order r ^ v made them, e12, e23, e13 when rx is pruned
    try:
        want = oracles.kepler_conserved(s)
    except (SimulationError, NonFiniteError) as error:
        with pytest.raises(type(error)) as raised:
            conserved(s)
        assert str(raised.value) == str(error)
        return
    got = conserved(s)
    assert got.angular_momentum._terms == want.angular_momentum._terms
    assert got.eccentricity._terms == want.eccentricity._terms
    assert got.energy == want.energy
    assert got.radial == want.radial == (got.l == 0.0)
    if s.r.coefficient((1,)):
        assert got.l == want.l
    else:
        assert abs(got.l - want.l) <= math.ulp(want.l)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_states(), st.floats(-300, 300).map(lambda x: 10.0 ** x), st.integers(0, 40),
       st.integers(1, 50), st.sampled_from([0.0, 1e-8, 0.5]))
def test_simulate_returns_finite_states_or_raises_a_ga_error(s0, dt, steps, every, min_radius):
    # a Stumpff argument that is not finite, an overflowing cosh or a Newton
    # solve that does not converge is a SimulationError, never ValueError,
    # OverflowError or ZeroDivisionError
    try:
        states = simulate(s0, dt, steps, record_every=every, min_radius=min_radius)
    except GAError:
        return
    assert len(states) == 1 + -(-steps // every)
    for s in states:
        assert all(map(math.isfinite, [s.t, *_vector(s.r), *_vector(s.v)]))


TINY = Algebra(3, 0, tolerance=1e-300)


def _tiny_state(r, v, m=1.0, k=1.0):
    return OrbitState(TINY.vector(r), TINY.vector(v), m, k)


def _row_values(s):
    buf = io.StringIO()
    write_csv([s], buf)
    return [float(x) for x in buf.getvalue().splitlines()[1].split(",")]


@pytest.mark.parametrize("rx", [
    pytest.param(3e-162, id="r2-subnormal"),  # e was -0.954 e1
    pytest.param(-1e-170, id="r2-zero"),  # raised "position is at the singularity"
])
def test_tiny_position_keeps_its_length(rx):
    # |r|^2 underflows; |r| must not
    s = _tiny_state((rx, 0.0, 0.0), (0.0, 0.0, 0.0), k=1e-300)
    cons = conserved(s)
    sign = math.copysign(1.0, rx)
    assert cons.eccentricity == TINY.vector((-sign, 0.0, 0.0))
    assert cons.energy == -1e-300 / abs(rx)
    row = _row_values(s)
    assert row[10:] == [-sign, 0.0, 0.0, cons.energy]


def test_tiny_angular_momentum_keeps_its_length():
    # |L|^2 = 1e-340 underflows: l was 0.0 with radial False, and
    # orbit_radius() then returned 0.0
    s = _tiny_state((1e-150, 0.0, 0.0), (0.0, 1e-20, 0.0))
    cons = conserved(s)
    assert cons.l == cons.angular_momentum.coefficient((1, 2)) == 1e-150 * 1e-20
    assert not cons.radial
    with pytest.raises(NonFiniteError, match="conic radius underflows to 0.0"):
        orbit_radius(cons, 0.0)
    assert _row_values(s)[7:10] == [0.0, -0.0, cons.l]


def test_tiny_circular_orbit_keeps_its_radius():
    # l^2 = 1e-420 and m k = 1e-320 underflow, while the radius is 1e-100:
    # orbit_radius raised "conic radius underflows to 0.0"
    s = _tiny_state((1e-100, 0.0, 0.0), (0.0, 1e-10, 0.0), m=1e-100, k=1e-220)
    cons = conserved(s)
    assert not cons.eccentricity
    for theta in (0.0, 1.0, math.pi):
        assert orbit_radius(cons, theta) == pytest.approx(1e-100, rel=1e-15)


def test_radial_is_exactly_zero_angular_momentum():
    for r, v in [((1e-160, 0.0, 0.0), (1e-20, 0.0, 0.0)),
                 ((1e-160, 0.0, 0.0), (0.0, 0.0, 1e-200)),
                 ((3e-200, 4e-200, 0.0), (0.0, 0.0, 1e-120))]:
        cons = conserved(_tiny_state(r, v))
        assert cons.radial == (cons.l == 0.0) == (not cons.angular_momentum)


def _tiny_coordinates(low, high):
    return st.one_of(
        st.just(0.0),
        st.builds(lambda sign, exp: sign * 10.0 ** exp,
                  st.sampled_from([1.0, -1.0]), st.floats(low, high)))


@settings(max_examples=300, deadline=None)
@given(r=st.tuples(*[_tiny_coordinates(-200, -140)] * 3),
       v=st.tuples(*[_tiny_coordinates(-20, 0)] * 3),
       m=st.floats(-3, 3).map(lambda x: 10.0 ** x),
       k=st.floats(-3, 3).map(lambda x: 10.0 ** x) | st.floats(-3, 3).map(lambda x: -10.0 ** x),
       j=st.integers(1, 1000))
# |r| = 1.1e161 and 6.2e160 at the top scale: draws that reach past 1.3e154 are rare
@example(r=(1e-140, 0.0, 0.0), v=(0.0, 1.0, 0.0), m=1.0, k=1.0, j=1000)
@example(r=(-3e-141, 5e-141, 1e-142), v=(0.5, 0.0, -0.2), m=2.0, k=-3.0, j=1000)
def test_tiny_states_scale_exactly(r, v, m, k, j):
    # r -> 2^j r, k -> 2^j k leaves e and E unchanged and scales L and l by
    # 2^j; at 1e-200..1e-140, |r|^2 and |L|^2 underflow while L, e, E do
    # not, and past j ~ 980 |r| passes 1.3e154, where |r|^2 overflows
    if not any(r):
        return
    scale = 2.0 ** j
    small_state = _tiny_state(r, v, m, k)
    big_state = _tiny_state([x * scale for x in r], v, m, k * scale)
    small, big = conserved(small_state), conserved(big_state)
    assert big.eccentricity == small.eccentricity
    assert big.energy == small.energy
    assert big.angular_momentum._terms == {
        blade: x * scale for blade, x in small.angular_momentum._terms.items()}
    assert big.l == small.l * scale
    assert small.radial == big.radial == (small.l == 0.0)
    small_row, big_row = _row_values(small_state), _row_values(big_state)
    assert big_row[1:4] == [x * scale for x in small_row[1:4]]
    assert big_row[4:7] == small_row[4:7]
    assert big_row[7:10] == [x * scale for x in small_row[7:10]]
    assert big_row[10:] == small_row[10:]


def test_conserved_numpy_constants_give_plain_floats():
    # E was np.float64(-1.56) for a numpy m or k
    np = pytest.importorskip("numpy")
    cons = conserved(state((1.0, 0.0, 0.0), (0.0, 1.2, 0.0),
                           m=np.float64(2.0), k=np.float64(3.0)))
    want = conserved(state((1.0, 0.0, 0.0), (0.0, 1.2, 0.0), m=2.0, k=3.0))
    assert type(cons.energy) is float and type(cons.l) is float
    assert (cons.energy, cons.l) == (want.energy, want.l)


def test_write_csv_overflow_raises_nonfinite_error():
    # r ^ v overflows: the CSV writer must raise as conserved() does
    s = state((1e200, 0.0, 0.0), (0.0, 1e200, 0.0))
    with pytest.raises(NonFiniteError, match="coefficient is not finite: inf"):
        conserved(s)
    with pytest.raises(NonFiniteError, match="coefficient is not finite: inf"):
        write_csv([s], io.StringIO())


def test_overflow_messages_follow_the_multivector_steps():
    # the reported coefficient is the first one that is not finite in the
    # order the product loop meets the blades of r ^ v, L, L |. v and L |. v / k
    rng = random.Random("kepler overflow")

    def vector():
        size = 10.0 ** rng.uniform(100, 200)
        return E3.vector([rng.choice((0.0, 1.0, -1.0)) * rng.uniform(1.0, 10.0) * size
                          for _ in range(3)])

    stages = set()
    for _ in range(200):
        r, v = vector(), vector()
        m = 10.0 ** rng.uniform(-300, 100)
        k = rng.choice((1.0, -1.0)) * 10.0 ** rng.uniform(-300, 300)
        steps = (lambda: r ^ v, lambda: (r ^ v) * m, lambda: ((r ^ v) * m).right_contract(v),
                 lambda: ((r ^ v) * m).right_contract(v) / k)
        for stage, step in enumerate(steps):
            try:
                step()
            except NonFiniteError:
                stages.add(stage)
                break
        s = OrbitState(r, v, m, k)
        try:
            oracles.kepler_conserved(s)
        except (SimulationError, NonFiniteError) as error:
            for call in (lambda: conserved(s), lambda: write_csv([s], io.StringIO())):
                with pytest.raises(type(error)) as raised:
                    call()
                assert str(raised.value) == str(error), (s, error)
    assert stages == {0, 1, 2, 3}


OVERFLOW = "orbit state overflows: |r|, |L| or E is not finite"


@pytest.mark.parametrize("r, v, m, k, want", [
    # |r|^2 and |L|^2 overflow, |r|, |L| and E do not: these were refused
    pytest.param((1e200, 0.0, 0.0), (0.0, 1.0, 0.0), 1.0, 1.0, (1e200, 0.5, 1e200), id="r2"),
    pytest.param((1e156, 0.0, 0.0), (1e160, 0.0, 0.0), 1.0, 1.0, None, id="r2-radial"),
    pytest.param((1.0, 0.0, 0.0), (1e160, 0.0, 0.0), 1.0, 1.0, None, id="mv2"),
    pytest.param((1.0, 0.0, 0.0), (1e100, 0.0, 0.0), 1e200, 1.0, None, id="mv2-mass"),
    pytest.param((1e100, 0.0, 0.0), (0.0, 1e60, 0.0), 1.0, 1.0, (1e220, 5e119, 1e160),
                 id="l2"),
    pytest.param((1e-9, 0.0, 0.0), (0.0, 0.0, 0.0), 1.0, 1e300, None, id="k-over-r"),
])
def test_overflowing_state_raises_nonfinite_error(r, v, m, k, want):
    # the refused states returned E = inf, l = inf, or (|r|^2 = inf, so
    # r/|r| = 0) a wrong e; want is (e_x, E, l) of a state that has a row
    s = state(r, v, m, k)
    if want is not None:
        cons = conserved(s)
        ex, energy, l = want
        assert cons.eccentricity == E3.vector((ex, 0.0, 0.0))
        assert cons.energy == pytest.approx(energy, rel=1e-15)
        assert cons.l == l
        assert _row_values(s)[10:] == [ex, 0.0, 0.0, cons.energy]
        # r is the pericentre, along e: |e| was sqrt(norm_squared()), which
        # overflows for l2
        assert orbit_radius(cons, 0.0) == pytest.approx(r[0], rel=1e-12)
        return
    with pytest.raises(NonFiniteError, match=OVERFLOW.replace("|", r"\|")):
        conserved(s)
    with pytest.raises(NonFiniteError) as raised:
        write_csv([s], io.StringIO())
    assert str(raised.value) == OVERFLOW


def test_large_finite_state_is_not_an_overflow():
    # m|v|^2 = 2.5e308 overflows, but E = (m/2)|v|^2 - k/|r| does not
    s = state((1.0, 0.0, 0.0), (1e154, 0.0, 0.0), m=2.5)
    cons = conserved(s)
    assert cons.energy == 0.5 * 2.5 * (1e154 * 1e154) - 1.0
    buf = io.StringIO()
    write_csv([s], buf)
    assert buf.getvalue().splitlines()[1].split(",")[-1] == repr(cons.energy)


def test_write_csv_numpy_constants_write_plain_floats():
    # E used to be written as "np.float64(...)" for a numpy m or k
    np = pytest.importorskip("numpy")
    s = state((1.0, 0.0, 0.0), (0.0, 1.2, 0.0), m=np.float64(2.0), k=np.float64(3.0))
    buf = io.StringIO()
    write_csv([s], buf)
    row = buf.getvalue().splitlines()[1].split(",")
    assert row == [repr(x) for x in _csv_fields(state(
        (1.0, 0.0, 0.0), (0.0, 1.2, 0.0), m=2.0, k=3.0))]
