"""Kepler problem in Euclidean 3-space with geometric-algebra invariants.

The state is a position vector r and velocity v in Cl(3,0) under the
inverse-square law dv/dt = -(k/m) r / |r|^3 (k > 0 attractive, k < 0
repulsive). Conserved along every trajectory:

    L = m r ^ v                     angular-momentum bivector (orbit plane)
    e = (L |. v) / k - r/|r|        eccentricity vector (points at periapsis)
    E = m |v|^2 / 2 - k / |r|       total energy

with |. the right contraction. L v = L |. v + L ^ v, and L ^ v = m (r ^ v) ^ v
is zero, so the contraction is all of L v and e has no trivector part.

These satisfy E = (m k^2 / 2 l^2)(|e|^2 - 1) with l^2 = |L|^2, and the
orbit is the conic r(theta) = (l^2/mk) / (1 + |e| cos theta) with theta
measured from e. Bound orbits (E < 0) have period 2 pi sqrt(m a^3 / k),
a = -k / 2E.

The integrator is fixed-step RK4 on raw coordinates and records plain
(t, rx, ry, rz, vx, vy, vz) tuples. simulate() wraps each record in an
OrbitState; `ga-calc kepler` writes the records to CSV without building
any. conserved() and each CSV row take L, e and E from one float kernel.
"""

import math
from dataclasses import dataclass

from .algebra import Algebra, GAError, Multivector, NonFiniteError

CSV_HEADER = ("t", "rx", "ry", "rz", "vx", "vy", "vz",
              "L_yz", "L_zx", "L_xy", "ex", "ey", "ez", "E")
_CSV_HEAD = ",".join(CSV_HEADER) + "\n"
_CSV_ROW = ",".join(["%r"] * len(CSV_HEADER)) + "\n"

_BRANCH_EPS = 1e-12
_INF = math.inf
_OVERFLOW = "orbit state overflows: |r|^2, |L|^2 or E is not finite"
# a sum of squares below _TINY may hold subnormal squares; scaled by _UP,
# exactly, every nonzero square is normal and no sum below _TINY overflows
_TINY, _UP = 2.0 ** -900, 2.0 ** 600


class SimulationError(GAError):
    """Physically invalid input or a trajectory leaving the valid regime."""


def _check_vector(mv, name):
    if not isinstance(mv, Multivector):
        raise SimulationError(f"{name} must be a Multivector")
    if mv.algebra.p != 3 or mv.algebra.q != 0:
        raise SimulationError(f"{name} must live in Cl(3,0), "
                              f"got Cl({mv.algebra.p},{mv.algebra.q})")
    if mv.grades - {1}:
        raise SimulationError(f"{name} must be a vector, got {mv}")


def _check_constants(m, k):
    if not 0 < m < math.inf:
        raise SimulationError("mass m must be positive and finite")
    if not (k and math.isfinite(k)):
        raise SimulationError("force constant k must be nonzero and finite")


@dataclass(frozen=True)
class OrbitState:
    """Position and velocity vectors in Cl(3,0) plus the system constants."""

    r: Multivector
    v: Multivector
    m: float = 1.0
    k: float = 1.0
    t: float = 0.0

    def __post_init__(self):
        _check_vector(self.r, "r")
        _check_vector(self.v, "v")
        if self.r.algebra != self.v.algebra:
            raise SimulationError("r and v must share one algebra")
        _check_constants(self.m, self.k)
        if not math.isfinite(self.t):
            raise SimulationError("time t must be finite")


@dataclass(frozen=True)
class Conserved:
    """L, e, E, and l = |L|; radial marks straight-line orbits (L = 0)."""

    angular_momentum: Multivector
    eccentricity: Multivector
    energy: float
    l: float
    radial: bool


def _components(mv):
    terms = mv._terms
    return terms.get(1, 0.0), terms.get(2, 0.0), terms.get(4, 0.0)


def conserved(state):
    """The conserved quantities of an orbit state, from its CSV row.

    The identity E = (m k^2 / 2 l^2)(|e|^2 - 1) is not checked here: near a
    radial orbit its factor 1/l^2 magnifies the rounding and pruning of e
    past any useful bound. Raises SimulationError at zero radius, and
    NonFiniteError when a coefficient, |r|^2, |L|^2 or E overflows.
    """
    if not isinstance(state, OrbitState):
        raise SimulationError(f"expected an OrbitState, got {type(state).__name__}")
    algebra = state.r.algebra
    *_, l_yz, l_zx, l_xy, ex, ey, ez, energy = _csv_row(
        state.t, *_components(state.r), *_components(state.v), state.m, state.k,
        algebra.tolerance)
    # the row checked that this sum is finite
    lsq = l_xy * l_xy + l_zx * l_zx + l_yz * l_yz
    l = math.sqrt(lsq) if lsq >= _TINY else _small_norm(l_xy, l_zx, l_yz)
    return Conserved(Multivector._make(algebra, {3: l_xy, 5: -l_zx, 6: l_yz}),
                     Multivector._make(algebra, {1: ex, 2: ey, 4: ez}), energy, l, l == 0.0)


def _small_norm(x, y, z):
    """sqrt(x^2 + y^2 + z^2) for a sum of squares below _TINY, summed at scale _UP."""
    x, y, z = x * _UP, y * _UP, z * _UP
    return math.sqrt(x * x + y * y + z * z) / _UP


def _csv_row(t, rx, ry, rz, vx, vy, vz, m, k, tol):
    """A state's CSV fields: t, r, v, L_yz, L_zx, L_xy, e and E.

    Runs the steps of L = m r ^ v and e = (L |. v) / k - r/|r| on floats and
    sets to 0.0 each value that the Multivector step would prune (|x| <=
    tol), so L, e and E are the Multivector results bit for bit. |r| comes
    from a sum of squares, rescaled where it is below _TINY. Raises
    NonFiniteError when e, |r|^2, |L|^2 or E is not finite. Its message is
    the Multivector steps' own: on that rare path the row runs them, and
    the product loop names the first coefficient that is not finite, in the
    order it meets the blades. When every step is finite, the message says
    that |r|^2, |L|^2 or E overflows.
    """
    m, k = float(m), float(k)
    rx = 0.0 if abs(rx) <= tol else rx
    ry = 0.0 if abs(ry) <= tol else ry
    rz = 0.0 if abs(rz) <= tol else rz
    vx = 0.0 if abs(vx) <= tol else vx
    vy = 0.0 if abs(vy) <= tol else vy
    vz = 0.0 if abs(vz) <= tol else vz
    rsq = rx * rx + ry * ry + rz * rz
    rlen = math.sqrt(rsq) if rsq >= _TINY else _small_norm(rx, ry, rz)
    if rlen <= 0.0:
        raise SimulationError("position is at the singularity")
    # L = (r ^ v) * m, pruned after the wedge and after the scaling
    w12 = rx * vy - ry * vx
    w13 = rx * vz - rz * vx
    w23 = ry * vz - rz * vy
    l12 = 0.0 if abs(w12) <= tol or abs(w12 * m) <= tol else w12 * m
    l13 = 0.0 if abs(w13) <= tol or abs(w13 * m) <= tol else w13 * m
    l23 = 0.0 if abs(w23) <= tol or abs(w23 * m) <= tol else w23 * m
    # L |. v, pruned, then divided by k and pruned
    c1 = l12 * vy + l13 * vz
    c2 = l23 * vz - l12 * vx
    c3 = -l13 * vx - l23 * vy
    lv1 = 0.0 if abs(c1) <= tol or abs(c1 / k) <= tol else c1 / k
    lv2 = 0.0 if abs(c2) <= tol or abs(c2 / k) <= tol else c2 / k
    lv3 = 0.0 if abs(c3) <= tol or abs(c3 / k) <= tol else c3 / k
    # e = L |. v / k - r / |r|, each of the two terms pruned and then e
    hx, hy, hz = rx / rlen, ry / rlen, rz / rlen
    ex = lv1 - (0.0 if abs(hx) <= tol else hx)
    ey = lv2 - (0.0 if abs(hy) <= tol else hy)
    ez = lv3 - (0.0 if abs(hz) <= tol else hz)
    ex = 0.0 if abs(ex) <= tol else ex
    ey = 0.0 if abs(ey) <= tol else ey
    ez = 0.0 if abs(ez) <= tol else ez
    energy = 0.5 * m * (vx * vx + vy * vy + vz * vz) - k / rlen
    lsq = l12 * l12 + l13 * l13 + l23 * l23
    # a coefficient that is not finite is kept by every step and reaches e
    if not (math.isfinite(ex) and math.isfinite(ey) and math.isfinite(ez)
            and rsq < _INF and lsq < _INF and -_INF < energy < _INF):
        # the steps r ^ v, L = (r ^ v) m, L |. v and L |. v / k as Multivectors
        algebra = Algebra(3, 0, tolerance=tol)
        r, v = algebra.vector((rx, ry, rz)), algebra.vector((vx, vy, vz))
        ((r ^ v) * m).right_contract(v) / k
        raise NonFiniteError(_OVERFLOW)
    return t, rx, ry, rz, vx, vy, vz, l23, -l13, l12, ex, ey, ez, energy


def _radius_error(rsq, min2):
    """The SimulationError for a force evaluation at squared radius rsq."""
    if not rsq >= min2:
        return SimulationError(
            f"radius {math.sqrt(rsq):.3e} fell below the minimum allowed")
    return SimulationError(
        f"radius {math.sqrt(rsq):.3e} is too small for the inverse-square force")


def _integrate(state0, dt, steps, record_every, min_radius):
    """The records of simulate() as (t, rx, ry, rz, vx, vy, vz) tuples.

    The coordinates are the integrator's own, not pruned to the tolerance.
    """
    if dt <= 0:
        raise SimulationError("dt must be positive")
    if not math.isfinite(dt):
        raise SimulationError(f"dt must be finite, got {dt!r}")
    if steps < 0:
        raise SimulationError("steps must be nonnegative")
    if record_every < 1:
        raise SimulationError("record_every must be at least 1")
    if not 0 <= min_radius < math.inf:
        raise SimulationError(
            f"min_radius must be nonnegative and finite, got {min_radius!r}")
    t0 = state0.t
    try:
        t_end = t0 + steps * dt
    except OverflowError:
        t_end = math.inf
    if not math.isfinite(t_end):
        raise SimulationError("final time t0 + steps*dt must be finite")

    sqrt = math.sqrt
    km = state0.k / state0.m
    min2 = min_radius * min_radius
    h2 = dt * 0.5
    sixth = dt / 6.0

    rx, ry, rz = _components(state0.r)
    vx, vy, vz = _components(state0.v)
    # The force -k/m r/|r|^3 needs |r| >= min_radius and |r|^3 > 0 (not
    # lost to underflow) at each of the four stages of every step.
    rsq = rx * rx + ry * ry + rz * rz
    if not (rsq >= min2 and rsq * sqrt(rsq) > 0.0):
        raise _radius_error(rsq, min2)

    records = [(t0 + 0 * dt, rx, ry, rz, vx, vy, vz)]
    for step in range(1, steps + 1):
        rsq = rx * rx + ry * ry + rz * rz
        rcube = rsq * sqrt(rsq)
        if not (rsq >= min2 and rcube > 0.0):
            raise _radius_error(rsq, min2)
        f = -km / rcube
        a1x, a1y, a1z = rx * f, ry * f, rz * f
        r1x, r1y, r1z = rx + h2 * vx, ry + h2 * vy, rz + h2 * vz
        v1x, v1y, v1z = vx + h2 * a1x, vy + h2 * a1y, vz + h2 * a1z
        rsq = r1x * r1x + r1y * r1y + r1z * r1z
        rcube = rsq * sqrt(rsq)
        if not (rsq >= min2 and rcube > 0.0):
            raise _radius_error(rsq, min2)
        f = -km / rcube
        a2x, a2y, a2z = r1x * f, r1y * f, r1z * f
        r2x, r2y, r2z = rx + h2 * v1x, ry + h2 * v1y, rz + h2 * v1z
        v2x, v2y, v2z = vx + h2 * a2x, vy + h2 * a2y, vz + h2 * a2z
        rsq = r2x * r2x + r2y * r2y + r2z * r2z
        rcube = rsq * sqrt(rsq)
        if not (rsq >= min2 and rcube > 0.0):
            raise _radius_error(rsq, min2)
        f = -km / rcube
        a3x, a3y, a3z = r2x * f, r2y * f, r2z * f
        r3x, r3y, r3z = rx + dt * v2x, ry + dt * v2y, rz + dt * v2z
        v3x, v3y, v3z = vx + dt * a3x, vy + dt * a3y, vz + dt * a3z
        rsq = r3x * r3x + r3y * r3y + r3z * r3z
        rcube = rsq * sqrt(rsq)
        if not (rsq >= min2 and rcube > 0.0):
            raise _radius_error(rsq, min2)
        f = -km / rcube
        a4x, a4y, a4z = r3x * f, r3y * f, r3z * f
        rx += sixth * (vx + 2.0 * (v1x + v2x) + v3x)
        ry += sixth * (vy + 2.0 * (v1y + v2y) + v3y)
        rz += sixth * (vz + 2.0 * (v1z + v2z) + v3z)
        vx += sixth * (a1x + 2.0 * (a2x + a3x) + a4x)
        vy += sixth * (a1y + 2.0 * (a2y + a3y) + a4y)
        vz += sixth * (a1z + 2.0 * (a2z + a3z) + a4z)
        if not math.isfinite(rx + ry + rz + vx + vy + vz):
            raise SimulationError(f"state became nonfinite at step {step}")
        if step % record_every == 0 or step == steps:
            records.append((t0 + step * dt, rx, ry, rz, vx, vy, vz))
    return records


def simulate(state0, dt, steps, record_every=1, min_radius=1e-8):
    """Integrate the orbit from state0 with fixed-step RK4.

    Returns a list of OrbitState: the initial state, every record_every-th
    step, and the final step, at times state0.t + step * dt. Raises
    SimulationError for invalid arguments (dt not positive and finite,
    negative steps, record_every below 1, min_radius negative or not
    finite, a final time that is not finite), when the radius drops below
    min_radius, or too low to evaluate the force, at any stage evaluation,
    and when the state goes nonfinite.
    """
    algebra = state0.r.algebra
    m, k = state0.m, state0.k
    return [OrbitState(algebra.vector((rx, ry, rz)), algebra.vector((vx, vy, vz)),
                       m, k, t)
            for t, rx, ry, rz, vx, vy, vz
            in _integrate(state0, dt, steps, record_every, min_radius)]


def orbit_radius(cons, theta, m=1.0, k=1.0):
    """Conic radius at true anomaly theta: (l^2/mk) / (1 + |e| cos theta).

    theta is measured from the eccentricity vector. Attractive orbits
    (k > 0) need 1 + e cos(theta) > 0; repulsive ones (k < 0) use the
    other branch, 1 + e cos(theta) < 0. Angles at or beyond the branch
    boundary (within 1e-12) are rejected, as are radial orbits. Raises
    NonFiniteError when the radius is not finite in floating point, or
    underflows to 0.0 for an orbit that is not radial.
    """
    if cons.radial:
        raise SimulationError("a radial orbit has no conic radius")
    _check_constants(m, k)
    if not math.isfinite(theta):
        raise SimulationError(f"angle {theta!r} is not finite")
    e = math.sqrt(cons.eccentricity.norm_squared())
    denom = 1.0 + e * math.cos(theta)
    if k > 0 and denom <= _BRANCH_EPS:
        raise SimulationError(f"angle {theta!r} is outside the attractive branch")
    if k < 0 and denom >= -_BRANCH_EPS:
        raise SimulationError(f"angle {theta!r} is outside the repulsive branch")
    # l^2 and m k may underflow where the radius does not: scale by 2^j apart
    (lf, lj), (mf, mj), (kf, kj), (df, dj) = map(math.frexp, (cons.l, m, k, denom))
    try:
        radius = math.ldexp(lf * lf / (mf * kf * df), 2 * lj - mj - kj - dj)
    except OverflowError:
        radius = _INF
    if not 0.0 < radius < _INF:
        what = "underflows to 0.0" if radius == 0.0 else "is not finite"
        raise NonFiniteError(f"conic radius {what}: l = {cons.l!r}, m = {m!r}, "
                             f"k = {k!r}, 1 + e cos(theta) = {denom!r}")
    return radius


def orbital_period(cons, m=1.0, k=1.0):
    """Period of a bound orbit: 2 pi sqrt(m a^3 / k) with a = -k / 2E.

    Raises SimulationError when the energy is nonnegative (unbound), and
    NonFiniteError when the period is not finite in floating point.
    """
    _check_constants(m, k)
    if cons.energy >= 0.0:
        raise SimulationError(f"orbit is not bound (E = {cons.energy!r})")
    a = -k / (2.0 * cons.energy)
    try:
        period = 2.0 * math.pi * math.sqrt(m * a ** 3 / k)
    except OverflowError:
        period = _INF
    if not period < _INF:
        raise NonFiniteError(f"orbital period is not finite: a = {a!r}")
    return period


def _write_rows(records, m, k, tol, stream):
    """Write the CSV header, then the row of each (t, rx, ry, rz, vx, vy, vz) record."""
    stream.write(_CSV_HEAD)
    stream.writelines(_CSV_ROW % _csv_row(t, rx, ry, rz, vx, vy, vz, m, k, tol)
                      for t, rx, ry, rz, vx, vy, vz in records)


def write_csv(states, stream):
    """Write recorded states with their conserved quantities as CSV.

    One line per state: t, r, v, L, e and E, each field the Python repr of
    the float, so it reads back exactly. L, e and E are conserved()'s, and
    a state on which conserved() raises raises here. Bivector components
    follow the dual-axis convention: L_yz = L[e23], L_zx = -L[e13] (written
    -0.0 when L[e13] is zero), L_xy = L[e12].
    """
    stream.write(_CSV_HEAD)
    stream.writelines(_CSV_ROW % _csv_row(s.t, *_components(s.r), *_components(s.v), s.m,
                                          s.k, s.r.algebra.tolerance) for s in states)
