"""Kepler problem in Euclidean 3-space with geometric-algebra invariants.

The state is a position vector r and velocity v in Cl(3,0) under the
inverse-square law dv/dt = -(k/m) r / |r|^3 (k > 0 attractive, k < 0
repulsive). Conserved along every trajectory:

    L = m r ^ v                     angular-momentum bivector (orbit plane)
    e = (L v) / k - r/|r|           eccentricity vector (points at periapsis)
    E = m |v|^2 / 2 - k / |r|       total energy

These satisfy E = (m k^2 / 2 l^2)(|e|^2 - 1) with l^2 = |L|^2, and the
orbit is the conic r(theta) = (l^2/mk) / (1 + |e| cos theta) with theta
measured from e. Bound orbits (E < 0) have period 2 pi sqrt(m a^3 / k),
a = -k / 2E.

The integrator is fixed-step RK4 on raw coordinates; recorded states wrap
the coordinates back into multivectors.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

from .algebra import GAError, Multivector

CSV_HEADER = ("t", "rx", "ry", "rz", "vx", "vy", "vz",
              "L_yz", "L_zx", "L_xy", "ex", "ey", "ez", "E")

_BRANCH_EPS = 1e-12


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
    return mv.coefficient((1,)), mv.coefficient((2,)), mv.coefficient((3,))


def conserved(state):
    """The conserved quantities of an orbit state.

    The identity E = (m k^2 / 2 l^2)(|e|^2 - 1) is not checked here: near a
    radial orbit its factor 1/l^2 magnifies the rounding and pruning of e
    past any useful bound. Raises SimulationError at zero radius.
    """
    r, v, m, k = state.r, state.v, state.m, state.k
    rlen = math.sqrt(r.norm_squared())
    if rlen <= 0.0:
        raise SimulationError("position is at the singularity")
    L = (r ^ v) * m
    ecc = (L * v) / k - r / rlen
    energy = 0.5 * m * v.norm_squared() - k / rlen
    l = math.sqrt(L.norm_squared())
    return Conserved(L, ecc, energy, l, not L)


def _accel(rx, ry, rz, km, min2):
    r2 = rx * rx + ry * ry + rz * rz
    if not r2 >= min2:
        raise SimulationError(
            f"radius {math.sqrt(r2):.3e} fell below the minimum allowed")
    f = -km / (r2 * math.sqrt(r2))
    return rx * f, ry * f, rz * f


def simulate(state0, dt, steps, record_every=1, min_radius=1e-8):
    """Integrate the orbit from state0 with fixed-step RK4.

    Returns a list of OrbitState: the initial state, every record_every-th
    step, and the final step. Raises SimulationError when the radius drops
    below min_radius at any stage evaluation or the state goes nonfinite.
    """
    if dt <= 0:
        raise SimulationError("dt must be positive")
    if steps < 0:
        raise SimulationError("steps must be nonnegative")
    if record_every < 1:
        raise SimulationError("record_every must be at least 1")

    algebra = state0.r.algebra
    m, k = state0.m, state0.k
    km = k / m
    min2 = min_radius * min_radius
    h2 = dt * 0.5
    sixth = dt / 6.0

    rx, ry, rz = _components(state0.r)
    vx, vy, vz = _components(state0.v)
    _accel(rx, ry, rz, km, min2)

    def snapshot(step):
        return OrbitState(algebra.vector((rx, ry, rz)),
                          algebra.vector((vx, vy, vz)),
                          m, k, state0.t + step * dt)

    states = [snapshot(0)]
    for step in range(1, steps + 1):
        a1x, a1y, a1z = _accel(rx, ry, rz, km, min2)
        r1x = rx + h2 * vx
        r1y = ry + h2 * vy
        r1z = rz + h2 * vz
        v1x = vx + h2 * a1x
        v1y = vy + h2 * a1y
        v1z = vz + h2 * a1z
        a2x, a2y, a2z = _accel(r1x, r1y, r1z, km, min2)
        r2x = rx + h2 * v1x
        r2y = ry + h2 * v1y
        r2z = rz + h2 * v1z
        v2x = vx + h2 * a2x
        v2y = vy + h2 * a2y
        v2z = vz + h2 * a2z
        a3x, a3y, a3z = _accel(r2x, r2y, r2z, km, min2)
        r3x = rx + dt * v2x
        r3y = ry + dt * v2y
        r3z = rz + dt * v2z
        v3x = vx + dt * a3x
        v3y = vy + dt * a3y
        v3z = vz + dt * a3z
        a4x, a4y, a4z = _accel(r3x, r3y, r3z, km, min2)
        rx += sixth * (vx + 2.0 * (v1x + v2x) + v3x)
        ry += sixth * (vy + 2.0 * (v1y + v2y) + v3y)
        rz += sixth * (vz + 2.0 * (v1z + v2z) + v3z)
        vx += sixth * (a1x + 2.0 * (a2x + a3x) + a4x)
        vy += sixth * (a1y + 2.0 * (a2y + a3y) + a4y)
        vz += sixth * (a1z + 2.0 * (a2z + a3z) + a4z)
        if not math.isfinite(rx + ry + rz + vx + vy + vz):
            raise SimulationError(f"state became nonfinite at step {step}")
        if step % record_every == 0 or step == steps:
            states.append(snapshot(step))
    return states


def orbit_radius(cons, theta, m=1.0, k=1.0):
    """Conic radius at true anomaly theta: (l^2/mk) / (1 + |e| cos theta).

    theta is measured from the eccentricity vector. Attractive orbits
    (k > 0) need 1 + e cos(theta) > 0; repulsive ones (k < 0) use the
    other branch, 1 + e cos(theta) < 0. Angles at or beyond the branch
    boundary (within 1e-12) are rejected, as are radial orbits.
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
    return (cons.l * cons.l / (m * k)) / denom


def orbital_period(cons, m=1.0, k=1.0):
    """Period of a bound orbit: 2 pi sqrt(m a^3 / k) with a = -k / 2E.

    Raises SimulationError when the energy is nonnegative (unbound).
    """
    _check_constants(m, k)
    if cons.energy >= 0.0:
        raise SimulationError(f"orbit is not bound (E = {cons.energy!r})")
    a = -k / (2.0 * cons.energy)
    return 2.0 * math.pi * math.sqrt(m * a ** 3 / k)


def write_csv(states, stream):
    """Write recorded states with their conserved quantities as CSV.

    Bivector components follow the dual-axis convention: L_yz = L[e23],
    L_zx = -L[e13], L_xy = L[e12].
    """
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for state in states:
        cons = conserved(state)
        L = cons.angular_momentum
        writer.writerow((
            repr(state.t),
            *(repr(c) for c in _components(state.r)),
            *(repr(c) for c in _components(state.v)),
            repr(L.coefficient((2, 3))),
            repr(-L.coefficient((1, 3))),
            repr(L.coefficient((1, 2))),
            *(repr(c) for c in _components(cons.eccentricity)),
            repr(cons.energy),
        ))
