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
a = -k / 2E. The orbit states m and k once, in its OrbitState: conserved()
copies them into the Conserved it returns, and orbit_radius(cons, theta)
and orbital_period(cons) read them from there, taking no m or k of their own.

The orbit is propagated in closed form, on raw coordinates. Between two
records, Kepler's equation is solved by Newton in Danby's universal variable
s, with dt = |r| ds: the Kustaanheimo-Stiefel fictitious time, in which the
KS spinor U (r = U e1 ~U) moves as a harmonic oscillator. Written on r and v
through the Stumpff functions, that solution is one formula for bound,
parabolic, unbound and repulsive orbits (Stiefel & Scheifele, Linear and
Regular Celestial Mechanics, 1971; Danby, Fundamentals of Celestial
Mechanics, 2nd ed., 1988, section 6.9). Each record starts from the one
before it, so dt sets only the record times: no step of length dt is taken,
and the accuracy does not depend on it. A record costs one short solve
whatever the spacing: Newton starts from the series of s to tau^5, and a
dense record's Stumpff functions are a two-term series. Where the bracket
on s spans decades it is bisected at its geometric mean. min_radius is
checked against the orbit's pericentre, at the records whose interval holds
a pericentre passage.

The records are plain (t, rx, ry, rz, vx, vy, vz) tuples. simulate() wraps
each in an OrbitState; `ga-calc kepler` writes them to CSV without building
any. conserved() and each CSV row take L, e and E from one float kernel;
write_csv() and the CLI share one writer, which makes the repr of each of
those values once per run. Every length here, |r|, |L| and |e|, is
math.hypot of the coefficients, the one rule algebra.py uses: no length is
found from its square, so a state whose |r| and |L| are finite has a row
however large or small their squares. Three squares of lengths remain: E
forms |v|^2 in _csv_row, and _integrate forms |v|^2 for h and beta and
|r ^ v|^2 for the pericentre test. So E overflows past |v| ~ 1.3e154, and
such a state is refused although its L, e and E can be representable
(the open E-overflow item in ROADMAP.md).
"""

import math
from dataclasses import dataclass

from .algebra import Algebra, GAError, Multivector, NonFiniteError

CSV_HEADER = ("t", "rx", "ry", "rz", "vx", "vy", "vz",
              "L_yz", "L_zx", "L_xy", "ex", "ey", "ez", "E")
_CSV_HEAD = ",".join(CSV_HEADER) + "\n"
# t, r and v by repr; L, e and E by their strings in a _Reprs memo
_CSV_ROW = ",".join(["%r"] * 7 + ["%s"] * 7) + "\n"
# a _Reprs memo is cleared when it reaches this many strings (a few hundred kB)
_REPRS_MAX = 4096

_BRANCH_EPS = 1e-12
_INF = math.inf
_OVERFLOW = "orbit state overflows: |r|, |L| or E is not finite"
# Newton on Kepler's equation stops at a step below _NEWTON_TOL s. The root
# holds that precision when F's terms exceed |r| s (about tau) by at most
# _CANCEL = _NEWTON_TOL / eps, and psi stays below _PSI_MAX (some 10^7
# orbits in one record)
_NEWTON_STEPS, _NEWTON_TOL = 100, 2.0 ** -32
_CANCEL, _PSI_MAX = 2.0 ** 20, 2.0 ** 52
# below this |psi| the psi^3 terms of c2 and c3 are under 2^-60 of them
_SMALL_PSI = 2.0 ** -16


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


def _check_type(value, cls, what):
    if not isinstance(value, cls):
        raise SimulationError(f"expected {what}, got {type(value).__name__}")


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
    """L, e, E, and l = |L|; radial marks straight-line orbits (L = 0).

    m and k are the orbit's mass and force constant, copied from its
    OrbitState by conserved(): orbit_radius() and orbital_period() read them
    from here. They are required fields, with no defaults.
    """

    angular_momentum: Multivector
    eccentricity: Multivector
    energy: float
    l: float
    radial: bool
    m: float
    k: float


def _components(mv):
    terms = mv._terms
    return terms.get(1, 0.0), terms.get(2, 0.0), terms.get(4, 0.0)


def conserved(state):
    """The conserved quantities of an orbit state, from its CSV row.

    The identity E = (m k^2 / 2 l^2)(|e|^2 - 1) is not checked here: near a
    radial orbit its factor 1/l^2 magnifies the rounding and pruning of e
    past any useful bound. l = |L| is math.hypot of L's coefficients, as
    every length in the package is. Raises SimulationError at zero radius,
    and NonFiniteError when a coefficient of e, |r|, |L| or E is not finite.
    """
    _check_type(state, OrbitState, "an OrbitState")
    algebra = state.r.algebra
    *_, l_yz, l_zx, l_xy, ex, ey, ez, energy = _csv_row(
        state.t, *_components(state.r), *_components(state.v), state.m, state.k,
        algebra.tolerance)
    # the row checked that this length is finite
    l = math.hypot(l_xy, l_zx, l_yz)
    return Conserved(Multivector._make(algebra, {3: l_xy, 5: -l_zx, 6: l_yz}),
                     Multivector._make(algebra, {1: ex, 2: ey, 4: ez}), energy, l, l == 0.0,
                     state.m, state.k)


def _csv_row(t, rx, ry, rz, vx, vy, vz, m, k, tol):
    """A state's CSV fields: t, r, v, L_yz, L_zx, L_xy, e and E.

    Runs the steps of L = m r ^ v and e = (L |. v) / k - r/|r| on floats and
    sets to 0.0 each value that the Multivector step would prune (|x| <=
    tol), so L, e and E are the Multivector results bit for bit. |r| and
    |L| are math.hypot of the coefficients, so a row exists wherever they
    are finite, however large or small their squares. Raises
    NonFiniteError when a coefficient of e, |r|, |L| or E is not finite.
    Its message is the Multivector steps' own: on that rare path the row
    runs them, and the product loop names the first coefficient that is not
    finite, in the order it meets the blades. When every step is finite,
    the message says that |r|, |L| or E is not finite.
    """
    m, k = float(m), float(k)
    rx = 0.0 if abs(rx) <= tol else rx
    ry = 0.0 if abs(ry) <= tol else ry
    rz = 0.0 if abs(rz) <= tol else rz
    vx = 0.0 if abs(vx) <= tol else vx
    vy = 0.0 if abs(vy) <= tol else vy
    vz = 0.0 if abs(vz) <= tol else vz
    rlen = math.hypot(rx, ry, rz)
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
    # a coefficient that is not finite is kept by every step and reaches e
    if not (math.isfinite(ex) and math.isfinite(ey) and math.isfinite(ez) and rlen < _INF
            and math.hypot(l12, l13, l23) < _INF and -_INF < energy < _INF):
        # the steps r ^ v, L = (r ^ v) m, L |. v and L |. v / k as Multivectors
        algebra = Algebra(3, 0, tolerance=tol)
        r, v = algebra.vector((rx, ry, rz)), algebra.vector((vx, vy, vz))
        ((r ^ v) * m).right_contract(v) / k
        raise NonFiniteError(_OVERFLOW)
    return t, rx, ry, rz, vx, vy, vz, l23, -l13, l12, ex, ey, ez, energy


def _radius_error(r, min_radius):
    """The SimulationError for a radius r below min_radius, or too small for the force."""
    if not r >= min_radius:
        return SimulationError(f"radius {r:.3e} fell below the minimum allowed")
    return SimulationError(f"radius {r:.3e} is too small for the inverse-square force")


def _stumpff(psi):
    """The Stumpff functions c0, c1, c2, c3 of psi (Danby, section 6.9).

    c0 = 1 - psi c2 and c1 = 1 - psi c3. For |psi| <= _SMALL_PSI, which is
    where a dense record's solve lands, c2 and c3 take their series to psi^2
    and return at once. Otherwise psi is quartered to |psi| <= 1/4, where c2
    and c3 take their series to psi^6; c0(4x) = 2 c0^2 - 1, c1(4x) = c0 c1,
    c2(4x) = c1^2 / 2 and c3(4x) = (c2 + c0 c3) / 4 then undo each
    quartering. Every orbit type takes these paths, and a hyperbolic
    overflow comes out as inf, not as an exception.
    """
    if -_SMALL_PSI <= psi <= _SMALL_PSI:
        c2 = (1 - psi / 12 * (1 - psi / 30)) / 2
        c3 = (1 - psi / 20 * (1 - psi / 42)) / 6
        return 1 - psi * c2, 1 - psi * c3, c2, c3
    if not -_INF < psi < _INF:
        raise SimulationError(f"Kepler solve reached a Stumpff argument of {psi!r}")
    quarters = 0
    while abs(psi) > 0.25:
        psi, quarters = psi * 0.25, quarters + 1
    c2 = (1 - psi / 12 * (1 - psi / 30 * (1 - psi / 56 * (1 - psi / 90 * (
        1 - psi / 132 * (1 - psi / 182)))))) / 2
    c3 = (1 - psi / 20 * (1 - psi / 42 * (1 - psi / 72 * (1 - psi / 110 * (
        1 - psi / 156 * (1 - psi / 210)))))) / 6
    c0, c1 = 1 - psi * c2, 1 - psi * c3
    for _ in range(quarters):
        c0, c1, c2, c3 = 2 * c0 * c0 - 1, c0 * c1, c1 * c1 / 2, (c2 + c0 * c3) / 4
    return c0, c1, c2, c3


def _integrate(state0, dt, steps, record_every, min_radius):
    """The records of simulate() as (t, rx, ry, rz, vx, vy, vz) tuples.

    Each record is the two-body state (step - last) dt after the record
    before it, from the Lagrange coefficients f, g, fdot, gdot in the
    universal variable s: r' = f r + g v and v' = fdot r + gdot v. The
    coordinates are the solve's own, not pruned to the tolerance.
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

    mu = state0.k / state0.m
    (rx, ry, rz), (vx, vy, vz) = _components(state0.r), _components(state0.v)
    # The force -mu r/|r|^3 needs |r| >= min_radius and |r|^3 > 0 (not lost
    # to underflow): at the start, and along the orbit at its pericentre q,
    # from l^2 = |r ^ v|^2 and h = E/m. q <= |r0| always, so the cap costs
    # nothing and stands in where l^2 h overflows. The start state must also
    # have a CSV row, whose overflow errors are the ones to report
    r0 = math.hypot(rx, ry, rz)
    if not (r0 >= min_radius and r0 * r0 * r0 > 0.0):
        raise _radius_error(r0, min_radius)
    _csv_row(t0, rx, ry, rz, vx, vy, vz, state0.m, state0.k, state0.r.algebra.tolerance)
    lx, ly, lz = ry * vz - rz * vy, rz * vx - rx * vz, rx * vy - ry * vx
    l2 = lx * lx + ly * ly + lz * lz
    h = 0.5 * (vx * vx + vy * vy + vz * vz) - mu / r0
    root = math.sqrt(max(0.0, mu * mu + 2.0 * h * l2))
    q = min(r0, l2 / (mu + root) if mu > 0 else (root - mu) / (2.0 * h) if h else _INF)
    guard = not (q >= min_radius and q * q * q > 0.0)

    marks = [0, *range(record_every, steps, record_every), steps][:steps + 1]
    records = [(t0 + 0 * dt, rx, ry, rz, vx, vy, vz)]
    for last, step in zip(marks, marks[1:]):
        # Kepler's equation F(s) = r0 G1 + sigma G2 + mu G3 - tau = 0, with
        # G_j = s^j c_j(beta s^2): F(0) = -tau and F' = r(s) > 0. Newton starts
        # from the series of s(tau) to tau^5, or from tau/|r| where that series
        # leaves (0, 2 tau/|r|); a step that leaves the bracket [lo, hi] or
        # fails to halve the last one is a bisection (rtsafe in Numerical
        # Recipes), or, with no upper bound yet, a doubling of s
        tau, sigma = (step - last) * dt, rx * vx + ry * vy + rz * vz
        beta = 2.0 * mu / r0 - (vx * vx + vy * vy + vz * vz)
        # s = x p: F / r0 = s + A s^2 + B s^3 + C s^4 + D s^5 reverted, with
        # a = A x, b = B x^2, C x^3 = -z a / 12 and D x^4 = -z b / 20
        x, w = tau / r0, sigma * tau / (r0 * r0)
        a, b, z = 0.5 * w, x * x * (mu / r0 - beta) / 6.0, beta * x * x
        p = (1.0 - b + 3.0 * b * b + z * b / 20.0 - a * (1.0 - 5.0 * b - z / 12.0 - a * (
            2.0 - 21.0 * b - 0.5 * z - a * (5.0 - 14.0 * a))))
        lo, hi, s, last_ds = 0.0, _INF, x * p if 0.0 < p < 2.0 else x, _INF
        for _ in range(_NEWTON_STEPS):
            s2 = s * s
            c0, c1, c2, c3 = _stumpff(psi := beta * s2)
            g1, g2, g3 = s * c1, s2 * c2, s2 * s * c3
            f = r0 * g1 + sigma * g2 + mu * g3 - tau
            rs = r0 * c0 + sigma * g1 + mu * g2
            lo, hi = (s, hi) if f < 0.0 else (lo, s)
            ds = f / rs if rs > 0.0 else _INF
            if not (lo <= s - ds <= hi and abs(ds) < 0.5 * last_ds):  # bisect, or double
                if hi == _INF:
                    ds = -s
                elif hi > 16.0 * lo:  # the geometric mean, lo = 0 read as hi 2^-64
                    ds = s - math.sqrt(max(lo, hi * 2.0 ** -64)) * math.sqrt(hi)
                else:
                    ds = s - 0.5 * (lo + hi)
            if abs(ds) <= _NEWTON_TOL * s:
                # F's roundoff, eps times its terms, moves the root by that
                # over F' = |r|; past _PSI_MAX the c_j keep too few digits
                if psi > _PSI_MAX or abs(r0 * g1) + abs(sigma * g2) + abs(mu * g3) > (
                        _CANCEL * rs * s):
                    raise SimulationError(f"Kepler solve lost its precision at step {step}")
                break
            s, last_ds = s - ds, abs(ds)
        else:
            raise SimulationError(f"Kepler solve did not converge at step {step}")
        # the last Newton step goes on the G_j, by dG_j/ds = G_(j-1), to order ds^2
        g1, g2, g3 = g1 - c0 * ds, g2 - g1 * ds, g3 - g2 * ds
        fm1, g = -mu * g2 / r0, tau - mu * g3
        px, py, pz = rx + (fm1 * rx + g * vx), ry + (fm1 * ry + g * vy), rz + (fm1 * rz + g * vz)
        rs = math.hypot(px, py, pz)
        if rs == 0.0:  # the centre: a collision, which only a guarded orbit meets
            raise _radius_error(0.0, min_radius)
        fdot, gdm1 = -mu * g1 / rs / r0, -mu * g2 / rs
        rx, ry, rz, vx, vy, vz, r0 = px, py, pz, vx + (fdot * rx + gdm1 * vx), vy + (
            fdot * ry + gdm1 * vy), vz + (fdot * rz + gdm1 * vz), rs
        if not (r0 < _INF and math.hypot(vx, vy, vz) < _INF):
            raise SimulationError(f"state became nonfinite at step {step}")
        # a pericentre passage: the radial velocity turns from < 0 to >= 0, or
        # the eccentric anomaly sqrt(psi) turns by more than pi with no change
        # of sign, or by 2 pi
        if guard:
            after = rx * vx + ry * vy + rz * vz
            if sigma < 0.0 <= after or psi >= 4.0 * math.pi ** 2 or (
                    psi > math.pi ** 2 and (sigma < 0.0) == (after < 0.0)):
                raise _radius_error(q, min_radius)
        records.append((t0 + step * dt, rx, ry, rz, vx, vy, vz))
    return records


def simulate(state0, dt, steps, record_every=1, min_radius=1e-8):
    """The orbit from state0, in closed form, at times state0.t + step * dt.

    Returns a list of OrbitState: the initial state, every record_every-th
    step, and the final step. Each record is the exact two-body solution
    from the record before it (Kepler's equation in the universal variable
    s, dt = |r| ds, the Kustaanheimo-Stiefel time, solved by Newton), so no
    step of length dt is taken: dt only sets the record times, not the
    accuracy, and a record costs one short solve whatever record_every is.
    The records chain, so rounding adds up with the number of records.

    min_radius is checked against the orbit's pericentre, computed once
    from state0: when it is smaller, the record interval that holds the
    first pericentre passage raises. A radial orbit (L = 0) falling in
    therefore raises rather than passing through the centre.

    Raises SimulationError for invalid arguments (a state0 that is not an
    OrbitState, dt not positive and finite, negative steps, record_every
    below 1, min_radius negative or not finite, a final time that is not
    finite), for a start radius below
    min_radius or too small for the inverse-square force (|r|^3 underflows
    to 0), for a pericentre passage below either, when the solve fails to
    converge or the state or its radius goes nonfinite, and when roundoff
    leaves a record's s short of the solve's 2^-32 (the terms of Kepler's
    equation cancel by more than 2^20, or one record spans some 10^7
    orbits). Raises NonFiniteError, as conserved()
    would, for a start state that has no CSV row: a coefficient of e, |r|,
    |L| or E is not finite. Radii are math.hypot lengths, so a start or a
    record far past |r| = 1e154, where |r|^2 overflows, is propagated.
    """
    _check_type(state0, OrbitState, "an OrbitState")
    algebra = state0.r.algebra
    m, k = state0.m, state0.k
    return [OrbitState(algebra.vector((rx, ry, rz)), algebra.vector((vx, vy, vz)),
                       m, k, t)
            for t, rx, ry, rz, vx, vy, vz
            in _integrate(state0, dt, steps, record_every, min_radius)]


def orbit_radius(cons, theta):
    """Conic radius at true anomaly theta: (l^2/mk) / (1 + |e| cos theta).

    m and k are the orbit's, read from cons. theta is measured from the
    eccentricity vector. Attractive orbits (k > 0) need 1 + e cos(theta) >
    0; repulsive ones (k < 0) use the other branch, 1 + e cos(theta) < 0.
    Angles at or beyond the branch boundary (within 1e-12) are rejected, as
    are radial orbits and a cons that is not a Conserved (SimulationError).
    Raises NonFiniteError when the radius is not finite in floating point,
    or underflows to 0.0 for an orbit that is not radial.
    """
    _check_type(cons, Conserved, "a Conserved")
    if cons.radial:
        raise SimulationError("a radial orbit has no conic radius")
    _check_constants(cons.m, cons.k)
    if not math.isfinite(theta):
        raise SimulationError(f"angle {theta!r} is not finite")
    e = math.hypot(*_components(cons.eccentricity))
    denom = 1.0 + e * math.cos(theta)
    if cons.k > 0 and denom <= _BRANCH_EPS:
        raise SimulationError(f"angle {theta!r} is outside the attractive branch")
    if cons.k < 0 and denom >= -_BRANCH_EPS:
        raise SimulationError(f"angle {theta!r} is outside the repulsive branch")
    # l^2 and m k may underflow where the radius does not: scale by 2^j apart
    (lf, lj), (mf, mj), (kf, kj), (df, dj) = map(math.frexp, (cons.l, cons.m, cons.k, denom))
    try:
        radius = math.ldexp(lf * lf / (mf * kf * df), 2 * lj - mj - kj - dj)
    except OverflowError:
        radius = _INF
    if not 0.0 < radius < _INF:
        what = "underflows to 0.0" if radius == 0.0 else "is not finite"
        raise NonFiniteError(f"conic radius {what}: l = {cons.l!r}, m = {cons.m!r}, "
                             f"k = {cons.k!r}, 1 + e cos(theta) = {denom!r}")
    return radius


def orbital_period(cons):
    """Period of a bound orbit: 2 pi sqrt(m a^3 / k) with a = -k / 2E.

    m and k are the orbit's, read from cons. Raises SimulationError for a
    cons that is not a Conserved and when the energy is nonnegative
    (unbound), and NonFiniteError when the period is not finite in floating
    point.
    """
    _check_type(cons, Conserved, "a Conserved")
    _check_constants(cons.m, cons.k)
    if cons.energy >= 0.0:
        raise SimulationError(f"orbit is not bound (E = {cons.energy!r})")
    a = -cons.k / (2.0 * cons.energy)
    try:
        period = 2.0 * math.pi * math.sqrt(cons.m * a ** 3 / cons.k)
    except OverflowError:
        period = _INF
    if not period < _INF:
        raise NonFiniteError(f"orbital period is not finite: a = {a!r}")
    return period


class _Reprs(dict):
    """repr of each nonzero float, made on first lookup and kept.

    0.0 and -0.0 are equal keys with different reprs, so a zero must not be
    looked up. Past _REPRS_MAX strings the memo starts over, so a run whose
    values never repeat holds no more than that.
    """

    def __missing__(self, x):
        if len(self) >= _REPRS_MAX:
            self.clear()
        text = self[x] = repr(x)
        return text


def _write_rows(rows, stream):
    """Write the CSV header, then each row of _csv_row fields.

    t, r and v change from row to row and are written by repr. L, e and E
    are conserved, so a run repeats few values in those seven fields: one
    _Reprs memo, shared by them for this call, makes each nonzero value's
    repr once, and a zero (0.0, or -0.0 in L_zx) takes its repr directly.
    The bytes are those of writing every field by repr.
    """
    reprs = _Reprs()
    stream.write(_CSV_HEAD)
    stream.writelines(
        _CSV_ROW % (t, rx, ry, rz, vx, vy, vz,
                    l_yz and reprs[l_yz] or repr(l_yz), l_zx and reprs[l_zx] or repr(l_zx),
                    l_xy and reprs[l_xy] or repr(l_xy), ex and reprs[ex] or repr(ex),
                    ey and reprs[ey] or repr(ey), ez and reprs[ez] or repr(ez),
                    energy and reprs[energy] or repr(energy))
        for t, rx, ry, rz, vx, vy, vz, l_yz, l_zx, l_xy, ex, ey, ez, energy in rows)


def write_csv(states, stream):
    """Write recorded states with their conserved quantities as CSV.

    One line per state: t, r, v, L, e and E, each field the Python repr of
    the float, so it reads back exactly. L, e and E are conserved()'s, and
    a state on which conserved() raises raises here. Bivector components
    follow the dual-axis convention: L_yz = L[e23], L_zx = -L[e13] (written
    -0.0 when L[e13] is zero), L_xy = L[e12].
    """
    _write_rows((_csv_row(s.t, *_components(s.r), *_components(s.v), s.m, s.k,
                          s.r.algebra.tolerance) for s in states), stream)
