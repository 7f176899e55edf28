"""Independent brute-force reference implementations used to check the engine.

Everything here works on plain dicts mapping index tuples to coefficients,
e.g. {(): 1.0, (1, 2): -0.5} for 1 - 0.5*e1e2, and reduces products by
expanding blades into words of basis vectors and bubbling adjacent
transpositions. Deliberately slow and deliberately independent of the
package under test.

The one exception is kepler_conserved(), which states the Kepler invariants
with the package's Multivector operations, so that the float kernel behind
gacalc.conserved() and the CSV writer is checked against geometric algebra
and not against itself.
"""

import itertools
import math

Terms = dict  # tuple[int, ...] -> float


def word_reduce(word, metric):
    """Sort a word of basis-vector indices, tracking sign and contractions.

    Adjacent equal indices contract to the metric factor; adjacent unequal
    indices swap with a sign flip. Returns (sorted tuple, sign-ish float).
    """
    word = list(word)
    coeff = 1.0
    changed = True
    while changed:
        changed = False
        i = 0
        while i < len(word) - 1:
            a, b = word[i], word[i + 1]
            if a == b:
                coeff *= metric[a - 1]
                del word[i:i + 2]
                changed = True
                if i > 0:
                    i -= 1
            elif a > b:
                word[i], word[i + 1] = b, a
                coeff = -coeff
                changed = True
                i += 1
            else:
                i += 1
    return tuple(word), coeff


def gp(a: Terms, b: Terms, metric) -> Terms:
    """Naive geometric product: expand both operands into words and reduce."""
    out = {}
    for ta, ca in a.items():
        for tb, cb in b.items():
            blade, sign = word_reduce(ta + tb, metric)
            out[blade] = out.get(blade, 0.0) + sign * ca * cb
    return {k: v for k, v in out.items() if v != 0.0}


def grade_part(a: Terms, r: int) -> Terms:
    return {k: v for k, v in a.items() if len(k) == r}


def op_graded(a: Terms, b: Terms, metric, pick) -> Terms:
    """Sum of graded parts of blade-by-blade products; pick(r, s) gives the kept grade."""
    out = {}
    for ta, ca in a.items():
        for tb, cb in b.items():
            keep = pick(len(ta), len(tb))
            if keep < 0:
                continue
            prod = gp({ta: ca}, {tb: cb}, metric)
            for k, v in grade_part(prod, keep).items():
                out[k] = out.get(k, 0.0) + v
    return {k: v for k, v in out.items() if v != 0.0}


def outer(a, b, metric):
    return op_graded(a, b, metric, lambda r, s: r + s)


def lcontract(a, b, metric):
    return op_graded(a, b, metric, lambda r, s: s - r)


def rcontract(a, b, metric):
    return op_graded(a, b, metric, lambda r, s: r - s)


def involute(a: Terms, sign_of_grade) -> Terms:
    return {k: sign_of_grade(len(k)) * v for k, v in a.items()}


def reverse(a):
    return involute(a, lambda r: (-1.0) ** (r * (r - 1) // 2))


def grade_involution(a):
    return involute(a, lambda r: (-1.0) ** r)


def scalar_product(a, b, metric):
    return gp(reverse(a), b, metric).get((), 0.0)


def add(a: Terms, b: Terms, scale=1.0) -> Terms:
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0.0) + scale * v
    return {k: v for k, v in out.items() if v != 0.0}


def vec_lcontract_oracle(a: Terms, big: Terms, metric) -> Terms:
    """a .| A = (aA - involute(A)a)/2 for a vector a."""
    left = gp(a, big, metric)
    right = gp(grade_involution(big), a, metric)
    return {k: v / 2.0 for k, v in add(left, right, scale=-1.0).items()}


def wedge_antisym(vectors, metric) -> Terms:
    """Outer product of vectors via full antisymmetrization of words."""
    r = len(vectors)
    out = {}
    norm = 1.0
    for i in range(2, r + 1):
        norm *= i
    for perm in itertools.permutations(range(r)):
        sign = perm_parity(perm)
        prod = {(): sign / norm}
        for i in perm:
            prod = gp(prod, vectors[i], metric)
        out = add(out, prod)
    return out


def perm_parity(perm):
    seen = [False] * len(perm)
    sign = 1.0
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def cross3(u, v):
    """Classical component cross product of 3-tuples."""
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def max_coeff_diff(a: Terms, b: Terms) -> float:
    keys = set(a) | set(b)
    return max((abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in keys), default=0.0)


def inverse_and_determinant(matrix):
    """(inverse, determinant) of a square matrix by Gauss-Jordan elimination.

    Partial pivoting on plain floats: rows are swapped so that each pivot is
    the largest entry left in its column. The inverse is None when a pivot
    is exactly zero.
    """
    n = len(matrix)
    rows = [list(map(float, row)) + [float(i == j) for j in range(n)]
            for i, row in enumerate(matrix)]
    det = 1.0
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(rows[r][col]))
        if rows[pivot][col] == 0.0:
            return None, 0.0
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        head = rows[col][col]
        det *= head
        rows[col] = [x / head for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0.0:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return [row[n:] for row in rows], det


KEPLER_OVERFLOW = "orbit state overflows: |r|, |L| or E is not finite"


def kepler_conserved(state):
    """L = m r ^ v, e = (L |. v)/k - r/|r| and E = m|v|^2/2 - k/|r| of an orbit state.

    Every step is a Multivector operation, pruned to the algebra tolerance.
    |r| and l = |L| are math.hypot of the coefficients, the coefficient norm
    of algebra.py. Raises SimulationError at zero |r|, NonFiniteError from
    the first stage whose coefficient is not finite, and
    NonFiniteError(KEPLER_OVERFLOW) when |r|, |L| or E is.
    """
    from gacalc.algebra import NonFiniteError
    from gacalc.kepler import Conserved, SimulationError

    r, v, m, k = state.r, state.v, state.m, state.k
    rlen = math.hypot(*r._terms.values())
    if rlen <= 0.0:
        raise SimulationError("position is at the singularity")
    L = (r ^ v) * m
    ecc = L.right_contract(v) / k - r / rlen
    try:
        vsq = v.norm_squared()
    except NonFiniteError:  # |v|^2 is positive: its only non-finite value is inf
        vsq = math.inf
    energy = 0.5 * m * vsq - k / rlen
    l = math.hypot(*L._terms.values())
    if not (rlen < math.inf and l < math.inf and -math.inf < energy < math.inf):
        raise NonFiniteError(KEPLER_OVERFLOW)
    return Conserved(L, ecc, energy, l, not L, m, k)


def kepler_rk4(r, v, mu, dt, steps, record_every=1):
    """Fixed-step RK4 on dv/dt = -mu r / |r|^3, with no guard and no validation.

    r and v are coordinate triples. Returns (step, r, v) at step 0, every
    record_every-th step and the last step, as simulate() records them.
    """
    def accel(x):
        f = -mu / math.hypot(*x) ** 3
        return [f * c for c in x]

    def shift(x, h, dx):
        return [a + h * b for a, b in zip(x, dx)]

    r, v = list(r), list(v)
    records = [(0, tuple(r), tuple(v))]
    for step in range(1, steps + 1):
        a1 = accel(r)
        r1, v1 = shift(r, dt / 2, v), shift(v, dt / 2, a1)
        a2 = accel(r1)
        r2, v2 = shift(r, dt / 2, v1), shift(v, dt / 2, a2)
        a3 = accel(r2)
        r3, v3 = shift(r, dt, v2), shift(v, dt, a3)
        a4 = accel(r3)
        r = [x + dt / 6 * (p + 2 * (q + s) + u) for x, p, q, s, u in zip(r, v, v1, v2, v3)]
        v = [x + dt / 6 * (p + 2 * (q + s) + u) for x, p, q, s, u in zip(v, a1, a2, a3, a4)]
        if step % record_every == 0 or step == steps:
            records.append((step, tuple(r), tuple(v)))
    return records
