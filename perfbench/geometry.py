"""geometry: library calls on small sparse operands in Cl(n,0), n = 3..6.

Each op is one task: a frame round trip, an outermorphism's apply,
determinant, inverse and composition, factoring an isometry built from
random reflections, a rotation by an exponentiated bivector, a
projection/rejection/reflection, or Gram-Schmidt. Algebras and inputs are
built in set-up; each task's output is checked against an identity it
must satisfy.

Rotations in the timed loop use 2-blade bivectors. A bivector that is not
a blade (n >= 4) hits a known defect: exp() evaluates it by a power series
that leaves a ~1e-10 non-scalar residue in R ~R, and rotate() then rejects
the rotor for many coefficients. Those inputs are the workload's
known-defect ops, run once per timed run and reported apart.
"""

from __future__ import annotations

import math
import random

import common

DIMENSIONS = (3, 4, 5, 6)
TINY_DIMENSIONS = (3, 4)
TASKS = ("frame", "linear_map", "isometry", "rotation", "projection", "gram_schmidt")
SERIES_ROTATION = "series_rotation"     # known-defect task: non-blade bivector
VARIANTS = 4                  # input sets per (task, n); round r uses set r % VARIANTS
TOL = 1e-8


def _close(x, y, scale=1.0):
    return x.max_coeff_diff(y) <= TOL * max(1.0, scale)


def _norm(x):
    return math.sqrt(abs(x.norm_squared()))


class Geometry(common.Workload):
    name = "geometry"
    tail_percentile = 99
    trace_rounds = 40

    def __init__(self, seed, tiny):
        super().__init__(seed, tiny)
        import gacalc

        self.g = gacalc
        rng = random.Random(seed)
        self.rng = rng
        self.dims = TINY_DIMENSIONS if tiny else DIMENSIONS
        self.algebras = {n: gacalc.Algebra(n, 0) for n in self.dims}
        self.inputs = {(task, n): [self._inputs(task, self.algebras[n], rng, v)
                                   for v in range(1 if tiny else VARIANTS)]
                       for task in TASKS for n in self.dims}
        for n in self.dims[1:]:
            self.inputs[(SERIES_ROTATION, n)] = [
                self._inputs(SERIES_ROTATION, self.algebras[n], rng, v)
                for v in range(1 if tiny else 2)]

    # -- inputs ------------------------------------------------------------------

    def _vector(self, alg, rng):
        return alg.vector([rng.uniform(-1.0, 1.0) for _ in range(alg.n)])

    def _near_identity(self, alg, rng):
        """Images of e_i perturbed by at most 0.3 per component: well conditioned."""
        return [alg.basis_vector(i + 1) + self._vector(alg, rng) * 0.3
                for i in range(alg.n)]

    def _multivector(self, alg, rng):
        """Half of all 2^n blades, with random coefficients."""
        chosen = rng.sample(range(1 << alg.n), 1 << (alg.n - 1))
        return alg.multivector({
            tuple(i + 1 for i in range(alg.n) if bits >> i & 1):
                rng.uniform(0.5, 2.0) * rng.choice((-1.0, 1.0))
            for bits in chosen})

    def _inputs(self, task, alg, rng, variant):
        """Inputs of one (task, n, variant) slot.

        The variant fixes the structure (mirror count, blade grade) so that
        the seed changes only coefficients, not the work done.
        """
        n = alg.n
        if task == "frame":
            return self._near_identity(alg, rng), self._multivector(alg, rng)
        if task == "linear_map":
            return self._near_identity(alg, rng), self._multivector(alg, rng)
        if task == "isometry":
            count = 1 + variant * (n - 1) // (VARIANTS - 1)
            mirrors = [self._vector(alg, rng) for _ in range(count)]
            return [v / _norm(v) for v in mirrors]
        if task in ("rotation", SERIES_ROTATION):
            bivector = self._vector(alg, rng) ^ self._vector(alg, rng)
            if task == SERIES_ROTATION:
                bivector = bivector + (self._vector(alg, rng) ^ self._vector(alg, rng))
            return (bivector, rng.uniform(0.2, 2.5), self._vector(alg, rng),
                    self._multivector(alg, rng))
        if task == "projection":
            grade = 1 + variant % (n - 1)
            blade = alg.scalar(1.0)
            for v in self._near_identity(alg, rng)[:grade]:
                blade = blade ^ v
            return self._vector(alg, rng), blade
        return self._near_identity(alg, rng)

    # -- ops ---------------------------------------------------------------------

    def ops(self, round_index):
        out = [(task, n, round_index % len(self.inputs[(task, n)]))
               for task in TASKS for n in self.dims]
        self.rng.shuffle(out)
        return out

    def defect_ops(self):
        return [(SERIES_ROTATION, n, v) for n in self.dims[1:]
                for v in range(len(self.inputs[(SERIES_ROTATION, n)]))]

    def prepare(self, op):
        task, n, variant = op
        return task, self.algebras[n], self.inputs[(task, n)][variant]

    def run(self, args):
        task, alg, inp = args
        g = self.g
        if task == "frame":
            vectors, a = inp
            frame = g.Frame(vectors)
            return frame.expand(frame.components(a))
        if task == "linear_map":
            images, a = inp
            f = g.LinearMap(alg, images)
            f_inv = f.inverse()
            return f(a), f.determinant(), f_inv, f.compose(f_inv)
        if task == "isometry":
            versor = alg.scalar(1.0)
            for v in inp:
                versor = versor * v
            f = g.LinearMap(alg, [g.apply_versor(alg.basis_vector(i + 1), versor)
                                  for i in range(alg.n)])
            return f, g.factor_isometry(f)
        if task in ("rotation", SERIES_ROTATION):
            bivector, angle, x, a = inp
            rotor = g.exp_bivector(bivector, angle)
            return g.rotate(x, rotor), g.apply_versor(a, rotor)
        if task == "projection":
            x, blade = inp
            return g.project(x, blade), g.reject(x, blade), g.reflect(x, blade)
        return g.gram_schmidt(inp)

    def check(self, op, args, out):
        task, alg, inp = args
        g = self.g
        if task == "frame":
            a = inp[1]
            return None if _close(out, a, _norm(a)) else "expand(components(A)) != A"
        if task == "linear_map":
            images, a = inp
            fa, det, f_inv, identity = out
            if not _close(f_inv(fa), a, _norm(a)):
                return "F^-1(F(A)) != A"
            if abs(det * f_inv.determinant() - 1.0) > TOL:
                return "det(F) det(F^-1) != 1"
            for i in range(alg.n):
                e = alg.basis_vector(i + 1)
                if not _close(identity(e), e):
                    return "F o F^-1 is not the identity"
            return None
        if task == "isometry":
            f, (versor, factors) = out
            for i in range(alg.n):
                e = alg.basis_vector(i + 1)
                moved = e.grade_involution() if len(factors) & 1 else e
                if not _close(versor * moved * versor.inverse(), f(e)):
                    return "factor_isometry does not reconstruct F"
            return None
        if task in ("rotation", SERIES_ROTATION):
            _, _, x, a = inp
            y, b = out
            if abs(y.norm_squared() - x.norm_squared()) > TOL * max(1.0, x.norm_squared()):
                return "rotation changed a vector's norm"
            if abs(b.norm_squared() - a.norm_squared()) > TOL * max(1.0, abs(a.norm_squared())):
                return "rotation changed a multivector's norm"
            return None
        if task == "projection":
            x, blade = inp
            p, r, f = out
            if not _close(p + r, x):
                return "project + reject != x"
            if not _close(g.reflect(f, blade), x):
                return "reflecting twice is not the identity"
            return None
        wedge_in = wedge_out = alg.scalar(1.0)
        for i, b in enumerate(out):
            for c in out[:i]:
                if abs(b.scalar_product(c)) > TOL * max(1.0, _norm(b) * _norm(c)):
                    return "gram_schmidt output is not orthogonal"
            wedge_out = wedge_out ^ b
        for v in inp:
            wedge_in = wedge_in ^ v
        return None if _close(wedge_out, wedge_in) else "gram_schmidt changed the blade"
