"""Linear maps on vectors extended to the whole algebra as outermorphisms.

A LinearMap is stored as the images of the orthonormal basis vectors. It
acts on blades by wedging images (the unique outermorphism extension) and
linearly on everything else, so it is grade-preserving by construction.
Each blade image F(e_S) = F(e_(S without max S)) ^ F(e_max S) is wedged
once, in a lazy _Wedges memo of the frames module in the tolerance-0 twin
(summed as minors up to n = 6); results are pruned once.
The determinant is the twin's coefficient of F(I) = det(F) I. The inverse is
read off the reciprocal frame of the images, f^k = (-1)^(k-1)
F(e_([n] without k)) F(I)^-1, with Frame's expression and singularity rule.
factor_isometry reflects the working images in each mirror u in closed form,
x - (2 u.x / u^2) u, so they stay vectors by construction. The images and
mirrors are coordinate lists, pruned wherever a Multivector would be, and
only the factors it returns become Multivectors.
Whether F is symmetric or skew, and whether A is an eigenblade, are residue
verdicts of degree 1 by the algebra module's rule: (F -+ Fbar) / 2, summed
from halves, against the matrix of F, and F(A) - lambda A, formed in the
twin, against F(A) (F(A) itself against Hadamard's bound on it, to find an
eigenvalue 0). factor_isometry's tests are still absolute, at
tolerance * _ISOMETRY_SLACK: the relative rule there turned roundoff-level
image residues into extra mirrors.
Everything is computed through the algebra rather than through matrix
decompositions, except the eigenframe of a symmetric map: cyclic Jacobi
(Golub & Van Loan, Matrix Computations, 8.5) diagonalises its matrix by plane
rotations in pure Python, so this module never imports numpy.
"""

import math

from .algebra import (_INF, GAError, GradeError, Multivector, NonFiniteError,
                      _hadamard_negligible, _negligible, _pruned)
from .frames import _linear_combination, _Wedges

_ISOMETRY_SLACK = 1e4
# Jacobi stops once the off-diagonal sum of squares is below this share of
# the whole matrix's, and gives up after this many sweeps (random n = 12
# maps need at most seven).
_JACOBI_OFF = 1e-32
_JACOBI_SWEEPS = 50


class OperatorError(GAError):
    """A linear map does not satisfy what the operation requires."""


class LinearMap:
    """A linear map on vectors, applied to multivectors as an outermorphism.

    LinearMap(algebra, images) raises ValueError unless there are n images,
    TypeError for an image that is not a Multivector, AlgebraMismatch for
    one from another algebra and GradeError for one that is not a vector.
    """

    __slots__ = ("algebra", "images", "_blade_images")

    def __init__(self, algebra, images):
        images = tuple(images)
        if len(images) != algebra.n:
            raise ValueError(f"need {algebra.n} basis images, got {len(images)}")
        zero = algebra.zero()
        for img in images:
            if not isinstance(img, Multivector):
                raise TypeError("basis images must be Multivectors")
            if zero._coerce(img).grades - {1}:
                raise GradeError(f"basis images must be vectors, got {img}")
        self.algebra = algebra
        self.images = images
        self._blade_images = None

    @classmethod
    def identity(cls, algebra):
        return cls(algebra, [algebra.basis_vector(i) for i in range(1, algebra.n + 1)])

    @classmethod
    def diagonal(cls, algebra, scales):
        """The map e_i -> scales[i-1] e_i; ValueError unless there are n scales."""
        scales = [float(s) for s in scales]
        if len(scales) != algebra.n:
            raise ValueError(f"need {algebra.n} scales, got {len(scales)}")
        return cls(algebra, [algebra.basis_vector(i) * s
                             for i, s in enumerate(scales, start=1)])

    @classmethod
    def from_matrix(cls, algebra, matrix):
        """Column convention: F(e_j) = sum_i matrix[i][j] e_i; ValueError unless n x n."""
        rows = [list(map(float, row)) for row in matrix]
        if len(rows) != algebra.n or any(len(r) != algebra.n for r in rows):
            raise ValueError(f"matrix must be {algebra.n}x{algebra.n}")
        return cls(algebra, [algebra.vector([rows[i][j] for i in range(algebra.n)])
                             for j in range(algebra.n)])

    def matrix(self):
        """The matrix with F(e_j) in column j."""
        return [[image._terms.get(1 << i, 0.0) for image in self.images]
                for i in range(self.algebra.n)]

    def __call__(self, A):
        """Apply the outermorphism to any multivector of the same algebra."""
        return self._blades().combine(self._checked(A)._terms.items())

    def _checked(self, A):
        """A, once it is a Multivector of the map's algebra; _coerce raises AlgebraMismatch if not."""
        if not isinstance(A, Multivector):
            raise TypeError("LinearMap applies to Multivectors")
        return self.algebra.zero()._coerce(A)

    def _blades(self):
        """The _Wedges memo of the images, whose entries are the F(e_S), made on first use."""
        if self._blade_images is None:
            self._blade_images = _Wedges(self.algebra, self.images)
        return self._blade_images

    def compose(self, other):
        """self after other: (self.compose(other))(x) = self(other(x))."""
        if not isinstance(other, LinearMap):
            raise TypeError("a LinearMap composes with LinearMaps")
        self._checked(other.algebra.zero())
        return LinearMap(self.algebra, [self(img) for img in other.images])

    __matmul__ = compose

    def __add__(self, other):
        if not isinstance(other, LinearMap):
            return NotImplemented
        return LinearMap(self.algebra,
                         [a + b for a, b in zip(self.images, other.images)])

    def __sub__(self, other):
        if not isinstance(other, LinearMap):
            return NotImplemented
        return LinearMap(self.algebra,
                         [a - b for a, b in zip(self.images, other.images)])

    def scale(self, s):
        return LinearMap(self.algebra, [img * float(s) for img in self.images])

    # -- adjoint and splits ----------------------------------------------------

    def adjoint(self):
        """The metric adjoint Fbar with F(a) . b = a . Fbar(b) for all vectors."""
        return LinearMap.from_matrix(self.algebra, self._combined(0.0, 1.0)[1])

    def symmetric_part(self):
        return LinearMap.from_matrix(self.algebra, self._combined(0.5, 0.5)[1])

    def skew_part(self):
        return LinearMap.from_matrix(self.algebra, self._combined(0.5, -0.5)[1])

    def _combined(self, a, b):
        """The matrix m of F, and that of a F + b Fbar, pruned by neither.

        Fbar's entries are eta_i eta_j m[j][i], with eta the metric. Each
        entry of a F + b Fbar is summed from its two terms, so the halves of
        the symmetric and skew parts do not overflow where F + Fbar would.
        """
        eta, m = self.algebra.metric, self.matrix()
        return m, [[a * x + b * eta[i] * eta[j] * m[j][i] for j, x in enumerate(row)]
                   for i, row in enumerate(m)]

    def _split_matrix(self, sign, what):
        """The matrix of F, once F = sign Fbar; raises OperatorError("map is not " + what).

        F = sign Fbar when (F - sign Fbar) / 2 is roundoff against F by the
        residue rule, with degree 1: the residue is linear in F.
        """
        m, residue = self._combined(0.5, -0.5 * sign)
        if not _negligible(sum(residue, []), sum(m, []), self.algebra.tolerance, 1):
            raise OperatorError(f"map is not {what}")
        return m

    def skew_bivector(self):
        """The bivector A with F(x) = x .| A, for a skew map F.

        A = (1/2) sum_i e^i ^ F(e_i) over the reciprocal basis e^i.
        Raises OperatorError when F is not skew to tolerance.
        """
        alg = self.algebra
        self._split_matrix(-1.0, "skew (its symmetric part is not roundoff)")
        return _linear_combination(alg, (
            (0.5 * alg.metric[i], (alg.basis_vector(i + 1) ^ self.images[i])._terms)
            for i in range(alg.n)))

    # -- determinant and inverse -------------------------------------------------

    def determinant(self):
        """det F, read off from F(I) = det(F) I."""
        full = (1 << self.algebra.n) - 1
        return self._blades()[full]._terms.get(full, 0.0)

    def inverse(self):
        """F^-1(x) = sum_k (x . f^k) e_k, with f^k the reciprocal frame of the F(e_k).

        Raises OperatorError when F(I) is singular by the rule Frame uses for
        its volume, or when an image F^-1(e_k) falls to the prune, so that
        the stored map would not be invertible.
        """
        alg, blades = self.algebra, self._blades()
        volume_inverse = blades.volume_inverse(alg.n)
        if volume_inverse is None:
            raise OperatorError(f"map is singular (det = {self.determinant()!r})")
        reciprocal = (blades.reciprocal(volume_inverse, alg.n, 1 << k) for k in range(alg.n))
        inverse = LinearMap.from_matrix(alg, [  # row k holds e_i . f^k
            [m * f._terms.get(1 << i, 0.0) for i, m in enumerate(alg.metric)]
            for f in reciprocal])
        if not all(inverse.images):
            raise OperatorError("an image of the inverse map falls below the tolerance")
        return inverse

    # -- eigenstructure -----------------------------------------------------------

    def eigenblade_check(self, A):
        """Eigenvalue of the nonzero blade A when F(A) = lambda A, else None.

        lambda may legitimately be 0.0 (singular maps), so compare the
        result against None, not for truthiness. The volume element is an
        eigenblade of every map, with eigenvalue det(F). F(A) is formed in
        the twin. It is 0, and lambda 0.0, when it is roundoff against
        Hadamard's bound on it; otherwise A is an eigenblade when
        F(A) - lambda A is roundoff against F(A). Neither verdict changes
        when F is scaled by a power of two.
        """
        if not self._checked(A):
            raise ValueError("the zero multivector is not an eigenblade candidate")
        blades, tol = self._blades(), self.algebra.tolerance
        B = _linear_combination(blades[0].algebra, (  # F(A) in the twin
            (c, blades[bits]._terms) for bits, c in A._terms.items()))
        # F(A) = 0 when it is roundoff against sum |c_S| prod_(i in S) |F(e_i)|
        if _hadamard_negligible(math.hypot(*B._terms.values()), [
                [abs(c), *(x for i, x in enumerate(blades._norms) if bits >> i & 1)]
                for bits, c in A._terms.items()], tol):
            return 0.0
        bits, coeff = max(A._terms.items(), key=lambda kv: abs(kv[1]))
        lam = B._terms.get(bits, 0.0) / coeff
        # (F(A) - lambda A) / 2, which does not overflow, against F(A) at tol / 2
        half = _linear_combination(B.algebra, ((0.5, B._terms), (-0.5 * lam, A._terms)))._terms
        return lam if _negligible(half.values(), B._terms.values(), 0.5 * tol, 1) else None

    def symmetric_eigenframe(self):
        """Eigenvalues and an orthonormal eigenvector frame of a symmetric map.

        Euclidean signature only (q = 0). Cyclic Jacobi on the lower triangle
        of matrix(), scaled exactly, by a power of two, so that no entry
        exceeds 1 and no intermediate overflows. Returns (eigenvalues,
        eigenvectors) with F(v_k) = lambda_k v_k, eigenvalues ascending, each
        eigenvector's sign arbitrary. Raises OperatorError for non-Euclidean
        algebras, non-symmetric maps, or no convergence within _JACOBI_SWEEPS
        sweeps, and NonFiniteError when an eigenvalue overflows on scaling
        back.
        """
        alg = self.algebra
        if alg.q != 0:
            raise OperatorError("symmetric eigenframes are computed for Euclidean signature only")
        n, m = alg.n, self._split_matrix(1.0, "symmetric")
        scale = math.frexp(max((abs(x) for row in m for x in row), default=0.0))[1]
        a = [[math.ldexp(m[max(i, j)][min(i, j)], -scale) for j in range(n)] for i in range(n)]
        v = [[float(i == j) for j in range(n)] for i in range(n)]  # eigenvectors as columns
        total = sum(x * x for row in a for x in row)
        for _ in range(_JACOBI_SWEEPS):
            if sum(a[p][q] ** 2 for q in range(n) for p in range(q)) <= _JACOBI_OFF * total:
                break
            for p in range(n - 1):
                rp = a[p]
                for q in range(p + 1, n):
                    apq, rq = rp[q], a[q]
                    if not apq:
                        continue
                    # the rotation J in the (p, q) plane with (J^T A J)_pq = 0
                    tau = (rq[q] - rp[p]) / (2.0 * apq)
                    t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
                    c = 1.0 / math.hypot(1.0, t)
                    s = t * c
                    app, aqq = rp[p] - t * apq, rq[q] + t * apq
                    for r, (ar, vr) in enumerate(zip(a, v)):  # columns p, q of A and V
                        x, y = ar[p], ar[q]
                        ar[p] = rp[r] = c * x - s * y
                        ar[q] = rq[r] = s * x + c * y  # and rows p, q of A
                        x, y = vr[p], vr[q]
                        vr[p], vr[q] = c * x - s * y, s * x + c * y
                    rp[p], rp[q], rq[p], rq[q] = app, 0.0, 0.0, aqq
        else:
            raise OperatorError(f"Jacobi did not converge in {_JACOBI_SWEEPS} sweeps")
        try:
            values = [math.ldexp(a[k][k], scale) for k in range(n)]
        except OverflowError:
            raise NonFiniteError("an eigenvalue overflows") from None
        order = sorted(range(n), key=values.__getitem__)
        return [values[k] for k in order], [alg.vector([row[k] for row in v]) for k in order]


def factor_isometry(F):
    """Factor an isometry into unit reflection vectors.

    Returns (V, factors) where factors = [v_1, ..., v_m] are unit (v^2 = +-1)
    vectors, V = v_1 v_2 ... v_m (identity gives V = 1, factors = []), and
    F(x) = V ghat^m(x) V^-1. At most 2n factors are needed; in Euclidean
    signature at most n. Raises OperatorError when F is not an isometry.
    The working images and mirrors are coordinate lists, pruned wherever a
    Multivector would be; only the returned factors are Multivectors.
    """
    if not isinstance(F, LinearMap):
        raise TypeError("factor_isometry needs a LinearMap")
    alg = F.algebra
    n, eta, prune = alg.n, alg.metric, alg.tolerance
    tol = prune * _ISOMETRY_SLACK

    def pruned(xs):
        """The coordinates a Multivector of xs keeps; raises NonFiniteError for inf or NaN."""
        if not -_INF < sum(xs) < _INF:  # NaN fails both
            _pruned(dict(enumerate(xs)), prune)  # raises for a coordinate that is not finite
        return [x if abs(x) > prune else 0.0 for x in xs]

    def dot(x, y):
        """x.scalar_product(y) of the vectors with coordinates x and y."""
        total = 0.0
        for e, a, b in zip(eta, x, y):
            total += e * a * b
        if not -_INF < total < _INF:
            raise NonFiniteError(f"coefficient is not finite: {total!r}")
        return total

    current = [[img._terms.get(1 << k, 0.0) for k in range(n)] for img in F.images]
    for i in range(n):
        for j in range(i, n):
            want = eta[i] if i == j else 0.0
            got = dot(current[i], current[j])
            if abs(got - want) > tol:
                raise OperatorError(
                    f"map is not an isometry: F(e{i+1}) . F(e{j+1}) = {got!r}")
    factors = []

    def pull_back(c):
        """Record the mirror u = c / |c| and reflect the working images in it.

        The reflection -u x u^-1 of a vector x is x - (2 u.x / u^2) u, so the
        images stay vectors.
        """
        size = math.sqrt(abs(dot(c, c)))
        unit = pruned([x / size for x in c])
        factors.append(unit)
        square = dot(unit, unit)
        for idx, x in enumerate(current):
            k = -2.0 * dot(unit, x) / square
            current[idx] = pruned([a + k * u for a, u in zip(x, unit)])

    for i in range(n):
        target = [float(k == i) for k in range(n)]
        g = current[i]
        if max(abs(a - t) for a, t in zip(g, target)) <= tol:
            continue
        c = pruned([a - t for a, t in zip(g, target)])
        if abs(dot(c, c)) > tol:
            pull_back(c)
        else:
            c = pruned([a + t for a, t in zip(g, target)])
            if abs(dot(c, c)) <= tol:
                raise OperatorError(
                    "cannot factor: both candidate mirrors are null")
            pull_back(c)
            pull_back(target)

    factors = [Multivector._make(alg, {1 << k: x for k, x in enumerate(u) if x}) for u in factors]
    return math.prod(factors, start=alg.scalar(1.0)), factors
