"""gacalc: Clifford algebras Cl(p,q) with sparse multivectors.

Construction of arbitrary nondegenerate diagonal-signature algebras, the
full product zoo (geometric, outer, contractions, scalar product), grade
operations and involutions, duality, frames with reciprocals, orthogonal
transformations, outermorphism linear algebra, a small expression language
behind the ga-calc command, and a Kepler-orbit integrator.
"""

from .algebra import (
    Algebra,
    AlgebraMismatch,
    GAError,
    GradeError,
    Multivector,
    NonFiniteError,
    NotInvertible,
    exp_bivector,
)
from .exprs import EvalError, ParseError, evaluate, format_multivector, parse
from .frames import Frame
from .kepler import (
    Conserved,
    OrbitState,
    SimulationError,
    conserved,
    orbit_radius,
    orbital_period,
    simulate,
)
from .linops import LinearMap, OperatorError, factor_isometry
from .transforms import (
    apply_versor,
    gram_schmidt,
    project,
    reflect,
    reject,
    rotate,
    rotor_from_vectors,
)

__version__ = "0.1.0"

__all__ = [
    "Algebra",
    "AlgebraMismatch",
    "Conserved",
    "EvalError",
    "Frame",
    "GAError",
    "GradeError",
    "LinearMap",
    "Multivector",
    "NonFiniteError",
    "NotInvertible",
    "OperatorError",
    "OrbitState",
    "ParseError",
    "SimulationError",
    "apply_versor",
    "conserved",
    "evaluate",
    "exp_bivector",
    "factor_isometry",
    "format_multivector",
    "gram_schmidt",
    "orbit_radius",
    "orbital_period",
    "parse",
    "project",
    "reflect",
    "reject",
    "rotate",
    "rotor_from_vectors",
    "simulate",
    "__version__",
]
