"""gacalc: Clifford algebras Cl(p,q) with sparse multivectors.

Construction of arbitrary nondegenerate diagonal-signature algebras, the
full product zoo (geometric, outer, contractions, scalar product), grade
operations and involutions, duality, frames with reciprocals, orthogonal
transformations, outermorphism linear algebra, a small expression language
behind the ga-calc command, and a closed-form Kepler-orbit propagator.

The public names load lazily (PEP 562): `import gacalc` imports no
submodule, and the first access to a name imports the submodule that
defines it and keeps the value here, so later accesses are plain lookups.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name and the submodule that defines it.
_EXPORTS = {
    **dict.fromkeys(("Algebra", "AlgebraMismatch", "GAError", "GradeError", "Multivector",
                     "NonFiniteError", "NotInvertible", "exp_bivector"), "algebra"),
    **dict.fromkeys(("EvalError", "ParseError", "evaluate", "format_multivector",
                     "parse"), "exprs"),
    "Frame": "frames",
    **dict.fromkeys(("Conserved", "OrbitState", "SimulationError", "conserved",
                     "orbit_radius", "orbital_period", "simulate"), "kepler"),
    **dict.fromkeys(("LinearMap", "OperatorError", "factor_isometry"), "linops"),
    **dict.fromkeys(("apply_versor", "gram_schmidt", "project", "reflect", "reject",
                     "rotate", "rotor_from_vectors"), "transforms"),
}

__all__ = [*sorted(_EXPORTS), "__version__"]


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__():
    return sorted(globals().keys() | _EXPORTS.keys())
