"""The library contract: a public call returns a result or raises a GAError.

The admitted exceptions outside GAError are the argument errors of a
malformed call: TypeError for an argument of the wrong type, ValueError
where a docstring names it.
"""

import pytest

from gacalc import (
    Algebra,
    LinearMap,
    SimulationError,
    factor_isometry,
    gram_schmidt,
    orbit_radius,
    orbital_period,
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
