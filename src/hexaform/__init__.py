"""PL 4-manifold invariants from hexagon relations.

Core entry points:

- :mod:`hexaform.triangulation` -- triangulated 4-manifolds and Pachner moves
- :mod:`hexaform.hexagon` -- permitted colorings, the bilinear cocycle, the action
- :mod:`hexaform.invariants` -- congruence invariants and value distributions
- :mod:`hexaform.cocycles` -- Frobenius polynomial cocycles
- :mod:`hexaform.intersect` -- cup-product intersection form and the comparison probe
"""

from .triangulation import (
    Triangulation, MoveDescriptor, faces, orient, boundary_delta5,
    apply_move, find_moves, isomorphic, relabel, load, save,
)
from .gf import GF, GFElem, make_field, frobenius_power, gf_nullspace
from .hexagon import (
    R_MATRIX, build_constraints, solve_permitted, permitted_space,
    pairing, action_value, gram_matrix, verify_cocycle,
)
from .invariants import (
    FormInvariants, FrobeniusSpec, ValueDistribution, CapExceeded,
    form_invariants, probability_distribution, distribution_equal,
)
from .cocycles import (
    CocyclePolynomial, specialize, specialize_double, reference_cubic,
    is_hexagon_cocycle,
)
from .intersect import solve_2cocycles, cup_gram, reduced_cup_invariants, compare_forms
from .manifolds import builtin_manifold

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
