"""Reduced-order potential-flow simulator for gas bubbles in an inviscid
liquid: shape-constrained surfaces, a boundary-element Neumann solver, and
Euler-Lagrange dynamics on the shape parameters."""

__version__ = "0.1.0"

from .dynamics import State, Trajectory, boundary_residual, eom_rhs, integrate
from .errors import (BubbleDynError, CompatibilityError, DegenerateShapeError,
                     DiscretizationError, IllPosedProblemError,
                     UnsupportedConfigurationError)
from .gas import (BubbleGasState, GasLaw, equilibrium_radius, free_energy,
                  potential_energy, pressure)
from .potential import (AddedMassMatrix, NeumannProblem, PotentialSolution,
                        added_mass, added_mass_jacobian, basis_potentials,
                        evaluate, solve_neumann)
from .reference import (SingleBubbleState, analytic_potential, closed_form_rhs,
                        integrate_single, minnaert_frequency)
from .scenario import Scenario, ScenarioError, parse_scenario, scenario_from_dict
from .shapes import (CavityMesh, CavitySphere, Configuration, ConstraintBasis,
                     EllipsoidParams, SphereParams, SurfaceMesh, Unbounded,
                     check_admissible, constraint_basis, measures,
                     normal_velocity, surface_mesh)

__all__ = [
    "AddedMassMatrix", "BubbleDynError", "BubbleGasState", "CavityMesh",
    "CavitySphere", "CompatibilityError", "Configuration", "ConstraintBasis",
    "DegenerateShapeError", "DiscretizationError", "EllipsoidParams",
    "GasLaw", "IllPosedProblemError", "NeumannProblem", "PotentialSolution",
    "Scenario", "ScenarioError", "SingleBubbleState", "SphereParams",
    "State", "SurfaceMesh", "Trajectory",
    "Unbounded", "UnsupportedConfigurationError", "added_mass",
    "added_mass_jacobian", "analytic_potential", "basis_potentials",
    "boundary_residual", "check_admissible", "closed_form_rhs",
    "constraint_basis", "eom_rhs", "equilibrium_radius", "evaluate",
    "free_energy", "integrate", "integrate_single", "measures",
    "minnaert_frequency", "normal_velocity", "parse_scenario",
    "potential_energy", "pressure", "scenario_from_dict", "solve_neumann",
    "surface_mesh",
]
