"""Empathy-weighted 2x2 bimatrix games.

Transforms a base game by a 2x2 empathy weight matrix, classifies and solves
the resulting game (Nash, Berge, Pareto, constrained ESS), simulates
discrete-time evolutionary dynamics under pluggable revision protocols, and
analyzes multi-level empathy consistency via matrix powers.

Each public name is imported from its layer on first use (PEP 562), so
``import empathica`` loads no layer and a caller pays only for the layers it
reads.
"""

from importlib import import_module

__version__ = "0.1.0"

# The public names, by the layer that defines each.
_LAYERS = {
    "dynamics": """Diagnostics LearningSchedule PopulationState RevisionProtocol
        StabilizationReport Trajectory VectorField simulate stabilization_check step
        switch_rates vector_field""",
    "equilibria": """EquilibriumSet MixedNashResult MixedProfile PureEquilibrium RegionMap
        berge_solutions deviation_gain mixed_nash outcome_label pareto_front pure_nash
        region_map two_population_equilibria""",
    "ess": """BestResponseSet Constraint ConstraintType DiagonalReduction EssKind EssPoint
        EssResult SymmetricEquilibria constrained_best_response constrained_ess
        diagonal_reduction homogeneous_payoff symmetric_equilibria""",
    "games": """Classification DominatedAction EmpathyMatrix Game2x2 GameKind
        InequalityReport InequalityVerdict SymmetryReport anti_coordination_game classify
        coordination_game dominated_actions inequality_report matching_pennies
        prisoners_dilemma symmetry_report transform""",
    "hierarchy": """ConsistencyVerdict HierarchyAnalysis LimitKind SpectralRecord
        analyze_hierarchy check_consistency consistent_family default_battery
        equilibrium_signature infinitely_consistent level_game spectral_limit
        structural_epsilons""",
}
_LAYER_OF = {name: layer for layer, names in _LAYERS.items() for name in names.split()}

__all__ = sorted(_LAYER_OF)


def __getattr__(name: str):
    if name in _LAYERS:
        return import_module(f".{name}", __name__)
    if name not in _LAYER_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_LAYER_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAYERS, *__all__})
