"""Entanglement Rolling on tree-like graph-state resources.

Graph-level simulation of Pauli measurements on graph states, construction
and interrogation of the GTL resource family, the rolling protocol that
resolves a shared resource into Bell pairs or star resources, exact Z-type
noise propagation with closed forms, and a dense brute-force oracle.
"""

from .graphstate import (
    Graph,
    MeasurementRecord,
    PauliString,
    gf2_rank,
    local_complement,
    measure_pauli,
    stabilizer_generators,
)
from .gtl import (
    GtlParams,
    GtlState,
    bridge_neighborhoods,
    build_gtl,
    peer_proximity,
    structure_profile,
    structure_profiles,
    validate_gtl,
)
from .noise import (
    CompiledPlan,
    NoiseMap,
    NoiseState,
    closed_form_maps,
    compile_plan,
    compiled_fidelities,
    component_fidelities,
    dephasing_map,
    depolarizing_map,
    fidelity,
    propagate,
    propagate_measurement,
    restrict_to_targets,
    score_points,
    standard_noise,
)
from .rolling import (
    ResolutionPlan,
    RollingOutcome,
    centralized_resolution,
    default_resolution_plan,
    isolate_ghz,
    isolate_max_bell,
    plan_proximity_reduction,
    resolve,
    rolling_step,
    schmidt_upper_bound,
)

__all__ = [
    "CompiledPlan",
    "Graph",
    "GtlParams",
    "GtlState",
    "MeasurementRecord",
    "NoiseMap",
    "NoiseState",
    "PauliString",
    "ResolutionPlan",
    "RollingOutcome",
    "bridge_neighborhoods",
    "build_gtl",
    "centralized_resolution",
    "closed_form_maps",
    "compile_plan",
    "compiled_fidelities",
    "component_fidelities",
    "default_resolution_plan",
    "dephasing_map",
    "depolarizing_map",
    "fidelity",
    "gf2_rank",
    "isolate_ghz",
    "isolate_max_bell",
    "local_complement",
    "measure_pauli",
    "peer_proximity",
    "plan_proximity_reduction",
    "propagate",
    "propagate_measurement",
    "resolve",
    "restrict_to_targets",
    "rolling_step",
    "schmidt_upper_bound",
    "score_points",
    "stabilizer_generators",
    "standard_noise",
    "structure_profile",
    "structure_profiles",
    "validate_gtl",
]

__version__ = "0.1.0"
