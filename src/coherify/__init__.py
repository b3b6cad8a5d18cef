"""Coherence certificates, projection repair, and monitoring for composed quotes."""

__version__ = "0.1.0"

from .polytope import (
    Clique,
    PolytopeSpec,
    Relation,
    RelationKind,
    VertexSet,
    build_polytope,
    conjunction,
    disjunction,
    enumerate_vertices,
    is_member,
    ladder,
    negation,
    paraphrase,
    partition,
)
from .projection import (
    InfeasibleCouplingError,
    ProjectionResult,
    project_closed_form,
    project_dykstra,
    project_hierarchical,
    project_oracle,
    project_relation,
)
from .composition import (
    Certificate,
    ComponentSpec,
    CompositionSpec,
    CouplingConstraint,
    CouplingSet,
    aggregate,
    attribute,
    construct_witness,
    disagreement_bound,
    free_components,
    is_product_structured,
    relation_coupling,
    residual,
    residual_batch,
)
from .prediction import (
    MagnitudePrediction,
    PanelStats,
    observe_magnitude,
    panel_stats,
    predict_magnitude,
)
from .monitor import EProcessState, StreamStep, decide, optimal_lambda, update
from .decision import (
    AllocationRule,
    BetRecord,
    allocate,
    diebold_mariano,
    exposure,
    gate_sweep,
    murphy,
    regret,
)
from .simharness import (
    PanelModel,
    RoutingPolicy,
    SimConfig,
    generate_panel,
    hardness_experiment,
    run_ensemble,
    to_bet_records,
)

__all__ = [name for name in dir() if not name.startswith("_")]
