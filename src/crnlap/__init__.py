"""Core-matrix decomposition of the graph Laplacian and the binomial
structure of mass-action systems: decompositions, equilibria, strata and
cones, and Lyapunov stability certificates."""

__version__ = "0.1.0"

from .graph import (
    AuxTree,
    Cycle,
    LabeledDigraph,
    build_digraph,
    default_chain_aux,
    enumerate_cycles,
    general_aux_tree,
    make_aux_tree,
    scc_partition,
    validate_aux_tree,
)
from .laplacian import (
    CoreDecomposition,
    CycleDecomposition,
    TreeConstants,
    core_matrix,
    cycle_decomposition,
    laplacian_matrix,
    tree_constants,
    verify_core_decomposition,
)
from .crn import (
    ReactionNetwork,
    binomial_rhs,
    build_network,
    mass_action_rhs,
    monomial_vector,
    stoichiometric_subspace,
)
from .equilibria import (
    CbeResult,
    birch_intersect,
    cbe_manifold_sample,
    is_cbe,
    solve_cbe,
)
from .geometry import (
    ConeDescription,
    monomial_order,
    polar_interior_contains,
    recession_polar_check,
    region_constraints,
    stratum_contains,
)
from .stability import (
    BdiReport,
    StabilityCertificate,
    Trajectory,
    bdi_membership,
    bdi_report,
    decrease_certificate,
    lyapunov_derivative,
    lyapunov_value,
    simulate,
)
from .io import NetworkDocument, parse_network
