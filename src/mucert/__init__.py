"""Diagonally weighted log-norm contraction certificates for continuous-time
neural network models: log norms and their worst cases over slope polytopes,
weight optimization by spectral policy iteration, matrix stability classes,
per-model contraction certificates, and simulation-based verification."""

from .matrices import (
    as_matrix,
    as_vector,
    as_weights,
    is_metzler,
    metzler_majorant,
    nonneg_metzler_majorant,
    pad,
    principal_submatrix,
)
from .spectral import (
    NumericalError,
    PerronPair,
    ReducibleMatrixError,
    eigenvalues,
    is_irreducible,
    perron_pair,
    perron_weights,
    spectral_abscissa,
)
from .lognorm import (
    L1,
    L2,
    LEFT,
    LINF,
    RIGHT,
    PolytopeSpec,
    SlopeInterval,
    brute_force_worst_case,
    envelope_matrices,
    log_norm,
    mu1,
    mu2,
    muinf,
    scaled_majorant_identity,
    weighted_norm,
    worst_case_mu,
)
from .optimize import (
    BisectResult,
    FeasibilityProblem,
    bisect_min_mu,
    feasible_weights,
)
from .classify import (
    ClassReport,
    PruningReport,
    classify_matrix,
    edge_removal_check,
    is_hurwitz,
    is_m_hurwitz,
    is_quasidominant,
    is_totally_hurwitz,
    lds_certificate,
    mh_lds_witness,
    pruning_robustness,
)
from .networks import (
    AxMinusCPhi,
    ContractionCertificate,
    Entrywise,
    FiringRate,
    Hopfield,
    Lure,
    MultiLure,
    NetworkModel,
    Persidskii,
    certify,
    certify_ax_minus_cphi,
    certify_entrywise,
    certify_hopfield_mh,
    certify_lure,
    certify_multilure,
    certify_persidskii,
    certify_unbounded_slope,
    fixed_weight_osl,
    multilure_coupling_bound,
    optimal_certificate,
    osl_firing_rate,
    osl_hopfield,
    osl_multilure_linf,
)
from .simulate import (
    Activation,
    DivergenceError,
    SimReport,
    integrate,
    jacobian,
    sample_jacobian_mu,
    slope_bounds,
    verify_contraction,
)

__version__ = "0.1.0"
