"""Matrix decompositions, secrecy capacity, and layered transceiver plans
for the MIMO wiretap and confidential broadcast channels, with a seeded
Monte Carlo harness that checks the analytic SINR/rate identities."""

__version__ = "0.14.0"

from .decomp import (
    GsvdDiagonalFactors,
    GtdFactors,
    JointTriangularization,
    QlFactors,
    gmd,
    gsv_values,
    gsvd_diagonal,
    gsvd_triangular,
    gtd,
    haar_unitary,
    joint_triangularize,
    majorizes,
    ql,
    qr,
    svd,
)
from .errors import (
    DomainError,
    InsufficientSamples,
    MajorizationError,
    NotPSD,
    NumericalFailure,
    RankDeficient,
)
from .secrecy import (
    BroadcastRegion,
    MonotonicityReport,
    PowerSearchResult,
    SecrecyResult,
    TruncationReport,
    broadcast_region,
    channel_gsv,
    effective_mmse_matrix,
    gaussian_mi,
    gsv_monotonicity_check,
    matrix_sqrt,
    power_constrained_capacity,
    sample_constrained_covariance,
    scalar_secrecy_capacity,
    secrecy_capacity_cov,
    secrecy_mi_difference,
    verify_truncation,
)
from .scheme import (
    BroadcastPlan,
    DpcPlan,
    SicPlan,
    SimulationReport,
    WiretapPlan,
    build_broadcast_plan,
    build_dpc_plan,
    build_sic_plan,
    build_wiretap_plan,
    select_precoder,
    simulate_broadcast,
    simulate_dpc,
    simulate_leakage,
    simulate_sic,
)
