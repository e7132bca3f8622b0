"""Exact-rational combinatorics of bi-free independence.

Set-partition and bi-non-crossing lattices, bi-free and conditional
cumulants, bi-free product moments, centred-interval testing and
reconstruction, and the liberation tensor calculus.
"""

from .bnc import (
    BncPartition,
    bnc_join,
    bnc_meet,
    bnc_mobius,
    chi_interval,
    chi_precedes,
    classify_blocks,
    enumerate_bnc,
    enumerate_bnc_leq_eps,
    is_bi_non_crossing,
    maximal_mono_intervals,
    s_chi_permutation,
)
from .cumulants import (
    bifree_product_moment,
    conditional_kappa,
    conditional_product_theta,
    cumulant_test,
    kappa,
    kappa_via_mobius,
    moments_from_cumulants,
    phi_pi,
)
from .distributions import (
    BifreeProduct,
    CallablePure,
    CumulantTablePure,
    JointDistribution,
    MomentTablePure,
    PerturbedJoint,
    PureDistribution,
    TableJoint,
    builtin_haar_pair,
    builtin_semicircular_pair,
    evaluate,
    evaluate_theta,
)
from .errors import (
    BiFreeError,
    DegenerateCentringError,
    DomainError,
    InsufficientDataError,
    ModeError,
    OrderError,
    PositionError,
    SizeError,
    SpecError,
    UnknownPairError,
    UnknownSymbolError,
)
from .liberation import (
    ExpPoly,
    ReplacementContext,
    TensorSum,
    eval_tensor,
    free_delta,
    liberation_test,
    replacement_expand,
    taur,
    taur_test,
    ubm_eval,
    ubm_moment,
    ubm_power_expansion,
)
from .partitions import (
    SetPartition,
    enumerate_set_partitions,
    format_partition,
    join,
    lattice_mobius,
    meet,
    parse_partition,
    refines,
)
from .specfile import Family, load_family, parse_rational
from .vaccine import (
    VaccineVerdict,
    centred_shifts,
    vaccine_reconstruct_moment,
    vaccine_test,
)
from .words import (
    Letter,
    LinearSum,
    ScalarWordSum,
    canonical_word,
    chi_of,
    eps_of,
    shifted_product_expansion,
    subword,
    word_text,
    words_up_to,
)

__version__ = "0.1.0"
