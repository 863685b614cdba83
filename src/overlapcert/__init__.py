"""Schmidt-number certification for pairs of states from state overlaps.

The library certifies lower bounds on the Schmidt number of two unknown
states at once from the ratio of their global to local overlaps,
implements the detection criteria this is compared against (reduction,
purity, fidelity witnesses, partial-transpose moments), simulates the
randomized-measurement protocol that makes the ratio measurable, and
extends the test to multipartite systems.
"""

from .criteria import (
    DEFAULT_TOL,
    CriterionVerdict,
    OverlapRatio,
    PartnerSup,
    corner_delta,
    corner_fbc_psi_boundary,
    corner_isotropic_closed_forms,
    extract_ipc_witness,
    fbc_spectrum_bound,
    fbc_witness_value,
    ipc_bound,
    overlap_ratio,
    overlap_ratio_table,
    p3_ppt_check,
    partner_sup,
    pt_moments,
    purity_check,
    reduction_check,
    sn_bound_from_ratio,
)
from .multipartite import (
    LambdaMapVerdict,
    MultiVerdict,
    apply_lambda_map,
    bipartitions,
    lambda_map_verdict,
    multipartite_ipc,
)
from .qmat import (
    PureVec,
    QState,
    SchmidtDecomp,
    embed_operator,
    hs_inner,
    partial_trace_matrix,
    partial_transpose_matrix,
    permute_subsystems_matrix,
    schmidt_decompose,
    tensor,
)
from .randomized import (
    MeasurementRecord,
    OverlapEstimate,
    ProtocolConfig,
    Records,
    estimate_overlaps,
    estimate_self_overlaps,
    read_records,
    run_protocol,
    sample_local_unitary,
    write_records,
)
from .states import (
    StateSpec,
    build_density,
    corner_isotropic,
    ghz_noisy,
    ghz_pure,
    isotropic,
    max_entangled,
    random_mixed,
    random_pure,
    sn3_probe_state,
    sn3_unfaithful_state,
    tilted_entangled,
    verifier_state,
)
from .variational import (
    OptConfig,
    OptResult,
    fully_entangled_fraction,
    s_hat,
    verify_shat_fef_identity,
)

__version__ = "0.1.0"
