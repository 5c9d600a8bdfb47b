"""Histories over finite time-sliced quantum systems.

Chain kets, consistency checks, extended Born-rule probabilities, two-state
weak values, and qubit-probe weak measurements, with a nested two-loop
interferometer as the built-in reference model.
"""

from .statespace import (
    DEFAULT_TOL,
    Ket,
    PDI,
    PDIReport,
    Projector,
    TimeSlice,
    basis_ket,
    identity_projector,
    inner,
    pdi_validate,
    projector_from_ket,
    projector_from_labels,
    slice_pdi,
)
from .dynamics import Dynamics, StepReport, StepUnitary, step_validate, transport
from .histories import (
    ConsistencyReport,
    Defined,
    Family,
    History,
    Incommensurate,
    InconsistentFamilyError,
    InexpressibleEventError,
    InferenceVerdict,
    VanishingProbabilityError,
    born_probabilities,
    chain_ket,
    conditional_probability,
    consistency_check,
    infer,
    refine,
)
from .mzi import (
    BeamSplitterParams,
    NamedFamilyId,
    build_nested_mzi,
    build_no_bs34,
    named_family,
    source_ket,
)
from .weak import (
    ChannelPresence,
    PresenceVerdict,
    TwoStateVector,
    backward_state,
    chain_weak_identity_residual,
    presence_table,
    two_state_vector,
    weak_value,
)
from .probes import (
    BUILTIN_ORDER,
    BUILTIN_PROBES,
    BranchComponent,
    JointState,
    OutcomeDistribution,
    ProbeSpec,
    ProbeStrength,
    branch_components,
    coincidence_support,
    evolve_with_probes,
    outcome_distribution,
    sample,
    standard_probes,
)

__version__ = "0.1.0"
