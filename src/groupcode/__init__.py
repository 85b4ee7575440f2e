"""Group extensions, homomorphic trellis encoders, and code controllability."""

from .errors import (
    GroupCodeError,
    InvalidFactor,
    InvalidHom,
    NotAbelian,
    NotApplicable,
    NotASubgroup,
    NotPrime,
    NuNotSurjective,
    OmegaNotHom,
    PredicateViolation,
    PsiNotInjective,
    TooLarge,
    WrongGroup,
)
from .groups import (
    Element,
    FiniteAbelianGroup,
    GroupHom,
    Subgroup,
    abelian_groups_of_order,
    all_subgroups,
    automorphisms,
    direct_sum,
    enumerate_homs,
    format_element,
    hom_image,
    hom_kernel,
    identity_hom,
    invariant_factors,
    is_isomorphic,
    is_surjective,
    make_group,
    prime_order_subgroups,
    quotient,
    recognize,
    recognize_with_iso,
    subgroup_generated,
    subgroup_index,
    trivial_subgroup,
)
from .extension import (
    ExtensionDecomposition,
    ExtensionKind,
    classify_prime_by_cyclic,
    decompose,
    direct_sum_decomposition,
    extension_product,
    verify_decomposition,
)
from .encoder import (
    Encoder,
    Window,
    connected,
    encode_forward,
    encoder_from_extension,
    encoder_from_spec,
    encoder_to_spec,
    extend_past,
    make_encoder,
    state_preimages,
    validate_encoder,
    zero_tail,
)
from .trellis import (
    Branch,
    branches,
    codeword_witness,
    concatenate,
    export_dot,
    is_codeword,
)
from .control import (
    ControlVerdict,
    ReachabilityChain,
    StructureReport,
    analysis_json,
    decide_controllability,
    exact_reach,
    forward_chain,
    past_kernel,
    structure_report,
)
from .sweep import (
    ExtensionInstance,
    SweepReport,
    enumerate_encoders,
    enumerate_extensions,
    sweep_theorems,
)

__version__ = "0.1.0"
