"""Coherent information, entanglement fidelity, and erasure-channel capacity numerics."""
from types import ModuleType as _ModuleType

from .channels import (
    CodingScheme,
    KrausChannel,
    apply_channel,
    apply_to_subsystem,
    compose,
    environment_state,
    erasure_channel,
    identity_channel,
    measure_environment_branches,
    tensor_power,
    unitary_channel,
)
from .continuity import (
    TrialReport,
    check_fannes,
    check_mixed_overlap_continuity,
    check_mixing_bounds,
    check_pure_overlap_continuity,
)
from .elimination import (
    EliminationInstance,
    eliminate_encoder,
    eliminate_encoders,
    random_demo_schemes,
)
from .erasure import (
    CapacityPoint,
    ErasureDecomposition,
    IplusBoundReport,
    binomial_mean,
    capacity_curve,
    coherent_info_from_decomposition,
    erasure_coherent_info_block,
    erasure_decomposition,
    half_sum_fraction,
    iplus_iminus_split,
    maximize_coherent_info,
    output_entropy_from_decomposition,
    subset_entropies,
    verify_iplus_bound,
)
from .functionals import (
    KRAUS_METHOD,
    PURIFICATION_METHOD,
    CoherentInfoReport,
    FidelityReport,
    coherent_information,
    end_to_end_fidelity,
    entanglement_fidelity,
    entropy_exchange,
)
from .linalg import (
    binary_entropy,
    partial_trace,
    trace_norm,
    von_neumann_entropy,
)
from .states import (
    DensityMatrix,
    PureState,
    high_entropy_counterexample,
    max_overlap_purification,
    maximally_mixed,
    purify,
    random_density,
    random_pure_state,
    random_unitary,
    read_density_file,
    write_density_file,
)

__version__ = "0.1.0"

# every name imported above is public; the submodules themselves are not listed
__all__ = [
    name
    for name, value in list(globals().items())
    if not name.startswith("_") and not isinstance(value, _ModuleType)
] + ["__version__"]
