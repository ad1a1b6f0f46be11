"""Coherent information, entanglement fidelity, and erasure-channel capacity numerics.

``import qcap`` loads no submodule, and so not numpy either.  Each public name,
and each submodule such as ``qcap.erasure``, is imported on first use (PEP 562)
and then kept in this namespace.
"""
import sys as _sys

__version__ = "0.1.0"

# each submodule and the public names it owns, in the order of __all__
_EXPORTS = {
    "channels": (
        "CodingScheme", "KrausChannel", "apply_channel", "apply_to_subsystem", "compose",
        "environment_state", "erasure_channel", "identity_channel", "tensor_power",
        "unitary_channel",
    ),
    "cli": (),
    "continuity": (
        "TrialReport", "check_fannes", "check_mixed_overlap_continuity", "check_mixing_bounds",
        "check_pure_overlap_continuity",
    ),
    "elimination": (
        "EliminationInstance", "eliminate_encoder", "eliminate_encoders", "random_demo_schemes",
    ),
    "erasure": (
        "CapacityPoint", "ErasureDecomposition", "IplusBoundReport", "binomial_mean",
        "capacity_curve", "coherent_info_from_decomposition", "erasure_coherent_info_block",
        "erasure_decomposition", "half_sum_fraction", "iplus_iminus_split",
        "maximize_coherent_info", "output_entropy_from_decomposition", "subset_entropies",
        "verify_iplus_bound",
    ),
    "functionals": (
        "KRAUS_METHOD", "PURIFICATION_METHOD", "CoherentInfoReport", "FidelityReport",
        "coherent_information", "end_to_end_fidelity", "entanglement_fidelity", "entropy_exchange",
    ),
    "linalg": ("binary_entropy", "partial_trace", "trace_norm", "von_neumann_entropy"),
    "states": (
        "DensityMatrix", "PureState", "high_entropy_counterexample", "maximally_mixed", "purify",
        "random_density", "random_pure_state", "random_unitary", "read_density_file",
        "write_density_file",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

# every name owned above is public; the submodules themselves are not listed
__all__ = [*_OWNER, "__version__"]


def _load(module: str):
    # __import__ rather than importlib.import_module, so that `python -X importtime` reports it
    __import__(f"{__name__}.{module}")
    return _sys.modules[f"{__name__}.{module}"]


def __getattr__(name: str):
    if name in _EXPORTS:
        return _load(name)  # the import has bound it in this namespace as well
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_load(_OWNER[name]), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
