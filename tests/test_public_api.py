import ast
import pathlib

import qcap

# one line per public name: an API removal or addition shows as an edit here
PUBLIC_NAMES = [
    "CapacityPoint",
    "CodingScheme",
    "CoherentInfoReport",
    "DensityMatrix",
    "EliminationInstance",
    "ErasureDecomposition",
    "FidelityReport",
    "IplusBoundReport",
    "KRAUS_METHOD",
    "KrausChannel",
    "PURIFICATION_METHOD",
    "PureState",
    "TrialReport",
    "__version__",
    "apply_channel",
    "apply_to_subsystem",
    "binary_entropy",
    "binomial_mean",
    "capacity_curve",
    "check_fannes",
    "check_mixed_overlap_continuity",
    "check_mixing_bounds",
    "check_pure_overlap_continuity",
    "coherent_info_from_decomposition",
    "coherent_information",
    "compose",
    "eliminate_encoder",
    "eliminate_encoders",
    "end_to_end_fidelity",
    "entanglement_fidelity",
    "entropy_exchange",
    "environment_state",
    "erasure_channel",
    "erasure_coherent_info_block",
    "erasure_decomposition",
    "half_sum_fraction",
    "high_entropy_counterexample",
    "identity_channel",
    "iplus_iminus_split",
    "maximally_mixed",
    "maximize_coherent_info",
    "output_entropy_from_decomposition",
    "partial_trace",
    "purify",
    "random_demo_schemes",
    "random_density",
    "random_pure_state",
    "random_unitary",
    "read_density_file",
    "subset_entropies",
    "tensor_power",
    "trace_norm",
    "unitary_channel",
    "verify_iplus_bound",
    "von_neumann_entropy",
    "write_density_file",
]


def test_public_names_are_pinned():
    assert sorted(qcap.__all__) == PUBLIC_NAMES


def _module_private_definitions(tree):
    """Names that a module binds at its top level by ``_x = ...``, ``def _x`` or ``class _X``."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id


def test_every_module_level_private_name_is_used():
    # a use is a read of the name, bare or as an attribute, anywhere in the package;
    # an import of it alone is not a use
    source = pathlib.Path(qcap.__file__).parent
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(source.glob("*.py"))}
    used = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }
    unused = [
        f"{module}: {name}"
        for module, tree in trees.items()
        for name in _module_private_definitions(tree)
        if name.startswith("_") and not name.startswith("__") and name not in used
    ]
    assert unused == []
