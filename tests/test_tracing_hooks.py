"""The benchmark's tracer patches qcap by name; every name it needs must still exist."""
import types
from pathlib import Path

import numpy as np
import pytest

import qcap.cli
from qcap.channels import KrausChannel
from qcap.states import DensityMatrix, PureState

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"
HOOKED = [
    (qcap.cli, "main"),
    (DensityMatrix, "__post_init__"),
    (PureState, "__post_init__"),
    (KrausChannel, "__post_init__"),
    (DensityMatrix, "entropy"),
    (DensityMatrix, "reduced"),
    (np.linalg, "eigh"),
]


def _tracing_module() -> types.ModuleType:
    """benchmarks/tracing.py run as a fresh module, read only: no bytecode is written beside it."""
    module = types.ModuleType("tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), vars(module))
    return module


@pytest.mark.parametrize("owner, attr", HOOKED, ids=[f"{o.__name__}.{a}" for o, a in HOOKED])
def test_tracer_installs_and_restores_its_binding(owner, attr):
    original = getattr(owner, attr)
    tracer = _tracing_module().Tracer()
    try:
        tracer.install()
        assert getattr(owner, attr) is not original
    finally:
        tracer.close()
    assert getattr(owner, attr) is original
