"""`import qcap` loads nothing until a name is used, and each subcommand loads only its layer."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qcap

SRC = str(Path(qcap.__file__).resolve().parents[1])
PROBE = """
import contextlib, io, json, sys
from qcap.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "qcap")]))
"""
LAYER = ["qcap", "qcap.cli", "qcap.linalg", "qcap.states"]
ERASURE = sorted([*LAYER, "qcap.channels", "qcap.erasure"])


def _fresh(*args: str) -> str:
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, check=True)
    return done.stdout


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["lemma-check", "lemma1", "--trials", "20"], sorted([*LAYER, "qcap.continuity"])),
        (["capacity-curve", "--n", "2", "--steps", "3"], ERASURE),
        (["coherent-info", "--p", "0.25", "--n", "2"], ERASURE),
        (["maximize-ci", "--p", "0.25", "--restarts", "1"], ERASURE),
        (
            ["theorem-demo", "--trials", "3"],
            sorted([*LAYER, "qcap.channels", "qcap.functionals", "qcap.elimination"]),
        ),
    ],
    ids=["lemma-check", "capacity-curve", "coherent-info", "maximize-ci", "theorem-demo"],
)
def test_each_subcommand_loads_only_its_layer(argv, loaded):
    assert json.loads(_fresh("-c", PROBE, *argv)) == [0, loaded]


def test_import_qcap_loads_no_submodule_and_not_numpy():
    probe = "import sys, qcap; print(sorted(m for m in sys.modules if m.split('.')[0] in ('qcap', 'numpy')))"
    assert _fresh("-c", probe).strip() == "['qcap']"


def test_a_load_on_first_use_shows_in_importtime():
    # importlib.import_module would load it outside the interpreter's import timer
    err = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import qcap; qcap.erasure; qcap.check_fannes"],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True, check=True,
    ).stderr
    loaded = {line.split("|")[-1].strip() for line in err.splitlines() if line.startswith("import time:")}
    assert {"qcap.erasure", "qcap.continuity"} <= loaded


@pytest.mark.parametrize("name", [n for n in qcap.__all__ if n != "__version__"])
def test_public_name_is_the_owning_modules_object(name):
    owner = vars(qcap)["_OWNER"][name]
    assert getattr(qcap, name) is getattr(getattr(qcap, owner), name)


@pytest.mark.parametrize("module", ["channels", "continuity", "elimination", "erasure",
                                    "functionals", "linalg", "states", "cli"])
def test_submodule_attribute_is_the_module(module):
    assert getattr(qcap, module) is sys.modules[f"qcap.{module}"]


def test_star_import_and_dir_cover_every_public_name():
    namespace = {}
    exec("from qcap import *", namespace)
    assert set(qcap.__all__) <= set(namespace)
    assert set(qcap.__all__) | {"erasure", "elimination"} <= set(dir(qcap))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        qcap.no_such_name
    assert not hasattr(qcap, "_no_such_private")
