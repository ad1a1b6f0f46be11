import dataclasses
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qcap
from qcap.cli import main
from qcap.states import DensityMatrix, maximally_mixed, write_density_file


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_capacity_curve_golden_rows(capsys):
    code, out, err = run_cli(
        capsys,
        ["capacity-curve", "--p-start", "0.0", "--p-end", "1.0", "--steps", "11"],
    )
    assert code == 0
    assert err == ""
    lines = out.strip().split("\n")
    assert lines[0] == "p,N,ic_per_use,capacity_bound"
    assert len(lines) == 12
    assert lines[1] == "0.000000000,1,1.000000000,1.000000000"
    assert lines[4] == "0.300000000,1,0.400000000,0.400000000"
    assert lines[6] == "0.500000000,1,0.000000000,0.000000000"
    assert lines[11] == "1.000000000,1,-1.000000000,0.000000000"


def test_capacity_curve_block_size_two(capsys):
    code, out, _ = run_cli(
        capsys,
        ["capacity-curve", "--p-start", "0.3", "--p-end", "0.3", "--steps", "1", "--n", "2"],
    )
    assert code == 0
    assert out.strip().split("\n")[1] == "0.300000000,2,0.400000000,0.400000000"


def test_coherent_info_golden_row(capsys):
    code, out, _ = run_cli(capsys, ["coherent-info", "--p", "0.25"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "p,N,S_out,S_env,Ic"
    assert lines[1] == "0.250000000,1,1.561278124,1.061278124,0.500000000"


def test_coherent_info_eight_uses_matches_flat_closed_form(capsys):
    code, out, err = run_cli(capsys, ["coherent-info", "--p", "0.25", "--n", "8"])
    assert code == 0
    assert err == ""
    # flat input: S_out = 8 (1 - p) + 8 H2(p), Ic = 8 (1 - 2p)
    assert out.strip().split("\n")[1] == "0.250000000,8,12.490224996,8.490224996,4.000000000"


def test_block_size_outside_range_is_refused(capsys):
    for command in (
        ["coherent-info", "--p", "0.25"],
        ["capacity-curve"],
        ["maximize-ci", "--p", "0.25"],
    ):
        for n in ("11", "0", "-1"):
            code, out, err = run_cli(capsys, command + ["--n", n])
            assert code == 1
            assert out == ""
            assert f"--n {n} is outside the supported block sizes 1..10" in err


def test_coherent_info_random_state_deterministic(capsys):
    code, out1, _ = run_cli(
        capsys, ["coherent-info", "--p", "0.3", "--state", "random", "--seed", "5"]
    )
    assert code == 0
    code, out2, _ = run_cli(
        capsys, ["coherent-info", "--p", "0.3", "--state", "random", "--seed", "5"]
    )
    assert code == 0
    assert out1 == out2


@pytest.mark.parametrize(
    "n, seed, row",
    [
        ("8", "7", "0.300000000,8,12.556834482,9.448467880,3.108366602"),
        ("6", "5", "0.300000000,6,9.332942384,7.079879392,2.253062992"),
    ],
)
def test_coherent_info_random_state_golden_rows(capsys, n, seed, row):
    # rows of per-mask traces of the full matrix; the parent-to-child table
    # must print the same bytes
    code, out, err = run_cli(
        capsys,
        ["coherent-info", "--p", "0.3", "--n", n, "--state", "random", "--seed", seed],
    )
    assert code == 0
    assert err == ""
    assert out == f"p,N,S_out,S_env,Ic\n{row}\n"


def test_coherent_info_state_file_roundtrip(capsys, tmp_path):
    path = tmp_path / "flat.txt"
    write_density_file(str(path), maximally_mixed(2))
    code, out, _ = run_cli(
        capsys, ["coherent-info", "--p", "0.25", "--state-file", str(path)]
    )
    assert code == 0
    assert out.strip().split("\n")[1] == "0.250000000,1,1.561278124,1.061278124,0.500000000"


def test_coherent_info_state_file_dimension_mismatch(capsys, tmp_path):
    path = tmp_path / "big.txt"
    write_density_file(str(path), maximally_mixed(4, (2, 2)))
    code, out, err = run_cli(
        capsys, ["coherent-info", "--p", "0.25", "--state-file", str(path)]
    )
    assert code == 1
    assert "qcap: error:" in err
    assert "dimension" in err


def test_coherent_info_state_file_with_nan_exits_1(capsys, tmp_path):
    path = tmp_path / "nan.txt"
    path.write_text("dims 2\nnan 0 0 0\n0 0 0.5 0\n")
    code, out, err = run_cli(
        capsys, ["coherent-info", "--p", "0.25", "--n", "1", "--state-file", str(path)]
    )
    assert code == 1
    assert out == ""
    assert err == "qcap: error: density matrix has a non-finite entry at row 0, column 0\n"


def test_coherent_info_missing_state_file(capsys, tmp_path):
    code, _, err = run_cli(
        capsys,
        ["coherent-info", "--p", "0.25", "--state-file", str(tmp_path / "nope.txt")],
    )
    assert code == 1
    assert "qcap: error:" in err


def test_coherent_info_invalid_probability(capsys):
    code, _, err = run_cli(capsys, ["coherent-info", "--p", "1.5"])
    assert code == 1
    assert "outside" in err


def test_maximize_ci_row_and_determinism(capsys):
    argv = ["maximize-ci", "--p", "0.25", "--restarts", "5", "--seed", "7"]
    code, out1, _ = run_cli(capsys, argv)
    assert code == 0
    lines = out1.strip().split("\n")
    assert lines[0] == "p,N,best_ic_per_use,restarts,seed"
    assert lines[1] == "0.250000000,1,0.500000000,5,7"
    code, out2, _ = run_cli(capsys, argv)
    assert out1 == out2


@pytest.mark.parametrize(
    "p, n, best",
    [
        (p, n, best)
        for p, best in (("0.1", "0.800000000"), ("0.49", "0.020000000"), ("0.5", "0.000000000"),
                        ("0.9", "0.000000000"))
        for n in ("1", "2", "3")
    ],
)
def test_maximize_ci_pinned_rows(capsys, p, n, best):
    argv = ["maximize-ci", "--p", p, "--n", n, "--restarts", "20", "--seed", "0"]
    code, out, err = run_cli(capsys, argv)
    assert (code, err) == (0, "")
    assert out == f"p,N,best_ic_per_use,restarts,seed\n{float(p):.9f},{n},{best},20,0\n"


def test_maximize_ci_refuses_blocks_above_six_before_searching(capsys, monkeypatch):
    def no_ascent(*args):
        raise AssertionError("the ascent started")

    monkeypatch.setattr(qcap.erasure, "_coherent_info_gradient", no_ascent)
    for n in ("7", "10"):
        code, out, err = run_cli(capsys, ["maximize-ci", "--p", "0.25", "--n", n])
        assert (code, out) == (1, "")
        assert err == f"qcap: error: block size {n} is outside the searched 1..6\n"


def test_theorem_demo_reports_instances(capsys):
    code, out, _ = run_cli(capsys, ["theorem-demo", "--trials", "6", "--seed", "3"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == (
        "instance,eps_in,eps_out,entropy_gap,entropy_bound,marginal_gap,flagged"
    )
    assert len(lines) == 7
    for index, line in enumerate(lines[1:]):
        cols = line.split(",")
        assert len(cols) == 7
        assert cols[0] == str(index)
        assert cols[6] in ("true", "false")
        entropy_gap = float(cols[3])
        entropy_bound = float(cols[4])
        assert entropy_gap <= entropy_bound + 1e-9


def test_theorem_demo_exits_2_on_a_wrong_eps_out(capsys, monkeypatch):
    real = qcap.cli.eliminate_encoders

    def tripled(pairs):
        return (dataclasses.replace(inst, eps_out=3 * inst.eps_out) for inst in real(pairs))

    monkeypatch.setattr(qcap.cli, "eliminate_encoders", tripled)
    code, _, _ = run_cli(capsys, ["theorem-demo", "--trials", "30"])
    assert code == 2


def test_theorem_demo_exits_2_on_a_flagged_instance(capsys, monkeypatch):
    monkeypatch.setattr(qcap.elimination, "MARGINAL_GAP_TOL", -1.0)
    code, out, _ = run_cli(capsys, ["theorem-demo", "--trials", "6"])
    assert code == 2
    rows = out.strip().split("\n")[1:]
    assert len(rows) == 6
    assert all(row.endswith(",true") for row in rows)


def test_lemma_check_runs_each_suite(capsys):
    for lemma in ("fannes", "lemma1", "lemma2", "mixing"):
        code, out, _ = run_cli(
            capsys, ["lemma-check", lemma, "--trials", "80", "--seed", "2"]
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "lemma,trials,violations,max_slack"
        cols = lines[1].split(",")
        assert cols[0] == lemma
        assert cols[1] == "80"
        assert cols[2] == "0"
        float(cols[3])


# stdout of `qcap lemma-check <suite> --trials 2000 --seed <seed>`; the CSV
# of existing seeds must not change by a byte
LEMMA_CHECK_ROWS = {
    0: (
        "fannes,2000,0,-0.000657360",
        "lemma1,2000,0,-1.002451963",
        "lemma2,2000,0,-2.009007333",
        "mixing,2000,0,-0.001897055",
    ),
    1: (
        "fannes,2000,0,-0.000578150",
        "lemma1,2000,0,-1.006189706",
        "lemma2,2000,0,-2.006780844",
        "mixing,2000,0,-0.002489784",
    ),
}


@pytest.mark.parametrize("seed", sorted(LEMMA_CHECK_ROWS))
def test_lemma_check_pinned_bytes(capsys, seed):
    for row in LEMMA_CHECK_ROWS[seed]:
        lemma = row.split(",")[0]
        code, out, err = run_cli(
            capsys, ["lemma-check", lemma, "--trials", "2000", "--seed", str(seed)]
        )
        assert code == 0
        assert err == ""
        assert out == f"lemma,trials,violations,max_slack\n{row}\n"


# sha256 of the stdout of `qcap theorem-demo --trials 1000 --seed <seed>`; the
# CSV of existing seeds must not change by a byte
THEOREM_DEMO_SHA256 = {
    0: "45b6ac0cc4ab7c976f894becc20fbd1685959779809e537c9a78b96fbaacb408",
    1: "90c80b78cd292baff16b90765bff9f19a77c211ffaff095f2a2b3c603625b62b",
    2: "3f9cdfaa5ace0a6140f242c4a0aaf730f5a05f43bdca3e582167c9401c209358",
}


@pytest.mark.parametrize("seed", sorted(THEOREM_DEMO_SHA256))
def test_theorem_demo_pinned_bytes(capsys, seed):
    code, out, err = run_cli(capsys, ["theorem-demo", "--trials", "1000", "--seed", str(seed)])
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == THEOREM_DEMO_SHA256[seed]


def test_out_file_duplicates_stdout(capsys, tmp_path):
    path = tmp_path / "curve.csv"
    code, out, _ = run_cli(
        capsys, ["capacity-curve", "--steps", "3", "--out", str(path)]
    )
    assert code == 0
    assert path.read_text() == out


def test_out_file_unwritable_path(capsys, tmp_path):
    code, out, err = run_cli(
        capsys,
        ["capacity-curve", "--steps", "3", "--out", str(tmp_path / "no" / "dir.csv")],
    )
    assert code == 1
    assert out == ""
    assert "qcap: error:" in err


def test_grid_validation_errors(capsys):
    code, _, err = run_cli(capsys, ["capacity-curve", "--steps", "0"])
    assert code == 1
    assert "grid point" in err

    code, _, err = run_cli(
        capsys, ["capacity-curve", "--p-start", "0.8", "--p-end", "0.2"]
    )
    assert code == 1
    assert "precedes" in err

    code, _, err = run_cli(capsys, ["capacity-curve", "--p-end", "1.4"])
    assert code == 1
    assert "must lie in" in err


def test_usage_errors_exit_one(capsys):
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == 1

    with pytest.raises(SystemExit) as info:
        main(["lemma-check", "lemma9"])
    assert info.value.code == 1

    with pytest.raises(SystemExit) as info:
        main(["coherent-info"])
    assert info.value.code == 1
    capsys.readouterr()


def test_negative_coherent_info_formats_with_sign(capsys):
    code, out, _ = run_cli(capsys, ["coherent-info", "--p", "0.9"])
    assert code == 0
    row = out.strip().split("\n")[1].split(",")
    assert row[4].startswith("-0.8")


def test_numpy_is_the_only_dependency():
    src = str(Path(qcap.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import sys, qcap.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(src).parent / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text())["project"]
    assert project["dependencies"] == ["numpy>=1.24"]
