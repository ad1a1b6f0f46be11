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
from qcap.states import DensityMatrix, maximally_mixed, random_density, write_density_file


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


def test_capacity_curve_grid_ends_exactly_at_its_last_point(capsys):
    # 0.08 + 3 * (0.92 / 3) rounds to 1.0000000000000002, which is not a probability
    code, out, err = run_cli(
        capsys, ["capacity-curve", "--p-start", "0.08", "--p-end", "1.0", "--steps", "4"]
    )
    assert (code, err) == (0, "")
    assert out.strip().split("\n")[-1] == "1.000000000,1,-1.000000000,0.000000000"


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
            assert err == f"qcap: error: --n {n} is outside 1..10\n"


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


@pytest.mark.parametrize(
    "header, message",
    [
        ("dims a b", "unreadable dims line 'dims a b'"),
        ("dims 2.5", "unreadable dims line 'dims 2.5'"),
        ("dims", "dims line lists no factor dimensions"),
        ("dims -2", "factor dimension must be at least 1, got -2"),
        ("dims 2 -1", "factor dimension must be at least 1, got -1"),
    ],
    ids=["letters", "float", "bare", "negative", "negative-second"],
)
def test_coherent_info_state_file_with_a_bad_dims_line_exits_1(capsys, tmp_path, header, message):
    path = tmp_path / "state.txt"
    path.write_text(f"{header}\n0.5 0 0 0\n0 0 0.5 0\n")
    code, out, err = run_cli(
        capsys, ["coherent-info", "--p", "0.25", "--n", "1", "--state-file", str(path)]
    )
    assert (code, out) == (1, "")
    assert err == f"qcap: error: {message}\n"


def test_coherent_info_missing_state_file(capsys, tmp_path):
    code, _, err = run_cli(
        capsys,
        ["coherent-info", "--p", "0.25", "--state-file", str(tmp_path / "nope.txt")],
    )
    assert code == 1
    assert "qcap: error:" in err


@pytest.mark.parametrize("state", ["random", "maximally-mixed"])
def test_coherent_info_refuses_both_state_and_state_file(capsys, tmp_path, state):
    path = tmp_path / "flat.txt"
    write_density_file(str(path), maximally_mixed(2))
    with pytest.raises(SystemExit) as info:
        main(["coherent-info", "--p", "0.25", "--state", state, "--state-file", str(path)])
    captured = capsys.readouterr()
    assert info.value.code == 1
    assert captured.out == ""
    assert "error: argument --state-file: not allowed with argument --state\n" in captured.err


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
        assert err == f"qcap: error: block size {n} is outside 1..6\n"


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
    real = qcap.elimination.eliminate_encoders

    def tripled(pairs):
        return (dataclasses.replace(inst, eps_out=3 * inst.eps_out) for inst in real(pairs))

    # the command looks the function up in its layer when it runs
    monkeypatch.setattr(qcap.elimination, "eliminate_encoders", tripled)
    code, _, _ = run_cli(capsys, ["theorem-demo", "--trials", "30"])
    assert code == 2


def test_theorem_demo_exits_2_on_an_entropy_gap_above_its_bound(capsys, monkeypatch):
    real = qcap.elimination.eliminate_encoders

    def widened(pairs):
        for index, inst in enumerate(real(pairs)):
            if index == 4:
                inst = dataclasses.replace(inst, entropy_gap=inst.entropy_bound + 1.0)
                assert inst.fidelity_ok and not inst.flagged and not inst.entropy_ok
            yield inst

    monkeypatch.setattr(qcap.elimination, "eliminate_encoders", widened)
    code, out, _ = run_cli(capsys, ["theorem-demo", "--trials", "6"])
    assert code == 2
    rows = [row.split(",") for row in out.strip().split("\n")[1:]]
    assert len(rows) == 6
    assert [float(row[3]) > float(row[4]) for row in rows] == [False] * 4 + [True, False]


def test_theorem_demo_exits_2_on_a_flagged_instance(capsys, monkeypatch):
    monkeypatch.setattr(qcap.elimination, "MARGINAL_GAP_TOL", -1.0)
    code, out, _ = run_cli(capsys, ["theorem-demo", "--trials", "6"])
    assert code == 2
    rows = out.strip().split("\n")[1:]
    assert len(rows) == 6
    assert all(row.endswith(",true") for row in rows)


@pytest.mark.parametrize(
    "argv",
    [
        ["lemma-check", "lemma1"],
        ["theorem-demo"],
        ["maximize-ci", "--p", "0.25"],
        ["coherent-info", "--p", "0.25", "--state", "random"],
    ],
    ids=["lemma-check", "theorem-demo", "maximize-ci", "coherent-info-random"],
)
def test_negative_seed_is_refused_by_name(capsys, argv):
    code, out, err = run_cli(capsys, [*argv, "--seed", "-1"])
    assert (code, out) == (1, "")
    assert err == "qcap: error: seed must be a non-negative integer, got -1\n"


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


# stdout of the verifier-small benchmark's commands (benchmarks/workloads.py) at seed 0,
# `qcap lemma-check <suite> --trials 10000 --seed 0`
BENCHMARK_LEMMA_ROWS = (
    "fannes,10000,0,-0.000345037",
    "lemma1,10000,0,-1.002451963",
    "lemma2,10000,0,-2.009007333",
    "mixing,10000,0,-0.000409503",
)


@pytest.mark.parametrize("row", BENCHMARK_LEMMA_ROWS, ids=lambda row: row.split(",")[0])
def test_lemma_check_benchmark_commands_pinned_bytes(capsys, row):
    lemma = row.split(",")[0]
    code, out, err = run_cli(capsys, ["lemma-check", lemma, "--trials", "10000", "--seed", "0"])
    assert (code, err) == (0, "")
    assert out == f"lemma,trials,violations,max_slack\n{row}\n"


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
# CSV of existing seeds must not change by a byte.  All three were re-pinned when
# eps_in became a sum of squares over the decoded branch table: entropy_bound
# prints 2.000000000 on 184, 188 and 201 exactly decodable rows, and eps_out
# moved by 1e-9 in row 748 (seed 0) and row 430 (seed 2)
THEOREM_DEMO_SHA256 = {
    0: "c3a4e2286716493d4d66cbf70573b359b2bd0b16dcf73e66628c7d49d13516a0",
    1: "bdf04c66ef59fa29ffc824b6941e4d282039f353d382586c0267dc9063034e41",
    2: "9ccb85859a01fad60d182b88393c8c5c199bdaacb1145e472de86eaff48dec90",
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
    assert err == "qcap: error: --steps must be at least 1, got 0\n"

    code, _, err = run_cli(
        capsys, ["capacity-curve", "--p-start", "0.8", "--p-end", "0.2"]
    )
    assert code == 1
    assert "precedes" in err

    code, _, err = run_cli(capsys, ["capacity-curve", "--p-end", "1.4"])
    assert code == 1
    assert err == "qcap: error: --p-end 1.4 outside [0, 1]\n"


def _wrong_dimension_state(tmp_path):
    path = tmp_path / "two-qubit.txt"
    write_density_file(str(path), maximally_mixed(4, (2, 2)))
    return ["coherent-info", "--p", "0.25", "--state-file", str(path)]


# each refused input and its one error line: the CLI checks --n, --steps and the
# grid ends with qcap.linalg's rules, and every other refusal is the library's
ERASURE_COMMANDS = (
    ["capacity-curve"], ["coherent-info", "--p", "0.25"], ["maximize-ci", "--p", "0.25"]
)
REFUSALS = {
    **{
        f"{command[0]}--n{n}": (command + ["--n", n], f"--n {n} is outside 1..10")
        for command in ERASURE_COMMANDS
        for n in ("0", "11")
    },
    "maximize-ci--n7": (["maximize-ci", "--p", "0.25", "--n", "7"], "block size 7 is outside 1..6"),
    "steps0": (["capacity-curve", "--steps", "0"], "--steps must be at least 1, got 0"),
    "p-start-1": (["capacity-curve", "--p-start", "-1"], "--p-start -1.0 outside [0, 1]"),
    "p-end1.4": (["capacity-curve", "--p-end", "1.4"], "--p-end 1.4 outside [0, 1]"),
    "lemma-check--trials0": (
        ["lemma-check", "fannes", "--trials", "0"], "trials must be at least 1, got 0"
    ),
    "theorem-demo--trials0": (["theorem-demo", "--trials", "0"], "trials must be at least 1, got 0"),
    "restarts0": (
        ["maximize-ci", "--p", "0.25", "--restarts", "0"], "restarts must be at least 1, got 0"
    ),
    "state-file-dimension": (
        _wrong_dimension_state, "state dimension 4 does not match 1 qubits (expected 2)"
    ),
}


@pytest.mark.parametrize("argv, message", REFUSALS.values(), ids=REFUSALS)
def test_each_refusal_exits_1_with_one_error_line(capsys, tmp_path, argv, message):
    if callable(argv):
        argv = argv(tmp_path)
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (1, "")
    assert err == f"qcap: error: {message}\n"


# sha256 of stdout and the exit code for succeeding commands of every subcommand,
# taken before the input rules moved into qcap.linalg: a refusal rule must not move
# a byte of any run it lets through.  "STATE" stands for a state file holding
# random_density(4, 4, seed=3).
SUCCESS_SHA256 = [
    (["capacity-curve"], "adad001368293a2f948c43b3df5aad6068ff923123a683a603015ffbe55a849b"),
    (
        ["capacity-curve", "--p-start", "0.1", "--p-end", "0.9", "--steps", "9", "--n", "3"],
        "b6e66100edd143cab0e904b1c278f8998c613ecf14df302428e3e22430311b5f",
    ),
    (
        ["capacity-curve", "--p-start", "0.08", "--p-end", "1.0", "--steps", "4"],
        "9e06e7cf6ea85f25c39b52bd8a9010625169796aa52ee23ad4960e0891d26894",
    ),
    (
        ["capacity-curve", "--p-start", "0.5", "--p-end", "0.5", "--steps", "1", "--n", "10"],
        "6bf90ab211561732cdabc7858af763c17b5dba374474b984529644c5cfeb2085",
    ),
    (
        ["coherent-info", "--p", "0.25"],
        "3d823a3fcc03110dbc83a5a8eab65470cfb6325885ab18e0e9c1a95335d21f6b",
    ),
    (
        ["coherent-info", "--p", "0.0", "--n", "2"],
        "c433c6dbda69829a6a2e8aee6f2f68175a0e54e122c9341c3ee37b08d0307265",
    ),
    (
        ["coherent-info", "--p", "1.0", "--n", "3"],
        "2f523b07b95ec25694f95ce6623b6ef2028d46bda92de8be428d219c595d1c54",
    ),
    (
        ["coherent-info", "--p", "0.3", "--n", "4", "--state", "random", "--seed", "5"],
        "86e74b4e227e4e221e35851760aa833afe51971f95d1f4602310e03e5d8531e3",
    ),
    (
        ["coherent-info", "--p", "0.9", "--n", "2", "--state", "maximally-mixed"],
        "877f83e8e18a0c73f068f6b0523eefd6ea1c3ed465ab262469433f47701f3456",
    ),
    (
        ["coherent-info", "--p", "0.2", "--n", "2", "--state-file", "STATE"],
        "8650494222161abd7617a47708abb6923a7245b75fc39ff68fb8ac28bd49b03d",
    ),
    (
        ["maximize-ci", "--p", "0.25", "--restarts", "3"],
        "2b467daec3f9a2a6e9fa3271d12328b1d92566dc4a8848961710ce245e842007",
    ),
    (
        ["maximize-ci", "--p", "0.1", "--n", "2", "--restarts", "2", "--seed", "4"],
        "31e74da80d11b6c62b3d640b1f8c5169e3abad31dcccc95605ab045f72b05c42",
    ),
    (
        ["maximize-ci", "--p", "0.6", "--n", "2", "--restarts", "1", "--seed", "1"],
        "6239a674b09098826e396854ed475d8e825423035b912013077a79c50e16c8a5",
    ),
    (
        # 600 restarts ascend in three windows of the search's window engine
        ["maximize-ci", "--p", "0.25", "--n", "2", "--restarts", "600", "--seed", "0"],
        "17a739dece0c7ad7602d9b6668115b8be45bdd2d01869de830d520671d354051",
    ),
    (
        ["theorem-demo", "--trials", "5"],
        "dc462aed763dfd04c368fe9e81099b07f95cb150c1eb9404ffae29dcbcba1788",
    ),
    (
        # re-pinned with the sum-of-squares eps_in: rows 3, 6 and 9 print entropy_bound
        # 2.000000000, not 2.000000060
        ["theorem-demo", "--trials", "12", "--seed", "7"],
        "5b7427d582c5b85e5902a9a2c12aefdfda0d291113b6283b451137a541da89d5",
    ),
    (
        ["lemma-check", "fannes", "--trials", "50", "--seed", "1"],
        "76945171ba140eb303b0a8adedd268f4390b9295208863daed9593a1ed65076e",
    ),
    (
        ["lemma-check", "lemma1", "--trials", "50", "--seed", "2"],
        "25d8aed13fc2cfb38ae9fba0eb6cbf3f0f10fd766cf18094189e681715c9623c",
    ),
    (
        ["lemma-check", "lemma2", "--trials", "20", "--seed", "3"],
        "52963a125b1d2471656200016d6f6974a270a57706b6565ba14463cff6a36726",
    ),
    (
        ["lemma-check", "mixing", "--trials", "50", "--seed", "4"],
        "02f086c787774f16f054dab40dbef452c659ae12b98e3a4ef008319b9c8edc14",
    ),
    (
        ["lemma-check", "mixing", "--trials", "1"],
        "caea3ff409b21e9fcdd713d05a92296c5595b3c6245f235dbf506dbfaf00834f",
    ),
]


@pytest.mark.parametrize(
    "argv, digest", SUCCESS_SHA256, ids=[" ".join(argv) for argv, _ in SUCCESS_SHA256]
)
def test_succeeding_commands_keep_their_bytes(capsys, tmp_path, argv, digest):
    state = tmp_path / "state.txt"
    write_density_file(str(state), random_density(4, 4, seed=3))
    code, out, err = run_cli(capsys, [str(state) if a == "STATE" else a for a in argv])
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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
    # every layer is loaded, since each subcommand imports its own only when it runs
    probe = (
        "import sys, qcap.cli; from qcap import *; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(src).parent / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text())["project"]
    assert project["dependencies"] == ["numpy>=1.24"]
    assert project["optional-dependencies"]["test"] == ["pytest>=7"]
