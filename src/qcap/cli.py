"""Command-line front end emitting deterministic 9-decimal CSV.

Each subcommand imports the qcap layer it runs when it is called, so a
command loads only its own modules.  Every input rule is :mod:`qcap.linalg`'s.
The CLI applies those rules only to what no library call sees: ``--steps``,
the grid endpoints, and ``--n`` against ``MAX_BLOCK_SIZE``.  Every other
refusal is the library's own message, printed as ``qcap: error: ...``.
Exit codes: 0 on success, 1 on validation or usage errors, 2 when an
invariant check reports violations.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .linalg import _require_int, _require_probability

MAX_BLOCK_SIZE = 10  # the largest --n whose 2^n x 2^n input fits in memory

# each selector and the name of its suite in qcap.continuity
LEMMA_CHECKS = {
    "fannes": "check_fannes",
    "lemma1": "check_pure_overlap_continuity",
    "lemma2": "check_mixed_overlap_continuity",
    "mixing": "check_mixing_bounds",
}


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with status 1, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _fmt(value: float) -> str:
    return f"{round(float(value), 9) + 0.0:.9f}"  # + 0.0 prints -0.0 as 0.0


def _emit(lines: list[str], out: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if out is not None:
        Path(out).write_text(text)
    sys.stdout.write(text)


def _grid(p_start: float, p_end: float, steps: int) -> list[float]:
    _require_int(steps, "--steps", 1)
    _require_probability(p_start, "--p-start")
    _require_probability(p_end, "--p-end")
    if p_end < p_start:
        raise ValueError(f"grid end {p_end!r} precedes start {p_start!r}")
    return np.linspace(p_start, p_end, steps).tolist()


def _cmd_capacity_curve(args) -> int:
    from .erasure import capacity_curve

    _require_int(args.n, "--n", 1, MAX_BLOCK_SIZE)
    points = capacity_curve(_grid(args.p_start, args.p_end, args.steps), args.n)
    lines = ["p,N,ic_per_use,capacity_bound"]
    lines += [
        f"{_fmt(pt.p)},{pt.block_size},{_fmt(pt.ic_per_use)},{_fmt(pt.capacity_bound)}"
        for pt in points
    ]
    _emit(lines, args.out)
    return 0


def _resolve_state(args, dim: int):
    from .states import maximally_mixed, random_density, read_density_file

    if args.state_file is not None:
        return read_density_file(args.state_file)
    if args.state == "random":
        return random_density(dim, rank=dim, seed=args.seed)
    return maximally_mixed(dim)


def _cmd_coherent_info(args) -> int:
    from .erasure import (
        coherent_info_from_decomposition,
        erasure_decomposition,
        output_entropy_from_decomposition,
    )

    _require_int(args.n, "--n", 1, MAX_BLOCK_SIZE)
    rho = _resolve_state(args, 2**args.n)
    decomp = erasure_decomposition(rho, args.p, args.n)
    s_out = output_entropy_from_decomposition(decomp)
    ic = coherent_info_from_decomposition(decomp)
    lines = [
        "p,N,S_out,S_env,Ic",
        f"{_fmt(args.p)},{args.n},{_fmt(s_out)},{_fmt(s_out - ic)},{_fmt(ic)}",
    ]
    _emit(lines, args.out)
    return 0


def _cmd_maximize(args) -> int:
    from .channels import erasure_channel
    from .erasure import maximize_coherent_info

    _require_int(args.n, "--n", 1, MAX_BLOCK_SIZE)
    _, best = maximize_coherent_info(
        erasure_channel(args.p), args.n, restarts=args.restarts, seed=args.seed
    )
    lines = [
        "p,N,best_ic_per_use,restarts,seed",
        f"{_fmt(args.p)},{args.n},{_fmt(best)},{args.restarts},{args.seed}",
    ]
    _emit(lines, args.out)
    return 0


def _cmd_theorem_demo(args) -> int:
    from .elimination import eliminate_encoders, random_demo_schemes

    lines = ["instance,eps_in,eps_out,entropy_gap,entropy_bound,marginal_gap,flagged"]
    violations = 0
    # schemes are drawn and eliminated one window at a time, never all held at once
    instances = eliminate_encoders(random_demo_schemes(args.trials, args.seed))
    for index, inst in enumerate(instances):
        violations += (not inst.fidelity_ok) + (not inst.entropy_ok) + inst.flagged
        lines.append(
            f"{index},{_fmt(inst.eps_in)},{_fmt(inst.eps_out)},"
            f"{_fmt(inst.entropy_gap)},{_fmt(inst.entropy_bound)},"
            f"{_fmt(inst.marginal_gap)},{str(inst.flagged).lower()}"
        )
    _emit(lines, args.out)
    return 2 if violations else 0


def _cmd_lemma_check(args) -> int:
    from . import continuity

    report = getattr(continuity, LEMMA_CHECKS[args.lemma])(trials=args.trials, seed=args.seed)
    lines = [
        "lemma,trials,violations,max_slack",
        f"{args.lemma},{report.trials},{report.violations},{_fmt(report.max_slack)}",
    ]
    _emit(lines, args.out)
    return 2 if report.violations else 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="qcap", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    curve = sub.add_parser("capacity-curve", help="erasure capacity curve CSV")
    curve.add_argument("--p-start", type=float, default=0.0)
    curve.add_argument("--p-end", type=float, default=1.0)
    curve.add_argument("--steps", type=int, default=21)
    curve.add_argument("--n", type=int, default=1)
    curve.add_argument("--out", default=None)
    curve.set_defaults(run=_cmd_capacity_curve)

    info = sub.add_parser("coherent-info", help="coherent information of one input")
    info.add_argument("--p", type=float, required=True)
    info.add_argument("--n", type=int, default=1)
    # argparse lets a value equal to its default through the group, so --state has none
    source = info.add_mutually_exclusive_group()
    source.add_argument("--state", choices=["maximally-mixed", "random"], default=None)
    source.add_argument("--state-file", default=None)
    info.add_argument("--seed", type=int, default=0)
    info.add_argument("--out", default=None)
    info.set_defaults(run=_cmd_coherent_info)

    best = sub.add_parser("maximize-ci", help="search for the best input state")
    best.add_argument("--p", type=float, required=True)
    best.add_argument("--n", type=int, default=1)
    best.add_argument("--restarts", type=int, default=20)
    best.add_argument("--seed", type=int, default=0)
    best.add_argument("--out", default=None)
    best.set_defaults(run=_cmd_maximize)

    demo = sub.add_parser("theorem-demo", help="encoder elimination batch report")
    demo.add_argument("--trials", type=int, default=100)
    demo.add_argument("--seed", type=int, default=0)
    demo.add_argument("--out", default=None)
    demo.set_defaults(run=_cmd_theorem_demo)

    lemma = sub.add_parser("lemma-check", help="randomized entropy-bound suites")
    lemma.add_argument("lemma", choices=sorted(LEMMA_CHECKS))
    lemma.add_argument("--trials", type=int, default=10000)
    lemma.add_argument("--seed", type=int, default=0)
    lemma.add_argument("--out", default=None)
    lemma.set_defaults(run=_cmd_lemma_check)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (ValueError, OSError) as exc:
        print(f"qcap: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
