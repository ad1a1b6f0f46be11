"""Run one qcap benchmark workload and print its metrics.

Run from the repository root, for example

    python3 benchmarks/run.py --workload erasure-dense --seed 1 --seconds 30 --trace 0

With `--trace 0` every operation runs as a user runs it: each CLI command
in a fresh interpreter, import included, and each library call in this
process, one at a time, in whole rounds for about `--seconds`.  Before
each operation that enters the metrics, the fixed job of `reference.py`
runs in a fresh interpreter, and the round time is also given in units of
that job's median time, which cancels the slow swings in speed of a shared
host.  The import time of
qcap is measured first, in fresh interpreters.  With
`--trace 1` the CLI commands run in this process through `qcap.cli.main`,
each round once plainly and once under the span tracer of `tracing.py`,
and the result carries the per-layer metrics.  `--workload all` runs every
workload in turn, untraced, and reports each operation's own metric.

Outputs are checked after each timed call.  Progress lines and a `REPORT`
line holding the run record precede the last stdout line, which is one JSON
object with `correct`, `attempted`, `failed` and the metrics that
BENCHMARK.json names.  The record also goes to benchmarks/out/, with the
spans of a traced run.
"""
from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
CLI_ENTRY = "import sys; from qcap.cli import main; sys.exit(main())"
IMPORT_PROBE = "import time; t = time.perf_counter(); import qcap; print(time.perf_counter() - t)"
SELF_TIMES = (
    "cli.main",
    "linalg.partial_trace", "linalg.von_neumann_entropy", "linalg.eig_hermitian", "linalg.trace_norm",
    "states.purify", "states.max_overlap_purification", "states.random_density",
    "states.high_entropy_counterexample",
    "channels.tensor_power", "channels.apply_channel", "channels.environment_state",
    "channels.apply_to_subsystem", "channels.measure_environment_branches", "channels.compose",
    "functionals.coherent_information", "functionals.entanglement_fidelity", "functionals.end_to_end_fidelity",
    "erasure.erasure_decomposition", "erasure.maximize_coherent_info", "erasure.minimize",
    "elimination.random_demo_schemes", "elimination.eliminate_encoder",
)
CALL_COUNTS = ("linalg.partial_trace", "linalg.von_neumann_entropy", "linalg.eig_hermitian")
CLASS_INITS = ("states.DensityMatrix", "states.PureState", "channels.KrausChannel")
LAYERS = ("cli", "linalg", "kernel", "states", "channels", "functionals", "erasure", "continuity", "elimination")


def unit_of(name: str) -> str:
    for suffix, unit in (("_s", "s"), ("_rel", "x"), ("_mb", "MB"), ("us_per_trial", "us"),
                         ("ms_per_instance", "ms"), ("_bytes", "B")):
        if name.endswith(suffix):
            return unit
    return "count"


@dataclass
class Result:
    """One executed operation: its time, resources, and what went wrong."""

    op: object
    seconds: float
    rss_mb: float | None = None
    error: str | None = None
    problems: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.error is not None or bool(self.problems)

    @property
    def expected(self) -> bool:
        """Right output, or the known fault failing the way it is known to."""
        return not self.problems and (self.error is None or self.op.known_fault is not None)


class Launcher:
    """The helper of launch.py, started while this process is still small.

    Every fresh interpreter the benchmark times is spawned by the helper, so
    the peak RSS that `os.wait4` reports for it is its own.
    """

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launch.py")], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )

    def run(self, argv: list[str]) -> dict:
        """Run one command: seconds, exit code, stdout, stderr and peak RSS in MB."""
        self.proc.stdin.write(json.dumps(argv) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the launcher process exited early")
        return json.loads(line)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        # the helper exits at end of input, after the child it runs, which it kills after launch.TIMEOUT_S
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def _cli_in_process(argv) -> tuple[float, int, str, str]:
    import qcap.cli

    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = qcap.cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return perf_counter() - start, code, out.getvalue(), err.getvalue()


def execute(op, launcher: Launcher | None) -> tuple[Result, object]:
    """Run one operation, timed; returns its result and the output to check.

    CLI operations run in a fresh interpreter through `launcher`, or in this
    process when there is none.
    """
    if op.argv is None:
        start = perf_counter()
        try:
            value = op.call()
        except Exception as exc:  # a library fault is reported as a failed operation
            return Result(op, perf_counter() - start, error=f"raised {exc!r}"), None
        return Result(op, perf_counter() - start), value
    if launcher is None:
        seconds, code, out, err = _cli_in_process(op.argv)
        result = Result(op, seconds)
    else:
        done = launcher.run([sys.executable, "-c", CLI_ENTRY, *op.argv])
        code, out, err = done["code"], done["out"], done["err"]
        result = Result(op, done["seconds"], done["rss_mb"])
    if code != 0:
        result.error = f"exit code {code}: {err.strip().splitlines()[-1] if err.strip() else 'no message'}"
        return result, None
    return result, out


def run_round(ops, launcher: Launcher | None, tracer=None, before_each=None) -> list[Result]:
    """Every operation once, in order; checks run after the timed (and traced) part.

    `before_each`, if given, is called before each operation that enters the
    metrics, outside the operation's timing.
    """
    done = []
    with tracer or nullcontext():
        for op in ops:
            if before_each is not None and op.known_fault is None:
                before_each()
            done.append(execute(op, launcher))
    for result, output in done:
        if result.error is None:
            result.problems = op_problems(result.op, output)
    return [result for result, _ in done]


def op_problems(op, output) -> list[str]:
    try:
        return op.check(output)
    except (KeyError, ValueError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]


def round_metrics(results: list[Result]) -> dict[str, float]:
    """End-to-end figures of one round; the known failing operation enters none."""
    timed = [r for r in results if r.op.known_fault is None]
    cli = [r for r in timed if r.op.argv is not None]
    metrics = {"round_s": sum(r.seconds for r in timed)}
    for r in timed:
        metrics[r.op.metric] = r.seconds
        if r.rss_mb is not None:
            metrics[r.op.metric.removesuffix("_s") + "_rss_mb"] = r.rss_mb
    if cli and all(r.rss_mb is not None for r in cli):
        metrics["peak_rss_mb"] = max(r.rss_mb for r in cli)
    return metrics


def more_rounds(start: float, done: int, seconds: int) -> bool:
    """Start another round while at least half of one more still fits in `seconds`."""
    elapsed = perf_counter() - start
    return done == 0 or elapsed + elapsed / done / 2 < seconds


def medians(rows: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}


def setup_seconds(launcher: Launcher) -> list[float]:
    """`import qcap` in fresh interpreters, after one untimed import fills the bytecode cache."""
    times = []
    for i in range(SETUP_REPEATS + 1):
        done = launcher.run([sys.executable, "-c", IMPORT_PROBE])
        if done["code"] != 0:
            raise RuntimeError(f"importing qcap failed: {done['err'].strip()}")
        if i:
            times.append(float(done["out"]))
    return times


def reference_seconds(launcher: Launcher) -> float:
    """Wall time of the fixed job of reference.py in a fresh interpreter."""
    done = launcher.run([sys.executable, str(HERE / "reference.py")])
    if done["code"] != 0:
        raise RuntimeError(f"the reference job failed: {done['err'].strip()}")
    return done["seconds"]


def import_profile(launcher: Launcher) -> dict[str, float]:
    """Import time of qcap.cli and of scipy inside it, from `python -X importtime`."""
    totals, scipy_parts = [], []
    for _ in range(IMPORTTIME_REPEATS):
        done = launcher.run([sys.executable, "-X", "importtime", "-c", "import qcap.cli"])
        if done["code"] != 0:
            raise RuntimeError(f"importing qcap.cli failed: {done['err'].strip()}")
        entries = []
        for line in done["err"].splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cumulative, name = line.split("|")
            if cumulative.strip().isdigit():
                depth = (len(name) - len(name.lstrip())) // 2
                entries.append((depth, name.strip(), int(cumulative) / 1e6))
        # importtime prints children before parents; walk backwards to know each parent
        stack, scipy_s, total = [], 0.0, 0.0
        for depth, name, cumulative in reversed(entries):
            while stack and stack[-1][0] >= depth:
                stack.pop()
            parent = stack[-1][1] if stack else None
            if name == "qcap.cli":
                total = cumulative
            if name.split(".")[0] == "scipy" and (parent is None or parent.split(".")[0] != "scipy"):
                scipy_s += cumulative
            stack.append((depth, name))
        totals.append(total)
        scipy_parts.append(scipy_s)
    return {"cli.import_s": statistics.median(totals), "cli.import_scipy_s": statistics.median(scipy_parts)}


def layer_metrics(tracer, plain: list[Result], traced: list[Result]) -> dict[str, float]:
    from tracing import LEMMA_FUNCTIONS

    table = tracer.table()
    counters = tracer.counters

    def stat(name: str, key: str) -> float:
        return table.get(name, {}).get(key, 0)

    metrics = {f"{name}.self_s": stat(name, "self_s") for name in SELF_TIMES}
    metrics.update({f"{name}.calls": stat(name, "calls") for name in CALL_COUNTS})
    for name in CLASS_INITS:
        metrics[f"{name}.count"] = stat(name, "calls")
        metrics[f"{name}.init_s"] = stat(name, "total_s")
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sum(v["self_s"] for k, v in table.items() if k.split(".")[0] == layer)
    metrics["kernel.eigensolves"] = counters["kernel.eigensolves"]
    metrics["kernel.eigensolve_n3"] = counters["kernel.eigensolve_n3"]
    metrics["kernel.eigensolve_s"] = stat("kernel.eigh", "total_s") + stat("kernel.eigvalsh", "total_s")
    metrics["kernel.qr_s"] = stat("kernel.qr", "total_s")
    metrics["kernel.svd_s"] = stat("kernel.svd", "total_s")
    metrics["channels.kraus_bytes"] = counters["channels.kraus_bytes"]
    metrics["erasure.marginals"] = tracer.child_count("linalg.partial_trace", "erasure.erasure_decomposition")
    metrics["erasure.objective_evals"] = counters["erasure.objective_evals"]
    for lemma, name in LEMMA_FUNCTIONS.items():
        trials = counters[f"continuity.{lemma}.trials"]
        metrics[f"continuity.{lemma}.us_per_trial"] = stat(name, "total_s") / trials * 1e6 if trials else 0.0
    instances = stat("elimination.eliminate_encoder", "calls")
    metrics["elimination.instances"] = instances
    metrics["elimination.flagged"] = counters["elimination.flagged"]
    metrics["elimination.ms_per_instance"] = (
        stat("elimination.eliminate_encoder", "total_s") / instances * 1e3 if instances else 0.0
    )
    metrics["trace.spans"] = len(tracer.start)
    plain_m, traced_m = round_metrics(plain), round_metrics(traced)
    metrics["overhead.round_s"] = traced_m["round_s"] - plain_m["round_s"]
    return metrics


def _print_round(workload: str, index: int, results: list[Result], mode: str) -> None:
    for r in results:
        rss = f"  {r.rss_mb:8.1f} MB" if r.rss_mb is not None else ""
        status = "ok" if not r.failed else ("known fault" if r.expected else "FAILED")
        detail = "; ".join(([r.error] if r.error else []) + r.problems[:3])
        print(f"{workload} {mode} round {index}: {r.op.label:<60} {r.seconds:9.4f} s{rss}  {status}"
              + (f"  ({detail})" if detail else ""), flush=True)


def run_workload(name: str, seed: int, seconds: int, trace: bool, launcher: Launcher) -> dict:
    import tracing
    import workloads

    ops = workloads.WORKLOADS[name](seed)
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace)}
    results: list[Result] = []
    if trace:
        record["import_profile"] = import_profile(launcher)
        rows, last = [], None
        start = perf_counter()
        while more_rounds(start, len(rows), seconds):
            plain = run_round(ops, None)
            last = tracing.Tracer()
            traced = run_round(ops, None, tracer=last)
            _print_round(name, len(rows) + 1, plain, "in-process")
            _print_round(name, len(rows) + 1, traced, "traced")
            results += plain + traced
            rows.append(layer_metrics(last, plain, traced))
        metrics = {**record["import_profile"], **medians(rows)}
        OUT.mkdir(exist_ok=True)
        last.save(OUT / f"{name}-seed{seed}-spans.npz")
        record["span_table"] = last.table()
    else:
        setup = setup_seconds(launcher)
        rows, refs = [], []
        start = perf_counter()
        while more_rounds(start, len(rows), seconds):
            batch = run_round(ops, launcher, before_each=lambda: refs.append(reference_seconds(launcher)))
            _print_round(name, len(rows) + 1, batch, "cli")
            results += batch
            rows.append(round_metrics(batch))
        metrics = {"setup_s": statistics.median(setup), **medians(rows), "reference_s": statistics.median(refs)}
        metrics["round_rel"] = metrics["round_s"] / metrics["reference_s"]
        record["setup_samples_s"] = setup
        record["reference_samples_s"] = refs
        record["peak_rss_mb"] = {}
        for r in results:
            if r.rss_mb is not None:
                record["peak_rss_mb"].setdefault(r.op.label, []).append(r.rss_mb)
    record["rounds"] = len(rows)
    record["attempted"] = len(results)
    record["failed"] = sum(r.failed for r in results)
    record["correct"] = all(r.expected for r in results)
    record["known_failures"] = sorted({f"{r.op.label}: {r.op.known_fault}" for r in results
                                       if r.failed and r.expected})
    record["unexpected_failures"] = sorted({f"{r.op.label}: {'; '.join(filter(None, [r.error, *r.problems]))}"
                                            for r in results if not r.expected})
    record["metrics"] = {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}
    return record


def _parse(argv, names):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*names, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if args.workload == "all" and args.trace:
        parser.error("--workload all runs untraced; trace one workload at a time")
    return args


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "qcap" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"run.py: needs {SRC / 'qcap'} and {spec_path}; run it from a qcap checkout", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    args = _parse(argv, [w["name"] for w in spec["workloads"]])
    with Launcher() as launcher:
        return _main(args, spec, launcher)


def _main(args, spec, launcher: Launcher) -> int:
    sys.path.insert(0, str(SRC))
    import qcap

    if Path(qcap.__file__).resolve().parent != (SRC / "qcap").resolve():
        print(f"run.py: imported qcap from {qcap.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import record

    names = [w["name"] for w in spec["workloads"]] if args.workload == "all" else [args.workload]
    env = record.environment(ROOT)
    runs = [run_workload(name, args.seed, args.seconds, bool(args.trace), launcher) for name in names]
    for run in runs:
        run["environment"] = env
        print("REPORT " + json.dumps(run, sort_keys=True, default=str), flush=True)
        OUT.mkdir(exist_ok=True)
        path = OUT / f"{run['workload']}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(run, indent=1, sort_keys=True, default=str) + "\n")
    if args.workload == "all":
        # each operation's own metric; the workload-level sums mean nothing across workloads
        chosen = {k: v for run in runs for k, v in run["metrics"].items()
                  if k not in ("setup_s", "round_s", "round_rel", "reference_s", "peak_rss_mb")}
        setup = statistics.median(run["metrics"]["setup_s"]["value"] for run in runs)
        chosen["setup_s"] = {"value": setup, "unit": "s"}
    else:
        metrics = runs[0]["metrics"]
        kind = "per_layer" if args.trace else "end_to_end"
        chosen = {m["name"]: {"value": metrics[m["name"]]["value"], "unit": m["unit"]} for m in spec[kind]}
    print(json.dumps({
        "correct": all(run["correct"] for run in runs),
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "metrics": chosen,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
