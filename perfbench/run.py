"""Stdlib-only benchmark for zgap.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Run from anywhere; the program under test is ``src/zgap`` of the checkout
holding this file.  Workloads (``README.md`` says why each was chosen):

* ``certify`` and ``determinants`` are closed loops with one client: each
  operation is a fresh ``python -m zgap.cli`` process, started only after
  the previous one exits;
* ``library`` is one long-lived interpreter calling ``zgap.bounds``.

A run measures set-up, makes one untimed warm-up pass, then timed passes
over the workload's operations until ``--seconds`` have elapsed.  Every
operation time is scaled to a fixed host speed (``reference.py``); the
benchmark pins its processes to one CPU so that the reference loop and the
operation run on the same one.  The seed
shuffles the order of operations within each timed pass; the inputs are
fixed, so every output is checked against ``expected.json``.  With
``--trace 1`` half the time goes to untraced passes and half to passes with
spans recorded around zgap's public functions (``tracer.py``); the
difference in pass time is the tracing overhead.

Human-readable lines come first on stdout; the last line is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` holding the end-to-end
metrics of ``BENCHMARK.json`` (``--trace 0``) or its per-layer metrics
(``--trace 1``).  A record of the run, with provenance and, when traced,
every span, is written under ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict, namedtuple
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

from checker import Verdict, check_cli, check_library, load_expected
from reference import SpeedGauge
from tracer import JMC, QUADRATURE

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
TIME_LIMIT_S = 170

CLI_WORKLOADS = {
    "certify": (
        ("bounds", "bounds --n 1"),
        ("bounds", "bounds --n 2"),
        ("moments", "moments --l 4"),
        ("arithfactor", "arithfactor --l 2"),
        ("reject", "bounds --n 1 --tol 0"),
        ("reject", "bounds --n 1 --tol nan"),
    ),
    "determinants": (
        ("hankel", "hankel --l 6 --terms 12"),
        ("identity", "identity --l 4 --terms 12"),
        ("lis", "lis --l 4 --max-n 14"),
    ),
}
LIBRARY_LABELS = ("certify_call", "perturb_call")
OP_LABELS = ("bounds", "moments", "arithfactor", "reject", "hankel", "identity", "lis",
             *LIBRARY_LABELS)
CLI_SETUP_REPEATS = 3
LIBRARY_SETUP_REPEATS = 3
IMPORTTIME_REPEATS = 3

# per-layer metrics read from spans: metric -> span name
SPAN_TOTAL_S = {
    "bounds.solve_lambda_s": "bounds.solve_lambda",
    "bounds.rational_form_deviation_s": "bounds.rational_form_deviation",
    "bounds.solve_x_s": "bounds.solve_x",
    "bounds.perturbed_x_values_s": "bounds.perturbed_x_values",
    "moments.arithmetic_factor_s": "moments.arithmetic_factor",
    "series.determinant_s": "series.determinant",
    "series.hankel_determinant_s": "series.hankel_determinant",
    "series.toeplitz_determinant_s": "series.toeplitz_determinant",
    "series.unitary_average_s": "series.unitary_average",
    "lis.count_by_enumeration_s": "lis.count_by_enumeration",
    "lis.count_by_tableaux_s": "lis.count_by_tableaux",
}
SPAN_SELF_S = {
    "cli.self_s": "cli.main",
    "bounds.certify_bound.self_s": "bounds.certify_bound",
    "lis.count_by_series.self_s": "lis.count_by_series",
}
SPAN_CALLS = {
    "bounds.integrate_unit_interval.calls": QUADRATURE,
    "series.determinant.calls": "series.determinant",
    "moments.joint_moment_coefficient.calls": JMC,
}
# counts kept by the tracer: metric -> the wrapped name it depends on
COUNTED = {
    "bounds.integrand_evals": QUADRATURE,
    "series.mul.calls": "series.mul.calls",
    "arith.multinomial.calls": "arith.multinomial.calls",
    "arith.factorial.calls": "arith.factorial.calls",
}
COLD_L4 = {f"{JMC}.h{h}_l4_s": h for h in range(5)}
# every per-layer metric read from the tracer -> the wrapped name it needs
SOURCES = {
    **SPAN_TOTAL_S, **SPAN_SELF_S, **SPAN_CALLS, **COUNTED, **{m: JMC for m in COLD_L4},
    "bounds.quadrature_errors": QUADRATURE,
    f"{JMC}.hit_ratio": JMC,
}

Outcome = namedtuple("Outcome", "elapsed scaled exit_code stdout stderr")
Span = namedtuple("Span", "key parent name start end attrs")


class BenchTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise BenchTimeout(f"run exceeded {TIME_LIMIT_S} s")


class Runner:
    """Starts one child process at a time and reaps it with its rusage.
    Each child's wall time is also scaled to the reference speed."""

    def __init__(self) -> None:
        self.env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "ZGAP_TOL")}
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.peak_kb = 0
        self.gauge = SpeedGauge()

    def spawn(self, args: list[str], traced: bool = False) -> Outcome:
        out_path, err_path = OUT_DIR / "child.stdout", OUT_DIR / "child.stderr"
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, str(out_path), flags, 0o600),
            (os.POSIX_SPAWN_OPEN, 2, str(err_path), flags, 0o600),
        ]
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, *args], self.env,
                             file_actions=actions)
        try:
            _, status, usage = os.wait4(pid, 0)
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        elapsed = time.perf_counter() - start
        if not traced:
            self.peak_kb = max(self.peak_kb, usage.ru_maxrss)
        return Outcome(elapsed, self.gauge.scaled(elapsed), os.waitstatus_to_exitcode(status),
                       out_path.read_bytes(), err_path.read_bytes())


class Tally:
    """Operations attempted and failed in timed passes; wrong outputs
    anywhere, warm-up included."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.reasons: Counter = Counter()

    def add(self, verdict: Verdict, what: str, timed: bool) -> None:
        self.wrong += verdict.wrong_output
        if verdict.failed:
            self.reasons[f"{what}: {verdict.reason}"] += 1
        if timed:
            self.attempted += 1
            self.failed += verdict.failed


@dataclass
class PassResult:
    unscaled: float  # sum of the operations' wall times
    op_times: dict  # label -> scaled seconds of each operation
    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    rejected: int = 0


def timed_passes(run_pass, seconds: float) -> list[PassResult]:
    passes: list[PassResult] = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(run_pass())
    return passes


def spans_of(dump: dict, inv: str) -> list[Span]:
    return [
        Span((inv, s[0]), None if s[4] is None else (inv, s[4]), s[1], s[2], s[3], s[5])
        for s in dump["spans"]
    ]


# ---------------------------------------------------------------- workloads

def run_cli_workload(name, runner, expected, tally, rng, seconds, trace):
    ops = CLI_WORKLOADS[name]

    def import_once():
        return runner.spawn(["-c", "import zgap.cli"]).scaled

    # one set-up sample after each untraced pass as well, so that set-up is
    # measured across the same stretch of machine time as the passes
    setup = [import_once() for _ in range(CLI_SETUP_REPEATS)]
    spans_path = OUT_DIR / "spans.json"
    absent: set[str] = set()

    def cli_pass(order, timed, traced, index):
        op_times = defaultdict(list)
        spans, counts, rejected, unscaled = [], Counter(), 0, 0.0
        for k, (label, command) in enumerate(order):
            args = command.split()
            if traced:
                argv = [str(HERE / "tracer.py"), str(spans_path), *args]
            else:
                argv = ["-m", "zgap.cli", *args]
            out = runner.spawn(argv, traced)
            tally.add(check_cli(expected["cli"][command], out.exit_code, out.stdout,
                                out.stderr), command, timed)
            op_times[label].append(out.scaled)
            unscaled += out.elapsed
            rejected += out.exit_code == 2
            if traced:
                dump = json.loads(spans_path.read_text(encoding="utf-8"))
                spans += spans_of(dump, f"p{index}.{k}")
                counts.update(dump["counts"])
                absent.update(dump["absent"])
        return PassResult(unscaled, op_times, spans, counts, rejected)

    def shuffled():
        order = list(ops)
        rng.shuffle(order)
        return order

    def plain_pass():
        result = cli_pass(shuffled(), True, False, None)
        setup.append(import_once())
        return result

    cli_pass(ops, timed=False, traced=False, index=None)
    budget = seconds / 2 if trace else seconds
    plain = timed_passes(plain_pass, budget)
    traced = []
    if trace:
        index = itertools.count()
        traced = timed_passes(lambda: cli_pass(shuffled(), True, True, next(index)), budget)
    return setup, plain, traced, [], absent


def run_library_workload(runner, expected, tally, rng, seconds, trace):
    script = str(HERE / "library.py")

    def setup_once():
        return runner.spawn([script, "setup"]).scaled

    spans_path = OUT_DIR / "spans.json"

    def child(budget, traced):
        args = [script, "run", str(rng.randrange(2**31)), repr(budget)]
        if traced:
            args.append(str(spans_path))
        out = runner.spawn(args, traced)
        if out.exit_code != 0:
            raise RuntimeError(f"library worker exited {out.exit_code}:\n"
                               + out.stderr.decode(errors="replace"))
        report = json.loads(out.stdout.decode().splitlines()[-1])
        for timed, group in ((False, [report["warmup"]]), (True, report["passes"])):
            for p in group:
                for call in p["calls"]:
                    verdict = check_library(expected["library"], call["label"], call["n"],
                                            call["out"])
                    tally.add(verdict, f"{call['label']}({call['n']})", timed)
        dump = json.loads(spans_path.read_text(encoding="utf-8")) if traced else None
        spans = spans_of(dump, "lib") if traced else []
        passes = []
        for p in report["passes"]:
            op_times = defaultdict(list)
            for call in p["calls"]:
                op_times[call["label"]].append(call["scaled"])
            inside = [s for s in spans if p["start"] <= s.start and s.end <= p["end"]]
            unscaled = sum(call["t"] for call in p["calls"])
            passes.append(PassResult(unscaled, op_times, inside, p["counts"]))
        first = report["passes"][0]["start"]
        return passes, [s for s in spans if s.start < first], dump

    # set-up samples before and after the timed child span the run's window
    setup = [setup_once()]
    budget = seconds / 2 if trace else seconds
    plain, _, _ = child(budget, False)
    setup += [setup_once() for _ in range(LIBRARY_SETUP_REPEATS - 1)]
    traced, setup_spans, absent = [], [], set()
    if trace:
        traced, setup_spans, dump = child(budget, True)
        absent = set(dump["absent"])
    return setup, plain, traced, setup_spans, absent


# ---------------------------------------------------------------- metrics

def describe(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, if any."""
    n = len(samples)
    for p in (99.9, 99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            value = statistics.quantiles(samples, n=1000, method="inclusive")[int(p * 10) - 1]
            return f"p{p:g} {value:.6g}"
    return "no percentile has 10 samples beyond it"


def pass_time(p: PassResult) -> float:
    return sum(sum(times) for times in p.op_times.values())


def end_to_end_samples(passes: list[PassResult], setup: list[float], peak_kb: int) -> dict:
    samples = {"setup_s": setup, "pass_s": [pass_time(p) for p in passes],
               "pass_unscaled_s": [p.unscaled for p in passes], "peak_rss_mb": [peak_kb / 1024]}
    for label in OP_LABELS:
        samples[f"{label}_s"] = [
            statistics.fmean(p.op_times[label]) for p in passes if p.op_times.get(label)]
    return samples


def pass_layers(p: PassResult) -> dict[str, float]:
    child_time: dict = defaultdict(float)
    for s in p.spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    total, self_time, calls = defaultdict(float), defaultdict(float), Counter()
    for s in p.spans:
        total[s.name] += s.end - s.start
        self_time[s.name] += s.end - s.start - child_time[s.key]
        calls[s.name] += 1
    out = {m: total[src] for m, src in SPAN_TOTAL_S.items()}
    out.update({m: self_time[src] for m, src in SPAN_SELF_S.items()})
    out.update({m: float(calls[src]) for m, src in SPAN_CALLS.items()})
    out.update({m: float(p.counts.get(m, 0)) for m in COUNTED})
    out["bounds.quadrature_errors"] = float(sum(
        1 for s in p.spans if s.name == QUADRATURE and s.attrs.get("error") == "QuadratureError"))
    out["cli.rejected"] = float(p.rejected)
    return out


def layer_samples(traced: list[PassResult], setup_spans: list[Span]) -> dict:
    per_pass = [pass_layers(p) for p in traced]
    samples = {m: [row[m] for row in per_pass] for m in per_pass[0]}
    jmc = [s for p in traced for s in p.spans if s.name == JMC]
    hits = sum(1 for s in jmc if s.attrs.get("hit"))
    samples[f"{JMC}.hit_ratio"] = [hits / len(jmc) if jmc else 0.0]
    cold = [s for s in setup_spans + jmc if s.name == JMC and not s.attrs.get("hit")]
    for metric, h in COLD_L4.items():
        durations = [s.end - s.start for s in cold if s.attrs.get("l") == 4
                     and s.attrs.get("h") == h]
        samples[metric] = durations or [0.0]
    return samples


def import_samples(runner: Runner) -> dict:
    """cli.import_s and bounds.import_numpy_s from ``python -X importtime``."""
    cli_s, numpy_s = [], []
    for _ in range(IMPORTTIME_REPEATS):
        out = runner.spawn(["-X", "importtime", "-c", "import zgap.cli"], traced=True)
        rows = []
        for line in out.stderr.decode().splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            name = parts[2].rstrip()
            rows.append((len(name) - len(name.lstrip()), name.strip(), int(parts[1]) / 1e6))
        parents = []
        for i, (indent, _, _) in enumerate(rows):
            parent = next((r[1] for r in rows[i + 1:] if r[0] < indent), None)
            parents.append(parent)
        top = min(r[0] for r in rows)
        cli_s.append(sum(c for d, n, c in rows if d == top and n.split(".")[0] == "zgap"))
        numpy_s.append(sum(c for (d, n, c), parent in zip(rows, parents)
                           if n.split(".")[0] == "numpy" and parent == "zgap.bounds"))
    return {"cli.import_s": cli_s, "bounds.import_numpy_s": numpy_s}


# ---------------------------------------------------------------- entry point

def provenance(seed: int) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "absent"
    sha = "unknown"
    if (ROOT / ".git").exists():
        result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, check=False)
        sha = result.stdout.strip() or sha
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_sha": sha,
        "seed": seed,
        "loadavg_1m": os.getloadavg()[0],
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*CLI_WORKLOADS, "library"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure(args) -> tuple[dict, Tally, list[Span], set[str]]:
    # children inherit this, so the reference loop shares their CPU
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    runner = Runner()
    expected = load_expected()
    tally = Tally()
    rng = random.Random(args.seed)
    if args.workload == "library":
        setup, plain, traced, setup_spans, absent = run_library_workload(
            runner, expected, tally, rng, args.seconds, args.trace)
    else:
        setup, plain, traced, setup_spans, absent = run_cli_workload(
            args.workload, runner, expected, tally, rng, args.seconds, args.trace)
    samples = end_to_end_samples(plain, setup, runner.peak_kb)
    samples["failed_ratio"] = [tally.failed / tally.attempted]
    spans = []
    if traced:
        samples.update(layer_samples(traced, setup_spans))
        samples.update(import_samples(runner))
        samples["trace.pass_s"] = [pass_time(p) for p in traced]
        samples["trace.overhead_s"] = [
            statistics.median(samples["trace.pass_s"]) - statistics.median(samples["pass_s"])]
        spans = setup_spans + [s for p in traced for s in p.spans]
    return samples, tally, spans, absent


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "zgap" / "cli.py").is_file() or not spec_path.is_file():
        print(f"perfbench: no zgap source tree or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    OUT_DIR.mkdir(exist_ok=True)
    origin = provenance(args.seed)
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(TIME_LIMIT_S)
    try:
        samples, tally, spans, absent = measure(args)
    except BenchTimeout as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    finally:
        signal.alarm(0)

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    missing = {m for m, src in SOURCES.items() if src in absent}
    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "provenance": origin, "failures": dict(tally.reasons),
              "unscaled_pass_s": samples["pass_unscaled_s"], "metrics": {}}
    print(f"provenance {json.dumps(origin, sort_keys=True)}")
    print(f"workload {args.workload}: {tally.attempted} operations attempted, "
          f"{tally.failed} failed, {tally.wrong} wrong outputs; unscaled pass time "
          f"{statistics.median(samples['pass_unscaled_s']):.6g} s (median)")
    for reason, count in sorted(tally.reasons.items()):
        print(f"  failed x{count} (warm-up included): {reason}")
    for name, unit in units.items():
        if name not in samples:
            continue
        values = samples[name]
        value = statistics.median(values) if values else 0.0
        if name in missing:
            note = "absent: the wrapped name no longer exists"
        elif not values:
            note = "not run in this workload"
        else:
            note = f"median of {len(values)}; {describe(values)}"
        print(f"  {name:44s} {value:<14.6g} {unit:6s} {note}")
        record["metrics"][name] = {"value": value, "unit": unit, "samples": values,
                                   "absent": name in missing}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    if spans:
        with open(OUT_DIR / f"{stem}-spans.jsonl", "w", encoding="utf-8") as fh:
            for s in spans:
                fh.write(json.dumps(s._asdict()) + "\n")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    result = {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": record["metrics"][m["name"]]["value"], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
