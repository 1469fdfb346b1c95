"""gjmslab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; gjmslab is imported from `src/`.
Each run repeats whole rounds of the workload's operations until S seconds
have passed (at least one round), checks every result, and prints as its last
line one JSON object with `correct`, `attempted`, `failed` and `metrics`.

--trace 0 reports the end-to-end metrics:
  setup_s      median over fresh processes of start -> gjmslab imported and
               the first round's inputs built
  op_s         geometric mean over the round's operation kinds of the median
               wall time of one unit of work (a CLI call, a minimize or
               hls_dual_ratio call, a probe trial, a spectrum build), scaled
               to a host on which the calibration loop takes CAL_REF_S
  peak_rss_mb  peak resident memory of the workload process, or of the
               largest CLI child for cli-session

--trace 1 alternates untraced and traced rounds and reports per-layer
metrics: calls and self time per round of each traced public function, the
import times, the CLI process overhead, solver ratios and the tracing
overhead.  Spans and details go to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata

import env
import tracing
import workloads

SETUP_REPEATS = 3
#: The calibration kernel's time on the reference host; see `Calibration`.
CAL_REF_S = 0.010
IMPORTTIME_REPEATS = 3
PYTHON = sys.executable or "python3"
HERE = os.path.dirname(os.path.abspath(__file__))

END_TO_END = {"setup_s": "s", "op_s": "s", "peak_rss_mb": "MB"}


def per_layer_units() -> dict[str, str]:
    units = {"import.gjmslab_s": "s", "import.scipy_s": "s"}
    for name in tracing.SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(
        {
            "cli.process_overhead_s": "s",
            "rayleigh.starts_at_optimum_ratio": "ratio",
            "lane_emden.newton_iters_per_trial": "count",
            "lane_emden.probe_converged_ratio": "ratio",
            "trace.overhead_pct": "%",
            "bench.op_wall_s": "s",
            "bench.calibration_s": "s",
        }
    )
    return units


# ---------------------------------------------------------------------------
# child processes


def _run_child(argv: list[str], stderr_path: str) -> tuple[int, str, str, float, float]:
    """Run to completion; returns (exit code, stdout, stderr, wall s, peak RSS MB)."""
    with open(stderr_path, "w") as err_fh:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err_fh,
                                env=env.child_env(), text=True)
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
    with open(stderr_path) as fh:
        err = fh.read()
    return proc.returncode, out, err, wall, usage.ru_maxrss / 1024.0


def measure_setup(workload: str, seed: int) -> float:
    times = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        proc = subprocess.Popen([PYTHON, os.path.join(HERE, "setup_probe.py"), workload, str(seed)],
                                stdout=subprocess.PIPE, env=env.child_env(), text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - started
            proc.stdout.read()
        finally:
            proc.stdout.close()
            code = proc.wait()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up of {workload} failed with exit code {code}")
        times.append(elapsed)
    return statistics.median(times)


def _importtime_once() -> dict[str, float]:
    proc = subprocess.run([PYTHON, "-X", "importtime", "-c", "import gjmslab"],
                          capture_output=True, text=True, env=env.child_env(), check=True)
    # post-order tree: a line's children are the unclaimed lines one level deeper
    entries, pending = [], []
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        if not fields[0].strip().isdigit():
            continue  # header row
        raw = fields[2]
        name = raw.strip()
        depth = (len(raw) - len(raw.lstrip()) - 1) // 2
        entry = {"name": name, "cumulative_us": int(fields[1]), "depth": depth, "parent": None}
        while pending and pending[-1]["depth"] > depth:
            child = pending.pop()
            child["parent"] = entry
        entries.append(entry)
        pending.append(entry)

    def is_scipy(e):
        return e is not None and e["name"].split(".")[0] == "scipy"

    scipy_us = sum(e["cumulative_us"] for e in entries if is_scipy(e) and not is_scipy(e["parent"]))
    gjmslab_us = next(e["cumulative_us"] for e in entries if e["name"] == "gjmslab")
    return {"gjmslab": gjmslab_us / 1e6, "scipy": scipy_us / 1e6}


def measure_imports() -> dict[str, float]:
    runs = [_importtime_once() for _ in range(IMPORTTIME_REPEATS)]
    return {key: statistics.median(r[key] for r in runs) for key in ("gjmslab", "scipy")}


# ---------------------------------------------------------------------------
# rounds


class Calibration:
    """A fixed kernel of benchmark code, timed after every operation.

    On a shared host the speed of the same work moves by up to ~1.8x for
    seconds to minutes at a time, and CPU time moves with it.  Dividing an
    operation time by the kernel's median time over the same run cancels most
    of that; CAL_REF_S turns the ratio back into seconds.  The kernel mixes an
    interpreter-bound loop with small dense BLAS work (Gram matrix and solve at
    the probe sizes), the two kinds of work the workloads spend their time in.
    """

    def __init__(self):
        import numpy as np  # after env.pin(), so BLAS starts with one thread

        rng = np.random.default_rng(0)
        self._np = np
        self._basis = rng.standard_normal((200, 97))
        self._matrix = rng.standard_normal((97, 97)) + 97.0 * np.eye(97)
        self._rhs = rng.standard_normal(97)
        self.samples: list[float] = []

    def sample(self) -> None:
        started = time.perf_counter()
        acc = 0
        for i in range(50_000):
            acc += i * i % 7
        for _ in range(20):
            gram = self._basis.T @ (0.5 * self._basis)
            self._np.linalg.solve(self._matrix + 1e-3 * gram, self._rhs)
        self.samples.append(time.perf_counter() - started)


class Run:
    """Samples and outcomes of one benchmark run."""

    def __init__(self):
        self.samples: dict[str, list[float]] = {}
        self.round_times = {False: [], True: []}
        self.attempted = 0
        self.failures: list[str] = []
        self.unexpected = 0
        self.peak_child_rss_mb = 0.0
        self.calibration = Calibration()

    def record(self, kind: str, seconds: float, units: int, reason: str | None,
               known_fault: bool = False) -> None:
        self.attempted += 1
        self.samples.setdefault(kind, []).append(seconds / units)
        if reason is not None:
            self.failures.append(f"{kind}: {reason}")
            self.unexpected += not known_fault
        self.calibration.sample()

    def op_wall_s(self) -> float:
        """Geometric mean over operation kinds of the median wall time per unit."""
        logs = [math.log(statistics.median(v)) for v in self.samples.values()]
        return math.exp(sum(logs) / len(logs))

    def op_s(self) -> float:
        """op_wall_s at the reference speed of the calibration loop."""
        return self.op_wall_s() * CAL_REF_S / statistics.median(self.calibration.samples)


def rounds(seconds: float, traced_too: bool):
    """Yield (round index, traced?) until `seconds` have passed, whole rounds only.

    With `traced_too`, rounds alternate untraced/traced and end on a traced one.
    """
    started = time.perf_counter()
    index = 0
    while True:
        traced = traced_too and index % 2 == 1
        yield index, traced
        index += 1
        if time.perf_counter() - started >= seconds and (not traced_too or index % 2 == 0):
            return


def run_cli(seed: int, seconds: float, trace: bool, run: Run, layers: dict) -> None:
    err_path = os.path.join(env.OUT, "cli-stderr.txt")
    spans_path = os.path.join(env.OUT, "cli-spans.json")
    spans, overheads, newton_iters = [], [], []
    for index, traced in rounds(seconds, trace):
        round_started = time.perf_counter()
        for kind, argv, check in workloads.cli_round(seed, index):
            if traced:
                cmd = [PYTHON, os.path.join(HERE, "launch.py"), spans_path, "--", *argv]
            else:
                cmd = [PYTHON, "-m", "gjmslab.cli", *argv]
            code, out, err, wall, rss = _run_child(cmd, err_path)
            run.peak_child_rss_mb = max(run.peak_child_rss_mb, rss)
            if code != 0:
                reason = f"exit code {code}: {err.strip()[-300:]}"
            else:
                try:
                    reason = check(out)
                except (KeyError, IndexError, TypeError, ValueError) as exc:
                    reason = f"unexpected output: {exc!r}"
            run.record(kind, wall, 1, reason)
            if traced and os.path.exists(spans_path):  # absent if the call crashed
                with open(spans_path) as fh:
                    data = json.load(fh)
                os.remove(spans_path)
                offset = len(spans)
                spans.extend([n, s, e, p + offset if p >= 0 else -1] for n, s, e, p in data["spans"])
                newton_iters.extend(data["newton_iters"])
                overheads.append(wall - data["import_s"] - data["main_s"])
        run.round_times[traced].append(time.perf_counter() - round_started)
    if trace:
        layers["spans"] = spans
        layers["newton_iters"] = newton_iters
        layers["cli.process_overhead_s"] = statistics.median(overheads) if overheads else 0.0


def run_in_process(g, workload: str, seed: int, seconds: float, trace: bool, run: Run,
                   layers: dict) -> None:
    make_round = workloads.IN_PROCESS_ROUNDS[workload]
    stats: dict = {}
    tracer = tracing.Tracer()
    for index, traced in rounds(seconds, trace):
        ops = make_round(g, seed, index, stats)
        uninstall = tracer.install() if traced else None
        round_started = time.perf_counter()
        try:
            for op in ops:
                started = time.perf_counter()
                try:
                    result = op.call()
                except Exception as exc:  # the program failed this operation; keep going
                    elapsed = time.perf_counter() - started
                    run.record(op.kind, elapsed, op.units, f"raised {exc!r}", op.known_fault)
                    continue
                elapsed = time.perf_counter() - started
                run.record(op.kind, elapsed, op.units, op.check(result), op.known_fault)
        finally:
            if uninstall:
                uninstall()
        run.round_times[traced].append(time.perf_counter() - round_started)
    if trace:
        layers["spans"] = tracer.spans
        layers["newton_iters"] = tracer.newton_iters
    layers["stats"] = stats


def per_layer_metrics(run: Run, layers: dict, imports: dict) -> dict[str, float]:
    traced_rounds = len(run.round_times[True])
    totals = tracing.layer_totals(layers["spans"])
    values = {"import.gjmslab_s": imports["gjmslab"], "import.scipy_s": imports["scipy"]}
    for name in tracing.SPAN_NAMES:
        calls, self_s = totals.get(name, (0, 0.0))
        values[f"{name}.calls"] = calls / traced_rounds
        values[f"{name}.self_s"] = self_s / traced_rounds
    stats = layers.get("stats", {})
    iters = layers["newton_iters"]
    values["cli.process_overhead_s"] = layers.get("cli.process_overhead_s", 0.0)
    values["rayleigh.starts_at_optimum_ratio"] = (
        stats["starts_at_optimum"] / stats["starts"] if stats.get("starts") else 0.0
    )
    values["lane_emden.newton_iters_per_trial"] = sum(iters) / len(iters) if iters else 0.0
    values["lane_emden.probe_converged_ratio"] = (
        stats["converged"] / stats["trials"] if stats.get("trials") else 0.0
    )
    untraced = statistics.median(run.round_times[False])
    traced = statistics.median(run.round_times[True])
    values["trace.overhead_pct"] = 100.0 * (traced / untraced - 1.0)
    values["bench.op_wall_s"] = run.op_wall_s()
    values["bench.calibration_s"] = statistics.median(run.calibration.samples)
    return values


def environment_line() -> str:
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = "missing"
    return (
        f"# python {platform.python_version()} numpy {versions['numpy']} "
        f"scipy {versions['scipy']} nproc {os.cpu_count()} "
        f"blas_threads {env.BLAS_THREADS} ({','.join(env.THREAD_VARS)})"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        env.pin()
    except env.MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    os.makedirs(env.OUT, exist_ok=True)
    trace = bool(args.trace)

    setup_s = None if trace else measure_setup(args.workload, args.seed)
    imports = measure_imports() if trace else None
    run, layers = Run(), {}
    if args.workload == "cli-session":
        run_cli(args.seed, args.seconds, trace, run, layers)
        peak_rss = run.peak_child_rss_mb
    else:
        import gjmslab

        if os.path.dirname(os.path.dirname(os.path.abspath(gjmslab.__file__))) != env.SRC:
            print(f"error: gjmslab imported from {gjmslab.__file__}, not {env.SRC}", file=sys.stderr)
            return 2
        run_in_process(gjmslab, args.workload, args.seed, args.seconds, trace, run, layers)
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if trace:
        values = per_layer_metrics(run, layers, imports)
        units = per_layer_units()
    else:
        values = {"setup_s": setup_s, "op_s": run.op_s(), "peak_rss_mb": peak_rss}
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    stem = os.path.join(env.OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump(
            {
                "workload": args.workload,
                "seed": args.seed,
                "seconds": args.seconds,
                "rounds": {"untraced": run.round_times[False], "traced": run.round_times[True]},
                "samples_s": run.samples,
                "calibration_s": run.calibration.samples,
                "failures": run.failures,
                "metrics": metrics,
            },
            fh,
            indent=1,
        )
    if trace:
        with open(stem + "-spans.json", "w") as fh:
            json.dump({"spans": layers["spans"], "newton_iters": layers["newton_iters"]}, fh)

    for failure in sorted(set(run.failures)):
        print(f"# failed {run.failures.count(failure)}x: {failure}")
    print(environment_line())
    # the known faults fail in every round; any other failure is a wrong result
    print(json.dumps({"correct": run.unexpected == 0, "attempted": run.attempted,
                      "failed": len(run.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
