"""hopfphase benchmark runner.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

One run builds its run configs from the seed (workgen.py, with the ranges
and per-workload sizes in workloads.json; cluster-scan cycles through four
configs because its cost depends on how many roots the coefficients give)
and times set-up in fresh interpreters.
It then makes one untimed warm-up solve of each kind, and runs solves back
to back for S seconds: a closed loop with one client in one thread, each
solve starting when the previous one ends. A solve is one in-process
hopfphase.cli.main call on a generated config. Every timed solve must exit
0 and write output byte-identical to the warm-up's. After timing, and after
reading the peak memory, the oracle checks (oracles.py) run on what the
warm-ups computed.

Times are reported at nominal machine speed: each solve's wall time is
corrected by a fixed reference loop timed just before and just after it
(speed.py), because the speed of a shared machine drifts by tens of percent
within a run. The summary also prints the uncorrected median wall time.

With --trace 0 the run reports the end-to-end metrics. With --trace 1 the
first half of the S seconds runs untraced and the second half traced
(spans.py), and the run reports the per-layer metrics, with the tracing
overhead as traced minus untraced median solve time. Each per-layer figure
is per solve, from span wall times: the median over the traced solves of
each kind, averaged over the kinds. The spans are written to .bench_out/ at
the end.

A summary goes to standard output first; the last line is the result as one
JSON object with the keys correct, attempted, failed and metrics. attempted
counts the solves and the oracle checks, and failed those of them that
failed.
"""
import os

# numpy's thread pools read these when it is imported: one thread each
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

from spans import Tracer, layer_figures  # noqa: E402
from speed import corrected, reference_loop  # noqa: E402
from workgen import make_config  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))

# the tail percentile is the highest one with at least ten solves beyond it
TAIL_BEYOND = 10
# set-up is timed this many times per run, after one discarded probe that
# may compile bytecode on a fresh checkout
SETUP_PROBES = 5

E2E_UNITS = {
    "setup_s": "s",
    "solve_p50_s": "s",
    "solve_tail_s": "s",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MB",
}
LAYER_UNITS = {
    "setup.import_s": "s",
    "config.parse_s": "s",
    "reduction.build_coupling_s": "s",
    "normal_form.rhs_calls": "count",
    "normal_form.rhs_self_s": "s",
    "normal_form.rhs_us_per_call": "us",
    "normal_form.rhs_ns_per_osc": "ns",
    "phase_model.rhs_calls": "count",
    "phase_model.rhs_self_s": "s",
    "phase_model.rhs_us_per_call": "us",
    "phase_model.rhs_ns_per_osc": "ns",
    "phase_model.moments_s": "s",
    "phase_model.moments_share": "ratio",
    "integrator.steps": "count",
    "integrator.rhs_evals": "count",
    "integrator.loop_self_s": "s",
    "integrator.loop_us_per_step": "us",
    "integrator.traj_bytes_computed": "bytes",
    "integrator.compare_s": "s",
    "integrator.text_s": "s",
    "integrator.text_bytes": "bytes",
    "cluster.points": "count",
    "cluster.ab_s": "s",
    "cluster.find_roots_s": "s",
    "cluster.find_roots_us_per_point": "us",
    "cluster.alpha_roots_s": "s",
    "cluster.g_evals": "count",
    "cluster.roots_found": "count",
    "cluster.g_evals_per_root": "ratio",
    "cli.self_s": "s",
    **{f"{layer}.self_share": "ratio" for layer in
       ("config", "reduction", "normal_form", "phase_model", "integrator",
        "cluster", "cli")},
    "trace.overhead_s": "s",
    "trace.solves": "count",
}


@dataclass
class Kind:
    """One kind of solve in a workload: its config, CLI arguments and output."""

    name: str
    cfg: object  # the parsed hopfphase RunConfig
    argv: list
    out: Path
    units: int  # oscillator-steps, or scan points for cluster-scan


def load_program():
    """Import hopfphase from this checkout's src/, or stop with an error."""
    if not (SRC / "hopfphase" / "__init__.py").is_file():
        sys.exit(f"perfbench: no hopfphase package under {SRC}")
    sys.path.insert(0, str(SRC))
    import hopfphase
    import hopfphase.cli
    if Path(hopfphase.__file__).resolve().parent != SRC / "hopfphase":
        sys.exit(f"perfbench: imported hopfphase from {hopfphase.__file__}, "
                 f"not from {SRC}")
    return hopfphase


def environment() -> dict:
    import numpy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu or "unknown"}


def solve_kinds(spec: dict, index: int, config: Path, cfg, work: Path) -> list:
    """The kinds of solve on the workload's config number `index`."""
    verb, n = spec["verb"], spec["n_osc"]
    args = [verb, "--config", str(config)]
    if verb == "cluster-scan":
        out = work / f"scan-{index}.txt"
        points = (spec["alpha_grid"] - 1) + (spec["psi_grid"] - 1)
        return [Kind(f"{verb}-{index}", cfg, args + ["--out", str(out)], out, points)]
    if verb == "compare":
        out = work / f"compare-{index}.json"
        return [Kind(f"{verb}-{index}", cfg, args + ["--out", str(out)], out,
                     2 * n * spec["steps"])]
    return [Kind(f"simulate-{model}-{index}", cfg,
                 args + ["--model", model, "--out", str(work / f"{model}-{index}.txt")],
                 work / f"{model}-{index}.txt", n * spec["steps"])
            for model in spec["models"]]


def time_setup(config: Path) -> dict:
    """Median set-up time and its parts over fresh interpreters."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(config)]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    runs = []
    for probe in range(SETUP_PROBES + 1):
        done = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        if probe:
            runs.append(json.loads(done.stdout))
    out = {key: statistics.median(r[key] for r in runs) for key in runs[0]}
    out["setup_s"] = statistics.median(sum(r.values()) for r in runs)
    return out


def call_cli(cli, argv, tracer=None) -> int:
    """One solve; an exception escaping the CLI counts as exit code 1."""
    try:
        if tracer is not None:
            return tracer.call("cli.main", cli.main, argv)
        return cli.main(argv)
    except Exception:  # a crashed solve is a failed solve, not a crashed run
        traceback.print_exc()
        return 1


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else ""


def warm_up(cli, kind: Kind):
    """Untimed first solve; returns its exit code and the trajectories it
    integrated, captured for the oracle checks."""
    captured = []
    integrate = cli.integrate

    def capture(*args, **kwargs):
        traj = integrate(*args, **kwargs)
        captured.append(traj)
        return traj

    cli.integrate = capture
    try:
        rc = call_cli(cli, kind.argv)
    finally:
        cli.integrate = integrate
    return rc, captured


def oracle_checks(oracles, which: str, kind: Kind, text: str, trajs, seed) -> list:
    """Run the workload's oracle on one kind's warm-up results."""
    if which == "replication":
        return oracles.replication_checks(kind.cfg, seed)
    if which == "cluster":
        return oracles.cluster_checks(text, kind.cfg)
    if which == "rhs":
        full = next(t for t in trajs if t.kind == "full")
        phase = next(t for t in trajs if t.kind == "phase")
        rows = [k * (full.times.size - 1) // 7 for k in range(8)]
        return oracles.rhs_checks(kind.cfg, full.states[rows], phase.states[rows])
    # text: simulate output parses back to what was integrated
    traj, = trajs
    return oracles.text_checks(text, traj, kind.cfg)


def timed_loop(cli, kinds, seconds, reference, min_solves, tracer=None):
    """Solves back to back for `seconds` (and at least `min_solves`).

    Returns the solve times by kind at nominal machine speed, the wall
    times by kind, the kind of each solve in order, and the number of
    failed solves.
    """
    times = {k.name: [] for k in kinds}
    wall = {k.name: [] for k in kinds}
    order = []
    failed = 0
    start = perf_counter()
    before = reference_loop()
    while perf_counter() - start < seconds or len(order) < min_solves:
        kind = kinds[len(order) % len(kinds)]
        if tracer is not None:
            tracer.solve = len(order)
        gc.collect()
        t0 = perf_counter()
        rc = call_cli(cli, kind.argv, tracer)
        elapsed = perf_counter() - t0
        after = reference_loop()
        times[kind.name].append(corrected(elapsed, before, after))
        wall[kind.name].append(elapsed)
        before = after
        order.append(kind.name)
        failed += rc != 0 or digest(kind.out) != reference[kind.name]
    return times, wall, order, failed


def p50(values_by_kind: dict) -> float:
    """Median per solve kind, averaged over the kinds.

    simulate-text alternates two kinds of solve with different costs, and
    cluster-scan four configs; the median of the pooled times would sit in
    a gap between them.
    """
    return statistics.fmean(statistics.median(v) for v in values_by_kind.values())


def tail(times: dict):
    """(value, percentile, sample count) of the tail solve time."""
    pooled = sorted(t for v in times.values() for t in v)
    n = len(pooled)
    return pooled[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = SPEC["workloads"][name]
    hopfphase = load_program()
    import oracles
    cli = hopfphase.cli
    env = environment()

    work = ROOT / ".bench_work" / f"{name}-seed{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        kinds = []
        for index in range(spec.get("configs", 1)):
            config = work / f"config-{index}.json"
            doc = make_config(seed, index, spec, SPEC["generator"])
            config.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
            cfg = hopfphase.parse_config(config.read_text(encoding="utf-8"))
            kinds += solve_kinds(spec, index, config, cfg, work)
        setup = time_setup(work / "config-0.json")

        failed = 0
        # warm-up trajectories, by kind, of the warm-ups that exited 0; only
        # the rhs and text oracles need them, the others would hold memory
        reference, captured = {}, {}
        for kind in kinds:
            rc, trajs = warm_up(cli, kind)
            reference[kind.name] = digest(kind.out)
            if rc != 0:
                failed += 1
            else:
                captured[kind.name] = trajs if spec["oracle"] in ("rhs", "text") else []
            del trajs
        gc.collect()

        if trace:
            untraced, _, _, f1 = timed_loop(cli, kinds, seconds / 2, reference,
                                            len(kinds))
            tracer = Tracer()
            tracer.install(hopfphase)
            try:
                traced, _, order, f2 = timed_loop(cli, kinds, seconds / 2, reference,
                                                  len(kinds), tracer)
            finally:
                tracer.uninstall()
            times = {k: untraced[k] + traced[k] for k in untraced}
            failed += f1 + f2
        else:
            times, wall, order, f1 = timed_loop(cli, kinds, seconds, reference,
                                                TAIL_BEYOND + 1)
            failed += f1
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        # the checks run after the peak-memory reading, so they cannot set it;
        # outputs of timed solves that differ from the warm-up already failed
        checks = []
        for kind in kinds:
            if kind.name in captured:
                text = kind.out.read_text(encoding="utf-8")
                checks += [(f"{kind.name}: {label}", ok) for label, ok in
                           oracle_checks(oracles, spec["oracle"], kind, text,
                                         captured.pop(kind.name), seed)]
        solves = sum(len(v) for v in times.values()) + len(kinds)
        bad_checks = [label for label, ok in checks if not ok]
        attempted = solves + len(checks)
        failed += len(bad_checks)
        summary = {"workload": name, "seed": seed, "env": env, "solves": solves,
                   "checks": len(checks), "failed_checks": bad_checks[:20],
                   "failed_ratio": failed / attempted}

        if trace:
            figures = layer_figures(tracer.spans, order)
            metrics = {key: p50(figures[key]) for key in LAYER_UNITS if key in figures}
            metrics["setup.import_s"] = setup["import_s"]
            metrics["config.parse_s"] = setup["parse_s"]
            metrics["reduction.build_coupling_s"] = setup["build_coupling_s"]
            metrics["trace.overhead_s"] = p50(traced) - p50(untraced)
            metrics["trace.solves"] = len(order)
            metrics = {key: metrics[key] for key in LAYER_UNITS}
            units = LAYER_UNITS
            summary["untraced_p50_s"] = p50(untraced)
            summary["traced_p50_s"] = p50(traced)
            tracer.write(ROOT / ".bench_out" / f"spans-{name}-seed{seed}.json",
                         {"workload": name, "seed": seed, "env": env,
                          "solve_kinds": order})
        else:
            tail_s, tail_pct, count = tail(times)
            work_units = sum(k.units * len(times[k.name]) for k in kinds)
            metrics = {
                "setup_s": setup["setup_s"],
                "solve_p50_s": p50(times),
                "solve_tail_s": tail_s,
                "throughput_per_s": work_units / sum(map(sum, times.values())),
                "peak_rss_mb": peak_rss_mb,
            }
            units = E2E_UNITS
            summary["tail_percentile"] = tail_pct
            summary["timed_solves"] = count
            summary["wall_p50_s"] = p50(wall)
            per_s = ("scan_points_per_s" if spec["verb"] == "cluster-scan"
                     else "osc_steps_per_s")
            summary[per_s] = metrics["throughput_per_s"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for key, value in summary.items():
        print(f"{name}: {key} = {value}")
    for key, value in metrics.items():
        print(f"{name}: {key} = {value:.6g} {units[key]}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {key: {"value": value, "unit": units[key]}
                        for key, value in metrics.items()}}


def run_all(args) -> dict:
    """Every workload in its own process; metric names get a workload prefix."""
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in SPEC["workloads"]:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900, check=True)
        *lines, last = done.stdout.splitlines()
        print("\n".join(lines), flush=True)
        part = json.loads(last)
        result["correct"] &= part["correct"]
        result["attempted"] += part["attempted"]
        result["failed"] += part["failed"]
        result["metrics"].update({f"{name}/{key}": value
                                  for key, value in part["metrics"].items()})
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True,
                        choices=[*SPEC["workloads"], "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
