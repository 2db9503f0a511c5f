"""Benchmark of the oistlab CLI: four workloads, checked outputs, optional trace.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

Run from anywhere; it measures the source tree next to this directory.
A run writes its workload's config, starts fresh processes for five
set-ups and then for whole rounds, each round one `oistlab` command,
until S seconds have passed. Every round must write byte-identical
tables; the first round's tables are checked for correctness against the
reference computations in `checks.py`. With --trace 1 the rounds
alternate untraced and traced, and the per-layer metrics come from the
traced ones. The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`. Each run writes its
config, `result.json` and, when traced, `spans.npz` to
`.bench_runs/<workload>-seed<N>-trace<0|1>/` at the root of the source
tree; the tables stay there only when a check failed.
"""
from __future__ import annotations

import argparse
import copy
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
from child import LAYERS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = ROOT / ".bench_runs"
SETUP_REPS = 5
BUDGET_S = 170.0

REFERENCE = {
    "model": {"prior": "two_point", "rho": 0.05, "omega": 1.0, "p": 10000},
    "algorithm": {"tau": 0.5, "threshold": "soft", "beta": 0.27},
    "simulation": {"x0_mean": 1.0 / math.sqrt(2.0), "x0_var": 0.5},
}


def _times(t_max: float, spacing: float) -> list[float]:
    return [round(k * spacing, 12) for k in range(int(round(t_max / spacing)) + 1)]


def _config(**sections) -> dict:
    cfg = copy.deepcopy(REFERENCE)
    for name, values in sections.items():
        cfg.setdefault(name, {}).update(values)
    return cfg


# Sizes: a round takes 2-10 s on the reference machine, so a 20 s run
# holds 2-6 rounds; the replica counts keep the bands of checks.py below
# a percent of false alarms over a few dozen runs.
WORKLOADS = {
    "mc_oist_p10000": ("simulate", _config(simulation={
        "t_max": 0.25, "replicas": 8, "record_times": _times(0.25, 0.05),
        "histogram_times": [0.1, 0.25]})),
    "mc_oja_p2000": ("simulate", _config(
        model={"p": 2000}, algorithm={"threshold": "none"},
        simulation={"t_max": 1.5, "replicas": 16, "record_times": _times(1.5, 0.25),
                    "histogram_times": []})),
    "pde_reference": ("pde", _config(pde={
        "x_min": -6.0, "x_max": 8.0, "n": 900, "dt": "auto", "t_max": 15.0,
        "record_times": _times(15.0, 0.5), "density_times": _times(15.0, 0.5)})),
    "sweep_transition": ("sweep", _config(sweep={
        "omega_min": 0.20, "omega_max": 0.26, "n_points": 25, "starts": [0.2, 0.5, 0.9],
        "damping": 0.5, "tol": 1e-9, "max_iter": 10000})),
}


class BenchError(RuntimeError):
    pass


class Runner:
    """Fresh processes of one benchmark run, under one time budget."""

    def __init__(self, rundir: Path, deadline: float):
        self.rundir = rundir
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        self.calls = 0

    def child(self, config: Path, *run_args: str) -> dict:
        self.calls += 1
        result = self.rundir / f"child-{self.calls}.json"
        argv = [sys.executable, str(BENCH / "child.py"), str(result), str(config), *run_args]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("time budget exhausted")
        try:
            proc = subprocess.run(argv, env=self.env, timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise BenchError("time budget exhausted") from exc
        if proc.returncode != 0:
            raise BenchError(f"benchmark process exited {proc.returncode}")
        data = json.loads(result.read_text())
        result.unlink()
        if data.get("exit_code", 0) != 0:
            raise BenchError(f"oistlab {run_args[0]} exited {data['exit_code']}")
        return data

    def run(self, config: Path, command: str, outdir: Path, seed: int, traced: bool) -> dict:
        spans = self.rundir / "spans.npz"
        return self.child(config, command, str(outdir), str(seed), "1" if traced else "0",
                          str(spans))


def table_digests(outdir: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(outdir.iterdir()) if p.name != "manifest.json"}


def rows_written(outdir: Path) -> int:
    return sum(len(p.read_bytes().splitlines()) - 1
               for p in outdir.iterdir() if p.name != "manifest.json")


def replica_steps(cfg: dict) -> int:
    sim = cfg["simulation"]
    return int(sim["replicas"]) * int(math.floor(sim["t_max"] * cfg["model"]["p"] + 1e-9))


def verify(name: str, cfg: dict, outdir: Path, runner: Runner, seed: int) -> checks.Verdict:
    model, algo = cfg["model"], cfg["algorithm"]
    beta = algo["beta"] if algo["threshold"] == "soft" else 0.0
    atoms = checks.two_point_atoms(model["rho"])
    if name == "mc_oja_p2000":
        return checks.check_simulate(outdir, model, cfg["simulation"],
                                     checks.oja_reference(algo["tau"], model["omega"]))
    if name == "mc_oist_p10000":
        sim = cfg["simulation"]
        pde_cfg = dict(cfg, pde={"x_min": -6.0, "x_max": 8.0, "n": 900, "dt": "auto",
                                 "t_max": sim["t_max"], "record_times": sim["record_times"],
                                 "density_times": sim["histogram_times"]})
        pde_config = runner.rundir / "pde-reference.json"
        pde_config.write_text(json.dumps(pde_cfg))
        pde_out = runner.rundir / "pde-reference"
        runner.run(pde_config, "pde", pde_out, seed, traced=False)
        moments = checks.read_table(pde_out / "moments.csv")
        reference = checks.pde_reference([float(v) for v in moments["t"]],
                                         [float(v) for v in moments["Q"]])
        verdict = checks.check_simulate(outdir, model, sim, reference)
        checks.check_histograms(verdict, outdir, pde_out, model, sim)
        return verdict
    if name == "pde_reference":
        # a start on the informative side; the solve never reads the PDE's output
        q_star, _ = checks.solve_stationary((0.8, 0.15), algo["tau"], model["omega"], beta, atoms)
        return checks.check_pde(outdir, model, cfg["pde"]["record_times"], q_star)
    return checks.check_sweep(outdir, model, algo)


def median(values) -> float:
    return float(statistics.median(values))


def end_to_end_metrics(untraced: list[dict], setups: list[float], work: int) -> dict:
    """Medians over the untraced rounds, in seconds at the reference
    machine's speed; `work` is what one round computes (replica-steps for
    simulate, otherwise its operations)."""
    return {
        "setup_s": (median(setups), "s"),
        "run_s": (median(r["run_s"] for r in untraced), "s"),
        "steps_per_s": (median(work / (r["solver_s"] or r["run_s"]) for r in untraced), "1/s"),
        "peak_rss_mb": (median(r["peak_rss_mb"] for r in untraced), "MB"),
    }


def layer_metrics(name: str, cfg: dict, traced: list[dict], untraced: list[dict],
                  normal_ns: float, rows: int) -> dict:
    """Per-layer metrics: medians over the traced rounds, counts per round."""
    layers = {}
    for _, _, layer in LAYERS:
        per_round = [r["layers"].get(layer, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
                     for r in traced]
        calls = per_round[0]["calls"]
        layers[layer] = {
            "calls": calls,
            "self_s": median(x["self_s"] for x in per_round),
            "total_s": median(x["total_s"] for x in per_round),
            "us_per_call": median(1e6 * x["total_s"] / x["calls"] if x["calls"] else 0.0
                                  for x in per_round),
        }
    out = {}
    for layer, v in layers.items():
        out[f"{layer}.calls"] = (v["calls"], "count")
        out[f"{layer}.self_s"] = (v["self_s"], "s")
        out[f"{layer}.us_per_call"] = (v["us_per_call"], "us")

    record = ("simulate.cosine_similarity", "simulate.misclassification_rate",
              "simulate.joint_histogram")
    record_s = sum(layers[k]["total_s"] for k in record)
    step_us = floor_fraction = 0.0
    if WORKLOADS[name][0] == "simulate":
        solver_s = median(r["wall_solver_s"] or r["wall_run_s"] for r in untraced)
        step_us = 1e6 * (solver_s - record_s) / replica_steps(cfg)
        floor_fraction = (cfg["model"]["p"] + 1) * normal_ns * 1e-3 / step_us
    solves = layers["steady.solve_fixed_point"]["calls"]
    converged = traced[0]["counters"].get("steady.converged", 0)
    out.update({
        "simulate.record.self_s": (record_s, "s"),
        "simulate.loop.self_s": (layers["simulate.run_trajectory"]["self_s"], "s"),
        "simulate.step_us": (step_us, "us"),
        "simulate.draw_floor_fraction": (floor_fraction, "ratio"),
        "machine.ns_per_normal": (normal_ns, "ns"),
        "pde.steps": (layers["pde.step"]["calls"], "count"),
        "steady.converged_ratio": (converged / solves if solves else 0.0, "ratio"),
        "cli.rows_written": (rows, "count"),
        # rounds alternate, so each traced round is paired with the untraced one before it
        "trace.overhead_s": (median(t["wall_run_s"] - u["wall_run_s"]
                                    for u, t in zip(untraced, traced)), "s"),
    })
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.monotonic()
    command, cfg = WORKLOADS[name]
    cfg = copy.deepcopy(cfg)
    cfg["simulation"]["seed"] = seed
    rundir = RUNS / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    config_path = rundir / "config.json"
    config_path.write_text(json.dumps(cfg, indent=1))
    runner = Runner(rundir, started + BUDGET_S)

    setup_runs = [runner.child(config_path) for _ in range(SETUP_REPS)]

    untraced, traced, digests, differing = [], [], None, []
    measure_end = time.monotonic() + seconds
    while True:
        is_traced = trace and len(untraced) > len(traced)
        outdir = rundir / f"round-{len(untraced) + len(traced)}"
        result = runner.run(config_path, command, outdir, seed, is_traced)
        (traced if is_traced else untraced).append(result)
        if digests is None:
            digests, first_out = table_digests(outdir), outdir
        elif table_digests(outdir) != digests:
            differing.append(outdir.name)
        else:
            shutil.rmtree(outdir)
        if time.monotonic() >= measure_end and (traced or not trace):
            break

    rounds = len(untraced) + len(traced)
    normal_ns = median(r["ns_per_normal"] for r in untraced + traced)
    verdict = verify(name, cfg, first_out, runner, seed)
    verdict.require(not differing, f"tables of {', '.join(differing)} differ from round-0")
    rows = rows_written(first_out)
    if verdict.correct:
        for outdir in rundir.iterdir():
            if outdir.is_dir():
                shutil.rmtree(outdir)
    setup_runs += untraced
    setups = [r["setup_s"] for r in setup_runs]
    if trace:
        metrics = layer_metrics(name, cfg, traced, untraced, normal_ns, rows)
    else:
        work = replica_steps(cfg) if command == "simulate" else verdict.attempted
        metrics = end_to_end_metrics(untraced, setups, work)
    result = {
        "correct": verdict.correct,
        "attempted": verdict.attempted * rounds,
        "failed": verdict.failed * rounds,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    facts = {"workload": name, "seed": seed, "rounds": rounds, "nproc": os.cpu_count(),
             "numpy": untraced[0]["numpy"], "python": sys.version.split()[0],
             "ns_per_normal": normal_ns, "setup_s": setups,
             "run_s": [r["run_s"] for r in untraced],
             "wall_setup_s": [r["wall_setup_s"] for r in setup_runs],
             "wall_run_s": [r["wall_run_s"] for r in untraced],
             "traced_wall_run_s": [r["wall_run_s"] for r in traced],
             "problems": verdict.problems}
    (rundir / "result.json").write_text(json.dumps({**facts, **result}, indent=1) + "\n")
    for problem in verdict.problems:
        print(f"{name}: check failed: {problem}")
    print(f"{name}: rounds={rounds} attempted={result['attempted']} failed={result['failed']} "
          f"nproc={facts['nproc']} numpy={facts['numpy']} ns_per_normal={normal_ns:.2f}")
    print(f"{name}: wall-clock medians: setup {median(facts['wall_setup_s']):.4g} s, "
          f"run {median(facts['wall_run_s']):.4g} s")
    for key, (value, unit) in metrics.items():
        print(f"{name}: {key} = {value:.6g} {unit}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "oistlab" / "__init__.py").is_file():
        print(f"no oistlab source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results if args.workload == "all" else results[names[0]]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
