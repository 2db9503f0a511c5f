"""One fresh process of the benchmark: set-up, then at most one CLI run.

    python3 bench/child.py RESULT CONFIG [COMMAND OUTDIR SEED TRACE SPANS]

Times the set-up a user of `oistlab` pays on every command (importing
the package, loading and validating CONFIG). With COMMAND it then times
one `oistlab COMMAND` on one worker process, writing its tables to
OUTDIR, and afterwards the cost of SFC64 normal draws in blocks of p + 1.
TRACE=1 wraps the program's layer functions in spans and writes them to
SPANS; TRACE=0 only times the single solver call the command makes.
RESULT receives the timings as JSON: `wall_*` in wall seconds and, with
TRACE=0, `setup_s`, `run_s` and `solver_s` in seconds at the reference
machine's speed (see calibrate.py). Run it with the source tree (`src`)
on PYTHONPATH.
"""
from __future__ import annotations

import contextlib
import json
import os
import resource
import sys
import time
from pathlib import Path

from calibrate import Pacer

# (module, attribute, layer): each function wrapped in the namespace its
# caller reads it from.
LAYERS = [
    ("oistlab.config", "load_config", "config.load_config"),
    ("oistlab.config", "validate_config", "config.validate_config"),
    ("oistlab.cli", "write_table", "cli.write_table"),
    ("oistlab.cli", "run_trajectory", "simulate.run_trajectory"),
    ("oistlab.simulate", "next_sample", "priors.next_sample"),
    ("oistlab.simulate", "oist_step", "simulate.oist_step"),
    ("oistlab.simulate", "eta_map", "nonlinearity.eta_map"),
    ("oistlab.simulate", "cosine_similarity", "simulate.cosine_similarity"),
    ("oistlab.simulate", "misclassification_rate", "simulate.misclassification_rate"),
    ("oistlab.simulate", "joint_histogram", "simulate.joint_histogram"),
    ("oistlab.pde", "solve", "pde.solve"),
    ("oistlab.pde", "auto_dt", "pde.auto_dt"),
    ("oistlab.pde", "step", "pde.step"),
    ("oistlab.pde", "moments", "pde.moments"),
    ("oistlab.cli", "sweep_omega", "steady.sweep_omega"),
    ("oistlab.steady", "solve_fixed_point", "steady.solve_fixed_point"),
    ("oistlab.steady", "default_r_init", "steady.default_r_init"),
    ("oistlab.steady", "fixed_point_map", "steady.fixed_point_map"),
]
# the one call each command makes into its solver
SOLVERS = [("oistlab.cli", "run_trajectory"), ("oistlab.pde", "solve"),
           ("oistlab.cli", "sweep_omega")]


def _count_converged(counters, result):
    counters["steady.converged"] = counters.get("steady.converged", 0) + int(result.converged)


def _time_solvers(modules, pacer: Pacer, sink: list) -> None:
    for mod, attr in SOLVERS:
        fn = getattr(modules[mod], attr, None)
        if fn is None:
            continue

        def timed(*args, _fn=fn, **kwargs):
            since = pacer.mark()
            try:
                return _fn(*args, **kwargs)
            finally:
                sink.append(pacer.scaled(since))

        setattr(modules[mod], attr, timed)


def ns_per_normal(p: int, reps: int = 201) -> float:
    """Median cost of one SFC64 standard normal, drawn in blocks of p + 1."""
    import numpy as np

    rng = np.random.Generator(np.random.SFC64(12345))
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        rng.standard_normal(p + 1)
        samples.append(time.perf_counter() - t0)
    samples.sort()
    return samples[reps // 2] * 1e9 / (p + 1)


def main(argv: list[str]) -> int:
    result_path, config_path = Path(argv[0]), argv[1]
    src = Path(os.environ["PYTHONPATH"].split(os.pathsep)[0]).resolve()
    traced = len(argv) > 2 and argv[5] == "1"
    # spans would take in the handler's time, so traced rounds run without it
    pacer = None if traced else Pacer()
    if pacer:
        pacer.start()

    t0 = time.perf_counter()
    since = pacer.mark() if pacer else None
    import oistlab.cli
    from oistlab import config as cfgmod

    if not Path(oistlab.__file__).resolve().is_relative_to(src):
        print(f"oistlab was imported from {oistlab.__file__}, not from {src}", file=sys.stderr)
        return 2
    tracer = None
    solver_s: list[tuple[float, float]] = []
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        for mod, attr, layer in LAYERS:
            after = _count_converged if layer == "steady.solve_fixed_point" else None
            tracer.wrap(sys.modules[mod], attr, layer, after)
    cfg = cfgmod.load_config(config_path)
    cfgmod.validate_config(cfg)
    if pacer:
        result = dict(zip(("wall_setup_s", "setup_s"), pacer.scaled(since)))
    else:
        result = {"wall_setup_s": time.perf_counter() - t0}

    if len(argv) > 2:
        command, outdir, seed, _, spans_path = argv[2:7]
        if pacer:
            _time_solvers(sys.modules, pacer, solver_s)
        cli_argv = [command, "--config", config_path, "--output", outdir,
                    "--seed", seed, "--threads", "1"]
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            t1 = time.perf_counter()
            since = pacer.mark() if pacer else None
            code = oistlab.cli.main(cli_argv)
            if pacer:
                result["wall_run_s"], result["run_s"] = pacer.scaled(since)
            else:
                result["wall_run_s"] = time.perf_counter() - t1
        if pacer:
            result.update(wall_solver_s=sum(w for w, _ in solver_s) or None,
                          solver_s=sum(s for _, s in solver_s) or None)
        result.update(exit_code=code,
                      peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                      ns_per_normal=ns_per_normal(int(cfg["model"]["p"])),
                      numpy=sys.modules["numpy"].__version__)
        if tracer is not None:
            result.update(layers=tracer.summary(), counters=tracer.counters)
            tracer.save(spans_path)
    if pacer:
        pacer.stop()
    result_path.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
