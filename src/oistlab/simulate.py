"""Online estimator on a spiked sample stream, with streaming metrics.

One update consumes one sample and never stores it:

    x_tilde = x + (tau / p) * y * (y . x)
    x'      = sqrt(p) * eta(x_tilde) / ||eta(x_tilde)||

At beta = 0 this is the classical Oja recursion. The model is one
`nonlinearity.Dynamics` (tau, omega, beta), the object every
limit route takes too; `run_trajectory` adds the dimension p and the
root seed as plain arguments, and `oist_step` reads p off the sample.
Metrics (overlap with the signal, conditional coordinate histograms,
support misclassification) are recorded at requested rescaled times
t = k / p, and a run ends at the last of them, as `pde.solve` does. The
CLI's `simulation.t_max` is not passed: it bounds the configured time
lists and sets their null defaults (`config.resolve_times`).

Monte Carlo engine. `run_trajectory` advances a batch of replicas
together as the rows of preallocated (rows, p) arrays and updates them
in place; `oist_step` runs the same update on one row. Each replica
keeps its own (seed, replica) generator and fills its row of a
(rows, steps, p + 1) draw buffer with one generator call per block of
steps. Each sample takes p + 1 values, the spike coefficient c first and
then the noise a: the order in which `priors.next_sample` draws them, so
the stream is the same value for value. The update performs the same
floating-point operations, in the same order, as the one-sample form,
and takes the row dot products and norms from the same BLAS dot as
`y @ x` and `np.linalg.norm`. A replica's trajectory therefore does not
depend on the batch it runs in or on the number of worker processes.

Memory: a batch holds max(1, BATCH_ELEMENTS // p) rows, so each (rows, p)
buffer (estimates, signals, samples) stays within 256 KiB when p <=
BATCH_ELEMENTS, and the draw buffer holds as many steps as fit in
DRAW_BLOCK_ELEMENTS values (1 MiB), at least one. With n workers the
replicas are split into n contiguous chunks, and each worker runs its
chunk in batches of near-equal size.
"""
from __future__ import annotations

import math
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateStateError, NumericError
from .nonlinearity import Dynamics
from .priors import Prior, draw_signal, make_rng

# doubles in one (rows, p) state or sample buffer of a batch
BATCH_ELEMENTS = 2 ** 15
# doubles in one batch's draw buffer: several steps per generator call
DRAW_BLOCK_ELEMENTS = 2 ** 17

_CONTINUOUS_HISTOGRAMS = "conditional histograms require a discrete-prior signal"


@dataclass
class Trajectory:
    """One Monte Carlo run; row i of every per-replica array is replica i.

    ``q_values`` and ``misclass`` have shape (replicas, times), and
    ``histogram_counts`` holds the int bin counts of shape (replicas,
    histogram_times, atoms, bins): an atom without occupants is a row of
    zeros. ``atoms`` is empty when no histogram is taken. The costs are
    the replica-steps, replica-steps per wall second of the run, and the
    seconds spent drawing, updating and recording, summed over the workers.
    """

    seed: int
    times: np.ndarray
    histogram_times: np.ndarray
    bin_edges: np.ndarray
    atoms: np.ndarray
    q_values: np.ndarray
    misclass: np.ndarray
    histogram_counts: np.ndarray
    replica_steps: int
    steps_per_s: float
    draw_s: float
    update_s: float
    record_s: float


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product of each row of a with the same row of b.

    Stacked matmul reaches the BLAS dot behind 1-D `a @ b` and
    `np.linalg.norm`, so each value is bit-identical to the 1-D call;
    einsum sums in another order and is not.
    """
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


@contextmanager
def _row_buffer(p: int):
    """Cap numpy's ufunc buffer at one row of p values while rows are updated.

    A ufunc that broadcasts one value per row over a (rows, p) array
    copies those values across rows into its buffer when the buffer is
    longer than a row; that copy costs about twice the arithmetic. The
    buffer size never changes an elementwise result.
    """
    # numpy < 2 takes only multiples of 16
    previous = np.setbufsize(min(np.getbufsize(), max(16, p - p % 16)))
    try:
        yield
    finally:
        np.setbufsize(previous)


def _update_rows(x: np.ndarray, y: np.ndarray, tau: float, shrink: float) -> np.ndarray:
    """One online update of each row of x against the same row of y, in place.

    ``shrink`` is beta / p (0 for plain Oja). y is overwritten.
    Returns the row norms after shrinkage; rows are renormalized to norm
    sqrt(p) only when no norm is 0, which the caller reports.
    """
    p = x.shape[1]
    y *= ((tau / p) * _row_dots(y, x))[:, None]
    x += y
    if shrink:
        # sign(x) * (beta / p) equals beta * sign(x) / p exactly: sign is -1, 0 or 1
        np.sign(x, out=y)
        y *= shrink
        x -= y
    norms = np.sqrt(_row_dots(x, x))
    if norms.all():
        x *= (math.sqrt(p) / norms)[:, None]
    return norms


def oist_step(x: np.ndarray, y: np.ndarray, dynamics: Dynamics) -> np.ndarray:
    """The estimate after one online update of x against the sample y, renormalized
    to norm sqrt(p); x is not changed.

    p is the length of the sample; the SNR of ``dynamics`` is not read.
    """
    x = np.array(x, dtype=float, ndmin=2)
    y = np.array(y, dtype=float, ndmin=2)
    norms = _update_rows(x, y, dynamics.tau, dynamics.beta / y.shape[1])
    if norms[0] == 0.0:
        raise DegenerateStateError("estimate vanished after thresholding")
    return x[0]


def cosine_similarity(x: np.ndarray, xi: np.ndarray) -> float:
    """Normalized inner product of estimate and signal, clipped to [-1, 1];
    a non-finite value, which clipping would turn into -1, raises ``NumericError``."""
    nx = np.linalg.norm(x)
    nxi = np.linalg.norm(xi)
    if nx == 0.0 or nxi == 0.0:
        raise ValueError("cosine similarity undefined for a zero vector")
    value = float(x @ xi) / (nx * nxi)
    if not math.isfinite(value):
        raise NumericError(f"cosine similarity is {value}: the estimate is not finite")
    return min(1.0, max(-1.0, value))


def _checked_bin_edges(bin_edges) -> np.ndarray:
    """The edges as floats, refused unless 1-D and strictly increasing with >= 2 entries."""
    bin_edges = np.asarray(bin_edges, dtype=float)
    if bin_edges.ndim != 1 or bin_edges.size < 2 or not np.all(np.diff(bin_edges) > 0):
        raise ConfigError("bin edges must be strictly increasing with >= 2 entries")
    return bin_edges


def _check_theta(theta: float) -> None:
    if not 0 < theta < math.inf:  # NaN fails too
        raise ConfigError(f"support threshold theta must be finite and > 0, got {theta}")


def joint_histogram(x: np.ndarray, xi: np.ndarray, prior: Prior,
                    bin_edges: np.ndarray) -> np.ndarray:
    """Bin counts of the coordinates {x_i : xi_i = atom}, of shape (atoms, bins),
    one row per atom of the prior that drew xi; an atom without occupants is a
    row of zeros."""
    if not prior.is_discrete:
        raise ConfigError(_CONTINUOUS_HISTOGRAMS)
    bin_edges = _checked_bin_edges(bin_edges)
    return np.array([np.histogram(x[xi == atom], bins=bin_edges)[0]
                     for atom in prior.atom_values.tolist()])


def misclassification_rate(x: np.ndarray, xi: np.ndarray, theta: float) -> float:
    """Fraction of coordinates whose support call |x_i| > theta disagrees with xi_i != 0."""
    _check_theta(theta)
    est_support = np.abs(x) > theta
    true_support = xi != 0.0
    return float(np.mean(est_support != true_support))


def _steps_for(times, p: int) -> np.ndarray:
    # epsilon guards against p*t landing just below an integer for decimal t
    return np.floor(np.asarray(times, dtype=float) * p + 1e-9).astype(np.int64)


@dataclass(frozen=True)
class _Run:
    """Everything the batches of one run share; pickled to worker processes."""

    prior: Prior
    dynamics: Dynamics
    p: int
    seed: int
    record_times: np.ndarray
    histogram_times: np.ndarray
    x0_mean: float
    x0_var: float
    bin_edges: np.ndarray
    atoms: np.ndarray
    theta: float


def _split(items: range, parts: int) -> list[range]:
    """Contiguous sub-ranges whose lengths differ by at most one."""
    size, extra = divmod(len(items), parts)
    bounds = [items.start + i * size + min(i, extra) for i in range(parts + 1)]
    return [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def _run_batch(run: _Run, replicas: range,
               timings: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Advance the replicas together, one row each, and return their
    overlaps, misclassification rates and histogram counts.

    Adds the seconds spent drawing, updating and recording to timings[0],
    timings[1] and timings[2]; the clock is read once per draw block and
    once per record event.
    """
    p = run.p
    rows = len(replicas)
    rngs = [make_rng(run.seed, replica) for replica in replicas]
    signals = [draw_signal(run.prior, p, rng) for rng in rngs]
    for replica, signal in zip(replicas, signals):
        if not signal.any():
            raise DegenerateStateError(f"replica {replica}: the signal drawn at p = {p} is "
                                       "all zeros, so its overlap is undefined")
    x = np.empty((rows, p))
    for row, rng in zip(x, rngs):
        row[:] = run.x0_mean + math.sqrt(run.x0_var) * rng.standard_normal(p)
    xi = np.stack(signals)
    block = max(1, DRAW_BLOCK_ELEMENTS // (rows * (p + 1)))
    draws = np.empty((rows, block, p + 1))
    y = np.empty((rows, p))
    spike = np.sqrt(run.dynamics.omega / p)
    tau, shrink = run.dynamics.tau, run.dynamics.beta / p

    record_steps = _steps_for(run.record_times, p)
    hist_steps = _steps_for(run.histogram_times, p)
    events = sorted(set(record_steps.tolist()) | set(hist_steps.tolist()))
    q_values = np.empty((rows, len(record_steps)))
    misclass = np.empty((rows, len(record_steps)))
    counts = np.empty((rows, len(hist_steps), len(run.atoms), len(run.bin_edges) - 1),
                      dtype=np.int64)

    def record_at(k):
        for i in np.nonzero(record_steps == k)[0]:
            for row, signal in enumerate(signals):
                q_values[row, i] = cosine_similarity(x[row], signal)
                misclass[row, i] = misclassification_rate(x[row], signal, run.theta)
        for i in np.nonzero(hist_steps == k)[0]:
            for row, signal in enumerate(signals):
                counts[row, i] = joint_histogram(x[row], signal, run.prior, run.bin_edges)

    clock = time.perf_counter
    t_start = clock()
    record_at(0)
    t_done = clock()
    timings[2] += t_done - t_start
    k = 0
    for target in events:
        while k < target:
            n = min(block, target - k)
            for row, rng in zip(draws, rngs):
                rng.standard_normal(out=row[:n])
            t_drawn = clock()
            timings[0] += t_drawn - t_done
            with _row_buffer(p):
                for s in range(n):
                    np.multiply(xi, (spike * draws[:, s, 0])[:, None], out=y)
                    y += draws[:, s, 1:]
                    norms = _update_rows(x, y, tau, shrink)
                    k += 1
                    if not norms.all():
                        replica = replicas[int(np.flatnonzero(norms == 0.0)[0])]
                        raise DegenerateStateError(
                            f"replica {replica}: estimate vanished after "
                            f"thresholding at step {k}"
                        )
            t_done = clock()
            timings[1] += t_done - t_drawn
        if target > 0:
            record_at(target)
            t_start, t_done = t_done, clock()
            timings[2] += t_done - t_start

    return q_values, misclass, counts


def _run_chunk(run: _Run, replicas: range) -> tuple[np.ndarray, ...]:
    """Run a contiguous chunk of replicas in batches of near-equal size; returns
    `_run_batch`'s arrays over the chunk and the seconds spent drawing,
    updating and recording."""
    max_rows = max(1, BATCH_ELEMENTS // run.p)
    timings = np.zeros(3)
    batches = [_run_batch(run, batch, timings)
               for batch in _split(replicas, -(-len(replicas) // max_rows))]
    return (*map(np.concatenate, zip(*batches)), timings)


def default_bin_edges(rho: float, n_bins: int = 101) -> np.ndarray:
    """Uniform bin edges on [-2, 2 + 1/sqrt(rho)], covering both conditional
    densities of the default prior."""
    return np.linspace(-2.0, 2.0 + 1.0 / math.sqrt(rho), n_bins + 1)


def default_theta(rho: float) -> float:
    """Support threshold at the midpoint between the default prior's atoms."""
    return 0.5 / math.sqrt(rho)


def run_trajectory(
    prior: Prior,
    dynamics: Dynamics,
    p: int,
    seed: int,
    record_times,
    replicas: int,
    x0_spec: tuple[float, float] = (1.0 / math.sqrt(2.0), 0.5),
    histogram_times=None,
    bin_edges: np.ndarray | None = None,
    theta: float | None = None,
    n_workers: int = 1,
) -> Trajectory:
    """Run independent replicas of the online estimator and record metrics.

    Each replica draws a fresh signal of dimension p and a fresh i.i.d.
    initial estimate x0 ~ N(mean, var) from its own (seed, replica)
    stream, then takes updates with the step size, SNR and shrinkage of
    ``dynamics`` up to its last record or histogram time. Metrics are
    recorded at the requested rescaled times (step k = floor(p * t));
    histograms only at histogram_times (defaults to record_times), which
    must be empty for a continuous prior. Every time must be finite and
    >= 0. Replicas are deterministic functions of (seed, replica): with
    n_workers > 1 each worker process runs one contiguous chunk of them,
    with the same results: one `Trajectory` whose row i is replica i.
    """
    if p < 2:
        raise ConfigError(f"dimension p must be >= 2, got {p}")
    if replicas < 1:
        raise ConfigError(f"replicas must be >= 1, got {replicas}")
    record_times = np.asarray(record_times, dtype=float)
    if record_times.size == 0:
        raise ConfigError("record_times must not be empty")
    histogram_times = np.asarray(record_times if histogram_times is None else histogram_times,
                                 dtype=float)
    for name, times in (("record_times", record_times), ("histogram_times", histogram_times)):
        if not np.all((times >= 0) & (times < math.inf)):  # NaN fails too
            raise ConfigError(f"{name} must be finite and >= 0")
    if histogram_times.size and not prior.is_discrete:
        raise ConfigError(_CONTINUOUS_HISTOGRAMS)
    bin_edges = _checked_bin_edges(default_bin_edges(prior.rho) if bin_edges is None
                                   else bin_edges)
    theta = default_theta(prior.rho) if theta is None else theta
    _check_theta(theta)

    x0_mean, x0_var = float(x0_spec[0]), float(x0_spec[1])
    if not (abs(x0_mean) < math.inf and 0 < x0_var < math.inf):  # NaN fails too
        raise ConfigError(f"x0 law needs a finite mean and a finite variance > 0, got {x0_spec}")
    if x0_mean * prior.mean == 0.0:
        warnings.warn(
            "configured x0 law gives zero expected initial overlap; the "
            "deterministic limit requires a nonzero starting overlap",
            stacklevel=2,
        )

    atoms = prior.atom_values if histogram_times.size else np.empty(0)
    run = _Run(prior, dynamics, p, seed, record_times, histogram_times,
               x0_mean, x0_var, bin_edges, atoms, theta)
    chunks = _split(range(replicas), max(1, min(n_workers, replicas)))
    started = time.perf_counter()
    if len(chunks) > 1:
        with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            results = list(pool.map(_run_chunk, [run] * len(chunks), chunks))
    else:
        results = [_run_chunk(run, chunks[0])]
    wall_s = time.perf_counter() - started
    *arrays, timings = zip(*results)
    draw_s, update_s, record_s = sum(timings).tolist()
    # each replica stops at its last event
    steps = replicas * int(_steps_for(np.append(record_times, histogram_times), p).max())
    return Trajectory(seed, record_times, histogram_times, run.bin_edges, atoms,
                      *map(np.concatenate, arrays), replica_steps=steps,
                      steps_per_s=steps / wall_s, draw_s=draw_s, update_s=update_s,
                      record_s=record_s)
