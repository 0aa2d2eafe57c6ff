"""The three seeded workloads: inputs, set-up, timed loop, output checks.

Every workload runs through public entry points only
(``FasdaMachine``, ``DistributedMachine``, ``JobQueue`` + ``run_jobs``).
The seed makes the inputs; the program receives only those inputs.

A workload returns an :class:`Outcome`.  End-to-end numbers come from
the untraced operations of the timed window.  With tracing on, untraced
and traced operations alternate in the window (a step each, or a drain
each), so the host's drift over minutes cancels out of
``trace.overhead_frac``, the median traced-over-untraced gap.

Simulated counts (pairs, records, packets, modelled cycles, scheduler
and checkpoint counts) are read over a fixed number of operations right
after set-up, so they depend on the seed alone and repeat exactly from
run to run.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from statistics import median
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.config import MachineConfig
from repro.core.cycles import estimate_performance
from repro.core.distributed import DistributedMachine
from repro.core.elasticity import fpga_grid_for
from repro.core.machine import FasdaMachine
from repro.faults.health import GuardConfig
from repro.harness.jobs import BATCH_MAX_N_DEFAULT, DONE, JobQueue, run_jobs
from repro.md.batch import solo_oracle_impl
from repro.md.dataset import build_dataset
from repro.md.engine import ReferenceEngine
from repro.md.reference import compute_forces_cells

from spans import KERNEL_ITEMS, Tracer, traced_backend, traced_service_layers

FORCE_IMPL = "cext"

#: Set-up repetitions per MD run; ``setup_s`` is their median.  One
#: set-up takes about 0.2-0.6 s; 3 of them spread by up to 0.27 of the
#: median from seed to seed.
SETUP_REPS = 9

#: Output bounds, taken from the repository's own tests:
#: tests/test_machine.py (float64 force error, energy drift) and
#: tests/test_distributed.py (distributed vs single machine).
MACHINE_FORCE_TOL = 1e-3
MACHINE_DRIFT_TOL = 5e-3
DISTRIBUTED_FORCE_TOL = 1e-5
#: The exclusive phases must cover this share of the measured step wall.
PHASE_GAP_TOL = 0.05

MACHINE_PHASES = ("build", "force", "traffic", "ring", "integrate")
DISTRIBUTED_PHASES = ("build", "exchange", "force", "integrate")


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    #: Seconds per operation (a ``step()`` call or a job's submit -> DONE).
    latencies_s: List[float] = field(default_factory=list)
    #: Timesteps advanced in the untraced timed window, and its wall.
    work_steps: int = 0
    wall_s: float = 0.0
    setup_s: List[float] = field(default_factory=list)
    operations: int = 0
    failed_operations: int = 0
    #: ``(name, ok, detail)`` for every output check.
    checks: List[Tuple[str, bool, str]] = field(default_factory=list)
    #: Exact, seed-determined simulated counts.
    sim: Dict[str, float] = field(default_factory=dict)
    #: Per-layer metrics of the traced operations (trace runs only).
    layers: Dict[str, float] = field(default_factory=dict)
    #: Further end-to-end figures printed for people, not gated.
    extra: Dict[str, Tuple[float, str]] = field(default_factory=dict)

    def check(self, name: str, ok: bool, detail: str) -> None:
        self.checks.append((name, bool(ok), detail))


def _run_for(op: Callable[[], None], seconds: float) -> None:
    """Call ``op`` until the next call would overrun ``seconds``."""
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        op()
        t1 = time.perf_counter()
        if (t1 - start) + (t1 - t0) > seconds:
            return


def _clocked(fn: Callable[[], object], into: List[float]) -> None:
    """Call ``fn`` and append its wall time to ``into``."""
    t0 = time.perf_counter()
    fn()
    into.append(time.perf_counter() - t0)


def _timed_setups(make: Callable[[], object]) -> Tuple[object, List[float]]:
    """Build ``SETUP_REPS`` times; keep the last object."""
    times, obj = [], None
    for _ in range(SETUP_REPS):
        obj = None  # let the previous one go before building the next
        t0 = time.perf_counter()
        obj = make()
        times.append(time.perf_counter() - t0)
    return obj, times


def _rel_force_error(got: np.ndarray, ref: np.ndarray) -> float:
    ref = ref.astype(np.float64)
    return float(
        np.abs(got.astype(np.float64) - ref).max() / np.abs(ref).max()
    )


def _kernel_layers(
    out: Dict[str, float], tracer: Tracer, since: int, steps: int, wall: float
) -> None:
    """``backends.*`` metrics over the traced window."""
    for kernel in KERNEL_ITEMS:
        calls, sec, items = tracer.total("backends", kernel, since)
        out[f"backends.{kernel}.calls_per_step"] = calls / steps
        out[f"backends.{kernel}.ms_per_step"] = 1e3 * sec / steps
        out[f"backends.{kernel}.ns_per_item"] = 1e9 * sec / items if items else 0.0
    out["backends.self_frac"] = tracer.self_seconds("backends", since) / wall


def _phase_layers(
    outcome: Outcome,
    prefix: str,
    phases: Tuple[str, ...],
    snap: Dict[str, float],
    step_wall: float,
    steps: int,
) -> None:
    """Exclusive per-step phase times plus the unaccounted remainder.

    ``ring`` is charged inside ``traffic`` by the machine, so it is
    subtracted to make the phases additive.
    """
    excl = {p: snap.get(p, 0.0) for p in phases}
    if "ring" in excl:
        excl["traffic"] -= excl["ring"]
    other = step_wall - sum(excl.values())
    for p, sec in excl.items():
        outcome.layers[f"{prefix}.{p}_ms"] = 1e3 * sec / steps
    outcome.layers[f"{prefix}.other_ms"] = 1e3 * other / steps
    gap = abs(other) / step_wall
    outcome.check(
        f"{prefix}_phases_sum_to_step_wall",
        gap <= PHASE_GAP_TOL,
        f"unaccounted {gap:.4f} of step wall (limit {PHASE_GAP_TOL})",
    )


# ---------------------------------------------------------------------------
# machine_dense: one FasdaMachine, N=9600, 2 FPGA nodes
# ---------------------------------------------------------------------------

#: The jittered-lattice start keeps every particle in its cell for the
#: first ~45 steps, so persistent cell state is reused; from ~60 steps
#: on, some particle changes cell every step and the state is rebuilt
#: every step.  Inputs are run past that change by the float64
#: reference engine, so the timed window sees the steady state a long
#: trajectory spends its time in.
EQUILIBRATION_STEPS = 64


def _equilibrated(dims, seed: int):
    """The paper dataset for ``dims``, after :data:`EQUILIBRATION_STEPS`."""
    system, grid = build_dataset(dims, seed=seed)
    eng = ReferenceEngine(system, grid, reuse_state=True, force_impl=FORCE_IMPL)
    eng.run(EQUILIBRATION_STEPS, record_every=0)
    return eng.system, grid


MACHINE_DIMS = (5, 5, 6)
MACHINE_GRID = (1, 1, 2)
MACHINE_WARM_STEPS = 4
#: Energy drift is checked every 10 steps over the first 40 after set-up,
#: the window of tests/test_machine.py, whatever ``--seconds`` is.
DRIFT_STEPS = 40
DRIFT_EVERY = 10


def machine_dense(seed: int, seconds: float, tracer: Optional[Tracer]) -> Outcome:
    out = Outcome()
    system, grid = _equilibrated(MACHINE_DIMS, seed)
    cfg = MachineConfig(MACHINE_DIMS, MACHINE_GRID)

    def make():
        m = FasdaMachine(cfg, system=system)
        m.force_impl, m.reuse_state = FORCE_IMPL, True
        return m, m.run(0)[0].total

    (m, e0), out.setup_s = _timed_setups(make)
    done, drift = 0, []

    def step():
        nonlocal done
        m.step(collect_traffic=True)
        done += 1

    def note_drift():
        if done <= DRIFT_STEPS and done % DRIFT_EVERY == 0:
            e = m.kinetic_energy() + m.last_stats.potential_energy
            drift.append(abs(e - e0) / abs(e0))

    # Warm-up over a fixed step count; its last pass gives the exact
    # simulated workload of this seed.
    for _ in range(MACHINE_WARM_STEPS):
        step()
        note_drift()
    stats = m.last_stats
    perf = estimate_performance(cfg, stats)
    out.sim = {
        "pairs_candidate": stats.total_candidates,
        "pairs_accepted": stats.total_accepted,
        "position_records": sum(stats.position_records.values()),
        "force_records": sum(stats.force_records.values()),
        "iteration_cycles": perf.iteration_cycles,
        "force_cycles": perf.force_cycles,
        "sync_cycles": perf.sync_cycles,
    }

    plain: List[float] = []
    traced: List[float] = []
    traced_step = tracer.wrap("machine", "step", step) if tracer else None
    builds = 0
    since = tracer.mark() if tracer else 0
    m.timings.reset()

    def op():
        nonlocal builds
        _clocked(step, plain)
        note_drift()
        if tracer is not None:
            b0 = m.last_stats.state_builds
            m.timings.enabled = True
            with traced_backend(tracer, FORCE_IMPL):
                _clocked(traced_step, traced)
            m.timings.enabled = False
            builds += m.last_stats.state_builds - b0
            note_drift()

    _run_for(op, seconds)
    while done < DRIFT_STEPS:  # a short window: finish the drift check
        step()
        note_drift()
    out.latencies_s = plain
    out.work_steps, out.wall_s = len(plain), sum(plain)
    out.operations = len(plain) + len(traced)

    if tracer is not None:
        m.timings.enabled = True
        snap = m.timings.snapshot()
        m.timings.enabled = False
        n, wall = len(traced), sum(traced)
        _kernel_layers(out.layers, tracer, since, n, wall)
        _phase_layers(out, "machine", MACHINE_PHASES, snap, wall, n)
        out.layers.update({
            "machine.rebuild_frac": builds / n,
            "machine.pairs_candidate": out.sim["pairs_candidate"],
            "machine.pairs_accepted": out.sim["pairs_accepted"],
            "machine.acceptance_rate": stats.acceptance_rate,
            "machine.host_ns_per_pair": (
                1e9 * snap["force"] / n / out.sim["pairs_candidate"]
            ),
            "cycles.iteration_cycles": perf.iteration_cycles,
            "cycles.force_cycles": perf.force_cycles,
            "cycles.sync_cycles": perf.sync_cycles,
            "cycles.sim_us_per_day": perf.rate_us_per_day,
            "cycles.host_per_sim_ratio": median(plain) / perf.seconds_per_step,
            "trace.overhead_frac": median(traced) / median(plain) - 1.0,
        })

    f_ref, _ = compute_forces_cells(m.system, grid)
    err = _rel_force_error(m.forces, f_ref)
    out.check(
        "machine_forces_vs_float64", err < MACHINE_FORCE_TOL,
        f"max |df| / max |f| = {err:.3e} (limit {MACHINE_FORCE_TOL})",
    )
    out.check(
        "machine_energy_drift", max(drift) < MACHINE_DRIFT_TOL,
        f"max |dE| / |E0| = {max(drift):.3e} at steps {DRIFT_EVERY}.."
        f"{DRIFT_STEPS} (limit {MACHINE_DRIFT_TOL})",
    )
    return out


# ---------------------------------------------------------------------------
# distributed_halo: DistributedMachine, N=4096, 4 nodes in a 2-D partition
# ---------------------------------------------------------------------------

DIST_DIMS = (4, 4, 4)
DIST_NODES = 4
DIST_WARM_STEPS = 2


def distributed_halo(seed: int, seconds: float, tracer: Optional[Tracer]) -> Outcome:
    out = Outcome()
    system, _ = _equilibrated(DIST_DIMS, seed)
    cfg = MachineConfig(DIST_DIMS, fpga_grid_for(DIST_DIMS, DIST_NODES))

    def make():
        d = DistributedMachine(cfg, system=system, parallel=False)
        d.force_impl, d.reuse_state = FORCE_IMPL, True
        d.run(0)
        return d

    def single_machine(state):
        m = FasdaMachine(cfg, system=state)
        m.force_impl, m.reuse_state = FORCE_IMPL, True
        return m

    d, out.setup_s = _timed_setups(make)
    try:
        p0, f0 = d.total_position_packets, d.total_force_packets
        for _ in range(DIST_WARM_STEPS):
            d.step()
        out.sim = {
            "position_packets_per_step": (
                (d.total_position_packets - p0) / DIST_WARM_STEPS
            ),
            "force_packets_per_step": (
                (d.total_force_packets - f0) / DIST_WARM_STEPS
            ),
        }

        plain: List[float] = []
        traced: List[float] = []
        single: List[float] = []
        builds = reused = 0
        if tracer is not None:
            # The base of ``distributed.machine_ratio`` (the ROADMAP
            # step-time ratio): a single machine on the same input, its
            # steps timed between the distributed ones.
            m = single_machine(system)
            m.run(0)
            m.step()
            traced_step = tracer.wrap("distributed", "step", d.step)
            since = tracer.mark()
            d.timings.reset()

        def op():
            nonlocal builds, reused
            _clocked(d.step, plain)
            if tracer is not None:
                b0, r0 = d.state_builds, d.state_reused_steps
                d.timings.enabled = True
                with traced_backend(tracer, FORCE_IMPL):
                    _clocked(traced_step, traced)
                d.timings.enabled = False
                builds += d.state_builds - b0
                reused += d.state_reused_steps - r0
                _clocked(m.step, single)

        _run_for(op, seconds)
        out.latencies_s = plain
        out.work_steps, out.wall_s = len(plain), sum(plain)
        out.operations = len(plain) + len(traced)

        if tracer is not None:
            d.timings.enabled = True
            snap = d.timings.snapshot()
            d.timings.enabled = False
            n, wall = len(traced), sum(traced)
            _kernel_layers(out.layers, tracer, since, n, wall)
            _phase_layers(out, "distributed", DISTRIBUTED_PHASES, snap, wall, n)
            out.layers.update({
                "distributed.position_packets_per_step":
                    out.sim["position_packets_per_step"],
                "distributed.force_packets_per_step":
                    out.sim["force_packets_per_step"],
                "distributed.state_reuse_frac": reused / (reused + builds),
                "distributed.machine_ratio": median(plain) / median(single),
                "trace.overhead_frac": median(traced) / median(plain) - 1.0,
            })

        # The single machine on the very same positions is the oracle.
        oracle = single_machine(d.system)
        oracle.compute_forces(collect_traffic=False)
        err = _rel_force_error(d.forces, oracle.forces)
        out.check(
            "distributed_forces_vs_machine", err < DISTRIBUTED_FORCE_TOL,
            f"max |df| / max |f| = {err:.3e} (limit {DISTRIBUTED_FORCE_TOL})",
        )
    finally:
        d.close()
    return out


# ---------------------------------------------------------------------------
# job_ensemble: 256 seeded jobs drained by one run_jobs service
# ---------------------------------------------------------------------------

#: Particles per cell of a 3x3x3 box: 48% of the jobs at N=54, 48% at
#: N=108 and 4% (10 jobs) at N=432.  The N=432 jobs exceed
#: ``batch_max_n`` and route solo.
SMALL_PPC, MID_PPC, SOLO_PPC = 2, 4, 16
N_JOBS, N_SOLO = 256, 10
#: Step budgets, cycled per size.  Half of 100/200/400: one drain then
#: takes a few seconds, so each run pools several drains; a single
#: drain's latency median moved by up to 22% of itself with host noise.
JOB_BUDGETS = (50, 100, 200)
JOB_DIMS = (3, 3, 3)
#: Jobs checked bitwise against a solo ReferenceEngine run.
JOB_SAMPLE_BATCHED = 3
#: Queue builds per run: ``setup_s`` of this workload is ~10 ms.
JOB_SETUP_REPS = 9
#: Warm-up drain: one short job per size.
WARM_BUDGET = 20


def _job_plan() -> List[Tuple[int, int]]:
    """``(particles per cell, step budget)`` per queue slot.

    The pattern is fixed: solo jobs evenly spaced, the two co-batched
    sizes alternating between them, budgets cycling per size.  Where a
    solo job sits decides when it blocks co-admission, so a seeded
    order would move the latency median by ~25% from seed to seed.
    """
    solo_at = {round((k + 0.5) * N_JOBS / N_SOLO) for k in range(N_SOLO)}
    seen: Dict[int, int] = {}
    plan, small_turn = [], True
    for slot in range(N_JOBS):
        if slot in solo_at:
            ppc = SOLO_PPC
        else:
            ppc = SMALL_PPC if small_turn else MID_PPC
            small_turn = not small_turn
        k = seen.get(ppc, 0)
        seen[ppc] = k + 1
        plan.append((ppc, JOB_BUDGETS[k % len(JOB_BUDGETS)]))
    return plan


def _job_inputs(seed: int):
    """Every job's system is drawn from ``seed``; see :func:`_job_plan`."""
    rng = np.random.default_rng(seed)
    return [
        (
            build_dataset(
                JOB_DIMS, particles_per_cell=ppc, seed=int(rng.integers(2**31))
            ),
            budget,
        )
        for ppc, budget in _job_plan()
    ]


def _submit_all(inputs) -> Tuple[JobQueue, List[int], List[float]]:
    q = JobQueue()
    ids, submitted = [], []
    for (system, grid), budget in inputs:
        ids.append(q.submit(system.copy(), grid, steps=budget))
        submitted.append(time.perf_counter())
    return q, ids, submitted


def _drain(q: JobQueue, ids: List[int], submitted: List[float], scratch: str):
    """One ``run_jobs`` drain; returns (wall, latencies, summary, workdir).

    Completion is stamped at the chunk boundary where a job turns DONE,
    after its result and journal line are durable.  An error raised out
    of ``run_jobs`` ends the drain: the summary is then only
    ``{"error": ...}``, and the jobs it left unfinished count as failed.
    """
    workdir = tempfile.mkdtemp(prefix="jobs-", dir=scratch)
    done_at: Dict[int, float] = {}
    pending = list(ids)

    def on_chunk(_index, _engine):
        nonlocal pending
        now = time.perf_counter()
        still = []
        for jid in pending:
            if q.status(jid) == DONE:
                done_at[jid] = now
            else:
                still.append(jid)
        pending = still

    t0 = time.perf_counter()
    try:
        summary = run_jobs(
            q, force_impl=FORCE_IMPL, guard=GuardConfig(), workdir=workdir,
            on_chunk=on_chunk,
        )
    except Exception as exc:  # counted in ``failed``, not re-raised
        summary = {"error": f"{type(exc).__name__}: {exc}"}
    wall = time.perf_counter() - t0
    lat = [done_at[j] - s for j, s in zip(ids, submitted) if j in done_at]
    return wall, lat, summary, workdir


#: Scheduler counts of a drain's summary that are reported.
SUMMARY_COUNTS = ("batches_formed", "chunks", "swaps", "quarantined")


@dataclass
class _Drain:
    """What is kept of one drain once its queue is dropped."""

    wall_s: float
    summary: dict
    traced: bool
    since: int  # first span of this drain
    journal_bytes: int
    not_done: int
    #: Timesteps of the jobs that reached DONE.
    steps: int
    #: Final state of each sampled job that reached DONE, by queue slot.
    sampled: Dict[int, object]


def _solo_reference(system, grid, steps: int):
    eng = ReferenceEngine(
        system.copy(), grid, dt_fs=2.0, shift=False, reuse_state=True,
        force_impl=solo_oracle_impl(FORCE_IMPL),
    )
    eng.run(steps, record_every=0)
    return eng.system


def _bitwise_equal(a, b) -> bool:
    return np.array_equal(a.positions, b.positions) and np.array_equal(
        a.velocities, b.velocities
    )


def job_ensemble(
    seed: int, seconds: float, tracer: Optional[Tracer], scratch: str
) -> Outcome:
    out = Outcome()
    inputs = _job_inputs(seed)
    # A seeded sample checked bitwise: one solo-routed job, a few batched.
    pick = np.random.default_rng([seed, 1])
    big = [i for i, ((s, _), _) in enumerate(inputs) if s.n > BATCH_MAX_N_DEFAULT]
    small = [i for i, ((s, _), _) in enumerate(inputs) if s.n <= BATCH_MAX_N_DEFAULT]
    sample = [int(pick.choice(big))] + [
        int(i) for i in pick.choice(small, JOB_SAMPLE_BATCHED, replace=False)
    ]

    # Warm-up: plan cache, kernels, engine and file-system paths.
    warm = []
    for ppc in (SMALL_PPC, MID_PPC, SOLO_PPC):
        s, g = build_dataset(JOB_DIMS, particles_per_cell=ppc, seed=seed)
        warm.append(((s, g), WARM_BUDGET))
    shutil.rmtree(_drain(*_submit_all(warm), scratch)[3])

    drains: List[_Drain] = []

    def one_drain(traced: bool):
        t0 = time.perf_counter()
        q, ids, submitted = _submit_all(inputs)
        out.setup_s.append(time.perf_counter() - t0)
        since = tracer.mark() if traced else 0
        with contextlib.ExitStack() as stack:
            if traced:
                stack.enter_context(traced_backend(tracer, FORCE_IMPL))
                stack.enter_context(traced_service_layers(tracer))
            wall, lat, summary, workdir = _drain(q, ids, submitted, scratch)
        journal = os.path.join(workdir, "jobs.jsonl")
        journal_bytes = os.path.getsize(journal) if os.path.exists(journal) else 0
        shutil.rmtree(workdir)
        done = [q.status(j) == DONE for j in ids]
        steps = sum(b for (_, b), ok in zip(inputs, done) if ok)
        drains.append(_Drain(
            wall, summary, traced, since, journal_bytes, done.count(False),
            steps, {i: q.result(ids[i]) for i in sample if done[i]},
        ))
        if not traced:
            out.latencies_s.extend(lat)
            out.work_steps += steps
            out.wall_s += wall

    # Set-up samples: these extra queue builds plus one per drain.
    for _ in range(JOB_SETUP_REPS - 1):
        t0 = time.perf_counter()
        _submit_all(inputs)
        out.setup_s.append(time.perf_counter() - t0)

    if tracer is None:
        _run_for(lambda: one_drain(False), seconds)
    else:
        _run_for(lambda: (one_drain(False), one_drain(True)), seconds)
        _job_layers(out, tracer, drains)

    refs = {i: _solo_reference(*inputs[i][0], inputs[i][1]) for i in sample}
    out.operations = len(inputs) * len(drains)
    out.failed_operations = sum(dr.not_done for dr in drains)
    errors = [dr.summary["error"] for dr in drains if "error" in dr.summary]
    out.check(
        "jobs_drains_without_error", not errors,
        f"{len(errors)} of {len(drains)} drains raised"
        + (f"; first: {errors[0]}" if errors else ""),
    )
    compared = [(i, dr.sampled[i]) for dr in drains for i in sample if i in dr.sampled]
    mismatched = [i for i, got in compared if not _bitwise_equal(got, refs[i])]
    out.check(
        "jobs_bitwise_vs_solo", compared and not mismatched,
        f"jobs {sample} in {len(drains)} drains: {len(compared)} DONE and"
        f" compared, mismatched {mismatched}",
    )
    if out.latencies_s:
        out.extra = {
            "jobs_per_s": (len(out.latencies_s) / out.wall_s, "1/s"),
            "job_latency_s_p50": (float(np.percentile(out.latencies_s, 50)), "s"),
            "job_latency_s_p95": (float(np.percentile(out.latencies_s, 95)), "s"),
        }
    first = drains[0]
    out.sim = {
        "jobs": len(inputs),
        "total_steps": sum(budget for _, budget in inputs),
        "jobs_done": len(inputs) - first.not_done,
        **{k: first.summary.get(k) for k in SUMMARY_COUNTS + ("error",)},
        "journal_bytes": first.journal_bytes,
    }
    return out


def _job_layers(out: Outcome, tracer: Tracer, drains: List[_Drain]) -> None:
    """Per-drain means of the service, batch, checkpoint and kernel layers."""
    traced = [dr for dr in drains if dr.traced]
    k = len(traced)
    since = traced[0].since
    wall = sum(dr.wall_s for dr in traced)
    layers = out.layers
    calls, step_s, engine_steps = tracer.total("batch", "step", since)
    _kernel_layers(layers, tracer, since, engine_steps, wall)
    for name in ("step", "add", "remove", "prime"):
        layers[f"batch.{name}_ms_total"] = (
            1e3 * tracer.total("batch", name, since)[1] / k
        )
    layers["batch.step_calls"] = calls / k
    layers["batch.system_steps_per_s"] = sum(dr.steps for dr in traced) / step_s
    layers["batch.self_frac"] = tracer.self_seconds("batch", since) / wall
    for key in SUMMARY_COUNTS:
        layers[f"jobs.{key}"] = traced[0].summary.get(key, 0)
    layers["jobs.solo_routed"] = sum(
        1 for s in tracer.select("batch", "add", since)
        if s[5] > BATCH_MAX_N_DEFAULT
    ) / k
    checkpoint_s = tracer.outer_seconds("checkpoint", since)
    layers["jobs.service_self_ms"] = 1e3 * (
        wall - tracer.outer_seconds("batch", since) - checkpoint_s
    ) / k
    saves, _, nbytes = tracer.total("checkpoint", "save_checkpoint_v2", since)
    layers["checkpoint.saves"] = saves / k
    layers["checkpoint.save_ms_total"] = 1e3 * checkpoint_s / k
    layers["checkpoint.bytes_written"] = nbytes / k
    layers["checkpoint.journal_bytes"] = traced[0].journal_bytes
    # Drains run in untraced/traced pairs; the median pair ratio leaves
    # out the host's drift.
    untraced = [dr for dr in drains if not dr.traced]
    layers["trace.overhead_frac"] = median(
        t.wall_s / u.wall_s for u, t in zip(untraced, traced)
    ) - 1.0
