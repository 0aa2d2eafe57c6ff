"""Distributed execution: per-node state, real packet exchange, ID conversion.

:class:`~repro.core.machine.FasdaMachine` computes globally and *accounts*
traffic; this module executes the way the cluster actually does:

* each node owns only its local cells' particles (position cache
  contents: quantized fractions + species + ids);
* boundary-cell positions are packed one batch per (source, destination)
  node flow — one copy per destination *node*, exactly like the
  hardware's departure gates (the per-record P2R encapsulator walk is
  kept as :func:`repro.oracles.exchange_positions_loop`);
* on arrival, the receiving node converts the record's global cell
  coordinates through GCID -> LCID (node-relative) and LCID -> RCID
  (cell-relative) — the actual Sec. 4.2 machinery, exercised on real data;
* each node evaluates its home cells against local + halo data through
  the same :class:`~repro.core.machine.NodeKernel` the single machine
  runs, returns nonzero neighbor forces as force packets, and
  integrates its particles.

The distributed trajectory must agree with the global machine's within
float32 accumulation-order noise — asserted by the equivalence tests —
which is precisely the guarantee the homogeneous-ID design gives the
real cluster.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.core.cellids import (
    RCID_HOME,
    cell_node_ids,
    gcid_to_lcid,
    lcid_to_rcid,
)
from repro.core.config import MachineConfig
from repro.core.datapath import quantize_cell_fractions
from repro.core.elasticity import LoadBalancer, fpga_grid_for
from repro.core.machine import (
    _FRESH_BAND,
    _OFFS14,
    _BandArtifacts,
    _Datapath,
    _StepArena,
)
from repro.core.migration import plan_partition_migration
from repro.core.packets import RecordBatch
from repro.core.timing import StepTimings
from repro.faults import (
    DegradationRecord,
    FaultInjector,
    NodeFaultInjector,
    NodeFaultPlan,
    RecoveryRecord,
    RescaleAbortedRecord,
    RescaleRecord,
    TransportConfig,
    TransportStats,
    send_flow,
)
from repro.network.netsim import Burst, OutputQueuedSwitch, SwitchStats
from repro.faults.nodes import REPLAY_CYCLES_PER_RECORD
from repro.md.backends import resolve_backend
from repro.md.cells import CellGrid, CellList, HALF_SHELL_OFFSETS
from repro.md.cellstate import band_slot_pairs
from repro.md.dataset import build_dataset
from repro.md.kernels import scatter_add
from repro.md.pairplan import ROWS_PER_CELL, plan_for_grid
from repro.md.engine import EnergyRecord
from repro.md.system import ParticleSystem
from repro.util.errors import (
    ConfigError,
    NodeFailureError,
    TransportError,
    ValidationError,
)


@dataclass
class _CellData:
    """One cell's position-cache contents on its owning node."""

    particle_ids: np.ndarray       # global particle indices
    fractions: np.ndarray          # quantized in-cell offsets, (n, 3)
    species: np.ndarray


@dataclass
class _Node:
    """One FPGA node's private state."""

    node_id: int
    node_coords: np.ndarray
    local_cells: List[int] = field(default_factory=list)   # global cell ids
    cells: Dict[int, _CellData] = field(default_factory=dict)
    halo: Dict[int, _CellData] = field(default_factory=dict)
    #: Packets received this phase (for statistics).
    packets_in: int = 0
    packets_out: int = 0


class _NodeView(NamedTuple):
    """One node's visible particles, flattened in ascending cell id."""

    node_id: int
    counts: np.ndarray     # (n_cells,) visible occupancy per global cell
    pids: np.ndarray       # global particle index per slot
    frac: np.ndarray       # (slots, 3) quantized in-cell fractions
    species: np.ndarray


#: Machine inherited by forked evaluation workers (set just before the
#: fork; the machine's tables/pipelines hold lambdas and cannot be
#: pickled, but a forked child shares them by copy-on-write).
_FORK_MACHINE: Optional["DistributedMachine"] = None


def _fork_eval_node(task: Tuple[_NodeView, int]):
    """Process-pool entry point: evaluate one pickled node view."""
    return _FORK_MACHINE._eval_node(*task)


def _fork_eval_node_shm(task: Tuple[Tuple[int, int, int], int]):
    """Zero-copy process-pool entry point.

    ``task`` is only ``((node_id, pid_offset, pid_len), cap)``;
    everything bulky — current fractions, the per-node particle-id
    catalog, the per-node force banks — lives in
    :mod:`multiprocessing.shared_memory` segments the forked worker
    inherited by mapping, so nothing big is pickled in either direction.
    """
    return _FORK_MACHINE._eval_node_shm(*task)


class DistributedMachine(_Datapath):
    """Executes a FASDA deployment node by node with explicit exchange.

    Parameters mirror :class:`~repro.core.machine.FasdaMachine`.  Each
    force pass partitions the particles across nodes, ships boundary
    positions as real packet batches, and evaluates every node through
    the machine's own :class:`~repro.core.machine.NodeKernel` — the
    same admission, ROM-pipeline and bank-scatter kernels, over the
    band pairs of the node's home rows in node-local banks sized to its
    visible particles (see DESIGN.md §13).  Node banks merge in node-id
    order, so serial, thread and process evaluation are bitwise
    identical; forces agree with the single machine to float32
    accumulation order.
    """

    def __init__(
        self,
        config: MachineConfig,
        system: Optional[ParticleSystem] = None,
        seed: int = 2023,
        parallel=False,
        max_workers: Optional[int] = None,
        injector: Optional[FaultInjector] = None,
        transport: Optional[TransportConfig] = None,
        degradation: str = "stale",
        node_faults=None,
        shadow_interval: int = 5,
        watchdog_timeout_cycles: float = 10_000.0,
    ):
        """See class docstring.

        Parameters
        ----------
        parallel:
            Evaluate nodes concurrently.  ``False`` runs serially;
            ``True`` or ``"thread"`` uses a thread pool (NumPy kernels
            release the GIL); ``"process"`` uses a forked process pool
            (node evaluation reads only static machine state, so forked
            workers stay valid across steps).  Each node accumulates
            into a private force bank and results are merged in node-id
            order regardless of worker scheduling, so every mode
            produces the bitwise-identical trajectory.
        max_workers:
            Pool size (defaults to the node count).
        injector:
            Fault injection for the position exchange.  A plan with all
            rates zero leaves the trajectory bitwise identical to a run
            without an injector (asserted by the fault tests).
        transport:
            Reliable-transport parameters layered over the lossy fabric;
            packets the injector drops/corrupts are retransmitted (with
            cycle accounting in :attr:`transport_stats`) until the retry
            budget runs out.  ``None`` models the paper's bare UDP.
        degradation:
            What to do about halo records lost beyond recovery:
            ``"stale"`` substitutes the last good snapshot of the cell
            (recording a :class:`~repro.faults.DegradationRecord` with a
            force-error bound) while ``"raise"`` raises
            :class:`~repro.util.errors.TransportError`.  Loss with no
            stale snapshot to fall back on always raises.
        node_faults:
            A :class:`~repro.faults.NodeFaultPlan` (or prebuilt
            :class:`~repro.faults.NodeFaultInjector`) of board-level
            crash/slowdown faults.  Crashes engage the lossless recovery
            protocol (see :meth:`_node_fault_preamble`): the trajectory
            stays bitwise identical to a fault-free run; only
            :attr:`recovery_log` and the traffic/cycle accounting
            differ.  ``None`` disables the whole path.
        shadow_interval:
            Iterations between buddy shadow checkpoints — each node
            periodically ships its cell contents to its ring buddy, the
            state a crash replays from.  Smaller intervals mean less
            replay but more steady-state shadow traffic (the chaos-soak
            harness sweeps exactly this trade-off).
        watchdog_timeout_cycles:
            Detection cost charged per crash: the time the survivors'
            chained-sync watchdog needs to flag the silent peer (see
            :func:`~repro.core.sync.diagnose_dead_node`).
        """
        if not config.is_distributed:
            raise ConfigError("DistributedMachine needs more than one node")
        if degradation not in ("stale", "raise"):
            raise ConfigError(
                f"degradation must be 'stale' or 'raise', got {degradation!r}"
            )
        if shadow_interval < 1:
            raise ConfigError(
                f"shadow_interval must be >= 1, got {shadow_interval}"
            )
        if watchdog_timeout_cycles < 0:
            raise ConfigError("watchdog_timeout_cycles must be >= 0")
        self.parallel = parallel
        self.max_workers = max_workers
        self.injector = injector
        self.transport = transport
        self.degradation = degradation
        self.config = config
        self.grid = CellGrid(config.global_cells, config.cutoff)
        if system is None:
            system, _ = build_dataset(
                config.global_cells, cutoff=config.cutoff, seed=seed
            )
        if not np.allclose(system.box, self.grid.box):
            raise ConfigError("system box does not match config box")
        self._init_datapath(config, system)
        #: Per-thread kernel scratch (see :meth:`_node_arena`).
        self._arenas = threading.local()
        # Static geometry (partition-independent: the cell grid and the
        # half-shell pair plan never change, only cell *ownership* does).
        n_cells = self.grid.n_cells
        self._cell_coords = self.grid.cell_coords(np.arange(n_cells, dtype=np.int64))
        plan = plan_for_grid(self.grid)
        self._plan = plan
        self._neighbor_cids = plan.neighbor_ids
        # Partition-derived structures (rebuilt on every elastic rescale).
        self._apply_partition(config)
        #: Force backend (see :mod:`repro.md.backends`) of every node's
        #: kernel pass: the compiled ``admit_flat``/``rom_eval``/
        #: ``scatter_cols`` kernels are bitwise identical to the numpy
        #: sequence, so per-node admissions, forces, statistics and
        #: traffic are identical across backends.  ``None`` =
        #: process-wide default.
        self.force_impl: Optional[str] = None
        #: Reuse the node partition and the per-flow packing skeletons
        #: across steps while the cell assignment is unchanged (see
        #: :meth:`_build_nodes`).  Off by default: the per-step path is
        #: the oracle the reuse path is asserted bitwise-equal against.
        self.reuse_state = False
        #: Node-structure rebuilds / reuse hits under ``reuse_state``.
        self.state_builds = 0
        self.state_reused_steps = 0
        self._nodes_cache: Optional[Dict[int, _Node]] = None
        self._build_cids: Optional[np.ndarray] = None
        self._flow_static: Optional[Dict[Tuple[int, int], Optional[dict]]] = None
        self._last_frac: Optional[np.ndarray] = None
        self._last_cids: Optional[np.ndarray] = None
        self._executor = None
        self._executor_kind = None
        #: Per-phase wall-clock counters (build/exchange/force/integrate);
        #: off by default — see :class:`~repro.core.timing.StepTimings`.
        self.timings = StepTimings()
        # -- zero-copy process parallelism (multiprocessing.shared_memory) --
        # Created lazily at the first injector-free "process" force pass,
        # *before* the pool forks so workers inherit the mappings; the
        # parent refreshes the fraction segment in place each step and
        # rewrites the partition metadata only when the binning changes.
        self._owner_pid = os.getpid()
        self._shm_ok: Optional[bool] = None
        self._shm_segs: List = []
        self._shm_frac: Optional[np.ndarray] = None
        self._shm_banks: Optional[np.ndarray] = None
        self._shm_counts: Optional[np.ndarray] = None
        self._shm_pids: Optional[np.ndarray] = None
        self._shm_meta_cids: Optional[np.ndarray] = None
        self._shm_tasks: Optional[List[Tuple[int, int, int]]] = None
        self.history: List[EnergyRecord] = []
        self._primed = False
        self._last_potential = 0.0
        self.total_position_packets = 0
        self.total_force_packets = 0
        # -- resilience state (inert without an injector) -------------------
        #: Force-pass index, the fault keys' iteration component.
        self._iteration = 0
        #: (dst node, cell id) -> (capture iteration, last good halo data).
        self._stale_halo: Dict[Tuple[int, int], Tuple[int, _CellData]] = {}
        #: Reliability-layer accounting accumulated over all force passes.
        self.transport_stats = TransportStats()
        #: Every stale-halo substitution, in occurrence order.
        self.degradation_log: List[DegradationRecord] = []
        #: Records lost this force pass that degradation papered over.
        self.last_degraded_records = 0
        self._lipschitz: Optional[float] = None
        # -- node-failure recovery state (inert without node_faults) --------
        if isinstance(node_faults, NodeFaultPlan):
            node_faults = NodeFaultInjector(node_faults)
        self.node_injector: Optional[NodeFaultInjector] = node_faults
        self.shadow_interval = int(shadow_interval)
        self.watchdog_timeout_cycles = float(watchdog_timeout_cycles)
        #: Every completed crash recovery, in occurrence order.
        self.recovery_log: List[RecoveryRecord] = []
        #: node id -> iteration at which its restart completes.
        self._down_until: Dict[int, int] = {}
        #: Iteration of the last buddy shadow capture (None before any).
        self._shadow_iteration: Optional[int] = None
        #: node id -> records it held at the last shadow capture.
        self._shadow_records: Dict[int, int] = {}
        #: Records shipped to buddies by the periodic shadow captures.
        self.shadow_traffic_records = 0
        #: (iteration, node, factor) for every node-slowdown fault.
        self.node_slowdown_log: List[Tuple[int, int, float]] = []
        # -- elasticity state (inert until rescale()/balancer use) ----------
        #: Every committed rescale, in occurrence order.
        self.rescale_log: List[RescaleRecord] = []
        #: Every rolled-back rescale attempt, in occurrence order.
        self.rescale_aborted_log: List[RescaleAbortedRecord] = []
        #: Switch-model accounting of all committed migration traffic.
        self.migration_switch_stats = SwitchStats(delivered=0, dropped=0)
        #: Transport accounting of all migration flows (committed *and*
        #: aborted attempts — attempted traffic is real traffic).
        self.migration_transport_stats = TransportStats()
        #: Optional :class:`~repro.core.elasticity.LoadBalancer` driving
        #: :meth:`maybe_rescale`; assign one to make the machine elastic.
        self.balancer: Optional[LoadBalancer] = None

    # -- partition ---------------------------------------------------------------

    def _apply_partition(self, config: MachineConfig) -> None:
        """(Re)derive every partition-dependent structure from ``config``.

        Runs at construction and again at every rescale commit.  Physics
        state (positions, velocities, force banks) is untouched: the
        distributed evaluation always computes the canonical partition's
        result, so changing cell ownership here never changes the
        trajectory — only which node does which work and what crosses
        the fabric.
        """
        self.config = config
        n_cells = self.grid.n_cells
        fg = config.fpga_grid
        self._cell_node = cell_node_ids(
            self._cell_coords, config.local_cells, fg
        )
        self._node_coords = {
            n: np.array(
                [n // (fg[1] * fg[2]), (n // fg[2]) % fg[1], n % fg[2]],
                dtype=np.int64,
            )
            for n in range(config.n_fpgas)
        }
        # Half-shell topology from the shared (cached) pair plan and, per
        # cell, the destination nodes its particles must reach (the P2R
        # chain's gate assignments).
        plan = self._plan
        home_nodes = self._cell_node[plan.home]
        nbr_nodes = self._cell_node[plan.nbr]
        remote = ~plan.is_self & (home_nodes != nbr_nodes)
        self._send_targets: Dict[int, List[int]] = {
            c: [] for c in range(n_cells)
        }
        # ncid's particles are needed at the home cell's node.
        flows = np.unique(
            np.stack([plan.nbr[remote], home_nodes[remote]], axis=1), axis=0
        )
        for src_cell, dst_node in flows:
            self._send_targets[int(src_cell)].append(int(dst_node))
        # Per-(src node, dst node) flow: the ascending source cells whose
        # particles ship src -> dst.  This is the batched view of the
        # same gate assignments: one RecordBatch per flow replaces the
        # per-particle chain walk, with identical packet counts (each
        # gate fills from its cells in ascending-cid order and flushes
        # once at end of iteration).
        self._node_flows: Dict[Tuple[int, int], np.ndarray] = {}
        if len(flows):
            fsrc = self._cell_node[flows[:, 0]]
            fkeys = fsrc * np.int64(config.n_fpgas) + flows[:, 1]
            for key in np.unique(fkeys):
                sel = fkeys == key
                self._node_flows[
                    (int(key) // config.n_fpgas, int(key) % config.n_fpgas)
                ] = np.sort(flows[sel, 0])
        #: Node -> owned global cell ids (ascending), shared by the
        #: pickled and shared-memory evaluation paths.
        self._local_cells_static = {
            k: np.flatnonzero(self._cell_node == k)
            for k in range(config.n_fpgas)
        }

    def _invalidate_partition_caches(self) -> None:
        """Drop every structure keyed by the *old* partition.

        Reuse skeletons, stale-halo snapshots, buddy-shadow bookkeeping,
        the evaluation pool, and the shared-memory segments are all
        shaped or keyed by node ids/counts; after a partition change
        each is rebuilt lazily on the canonical (oracle) path, so
        dropping them is always bitwise-safe.
        """
        self._nodes_cache = None
        self._build_cids = None
        self._flow_static = None
        self._stale_halo.clear()
        self._shadow_iteration = None
        self._shadow_records = {}
        self._shutdown_pool()
        self._release_shm()

    # -- node construction per step --------------------------------------------

    def _build_nodes(self) -> Dict[int, _Node]:
        """Partition the current particle state across nodes.

        With :attr:`reuse_state` on, the partition (which particles live
        in which cell on which node) is kept across steps while no
        particle changes cell — the distributed evaluation enumerates
        *every* plan-row slot pair from the binning, so identical binning
        alone makes reuse bitwise identical; no skin criterion is needed.
        Reused steps only refresh the per-cell fraction payloads (one
        gather per cell of the cached index arrays, exactly the values a
        fresh split would produce) and clear the per-step halo/packet
        state.  Any cell-assignment change triggers a full rebuild of the
        partition and the flow packing skeletons.
        """
        cfg = self.config
        coords = self.grid.coords_of_positions(self.system.positions)
        frac = quantize_cell_fractions(
            self.system.positions, coords, cfg.cutoff, self.fmt
        )
        self._last_frac = frac
        cids = self.grid.cell_id(coords)
        self._last_cids = cids
        if self.reuse_state:
            if self._nodes_cache is not None and np.array_equal(
                cids, self._build_cids
            ):
                self.state_reused_steps += 1
                nodes = self._nodes_cache
                for node in nodes.values():
                    node.packets_in = 0
                    node.packets_out = 0
                    node.halo.clear()
                    for data in node.cells.values():
                        data.fractions = frac[data.particle_ids]
                return nodes
            self._build_cids = cids
            self.state_builds += 1
        clist = CellList(self.grid, self.system.positions)
        nodes = {
            n: _Node(node_id=n, node_coords=self._node_coords[n])
            for n in range(cfg.n_fpgas)
        }
        for cid in range(self.grid.n_cells):
            owner = int(self._cell_node[cid])
            idx = clist.particles_in_cell(cid)
            nodes[owner].local_cells.append(cid)
            nodes[owner].cells[cid] = _CellData(
                particle_ids=idx.copy(),
                fractions=frac[idx],
                species=self.system.species[idx],
            )
        if self.reuse_state:
            self._nodes_cache = nodes
            self._flow_static = None  # packing skeletons follow the build
        return nodes

    # -- position exchange ------------------------------------------------------

    def _exchange_positions(self, nodes: Dict[int, _Node]) -> None:
        """Pack, send, and unpack boundary-cell positions.

        Ships one array-packed :class:`~repro.core.packets.RecordBatch`
        per (source node, destination node) flow.  Gate-chain
        equivalence with the per-record protocol walk
        (:func:`repro.oracles.exchange_positions_loop`, asserted by the
        tests): the per-destination gate of the P2R chain receives
        exactly this flow's records in ascending (cell, slot) order and
        flushes once at end of iteration, so its packet count is
        ``ceil(n_records / records_per_packet)`` — precisely
        :meth:`~repro.core.packets.RecordBatch.n_packets`.
        """
        rpp = self.config.records_per_packet
        gd = np.asarray(self.config.global_cells, dtype=np.int64)
        ld = self.config.local_cells
        # Packing skeletons: everything about a flow's RecordBatch except
        # the fraction payload is frozen with the binning (ids, species,
        # cell coords, per-cell run boundaries), so the pack is a single
        # gather of the current fractions — concatenating per-cell
        # gathers equals gathering the concatenated index, element for
        # element.  Under reuse_state the skeletons live until the next
        # rebuild (halo cells copy out of the batch, so reuse cannot
        # alias).
        flows = self._flow_static if self.reuse_state else None
        if flows is None:
            flows = {}
            for (src, dst), cids in self._node_flows.items():
                parts = [nodes[src].cells[int(c)] for c in cids]
                occ = np.array(
                    [len(p.particle_ids) for p in parts], dtype=np.int64
                )
                total = int(occ.sum())
                if total == 0:
                    flows[(src, dst)] = None
                    continue
                payload = np.empty((total, 4))
                payload[:, 3] = np.concatenate([p.species for p in parts])
                flows[(src, dst)] = dict(
                    occ=occ,
                    pids=np.concatenate([p.particle_ids for p in parts]),
                    payload=payload,
                    fracbuf=np.empty((total, 3)),
                    cells=np.repeat(self._cell_coords[cids], occ, axis=0),
                )
            if self.reuse_state:
                self._flow_static = flows
        for (src, dst), cids in self._node_flows.items():
            ent = flows[(src, dst)]
            if ent is None:
                continue
            node = nodes[src]
            occ = ent["occ"]
            payload = ent["payload"]
            np.take(self._last_frac, ent["pids"], axis=0, out=ent["fracbuf"])
            payload[:, :3] = ent["fracbuf"]
            batch = RecordBatch(
                kind="position",
                dst=int(dst),
                particle_ids=ent["pids"],
                cells=ent["cells"],
                payload=payload,
            )
            n_pkts = batch.n_packets(rpp)
            node.packets_out += n_pkts
            self.total_position_packets += n_pkts
            dnode = nodes[int(dst)]
            # Fault exposure: resolve which packets of this flow survive
            # the fabric (plus any retransmissions the transport pays
            # for).  Without an injector every record arrives and the
            # hot path below is byte-for-byte the lossless one.
            rec_ok = None
            if self.injector is not None:
                ok_pkts, tstats = send_flow(
                    self.injector, int(src), int(dst), "position",
                    self._iteration, n_pkts, self.transport,
                )
                self.transport_stats += tstats
                node.packets_out += tstats.retransmits
                self.total_position_packets += tstats.retransmits
                dnode.packets_in += tstats.delivered
                if tstats.lost:
                    rec_ok = np.repeat(ok_pkts, rpp)[: batch.n_records]
            else:
                dnode.packets_in += n_pkts
            # Arrival: whole-batch GCID -> LCID conversion (round-trip
            # asserted, as in the per-record path), then halo bucketing
            # by contiguous ascending-cid runs.
            lcid = gcid_to_lcid(batch.cells, dnode.node_coords, ld, gd)
            origin = dnode.node_coords * np.asarray(ld, dtype=np.int64)
            back = np.mod(lcid + origin, gd)
            if not np.array_equal(back, batch.cells):
                raise ValidationError("LCID conversion corrupted a cell id")
            starts = np.concatenate([[0], np.cumsum(occ)])
            for k, cid in enumerate(cids):
                lo, hi = int(starts[k]), int(starts[k + 1])
                if lo == hi:
                    continue
                if rec_ok is not None and not rec_ok[lo:hi].all():
                    # The cell's record run is incomplete: a node cannot
                    # evaluate against a partially-arrived cell, so it
                    # degrades (stale snapshot) or errors out.
                    self._degrade_cell(
                        int(src), int(dst), int(cid), dnode,
                        lost=int(np.count_nonzero(~rec_ok[lo:hi])),
                        total=hi - lo,
                    )
                    continue
                data = _CellData(
                    particle_ids=batch.particle_ids[lo:hi].copy(),
                    fractions=batch.payload[lo:hi, :3].copy(),
                    species=batch.payload[lo:hi, 3].astype(np.int32),
                )
                dnode.halo[int(cid)] = data
                if self.injector is not None:
                    # Snapshot for graceful degradation: the receiver's
                    # last complete view of this cell.  The arrays are
                    # never mutated downstream, so storing by reference
                    # is safe.
                    self._stale_halo[(int(dst), int(cid))] = (
                        self._iteration, data,
                    )

    # -- graceful degradation ---------------------------------------------------

    def _force_lipschitz(self) -> float:
        """Max |dF/dr| (kcal/mol/A^2) of the pair kernel over the
        *physically occupied* range — the constant turning a
        stale-position displacement bound into a per-interaction
        force-error bound.

        Estimated once by finite-differencing the machine's own tabulated
        pipelines for every species pair present (and, with Ewald
        enabled, the worst charge product).  The scan starts at the
        current minimum interparticle distance (with a 20% margin), not
        at the table's r_min: the divergent LJ core below any occurring
        pair separation would otherwise dominate the constant and make
        the bound vacuous.
        """
        if self._lipschitz is not None:
            return self._lipschitz
        # Nearest pair actually present, from the verlet-style bucketing
        # already used to build the dataset; conservative 0.8 factor for
        # drift during the run.
        from repro.md.neighborlist import minimum_pair_distance

        r_nearest = minimum_pair_distance(self.system, self.grid)
        r_lo = max(
            float(np.sqrt(self.tables.r2_min)),
            0.8 * r_nearest / self.config.cutoff,
        )
        r = np.linspace(r_lo, 1.0, 1024)
        dr = np.zeros((len(r), 3))
        dr[:, 0] = r
        r2 = r * r
        worst = 0.0
        species = np.unique(self.system.species)
        for si in species:
            for sj in species:
                sa = np.full(len(r), si, dtype=np.int32)
                sb = np.full(len(r), sj, dtype=np.int32)
                f, _ = self.pipeline.compute(dr, r2, sa, sb)
                grad = np.abs(np.diff(f[:, 0].astype(np.float64)) / np.diff(r))
                worst = max(worst, float(grad.max()))
        if self.coulomb_pipeline is not None:
            qq_max = float(np.abs(self._charges32).max()) ** 2
            fc, _ = self.coulomb_pipeline.compute(
                dr, r2, np.full(len(r), qq_max, dtype=np.float32)
            )
            grad = np.abs(np.diff(fc[:, 0].astype(np.float64)) / np.diff(r))
            worst += float(grad.max())
        # The pipelines take normalized displacements (cell edge = 1), so
        # the finite difference is per normalized unit; convert to per A.
        self._lipschitz = worst / self.config.cutoff
        return self._lipschitz

    def _degrade_cell(
        self, src: int, dst: int, cid: int, dnode: _Node, lost: int, total: int
    ) -> None:
        """Handle a halo cell whose records were lost beyond recovery.

        Falls back to the last complete snapshot of the cell (recording
        the event with a force-error bound), or raises
        :class:`~repro.util.errors.TransportError` when configured to —
        or when there is no snapshot to degrade onto.
        """
        entry = self._stale_halo.get((dst, cid))
        where = (
            f"halo cell {cid} (flow node {src} -> node {dst}) lost "
            f"{lost}/{total} position records at iteration {self._iteration}"
        )
        if entry is None or self.degradation == "raise":
            raise TransportError(
                where
                + (
                    " with no stale snapshot to fall back on"
                    if entry is None
                    else " (degradation='raise')"
                )
                + "; increase the transport retry budget to recover in-band"
            )
        snap_iter, data = entry
        age = self._iteration - snap_iter
        if len(data.particle_ids):
            v = self.system.velocities[data.particle_ids]
            speed = float(np.sqrt((v * v).sum(axis=1)).max())
        else:  # pragma: no cover - empty cells are skipped upstream
            speed = 0.0
        max_disp = age * self.config.dt_fs * speed
        record = DegradationRecord(
            iteration=self._iteration,
            src=src,
            dst=dst,
            cell=cid,
            lost_records=lost,
            stale_records=len(data.particle_ids),
            age=age,
            max_displacement=max_disp,
            force_error_bound=max_disp * self._force_lipschitz(),
        )
        self.degradation_log.append(record)
        self.last_degraded_records += lost
        dnode.halo[cid] = data

    @property
    def degraded_records_total(self) -> int:
        """Position records ever replaced by stale fallbacks."""
        return sum(rec.lost_records for rec in self.degradation_log)

    # -- node-failure recovery --------------------------------------------------

    def _per_node_records(self) -> Tuple[np.ndarray, Dict[int, int]]:
        """Per-cell occupancy and per-node record counts, current binning."""
        cids = self.grid.cell_id(
            self.grid.coords_of_positions(self.system.positions)
        )
        per_cell = np.bincount(cids, minlength=self.grid.n_cells)
        per_node = {
            k: int(per_cell[self._cell_node == k].sum())
            for k in range(self.config.n_fpgas)
        }
        return per_cell, per_node

    def _node_fault_preamble(self) -> None:
        """Advance the node-failure model one force pass.

        Runs *before* node construction, in a fixed order that keeps the
        model deterministic: (1) capture the periodic buddy shadow,
        (2) complete pending restarts, (3) draw/apply crashes at the
        current iteration, (4) draw slowdowns.  Recovery completes
        synchronously within the pass — surviving nodes adopt the dead
        node's cells, restore them from the buddy shadow, and replay the
        missed iterations through the **canonical** evaluation path
        (deterministic replay of deterministic state), so by the time
        :meth:`_build_nodes` runs the partition and every float32
        accumulation are exactly those of a fault-free pass.  What a
        crash *does* change: the cached reuse-state structures are
        invalidated (an adopting node has no warm skeletons for foreign
        cells) and the :class:`~repro.faults.RecoveryRecord` accounting.
        """
        it = self._iteration
        n = self.config.n_fpgas
        per_cell, per_node = self._per_node_records()
        # (1) Periodic buddy shadow capture (iteration 0 always captures,
        # so a replay source exists for any crash).
        if (
            self._shadow_iteration is None
            or it - self._shadow_iteration >= self.shadow_interval
        ):
            self._shadow_iteration = it
            self._shadow_records = per_node
            self.shadow_traffic_records += int(per_cell.sum())
        # (2) Restarts whose down-window has elapsed rejoin.
        for node in [k for k, until in self._down_until.items() if until <= it]:
            del self._down_until[node]
        # (3) Crashes: already-down boards cannot crash again.
        crashed = [
            k
            for k in self.node_injector.crashes_at(it, n)
            if k not in self._down_until
        ]
        if crashed:
            if len(self._down_until) + len(crashed) >= n:
                raise NodeFailureError(
                    f"all {n} nodes down at iteration {it} "
                    f"({len(crashed)} new crash(es) on top of "
                    f"{len(self._down_until)} restarting): no surviving "
                    "buddy shadow to replay from; restore from an "
                    "interval checkpoint"
                )
            for node in crashed:
                self._recover_crashed_node(node, it, per_cell, per_node)
        # (4) Slowdowns (straggler accounting only; work is modelled, not
        # timed, so the trajectory is untouched).
        for node in range(n):
            factor = self.node_injector.work_multiplier(node, it)
            if factor > 1.0:
                self.node_slowdown_log.append((it, node, factor))

    def _recover_crashed_node(
        self,
        node: int,
        it: int,
        per_cell: np.ndarray,
        per_node: Dict[int, int],
    ) -> None:
        """Adopt, restore, and replay one crashed node's cells."""
        from repro.core.migration import MigrationStats

        n = self.config.n_fpgas
        self._down_until[node] = it + self.node_injector.plan.restart_iterations
        # Ring buddy: next node id upward that is still alive.
        buddy = (node + 1) % n
        while buddy in self._down_until:
            buddy = (buddy + 1) % n
        dead_cells = np.flatnonzero(self._cell_node == node)
        records = per_node[node]
        # Re-homing is cross-node by definition; express it through the
        # MU-ring accounting so recovery traffic shares the migration
        # machinery's units.
        outflow = np.zeros(self.grid.n_cells, dtype=np.int64)
        outflow[dead_cells] = per_cell[dead_cells]
        migration = MigrationStats(
            total=records, cross_node=records, per_cell_outflow=outflow
        )
        shadow_it = self._shadow_iteration if self._shadow_iteration is not None else it
        replay = it - shadow_it
        shadow_records = self._shadow_records.get(node, records)
        self.recovery_log.append(
            RecoveryRecord(
                node=node,
                crash_iteration=it,
                detected_iteration=it,
                buddy=buddy,
                shadow_iteration=shadow_it,
                replay_iterations=replay,
                cells_moved=int(len(dead_cells)),
                records_moved=records,
                migration_cross_node=migration.cross_node,
                # Buddy-shadow restore plus the return migration when the
                # board rejoins.
                recovery_traffic_records=shadow_records + records,
                cycles_lost=self.watchdog_timeout_cycles
                + replay * records * REPLAY_CYCLES_PER_RECORD,
            )
        )
        # The adopting nodes have no warm packing skeletons for foreign
        # cells: force a full rebuild of the reuse-state caches.  The
        # rebuild path is the asserted-bitwise oracle, so this is safe.
        self._nodes_cache = None
        self._build_cids = None
        self._flow_static = None

    @property
    def recovered_records_total(self) -> int:
        """Position records ever re-homed by crash recoveries."""
        return sum(rec.records_moved for rec in self.recovery_log)

    def recovery_summary(self) -> Dict[str, float]:
        """Aggregate reconfiguration accounting (JSON-able).

        One call covers both kinds of partition change: crash-driven
        re-homing (``n_recoveries`` ...) and policy-driven elastic
        rescales (``rescales_*`` — planned vs aborted attempts plus the
        migration traffic the committed ones moved).
        """
        return {
            "n_recoveries": len(self.recovery_log),
            "cells_moved": sum(r.cells_moved for r in self.recovery_log),
            "records_moved": self.recovered_records_total,
            "recovery_traffic_records": sum(
                r.recovery_traffic_records for r in self.recovery_log
            ),
            "cycles_lost": sum(r.cycles_lost for r in self.recovery_log),
            "shadow_traffic_records": self.shadow_traffic_records,
            "slowdown_events": len(self.node_slowdown_log),
            "rescales_planned": len(self.rescale_log),
            "rescales_aborted": len(self.rescale_aborted_log),
            "rescale_cells_moved": sum(
                r.cells_moved for r in self.rescale_log
            ),
            "rescale_records_moved": sum(
                r.records_moved for r in self.rescale_log
            ),
            "rescale_migration_packets": sum(
                r.migration_packets for r in self.rescale_log
            ),
            "rescale_migration_cycles": sum(
                r.migration_cycles for r in self.rescale_log
            ),
        }

    # -- elastic rescale --------------------------------------------------------

    def _capture_rescale_shadow(self) -> Dict[str, Any]:
        """Prepare-phase shadow checkpoint: everything a rollback restores."""
        return {
            "positions": self.system.positions.copy(),
            "velocities": self.system.velocities.copy(),
            "forces": self.system.forces.copy(),
            "velocities32": self._velocities32.copy(),
            "forces32": self._forces32.copy(),
            "iteration": self._iteration,
            "primed": self._primed,
            "last_potential": self._last_potential,
        }

    def _restore_rescale_shadow(self, shadow: Dict[str, Any]) -> None:
        """Roll the machine back to the prepare-phase shadow (bitwise)."""
        self.system.positions[:] = shadow["positions"]
        self.system.velocities[:] = shadow["velocities"]
        self.system.forces[:] = shadow["forces"]
        self._velocities32 = shadow["velocities32"].copy()
        self._forces32 = shadow["forces32"].copy()
        self._iteration = shadow["iteration"]
        self._primed = shadow["primed"]
        self._last_potential = shadow["last_potential"]

    def _abort_rescale(
        self,
        shadow: Optional[Dict[str, Any]],
        n_new: int,
        reason: str,
        phase: str,
        flows_attempted: int,
        packets_lost: int,
    ) -> bool:
        """Roll back a failed rescale attempt and record the abort."""
        if shadow is not None:
            self._restore_rescale_shadow(shadow)
        self.rescale_aborted_log.append(
            RescaleAbortedRecord(
                iteration=self._iteration,
                n_old=self.config.n_fpgas,
                n_new=int(n_new),
                reason=reason,
                phase=phase,
                flows_attempted=int(flows_attempted),
                packets_lost=int(packets_lost),
                rolled_back=True,
            )
        )
        if self.balancer is not None:
            self.balancer.notify_rescale(committed=False)
        return False

    def rescale(
        self,
        n_new: Optional[int] = None,
        fpga_grid: Optional[Tuple[int, int, int]] = None,
    ) -> bool:
        """Transactionally re-partition the machine onto a new node count.

        Must run at an iteration boundary (between :meth:`step` calls,
        where no exchange is in flight).  Two phases:

        **prepare** — refuse if any board is mid-restart; capture a
        shadow checkpoint of the full physics state; derive the new
        partition map from the canonical
        :func:`~repro.core.elasticity.fpga_grid_for` grid and plan the
        cell migration it implies
        (:func:`~repro.core.migration.plan_partition_migration`).

        **transfer + commit** — ship every migration flow through the
        reliable transport (channel ``"rescale"``, exposed to this
        machine's fault injector) and the output-queued switch model; if
        a node crash is drawn mid-migration, any flow loses packets
        beyond the retry budget, or the switch overflows, roll back to
        the shadow and append a
        :class:`~repro.faults.RescaleAbortedRecord` — the machine is
        never left half-migrated.  On success, swap in the new partition
        (:meth:`_apply_partition`), drop every old-partition cache, and
        append a :class:`~repro.faults.RescaleRecord`.

        Because physics always evaluates the canonical partition, a
        committed rescale resumes bitwise-identical to a fresh machine
        of the new size started from the boundary state — the property
        the elasticity harness asserts.

        Returns True on commit, False on a rolled-back abort.  Raises
        :class:`~repro.util.errors.ConfigError` for targets that are
        invalid outright (not distributed, grid does not divide the
        cells, or equal to the current partition).
        """
        cfg = self.config
        if fpga_grid is not None:
            grid_new = tuple(int(d) for d in fpga_grid)
            if n_new is not None and int(n_new) != int(np.prod(grid_new)):
                raise ConfigError(
                    f"n_new ({n_new}) contradicts fpga_grid {grid_new}"
                )
        elif n_new is not None:
            grid_new = fpga_grid_for(cfg.global_cells, int(n_new))
        else:
            raise ConfigError("rescale needs n_new or fpga_grid")
        new_cfg = replace(cfg, fpga_grid=grid_new)
        n_old = cfg.n_fpgas
        n_target = new_cfg.n_fpgas
        if not new_cfg.is_distributed:
            raise ConfigError(
                f"rescale target must stay distributed, got {n_target} node(s)"
            )
        if grid_new == tuple(cfg.fpga_grid):
            raise ConfigError(
                f"rescale target equals the current partition "
                f"{tuple(cfg.fpga_grid)}"
            )
        it = self._iteration
        # ---- prepare ----
        if self._down_until:
            return self._abort_rescale(
                None,
                n_target,
                reason=(
                    f"node(s) {sorted(self._down_until)} still restarting "
                    "at the rescale boundary"
                ),
                phase="prepare",
                flows_attempted=0,
                packets_lost=0,
            )
        shadow = self._capture_rescale_shadow()
        per_cell, _ = self._per_node_records()
        old_cell_node = self._cell_node
        new_cell_node = cell_node_ids(
            self._cell_coords, new_cfg.local_cells, grid_new
        )
        stats, flows = plan_partition_migration(
            per_cell, old_cell_node, new_cell_node, cfg.records_per_packet
        )
        cells_moved = int(np.count_nonzero(old_cell_node != new_cell_node))
        # ---- transfer ----
        # A board crashing mid-migration kills the transfer.  The draw is
        # the same keyed decision the next force pass's preamble makes, so
        # after the rollback the crash is then recovered losslessly there.
        if self.node_injector is not None:
            crashed = [
                k
                for k in self.node_injector.crashes_at(it, n_old)
                if k not in self._down_until
            ]
            if crashed:
                return self._abort_rescale(
                    shadow,
                    n_target,
                    reason=(
                        f"node {crashed[0]} crashed during the migration "
                        f"at iteration {it}"
                    ),
                    phase="transfer",
                    flows_attempted=len(flows),
                    packets_lost=0,
                )
        packets_lost = 0
        for (src, dst), flow in flows.items():
            if not flow["packets"]:
                continue
            _, tstats = send_flow(
                self.injector, src, dst, "rescale", it,
                flow["packets"], self.transport,
            )
            self.migration_transport_stats = (
                self.migration_transport_stats + tstats
            )
            if tstats.lost:
                packets_lost += int(tstats.lost)
                return self._abort_rescale(
                    shadow,
                    n_target,
                    reason=(
                        f"migration flow node {src} -> node {dst} lost "
                        f"{int(tstats.lost)} packet(s) beyond the retry "
                        "budget"
                    ),
                    phase="transfer",
                    flows_attempted=len(flows),
                    packets_lost=packets_lost,
                )
        # Cooldown-paced trains through the switch model (loss was already
        # resolved at the transport layer above, so no injector here —
        # only incast/buffer behavior can still kill the transfer).
        bursts = [
            Burst(
                src=src,
                dst=dst,
                n_packets=flow["packets"],
                gap_cycles=cfg.cooldown_cycles,
            )
            for (src, dst), flow in flows.items()
            if flow["packets"]
        ]
        switch = OutputQueuedSwitch(max(n_old, n_target, 2))
        switch_stats = switch.run(bursts, channel="rescale", iteration=it)
        if switch_stats.dropped:
            return self._abort_rescale(
                shadow,
                n_target,
                reason=(
                    f"switch dropped {switch_stats.dropped} migration "
                    "packet(s) (incast overflow)"
                ),
                phase="transfer",
                flows_attempted=len(flows),
                packets_lost=int(switch_stats.dropped),
            )
        # ---- commit ----
        migration_packets = sum(f["packets"] for f in flows.values())
        self._apply_partition(new_cfg)
        self._invalidate_partition_caches()
        switch_stats.rescales = 1
        self.migration_switch_stats = (
            self.migration_switch_stats + switch_stats
        )
        self.rescale_log.append(
            RescaleRecord(
                iteration=it,
                n_old=n_old,
                n_new=n_target,
                grid_old=tuple(cfg.fpga_grid),
                grid_new=grid_new,
                cells_moved=cells_moved,
                records_moved=stats.total,
                flows=tuple(
                    (src, dst, f["records"], f["packets"])
                    for (src, dst), f in flows.items()
                ),
                migration_packets=int(migration_packets),
                migration_bytes=int(migration_packets) * cfg.packet_bits // 8,
                migration_cycles=float(
                    max((f["packets"] for f in flows.values()), default=0)
                    * cfg.cooldown_cycles
                ),
                shadow_records=int(per_cell.sum()),
            )
        )
        if self.balancer is not None:
            self.balancer.notify_rescale(committed=True)
        return True

    def maybe_rescale(self) -> Optional[bool]:
        """Feed the balancer one boundary observation; rescale on proposal.

        Returns ``None`` when no balancer is attached or it holds,
        otherwise :meth:`rescale`'s verdict for the proposed size.
        """
        if self.balancer is None:
            return None
        _, per_node = self._per_node_records()
        target = self.balancer.observe(
            [per_node[k] for k in sorted(per_node)]
        )
        if target is None:
            return None
        return self.rescale(target)

    # -- force evaluation -------------------------------------------------------

    def _verify_id_conversion(
        self, local_cells, node_coords: np.ndarray
    ) -> None:
        """Assert the Sec. 4.2 GCID -> LCID -> RCID machinery on one node.

        For every (home cell, half-shell neighbor) pair of the node, the
        offset recovered through the homogeneous local ID space must
        equal the geometric half-shell offset — this is the check the
        per-cell loop performed inline before displacement evaluation.
        """
        if not len(local_cells):
            return
        gd = self.config.global_cells
        ld = self.config.local_cells
        local = np.asarray(local_cells, dtype=np.int64)
        home_lcid = gcid_to_lcid(
            self._cell_coords[local], node_coords, ld, gd
        )
        nbr_lcid = gcid_to_lcid(
            self._cell_coords[self._neighbor_cids[local]],
            node_coords,
            ld,
            gd,
        )
        rcid = lcid_to_rcid(nbr_lcid, home_lcid[:, None, :], gd)
        offsets = np.asarray(HALF_SHELL_OFFSETS, dtype=np.int64)
        if not np.array_equal(rcid - RCID_HOME, np.broadcast_to(
            offsets[None, :, :], rcid.shape
        )):
            raise ValidationError("RCID conversion mismatch")

    def _node_view(self, node: _Node) -> _NodeView:
        """A node's visible particles as the exchange delivered them.

        Local plus halo cells (stale snapshots included), concatenated
        in ascending cell id into flat slot-ordered arrays: per-cell
        occupancy ``counts`` (global cell ids), particle ids, quantized
        fractions and species.
        """
        # Never empty: a node holds an entry for every cell it owns.
        visible = sorted(list(node.cells.items()) + list(node.halo.items()))
        counts = np.zeros(self.grid.n_cells, dtype=np.int64)
        for cid, data in visible:
            counts[cid] = len(data.particle_ids)
        return _NodeView(
            node.node_id,
            counts,
            np.concatenate([d.particle_ids for _, d in visible]),
            np.concatenate([d.fractions.reshape(-1, 3) for _, d in visible]),
            np.concatenate([d.species for _, d in visible]),
        )

    def _node_arena(self) -> _StepArena:
        """This thread's kernel scratch (one per pool thread)."""
        arena = getattr(self._arenas, "arena", None)
        if arena is None:
            arena = self._arenas.arena = _StepArena()
        return arena

    def _eval_node(
        self,
        view: _NodeView,
        cap: int,
        bank: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, float, Dict[int, int]]:
        """Evaluate one node's home rows through the shared node kernel.

        The node runs the machine's :class:`~repro.core.machine.NodeKernel`
        over the band pairs of its home cells' plan rows, searched in
        its own visible fractions with the fresh path's band (no skin:
        the lists live for this pass only).  Forces accumulate into
        node-local banks indexed by visible slot; their sum is written
        to ``bank`` (allocated when None).  Returns ``(bank, potential,
        records)`` where ``records`` maps each owner node to the
        neighbor-force records it must receive — one per (plan row,
        touched neighbor particle), the hardware's per-block return
        stream (zero forces are never sent).

        Reads only static machine state and ``view``, so serial,
        thread-pool and forked-process evaluation make this same call
        and produce bitwise-identical results.
        """
        nid = view.node_id
        local = self._local_cells_static[nid]
        self._verify_id_conversion(local, self._node_coords[nid])
        ln = len(view.pids)
        if bank is None:
            bank = np.empty((ln, 3), dtype=np.float32)
        bank.fill(0)
        homes = local[view.counts[local] > 0]
        if homes.size == 0:
            return bank, 0.0, {}
        plan = self._plan
        backend = resolve_backend(self.force_impl)
        start = np.concatenate([[0], np.cumsum(view.counts)])
        pairs = band_slot_pairs(
            plan, start, view.counts, view.frac, _OFFS14, _FRESH_BAND,
            homes=homes, cap=cap, backend=backend,
        )
        kernel = self._kernel
        art = _BandArtifacts(
            kernel,
            pairs,
            cap,
            view.species,
            None if self._charges32 is None else self._charges32[view.pids],
        )
        arena = self._node_arena()
        home_bank = arena.get("node_home", 3 * ln, np.float32).reshape(ln, 3)
        nbr_bank = arena.get("node_nbr", 3 * ln, np.float32).reshape(ln, 3)
        home_bank.fill(0)
        nbr_bank.fill(0)
        uniq_per_row = np.zeros(plan.n_rows, dtype=np.int64)
        potential = kernel.evaluate(
            view.frac[:, 0].astype(np.float32),
            view.frac[:, 1].astype(np.float32),
            view.frac[:, 2].astype(np.float32),
            art,
            home_bank,
            nbr_bank,
            np.zeros(plan.n_cells, dtype=np.int64),
            uniq_per_row,
            backend,
            arena,
        )
        np.add(home_bank, nbr_bank, out=bank)
        # Neighbor-force records of rows whose neighbor cell another
        # node owns; local reactions stay in the bank.
        rows = (
            homes[:, None] * ROWS_PER_CELL
            + np.arange(1, ROWS_PER_CELL, dtype=np.int64)[None, :]
        ).reshape(-1)
        owners = self._cell_node[plan.nbr[rows]]
        remote = owners != nid
        per_owner = np.bincount(
            owners[remote], weights=uniq_per_row[rows[remote]],
            minlength=self.config.n_fpgas,
        )
        records = {int(o): int(r) for o, r in enumerate(per_owner) if r}
        return bank, float(potential), records

    # -- zero-copy shared-memory evaluation -------------------------------------

    def _ensure_shm(self) -> bool:
        """Create the shared position/bank/metadata segments (once).

        Segment sizes are static for the machine's life: fractions
        ``(N, 3)`` float64, per-node visible-cell counts ``(n_fpgas,
        n_cells)`` int64, and a particle-id catalog with its aligned
        float32 force-bank catalog, both sized by the provable bound
        ``N * (1 + max destinations per cell)`` (each cell's particles
        appear once locally plus at most once per destination node of
        its send flows).  Creation shuts any existing pool down so the
        next fork inherits the mappings; failure (no POSIX shared
        memory) degrades permanently to the pickled-view path.
        """
        if self._shm_ok is not None:
            return self._shm_ok
        try:
            from multiprocessing import shared_memory

            n = self.system.n
            nf = self.config.n_fpgas
            nc = self.grid.n_cells
            max_targets = max(
                (len(v) for v in self._send_targets.values()), default=0
            )
            cap = max(1, n * (1 + max_targets))

            def seg(nbytes: int):
                s = shared_memory.SharedMemory(
                    create=True, size=max(1, nbytes)
                )
                self._shm_segs.append(s)
                return s

            self._shm_frac = np.ndarray(
                (n, 3), dtype=np.float64, buffer=seg(n * 3 * 8).buf
            )
            self._shm_banks = np.ndarray(
                (cap, 3), dtype=np.float32, buffer=seg(cap * 3 * 4).buf
            )
            self._shm_counts = np.ndarray(
                (nf, nc), dtype=np.int64, buffer=seg(nf * nc * 8).buf
            )
            self._shm_pids = np.ndarray(
                cap, dtype=np.int64, buffer=seg(cap * 8).buf
            )
            self._shm_meta_cids = None
            self._shm_tasks = None
            self._shutdown_pool()
            self._shm_ok = True
        except Exception:
            self._release_shm()
            self._shm_ok = False
        return self._shm_ok

    def _release_shm(self) -> None:
        """Drop the numpy views, then close and unlink every segment."""
        self._shm_frac = None
        self._shm_banks = None
        self._shm_counts = None
        self._shm_pids = None
        self._shm_meta_cids = None
        self._shm_tasks = None
        segs, self._shm_segs = self._shm_segs, []
        for s in segs:
            try:
                s.close()
                s.unlink()
            except Exception:
                pass
        self._shm_ok = None

    def _pack_shm(self, views: List[_NodeView]) -> List[Tuple[int, int, int]]:
        """Refresh the shared segments for this force pass.

        The fraction segment is copied in place every step; the
        partition metadata (per-node visible-cell counts + the
        concatenated particle ids of :meth:`_node_view`) is rewritten
        only when the cell assignment changed since the last pack.
        Returns the tiny per-node ``(node_id, pid_offset, pid_len)``
        task tuples.
        """
        np.copyto(self._shm_frac, self._last_frac)
        if self._shm_tasks is not None and np.array_equal(
            self._last_cids, self._shm_meta_cids
        ):
            return self._shm_tasks
        tasks: List[Tuple[int, int, int]] = []
        off = 0
        for view in views:
            ln = len(view.pids)
            self._shm_counts[view.node_id] = view.counts
            self._shm_pids[off:off + ln] = view.pids
            tasks.append((view.node_id, off, ln))
            off += ln
        self._shm_meta_cids = self._last_cids.copy()
        self._shm_tasks = tasks
        return tasks

    def _eval_node_shm(
        self, task: Tuple[int, int, int], cap: int
    ) -> Tuple[float, Dict[int, int]]:
        """Worker-side :meth:`_eval_node` against the shared segments.

        Rebuilds exactly the view of :meth:`_node_view` — without an
        injector every halo fraction equals ``frac[pid]`` of the sender
        and every halo species equals ``system.species[pid]`` — and
        writes the node's bank into its slice of the shared catalog
        instead of returning a pickled array.
        """
        nid, off, ln = task
        pids = self._shm_pids[off:off + ln]
        view = _NodeView(
            nid, self._shm_counts[nid], pids, self._shm_frac[pids],
            self.system.species[pids],
        )
        _, potential, records = self._eval_node(
            view, cap, self._shm_banks[off:off + ln]
        )
        return potential, records

    def _get_executor(self):
        """Build (once) and return the evaluation pool for this machine.

        ``"thread"``/``True`` gets a thread pool; ``"process"`` a forked
        process pool.  Forked workers inherit the machine by reference
        at fork time; :meth:`_eval_node` reads only *static* machine
        state (geometry, plan, kernel) — all per-step state travels in
        the node view or the shared segments — so the workers stay
        valid for the machine's whole life and the pool is reused
        across steps.
        """
        kind = "process" if self.parallel == "process" else "thread"
        if self._executor is not None and self._executor_kind == kind:
            return self._executor
        self._shutdown_pool()
        workers = self.max_workers or self.config.n_fpgas
        if kind == "process":
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            global _FORK_MACHINE
            _FORK_MACHINE = self
            try:
                ctx = multiprocessing.get_context("fork")
            except ValueError:
                # No fork on this platform: threads are the honest
                # fallback (the machine holds unpicklable table lambdas).
                kind = "thread"
            else:
                self._executor = ProcessPoolExecutor(
                    max_workers=workers, mp_context=ctx
                )
        if kind == "thread":
            from concurrent.futures import ThreadPoolExecutor

            self._executor = ThreadPoolExecutor(max_workers=workers)
        self._executor_kind = kind
        return self._executor

    def _shutdown_pool(self) -> None:
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None
            self._executor_kind = None

    def close(self) -> None:
        """Shut down the pool and release shared segments (idempotent).

        A no-op in forked workers: their interpreter teardown must not
        shut down the parent's pool or unlink segments it still maps.
        """
        if getattr(self, "_owner_pid", None) != os.getpid():
            return
        self._shutdown_pool()
        self._release_shm()

    def __del__(self):
        try:
            self.close()
        except Exception:
            pass

    def compute_forces(self) -> float:
        """One distributed force pass; returns the potential energy."""
        self.last_degraded_records = 0
        if self.node_injector is not None:
            self._node_fault_preamble()
        with self.timings.phase("build"):
            nodes = self._build_nodes()
        with self.timings.phase("exchange"):
            self._exchange_positions(nodes)
        self._iteration += 1
        with self.timings.phase("force"):
            views = [self._node_view(nodes[n]) for n in sorted(nodes)]
            results = self._evaluate_all(views)
            potential = self._merge_results(views, results)
        self._last_potential = potential
        return self._last_potential

    def _evaluate_all(
        self, views: List[_NodeView]
    ) -> List[Tuple[np.ndarray, float, Dict[int, int]]]:
        """Evaluate every node serially or on the configured pool.

        Every mode makes the same :meth:`_eval_node` call per node with
        one pass-wide bucket ``cap``.  ``parallel="process"`` without a
        fault injector takes the zero-copy route: only ``(node_id,
        offset, length)`` tuples cross the pipe; fractions travel
        through the shared position segment and each node's bank comes
        back through its slice of the shared bank catalog.  With an
        injector the halo can degrade to stale snapshots (which the
        shared gather cannot reproduce), so the views are pickled
        instead.
        """
        cap = max(int(v.counts.max()) for v in views)
        if not self.parallel:
            return [self._eval_node(v, cap) for v in views]
        use_shm = (
            self.parallel == "process"
            and self.injector is None
            and self._ensure_shm()
        )
        pool = self._get_executor()
        if self._executor_kind != "process":
            return list(pool.map(lambda v: self._eval_node(v, cap), views))
        if use_shm:
            tasks = self._pack_shm(views)
            done = pool.map(_fork_eval_node_shm, [(t, cap) for t in tasks])
            return [
                (self._shm_banks[off:off + ln], pot, recs)
                for (_, off, ln), (pot, recs) in zip(tasks, done)
            ]
        return list(pool.map(_fork_eval_node, [(v, cap) for v in views]))

    def _merge_results(self, views: List[_NodeView], results) -> float:
        """Sum the node banks and account the force-return packets.

        Deterministic in node-id order, independent of worker
        scheduling: each node's bank adds onto its visible particles
        (local rows are its own forces, halo rows the neighbor forces
        it returns to their owners), and each owner receives
        ``ceil(records / records_per_packet)`` force packets.
        """
        forces = np.zeros((self.system.n, 3), dtype=np.float32)
        potential = np.float32(0.0)
        records = np.zeros(self.config.n_fpgas, dtype=np.int64)
        for view, (bank, pot, recs) in zip(views, results):
            scatter_add(forces, view.pids, bank)
            potential += np.float32(pot)
            for owner, n_records in recs.items():
                records[owner] += n_records
        rpp = self.config.records_per_packet
        self.total_force_packets += int(sum(-(-r // rpp) for r in records))
        self._forces32 = forces
        return float(potential)

    # -- integration ------------------------------------------------------------

    def _force_pass(self, collect_traffic: bool) -> float:
        return self.compute_forces()

    def step(self) -> float:
        """One distributed timestep (the machine's float32 integrator)."""
        return self._verlet_step(False)

    def run(self, n_steps: int, record_every: int = 1) -> List[EnergyRecord]:
        """Run steps with energy recording (same schema as the machine)."""
        return self._verlet_run(n_steps, record_every, False)
