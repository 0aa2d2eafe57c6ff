"""Independent oracles kept outside the production classes.

Each function here restates one production path the slow, literal way,
so tests and the profiling harness can assert the fast path against it
bitwise.  Nothing in the production classes calls into this module.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.core.cellids import gcid_to_lcid
from repro.core.datapath import quantize_cell_fractions
from repro.core.packets import P2REncapsulatorChain, Packet, Record
from repro.md.cells import CellList
from repro.md.kernels import scatter_add
from repro.md.pairplan import candidates_per_cell, iter_pair_chunks
from repro.util.errors import ConfigError, ValidationError


def machine_pass_chunked(machine, collect_traffic: bool = True):
    """One :meth:`~repro.core.machine.FasdaMachine.compute_forces` pass,
    restated with the chunked enumerator and the per-row traffic walk.

    Fresh binning of the machine's current positions; every candidate
    pair of the shared pair plan goes through the real
    :class:`~repro.core.datapath.PairFilter` and the
    :class:`~repro.core.datapath.ForcePipeline` (plus the Ewald pipeline
    behind the same filter) in step-wide chunks, forces scatter into
    particle-indexed home/neighbor banks, and the traffic records and
    ring loads come from one Python walk over the active plan rows.
    Returns ``(StepStats, forces)`` and leaves the machine untouched.

    Every admitted pair, every integer statistic, traffic record and
    ring load matches the machine bitwise; forces and the potential
    differ only in float32 accumulation order.
    """
    from repro.core.machine import RingLoadSummary, StepStats

    cfg = machine.config
    plan = machine._plan
    pos = machine.system.positions
    n = machine.system.n
    clist = CellList(machine.grid, pos)
    frac = quantize_cell_fractions(
        pos, machine.grid.coords_of_positions(pos), cfg.cutoff, machine.fmt
    )
    home_bank = np.zeros((n, 3), dtype=np.float32)
    nbr_bank = np.zeros((n, 3), dtype=np.float32)
    accepted = np.zeros(plan.n_cells, dtype=np.int64)
    uniq_per_row = np.zeros(plan.n_rows, dtype=np.int64)
    potential = np.float32(0.0)
    spc = machine.system.species
    n64 = np.int64(n)
    for chunk in iter_pair_chunks(plan, clist.counts, clist.start, clist.order):
        # Displacement home - neighbor = frac_h - offset - frac_n
        # (offset zero on home-home rows), exact in float64 for
        # quantized fractions.
        dr = frac[chunk.ii] - frac[chunk.jj] - plan.offset[chunk.row]
        res = machine.filter.check(dr)
        if not res.n_accepted:
            continue
        m = res.mask
        ii = chunk.ii[m]
        jj = chunk.jj[m]
        row = chunk.row[m]
        scatter_add(accepted, plan.home[row])
        f, e = machine.pipeline.compute(dr[m], res.r2, spc[ii], spc[jj])
        if machine.coulomb_pipeline is not None:
            qq = machine._charges32[ii] * machine._charges32[jj]
            fc, ec = machine.coulomb_pipeline.compute(dr[m], res.r2, qq)
            f = f + fc
            e = e + ec
        sel = plan.is_self[row]
        scatter_add(home_bank, ii, f)
        if sel.any():
            scatter_add(home_bank, jj[sel], -f[sel])
        nsel = ~sel
        if nsel.any():
            scatter_add(nbr_bank, jj[nsel], -f[nsel])
            # Unique (row, neighbor particle) keys; chunks carry whole
            # rows, so per-chunk uniqueness is per-block exact.
            keys = np.unique(row[nsel] * n64 + jj[nsel])
            scatter_add(uniq_per_row, keys // n64)
        potential += e.sum(dtype=np.float32)

    nbr_frc_records = np.zeros(plan.n_cells, dtype=np.int64)
    scatter_add(nbr_frc_records, plan.home, uniq_per_row)
    occupancy = clist.occupancies()
    if collect_traffic:
        position_records, force_records, pr_models, fr_models = (
            _traffic_loop(machine, clist.counts, occupancy, uniq_per_row)
        )
    else:
        position_records, force_records = {}, {}
        pr_models, fr_models = machine._traffic_models()
    stats = StepStats(
        candidates_per_cell=candidates_per_cell(plan, clist.counts),
        accepted_per_cell=accepted,
        occupancy_per_cell=occupancy.copy(),
        potential_energy=float(potential),
        position_records=position_records,
        force_records=force_records,
        pr_load={k: RingLoadSummary.from_model(v) for k, v in pr_models.items()},
        fr_load={k: RingLoadSummary.from_model(v) for k, v in fr_models.items()},
        neighbor_force_records_per_cell=nbr_frc_records,
    )
    return stats, home_bank + nbr_bank


def _traffic_loop(machine, counts, occupancy, uniq_per_row):
    """The per-row traffic walk of :func:`machine_pass_chunked`: returns
    ``(position_records, force_records, pr_models, fr_models)``."""
    position_records: Dict[Tuple[int, int], int] = {}
    force_records: Dict[Tuple[int, int], int] = {}
    pr_models, fr_models = machine._traffic_models()
    plan = machine._plan
    cell_node = machine._cell_node
    ring_slot = machine._cell_ring_slot
    ex_slot = machine._ex_slot
    # (source cell, dest node) pairs that carried at least one position.
    pos_sent: Dict[Tuple[int, int], bool] = {}
    # Position-ring destinations per (node, source slot) for broadcasts.
    pr_dests: Dict[Tuple[int, int], List[int]] = {}
    pr_counts: Dict[Tuple[int, int], int] = {}
    for r in machine._position_rows(counts):
        # Position stream: source cell -> home node (dedup per node).
        home_node = int(cell_node[plan.home[r]])
        pos_sent[(int(plan.nbr[r]), home_node)] = True
    for r in machine._active_neighbor_rows(counts):
        cid = int(plan.home[r])
        ncid = int(plan.nbr[r])
        home_node = int(cell_node[cid])
        home_slot = int(ring_slot[cid])
        src_node = int(cell_node[ncid])
        # Ring broadcast bookkeeping.
        key = (
            home_node,
            int(ring_slot[ncid])
            if src_node == home_node
            else ex_slot + 10_000 + ncid,
        )
        pr_dests.setdefault(key, []).append(home_slot)
        pr_counts[key] = int(counts[ncid])
        uniq = int(uniq_per_row[r])
        if uniq:
            if src_node != home_node:
                key2 = (home_node, src_node)
                force_records[key2] = force_records.get(key2, 0) + uniq
            # Force-ring injection: evaluating CBB -> home CBB (or EX
            # when remote).
            dst_slot = int(ring_slot[ncid]) if src_node == home_node else ex_slot
            fr_models[home_node].inject(home_slot, dst_slot, uniq)

    # Replay position broadcasts: one ring traversal per source stream,
    # visiting all destination CBBs (Sec. 4.5 semantics).
    for (node, src_key), dests in pr_dests.items():
        src_slot = src_key if src_key < machine._ring_slots else ex_slot
        pr_models[node].broadcast(src_slot, dests, pr_counts[(node, src_key)])
    # Remote arriving forces also ride the destination node's FR from EX
    # to the home CBB; home cells unknown at this granularity — charge
    # the mean path (EX to mid-ring).
    for (src, dst), recs in force_records.items():
        fr_models[dst].inject(ex_slot, machine._ring_slots // 2, recs)

    for (src_cell, dst_node), _ in pos_sent.items():
        src_node = int(cell_node[src_cell])
        if src_node == dst_node:
            continue
        key = (src_node, dst_node)
        position_records[key] = position_records.get(key, 0) + int(
            occupancy[src_cell]
        )
    return position_records, force_records, pr_models, fr_models


def exchange_positions_loop(machine, nodes: Dict[int, object]) -> None:
    """Per-particle position exchange through the P2R encapsulator chain.

    The protocol walk that
    :meth:`~repro.core.distributed.DistributedMachine._exchange_positions`
    batches: every boundary particle becomes one
    :class:`~repro.core.packets.Record`, routed through each source
    node's :class:`~repro.core.packets.P2REncapsulatorChain` to every
    destination node; on arrival each record's global cell goes through
    the GCID -> LCID round trip and is bucketed into the receiver's
    halo.  Fills ``nodes`` (halos and packet counters) and the machine's
    ``total_position_packets`` exactly as the batched exchange does.

    Lossless only: a machine with a fault injector is rejected, since
    the per-record walk models no fabric loss.
    """
    from repro.core.distributed import _CellData

    if machine.injector is not None:
        raise ConfigError(
            "the per-record exchange oracle models no fault injection"
        )
    mailboxes: Dict[int, List[Packet]] = {n: [] for n in nodes}
    for node in nodes.values():
        neighbor_nodes = sorted(
            {t for cid in node.local_cells for t in machine._send_targets[cid]}
        )
        if not neighbor_nodes:
            continue
        chain = P2REncapsulatorChain(
            neighbor_nodes, machine.config.records_per_packet
        )
        out: List[Packet] = []
        for cid in node.local_cells:
            targets = machine._send_targets[cid]
            if not targets:
                continue
            data = node.cells[cid]
            cell = tuple(int(c) for c in machine._cell_coords[cid])
            for pid, fq, sp in zip(
                data.particle_ids, data.fractions, data.species
            ):
                record = Record(
                    "position",
                    int(pid),
                    cell,
                    (float(fq[0]), float(fq[1]), float(fq[2]), int(sp)),
                )
                out.extend(chain.route(record, targets))
        out.extend(chain.flush_all())
        node.packets_out += len(out)
        for pkt in out:
            mailboxes[pkt.dst].append(pkt)
    # Arrival: unpack, convert GCID -> LCID, bucket into the halo.
    gd = machine.config.global_cells
    ld = machine.config.local_cells
    for node in nodes.values():
        buckets: Dict[int, List[Tuple[int, Tuple[float, ...], int]]] = {}
        for pkt in mailboxes[node.node_id]:
            node.packets_in += 1
            for rec in pkt.records:
                # The Sec. 4.2 conversion: express the sender's global
                # cell in this node's homogeneous local space, then map
                # back to the global id for bucketing.  The LCID round
                # trip is exercised (and asserted) here.
                lcid = gcid_to_lcid(
                    np.asarray(rec.cell), node.node_coords, ld, gd
                )
                origin = node.node_coords * np.asarray(ld)
                back = tuple(int(v) for v in np.mod(lcid + origin, gd))
                if back != rec.cell:
                    raise ValidationError("LCID conversion corrupted a cell id")
                gcid_int = int(machine.grid.cell_id(np.asarray(rec.cell)))
                buckets.setdefault(gcid_int, []).append(
                    (rec.particle_id, rec.payload, int(rec.payload[3]))
                )
        for gcid_int, items in buckets.items():
            node.halo[gcid_int] = _CellData(
                particle_ids=np.array([i[0] for i in items], dtype=np.int64),
                fractions=np.array(
                    [[i[1][0], i[1][1], i[1][2]] for i in items]
                ),
                species=np.array([i[2] for i in items], dtype=np.int32),
            )
    machine.total_position_packets += sum(
        n.packets_out for n in nodes.values()
    )
