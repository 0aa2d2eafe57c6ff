"""Independent oracles kept outside the production classes.

Each function here restates one production path the slow, literal way,
so tests and the profiling harness can assert the fast path against it
bitwise.  Nothing in the production classes calls into this module.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.core.cellids import gcid_to_lcid
from repro.core.packets import P2REncapsulatorChain, Packet, Record
from repro.util.errors import ConfigError, ValidationError


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
