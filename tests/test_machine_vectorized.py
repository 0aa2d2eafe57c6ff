"""Equivalence suite for the vectorized machine step (PR 2).

Three oracles guard the batched hot paths:

* traffic accounting — the machine's group-by passes vs the per-row
  walk of :func:`repro.oracles.machine_pass_chunked`, across
  1/2/4/8-node configs;
* pair enumeration — the node kernel over band lists vs the oracle's
  chunked gather enumeration (bitwise-identical admissions and integer
  workload statistics);
* distributed exchange — array-packed ``RecordBatch`` flows vs the
  per-particle P2R chain walk (identical halos and packet counts).
"""

from dataclasses import asdict

import numpy as np
import pytest

from repro.core.config import MachineConfig
from repro.core.distributed import DistributedMachine
from repro.core.machine import FasdaMachine
from repro.md import build_dataset
from repro.oracles import exchange_positions_loop, machine_pass_chunked

GRIDS = [(1, 1, 1), (2, 1, 1), (2, 2, 1), (2, 2, 2)]


def _machine(fpga_grid, **kw):
    cfg = MachineConfig((4, 4, 4), fpga_grid)
    system, _ = build_dataset((4, 4, 4), particles_per_cell=16, seed=11)
    return FasdaMachine(cfg, system=system, **kw)


def _stats_signature(stats):
    """Everything StepStats carries, in comparable form."""
    return dict(
        position_records=stats.position_records,
        force_records=stats.force_records,
        pr_load={n: asdict(s) for n, s in stats.pr_load.items()},
        fr_load={n: asdict(s) for n, s in stats.fr_load.items()},
        candidates=stats.candidates_per_cell.tolist(),
        accepted=stats.accepted_per_cell.tolist(),
        occupancy=stats.occupancy_per_cell.tolist(),
        nbr_frc=stats.neighbor_force_records_per_cell.tolist(),
    )


class TestTrafficAccountingEquivalence:
    @pytest.mark.parametrize("fpga_grid", GRIDS)
    def test_vectorized_matches_loop_oracle(self, fpga_grid):
        m = _machine(fpga_grid)
        vec = _stats_signature(m.compute_forces())
        loop = _stats_signature(machine_pass_chunked(m)[0])
        assert vec == loop

    def test_vectorized_matches_loop_after_steps(self):
        # Same equivalence on a perturbed (non-lattice) configuration.
        m = _machine((2, 2, 2))
        m.run(3)
        vec = _stats_signature(m.compute_forces())
        loop = _stats_signature(machine_pass_chunked(m)[0])
        assert vec == loop

    def test_traffic_off_produces_empty_accounting(self):
        m = _machine((2, 2, 2))
        stats = m.compute_forces(collect_traffic=False)
        assert stats.position_records == {}
        assert stats.force_records == {}
        assert all(s.total_records == 0 for s in stats.pr_load.values())
        oracle, _ = machine_pass_chunked(m, collect_traffic=False)
        assert _stats_signature(stats) == _stats_signature(oracle)


class TestPairPathEquivalence:
    def test_padded_matches_chunked_exactly(self):
        m = _machine((2, 2, 2))
        sp = m.compute_forces()
        fp = m.forces.copy()
        sc, fc = machine_pass_chunked(m)
        # Integer workload statistics are bitwise equal (same admitted
        # pair set through the real filter on both paths).
        assert _stats_signature(sp) == _stats_signature(sc)
        # Forces/energy differ only in float32 accumulation grouping.
        scale = np.abs(fc).max()
        assert np.abs(fp - fc).max() <= 1e-4 * max(scale, 1.0)
        assert sp.potential_energy == pytest.approx(
            sc.potential_energy, rel=1e-4
        )

    def test_auto_selects_padded_on_dense_box(self):
        from repro.md.cells import CellList
        from repro.md.reference import _padded_viable

        m = _machine((1, 1, 1))
        clist = CellList(m.grid, m.system.positions)
        assert _padded_viable(m._plan, clist)

    def test_partition_invariance_holds_on_padded_path(self):
        banks = []
        for fpga_grid in GRIDS:
            m = _machine(fpga_grid)
            m.compute_forces()
            banks.append(m.forces.copy())
        for other in banks[1:]:
            assert np.array_equal(banks[0], other)


class TestDistributedExchangeEquivalence:
    def _exchange_signature(self, machine, impl):
        nodes = machine._build_nodes()
        if impl == "loop":
            exchange_positions_loop(machine, nodes)
        else:
            machine._exchange_positions(nodes)
        sig = {}
        for nid in sorted(nodes):
            node = nodes[nid]
            halo = {
                cid: (
                    node.halo[cid].particle_ids.tolist(),
                    node.halo[cid].fractions.tolist(),
                    node.halo[cid].species.tolist(),
                )
                for cid in sorted(node.halo)
            }
            sig[nid] = (node.packets_in, node.packets_out, halo)
        return sig

    @pytest.mark.parametrize("fpga_grid", [(2, 1, 1), (2, 2, 1), (2, 2, 2)])
    def test_batched_matches_loop_oracle(self, fpga_grid):
        cfg = MachineConfig((4, 4, 4), fpga_grid)
        system, _ = build_dataset((4, 4, 4), particles_per_cell=16, seed=11)
        d = DistributedMachine(cfg, system=system)
        batched = self._exchange_signature(d, "batched")
        loop = self._exchange_signature(d, "loop")
        assert batched == loop

    def test_batched_total_packet_counter_matches_loop(self):
        cfg = MachineConfig((4, 4, 4), (2, 2, 2))
        system, _ = build_dataset((4, 4, 4), particles_per_cell=16, seed=11)
        counts = {}
        for impl in ("batched", "loop"):
            d = DistributedMachine(cfg, system=system.copy())
            if impl == "loop":
                d._exchange_positions = lambda nodes, d=d: (
                    exchange_positions_loop(d, nodes)
                )
            d.run(2)
            counts[impl] = (d.total_position_packets, d.total_force_packets)
        assert counts["batched"] == counts["loop"]
