"""Differential tests of the shared node kernel on generated systems.

Every :class:`DistributedMachine` node evaluates its home rows through
the same :class:`~repro.core.machine.NodeKernel` as the single
:class:`FasdaMachine`.  On generated boxes — 3 to 5 cells per axis,
empty cells next to dense ones, LJ and LJ + Ewald, every node count
:func:`valid_node_counts` allows — the distributed forces must match
the single machine's to float32 accumulation order, and the real
position and force packets must equal the machine's traffic accounting.
The single machine in turn must match the chunked oracle
(:func:`repro.oracles.machine_pass_chunked`): every integer statistic,
traffic record and ring load bitwise, forces to accumulation order.
"""

from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import MachineConfig
from repro.core.distributed import DistributedMachine
from repro.core.elasticity import fpga_grid_for, valid_node_counts
from repro.core.machine import FasdaMachine
from repro.md import build_dataset
from repro.md.system import ParticleSystem
from repro.oracles import machine_pass_chunked

#: Particles per cell of the dense source lattice; kept cells hold a
#: prefix of their lattice particles, so spacing stays physical.
DENSE = 8
#: Per-cell occupancy classes the strategy draws from.
OCCUPANCY = (0, 0, 1, 3, DENSE)


def _carve(system, grid, keep_per_cell):
    """Keep the first ``keep_per_cell[c]`` particles of every cell."""
    cids = grid.cell_id(grid.coords_of_positions(system.positions))
    order = np.argsort(cids, kind="stable")
    rank = np.empty(len(cids), dtype=np.int64)
    counts = np.bincount(cids, minlength=grid.n_cells)
    starts = np.concatenate([[0], np.cumsum(counts)])
    rank[order] = np.arange(len(cids)) - starts[cids[order]]
    keep = rank < np.asarray(keep_per_cell)[cids]
    return ParticleSystem(
        positions=system.positions[keep].copy(),
        velocities=system.velocities[keep].copy(),
        species=system.species[keep].copy(),
        lj_table=system.lj_table,
        box=system.box.copy(),
        charges=(
            None if system.charges is None else system.charges[keep].copy()
        ),
    )


def make_case(dims, occupancy, coulomb, seed):
    kwargs = (
        dict(species=("Na", "Cl"), charged=True, min_distance=2.4)
        if coulomb else {}
    )
    system, grid = build_dataset(
        dims, particles_per_cell=DENSE, seed=seed, **kwargs
    )
    return _carve(system, grid, occupancy)


@st.composite
def cases(draw):
    dims = tuple(draw(st.integers(3, 5)) for _ in range(3))
    n_cells = int(np.prod(dims))
    occupancy = draw(
        st.lists(
            st.sampled_from(OCCUPANCY), min_size=n_cells, max_size=n_cells
        )
    )
    # At least one dense cell, so every box has work.
    occupancy[draw(st.integers(0, n_cells - 1))] = DENSE
    nodes = draw(st.sampled_from(valid_node_counts(dims)))
    coulomb = draw(st.booleans())
    seed = draw(st.integers(0, 2**16))
    return dims, occupancy, nodes, coulomb, seed


def _config(dims, nodes, coulomb):
    return MachineConfig(
        dims,
        fpga_grid_for(dims, nodes),
        force_model="lj+coulomb" if coulomb else "lj",
    )


def _rel_err(got, want):
    got = got.astype(np.float64)
    want = want.astype(np.float64)
    scale = np.abs(want).max()
    if scale == 0.0:
        return float(np.abs(got).max())
    return float(np.abs(got - want).max() / scale)


def _stats_signature(stats):
    """Everything StepStats asserts bitwise (potential and timings
    excluded: float32 accumulation order and wall clock)."""
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


def _expected_packets(cfg, stats):
    """Packets the machine's traffic accounting implies: ceil(records /
    records_per_packet) per position flow, and per force destination
    over every evaluating node's records."""
    rpp = cfg.records_per_packet
    pos = sum(-(-r // rpp) for r in stats.position_records.values())
    per_dst = {}
    for (_, dst), r in stats.force_records.items():
        per_dst[dst] = per_dst.get(dst, 0) + r
    frc = sum(-(-r // rpp) for r in per_dst.values())
    return pos, frc


@settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(cases())
def test_distributed_matches_machine_on_generated_systems(case):
    dims, occupancy, nodes, coulomb, seed = case
    system = make_case(dims, occupancy, coulomb, seed)
    cfg = _config(dims, nodes, coulomb)
    m = FasdaMachine(cfg, system=system.copy())
    stats = m.compute_forces(collect_traffic=True)
    oracle, f_oracle = machine_pass_chunked(m)
    assert _stats_signature(stats) == _stats_signature(oracle)
    assert _rel_err(m.forces, f_oracle) < 1e-4
    d = DistributedMachine(cfg, system=system.copy())
    potential = d.compute_forces()
    assert _rel_err(d.forces, m.forces) < 1e-5
    assert potential == pytest.approx(stats.potential_energy, rel=1e-5, abs=1e-6)
    assert (d.total_position_packets, d.total_force_packets) == (
        _expected_packets(cfg, stats)
    )


def test_every_node_count_of_one_box():
    """The strategy samples node counts; this walks all of one box's."""
    dims = (4, 4, 4)
    occupancy = [DENSE if c % 3 else 0 for c in range(64)]
    system = make_case(dims, occupancy, False, seed=5)
    for nodes in valid_node_counts(dims):
        cfg = _config(dims, nodes, False)
        m = FasdaMachine(cfg, system=system.copy())
        stats = m.compute_forces(collect_traffic=True)
        d = DistributedMachine(cfg, system=system.copy())
        d.compute_forces()
        assert _rel_err(d.forces, m.forces) < 1e-5, nodes
        assert (d.total_position_packets, d.total_force_packets) == (
            _expected_packets(cfg, stats)
        ), nodes


def test_serial_equals_process_bitwise_on_generated_system():
    dims = (4, 3, 4)
    rng = np.random.default_rng(11)
    occupancy = list(rng.choice(OCCUPANCY, size=int(np.prod(dims))))
    occupancy[0] = DENSE
    system = make_case(dims, occupancy, True, seed=11)
    cfg = _config(dims, 4, True)
    serial = DistributedMachine(cfg, system=system.copy())
    pooled = DistributedMachine(cfg, system=system.copy(), parallel="process")
    try:
        serial.run(3, record_every=1)
        pooled.run(3, record_every=1)
        assert np.array_equal(serial.forces, pooled.forces)
        assert np.array_equal(serial.system.positions, pooled.system.positions)
        assert [r.potential for r in serial.history] == [
            r.potential for r in pooled.history
        ]
        assert (serial.total_position_packets, serial.total_force_packets) == (
            pooled.total_position_packets, pooled.total_force_packets
        )
    finally:
        pooled.close()


def test_node_with_zero_admitted_pairs():
    """A node whose only home particle has no partner within the cutoff
    evaluates to a zero bank and returns no records."""
    dims = (4, 4, 4)
    cfg = _config(dims, 2, False)
    probe = DistributedMachine(cfg, system=make_case(dims, [1] * 64, False, 3))
    coords = probe._cell_coords
    lone = int(probe.grid.cell_id(np.array([2, 2, 2])))
    owner = int(probe._cell_node[lone])
    gap = np.abs(coords - coords[lone])
    gap = np.minimum(gap, np.asarray(dims) - gap)
    near = (gap <= 1).all(axis=1)
    # Dense cells on the other node only, none next to the lone cell.
    occupancy = np.where((probe._cell_node != owner) & ~near, DENSE, 0)
    occupancy[lone] = 1
    system = make_case(dims, list(occupancy), False, seed=3)
    d = DistributedMachine(cfg, system=system.copy())
    nodes = d._build_nodes()
    d._exchange_positions(nodes)
    views = [d._node_view(nodes[n]) for n in sorted(nodes)]
    cap = max(int(v.counts.max()) for v in views)
    bank, potential, records = d._eval_node(views[owner], cap)
    assert views[owner].counts[d._local_cells_static[owner]].sum() == 1
    assert potential == 0.0 and records == {}
    assert not bank.any()
    m = FasdaMachine(cfg, system=system.copy())
    m.compute_forces(collect_traffic=False)
    d.compute_forces()
    assert _rel_err(d.forces, m.forces) < 1e-5
    assert not d.forces[nodes[owner].cells[lone].particle_ids].any()


@pytest.mark.parametrize("coulomb", [False, True])
def test_kernel_pipeline_is_the_datapath_bitwise(coulomb):
    """The kernel's numpy pipeline restates the datapath's
    ForcePipeline (plus the Ewald pipeline) bit for bit."""
    from repro.core.datapath import quantize_cell_fractions
    from repro.core.machine import (
        _FRESH_BAND, _OFFS14, _BandArtifacts, _StepArena,
    )
    from repro.md.backends import admit_flat_numpy
    from repro.md.cells import CellList
    from repro.md.cellstate import band_slot_pairs

    dims = (3, 3, 3)
    system = make_case(dims, [DENSE] * 27, coulomb, seed=7)
    m = FasdaMachine(_config(dims, 3, coulomb), system=system)
    pos = m.system.positions
    clist = CellList(m.grid, pos)
    order = clist.order
    frac = quantize_cell_fractions(
        pos, m.grid.coords_of_positions(pos), m.config.cutoff, m.fmt
    )[order]
    pairs = band_slot_pairs(
        m._plan, clist.start, clist.counts, frac, _OFFS14, _FRESH_BAND
    )
    charges = None if not coulomb else m._charges32[order]
    species = m.system.species[order]
    art = _BandArtifacts(
        m._kernel, pairs, int(clist.counts.max()), species, charges
    )
    fs = [frac[:, a].astype(np.float32) for a in range(3)]
    idx, r2, dx, dy, dz = admit_flat_numpy(*fs, art.A, art.B, art.segs, _OFFS14)
    assert idx.size
    e, fx, fy, fz = m._kernel._pipeline_numpy(
        art, idx, r2, dx, dy, dz, True, _StepArena()
    )
    dr = np.stack([dx, dy, dz], axis=1)
    ii, jj = art.A[idx], art.B[idx]
    f_ref, e_ref = m.pipeline.compute(dr, r2, species[ii], species[jj])
    if coulomb:
        fc, ec = m.coulomb_pipeline.compute(dr, r2, charges[ii] * charges[jj])
        f_ref, e_ref = f_ref + fc, e_ref + ec
    assert np.array_equal(np.stack([fx, fy, fz], axis=1), f_ref)
    assert np.array_equal(e, e_ref)


def test_blocked_band_search_is_one_block_bitwise(monkeypatch):
    """Home cells searched in blocks (budget shrunk to a few cells)
    give bitwise the lists of one unblocked search, for the whole box
    and for one node's home cells."""
    from repro.core.machine import _FRESH_BAND, _OFFS14
    from repro.core.datapath import quantize_cell_fractions
    from repro.md import backends, cellstate
    from repro.md.cells import CellList

    dims = (4, 3, 5)
    rng = np.random.default_rng(3)
    occupancy = list(rng.choice(OCCUPANCY, size=int(np.prod(dims))))
    occupancy[7] = DENSE
    system = make_case(dims, occupancy, False, seed=3)
    m = FasdaMachine(_config(dims, 1, False), system=system)
    pos = m.system.positions
    clist = CellList(m.grid, pos)
    frac = quantize_cell_fractions(
        pos, m.grid.coords_of_positions(pos), m.config.cutoff, m.fmt
    )[clist.order]
    cap = int(clist.counts.max())
    homes = np.flatnonzero(clist.counts)[::2]

    def search(**kw):
        return cellstate.band_slot_pairs(
            m._plan, clist.start, clist.counts, frac, _OFFS14, _FRESH_BAND,
            **kw,
        )

    whole, part = search(), search(homes=homes, cap=cap)
    for budget in (cap * cap, 3 * cap * cap + 1, 7 * cap * cap):
        monkeypatch.setattr(backends, "_PADDED_MAX_ELEMS", budget)
        for ref, got in ((whole, search()), (part, search(homes=homes, cap=cap))):
            for name in ("a", "b", "c", "js", "segs"):
                want, have = getattr(ref, name), getattr(got, name)
                assert have.dtype == want.dtype, name
                assert np.array_equal(have, want), (budget, name)
    assert whole.n_pairs > part.n_pairs > 0
