"""Differential and boundary tests of the band search kernels.

:func:`repro.md.cellstate.band_slot_pairs` dispatches to the
``band_search`` kernel of the consumer's backend.  The compiled kernel
walks real slots only, the numpy oracle padded buckets; their lists
must be bitwise equal, field by field and in dtype, on generated boxes
(empty cells next to dense ones, home subsets, explicit caps), on the
node views of every FPGA grid, and on the engine and machine inputs
with a skin.  Every pair inside the cutoff must be listed, and the
dispatcher must refuse inputs a raw-pointer walk could overrun.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.core import distributed as dist_mod
from repro.core.config import MachineConfig
from repro.core.datapath import quantize_cell_fractions
from repro.core.distributed import DistributedMachine
from repro.core.machine import _FRESH_BAND, _OFFS14, FasdaMachine
from repro.md import build_dataset
from repro.md.backends import compiled_backends, resolve_backend
from repro.md.cells import CellList
from repro.md.cellstate import band_slot_pairs, engine_pack_fn, machine_pack_fn
from repro.md.pairplan import ROWS_PER_CELL, plan_for_grid
from repro.util.errors import ValidationError
from tests.test_node_kernel import _config, cases, make_case

FIELDS = ("a", "b", "c", "js", "segs")

needs_cext = pytest.mark.skipif(
    "cext" not in compiled_backends(), reason="cext backend unavailable"
)


def _assert_same(ref, got):
    for name in FIELDS:
        want, have = getattr(ref, name), getattr(got, name)
        assert have.dtype == want.dtype == np.int64, name
        assert np.array_equal(have, want), name


def _both(*args, **kw):
    """numpy-oracle and cext lists of one search, asserted bitwise equal."""
    ref = band_slot_pairs(*args, backend=resolve_backend("numpy"), **kw)
    got = band_slot_pairs(*args, backend=resolve_backend("cext"), **kw)
    _assert_same(ref, got)
    return ref


def _machine_layout(m):
    pos = m.system.positions
    clist = CellList(m.grid, pos)
    frac = quantize_cell_fractions(
        pos, m.grid.coords_of_positions(pos), m.config.cutoff, m.fmt
    )[clist.order]
    return clist, frac


@needs_cext
@settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(cases())
def test_cext_matches_numpy_on_generated_boxes(case):
    dims, occupancy, nodes, coulomb, seed = case
    system = make_case(dims, occupancy, coulomb, seed)
    m = FasdaMachine(_config(dims, nodes, coulomb), system=system)
    clist, frac = _machine_layout(m)
    C = m._plan.n_cells
    cap = int(clist.counts.max())
    layout = (m._plan, clist.start, clist.counts, frac, _OFFS14)
    whole = _both(*layout, _FRESH_BAND)
    assert whole.n_pairs > 0
    # Home subsets that include empty cells, searched with a cap above
    # the occupancy; and a skin-widened band.
    for homes in (np.arange(0, C, 2), np.arange(1, C, 3)):
        _both(*layout, _FRESH_BAND, homes=homes, cap=cap + 5)
    _both(*layout, (1.0 + 0.25) ** 2 * (1.0 + 1e-3))


GRIDS = [(1, 1, 1), (2, 1, 1), (2, 2, 1), (2, 2, 2)]


@needs_cext
@pytest.mark.parametrize("fpga_grid", GRIDS)
def test_cext_matches_numpy_on_every_grid(fpga_grid, monkeypatch):
    """The whole-box search and, on multi-node grids, every node
    view's search of a distributed pass."""
    system, _ = build_dataset((4, 4, 4), particles_per_cell=16, seed=11)
    cfg = MachineConfig((4, 4, 4), fpga_grid)
    m = FasdaMachine(cfg, system=system.copy())
    clist, frac = _machine_layout(m)
    _both(m._plan, clist.start, clist.counts, frac, _OFFS14, _FRESH_BAND)
    if cfg.n_fpgas == 1:
        return

    calls = []
    real = dist_mod.band_slot_pairs

    def record(*args, **kw):
        calls.append((args, kw))
        return real(*args, **kw)

    monkeypatch.setattr(dist_mod, "band_slot_pairs", record)
    d = DistributedMachine(cfg, system=system.copy())
    d.compute_forces()
    assert len(calls) == cfg.n_fpgas
    for args, kw in calls:
        kw = {k: v for k, v in kw.items() if k != "backend"}
        assert _both(*args, **kw).n_pairs > 0


@needs_cext
@pytest.mark.parametrize("skin", [0.5, 1.5])
def test_cext_matches_numpy_on_pack_fn_inputs(skin):
    """Engine (angstrom) and machine (cell fraction) inputs with a skin."""
    system, grid = build_dataset((4, 3, 5), particles_per_cell=16, seed=5)
    rng = np.random.default_rng(5)
    pos = system.positions + rng.normal(scale=0.3, size=system.positions.shape)
    pos %= system.box
    plan = plan_for_grid(grid)
    clist = CellList(grid, pos)
    cfg = MachineConfig((4, 3, 5), (1, 1, 1))
    m = FasdaMachine(cfg, system=system)
    for pack in (
        engine_pack_fn(grid, plan, skin),
        machine_pack_fn(m.fmt, cfg.cutoff, skin, grid),
    ):
        packed, offs, band = pack(pos)
        _both(plan, clist.start, clist.counts, packed[clist.order], offs, band)


@pytest.mark.parametrize("impl", ["numpy", "cext"])
@pytest.mark.parametrize("which", ["engine", "machine"])
def test_every_pair_inside_the_cutoff_is_listed(impl, which):
    if impl not in ("numpy",) + tuple(compiled_backends()):
        pytest.skip(f"{impl} backend unavailable")
    system, grid = build_dataset((3, 4, 3), particles_per_cell=12, seed=9)
    rng = np.random.default_rng(9)
    pos = system.positions + rng.normal(scale=0.4, size=system.positions.shape)
    pos %= system.box
    plan = plan_for_grid(grid)
    clist = CellList(grid, pos)
    cutoff = grid.cell_edge
    if which == "engine":
        pack = engine_pack_fn(grid, plan, 0.0)
    else:
        m = FasdaMachine(MachineConfig((3, 4, 3), (1, 1, 1)), system=system)
        pack = machine_pack_fn(m.fmt, m.config.cutoff, 0.0, grid)
    packed, offs, band = pack(pos)
    pairs = band_slot_pairs(
        plan, clist.start, clist.counts, packed[clist.order], offs, band,
        backend=resolve_backend(impl),
    )
    order = clist.order
    listed = set(
        zip(
            np.minimum(order[pairs.a], order[pairs.b]).tolist(),
            np.maximum(order[pairs.a], order[pairs.b]).tolist(),
        )
    )
    assert len(listed) == pairs.n_pairs  # each pair once
    ii, jj = np.triu_indices(len(pos), k=1)
    dr = pos[ii] - pos[jj]
    dr -= system.box * np.rint(dr / system.box)
    inside = np.einsum("ij,ij->i", dr, dr) < cutoff * cutoff
    want = set(zip(ii[inside].tolist(), jj[inside].tolist()))
    assert want and want <= listed


def _r2_variants(ps, offs, pairs):
    """float32 r2 of every listed candidate: the pinned association and
    two plausible others a kernel could drift to."""
    k = np.repeat(np.arange(ROWS_PER_CELL), np.diff(pairs.segs))
    pi, pj, o = ps[pairs.a], ps[pairs.b], offs[k]
    d = (pi - pj) - o
    sq = d * d
    pinned = (sq[:, 0] + sq[:, 1]) + sq[:, 2]
    d2 = pi - (pj + o)
    sq2 = d2 * d2
    return pinned, {
        "sum-order": sq[:, 0] + (sq[:, 1] + sq[:, 2]),
        "offset-first": (sq2[:, 0] + sq2[:, 1]) + sq2[:, 2],
    }


@pytest.mark.parametrize("impl", ["numpy", "cext"])
def test_screen_association_is_pinned(impl):
    """Bands placed exactly between the pinned r2 and another
    association's r2 of one candidate: the kernel keeps or drops that
    candidate as the pinned arithmetic says."""
    if impl not in ("numpy",) + tuple(compiled_backends()):
        pytest.skip(f"{impl} backend unavailable")
    _, grid = build_dataset((3, 3, 3), particles_per_cell=1, seed=0)
    plan = plan_for_grid(grid)
    counts = np.full(plan.n_cells, 6, dtype=np.int64)
    start = np.cumsum(counts) - counts
    rng = np.random.default_rng(4)
    ps = rng.random((int(counts.sum()), 3)).astype(np.float32)
    offs = _OFFS14.astype(np.float32)
    layout = (plan, start, counts, ps, _OFFS14)
    every = band_slot_pairs(*layout, 100.0)
    pinned, others = _r2_variants(ps, offs, every)
    backend = resolve_backend(impl)
    for name, alt in others.items():
        lower = np.flatnonzero(pinned < alt)
        higher = np.flatnonzero(pinned > alt)
        assert lower.size and higher.size, name
        for idx, band, kept in ((lower[0], alt, True), (higher[0], pinned, False)):
            got = band_slot_pairs(*layout, band[idx], backend=backend)
            listed = set(zip(got.a.tolist(), got.b.tolist()))
            pair = (int(every.a[idx]), int(every.b[idx]))
            assert (pair in listed) is kept, (name, kept)


# -- boundary checks -----------------------------------------------------------


@pytest.fixture
def layout():
    system, grid = build_dataset((3, 3, 3), particles_per_cell=4, seed=2)
    plan = plan_for_grid(grid)
    clist = CellList(grid, system.positions)
    packed, offs, band = engine_pack_fn(grid, plan, 0.0)(system.positions)
    return plan, clist.start, clist.counts, packed[clist.order], offs, band


@pytest.mark.parametrize("impl", ["numpy", "cext"])
@pytest.mark.parametrize(
    "homes",
    [[3, 1], [2, 2], [-1, 4], [0, 27], [[0, 1]]],
    ids=["descending", "repeated", "negative", "past-end", "2-d"],
)
def test_rejects_bad_homes(layout, impl, homes):
    with pytest.raises(ValidationError, match="homes"):
        band_slot_pairs(
            *layout, homes=np.asarray(homes), backend=resolve_backend(impl)
        )


@pytest.mark.parametrize("impl", ["numpy", "cext"])
def test_rejects_cap_below_searched_occupancy(layout, impl):
    plan, start, counts = layout[:3]
    home = int(np.flatnonzero(counts)[0])
    nbr_cells = plan.nbr.reshape(plan.n_cells, ROWS_PER_CELL)[home]
    need = int(counts[nbr_cells].max())
    band_slot_pairs(*layout, homes=[home], cap=need)
    with pytest.raises(ValidationError, match="cap"):
        band_slot_pairs(
            *layout, homes=[home], cap=need - 1,
            backend=resolve_backend(impl),
        )


@pytest.mark.parametrize("impl", ["numpy", "cext"])
def test_rejects_packed_length_mismatch(layout, impl):
    plan, start, counts, packed, offs, band = layout
    with pytest.raises(ValidationError, match="packed"):
        band_slot_pairs(
            plan, start, counts, packed[:-1], offs, band,
            backend=resolve_backend(impl),
        )


@pytest.mark.parametrize("impl", ["numpy", "cext"])
@pytest.mark.parametrize("shape", [(13, 3), (14, 2), (42,)])
def test_rejects_bad_offsets_shape(layout, impl, shape):
    plan, start, counts, packed, offs, band = layout
    bad = np.zeros(shape)
    with pytest.raises(ValidationError, match="offsets"):
        band_slot_pairs(
            plan, start, counts, packed, bad, band,
            backend=resolve_backend(impl),
        )


@pytest.mark.parametrize("impl", ["numpy", "cext"])
def test_rejects_start_that_is_not_the_prefix_of_counts(layout, impl):
    plan, start, counts, packed, offs, band = layout
    shifted = np.asarray(start).copy()
    shifted[1:] += 1
    with pytest.raises(ValidationError, match="start"):
        band_slot_pairs(
            plan, shifted, counts, packed, offs, band,
            backend=resolve_backend(impl),
        )
