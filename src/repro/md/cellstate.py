"""Step-persistent cell state: skin-banded pair lists reused across steps.

Every step needs the candidate pairs of the cell list: the band search
(:func:`band_slot_pairs`) screens each home cell's plan rows against
a squared-distance band, as the paper's filter stage checks every
neighbor-cell candidate on every iteration.  It dispatches to the
``band_search`` kernel of the consumer's backend: the compiled kernel
walks real slots only, the numpy oracle NaN-padded ``(cells, cap,
cap)`` blocks, with one pinned float32 association, so both emit
bitwise the same lists.  The paper rebuilds cell lists on migration,
not every iteration, and CPU MD engines amortize the search with a
Verlet skin.  :class:`CellState` brings that amortization to the
cell-list hot paths while keeping the results **bitwise identical** to
the rebuild-every-step code:

* At build time the band search runs once with the cutoff *widened by
  a skin*, producing, per half-shell offset, the flat (cell, slot_i,
  slot_j) candidate list in exactly the order a fresh skinless search
  enumerates its own survivors.
* On reuse steps the search is skipped entirely; the exact
  float64 recheck (or the fixed-point :class:`~repro.core.datapath.PairFilter`
  admission) runs over the persistent band list.  Because every pair the
  fresh path could admit is guaranteed to be in the band (the classic
  skin/2 displacement argument) and the list preserves the fresh path's
  flat enumeration order, the admitted pair *sequences* — and therefore
  every float32/float64 accumulation — are bit-for-bit the same.
* The state is invalidated by the skin/2 displacement criterion (the
  same rule as :meth:`repro.md.neighborlist.VerletNeighborList.needs_rebuild`,
  which now shares :func:`skin_exceeded`) **or** by any change of the
  cell assignment itself: identical binning is what makes the bucket
  order, and hence the accumulation grouping of the reuse path, equal
  to a fresh build's.  Box/grid changes force a new
  state object altogether (the state is keyed to one grid).

Consumers attach layer-specific artifacts (pre-gathered coefficient
arrays, pre-cast float32 table ROMs, packed halo batches) via
:attr:`CellState.artifacts`, keyed by :attr:`CellState.version` so a
rebuild invalidates them automatically.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.md.backends import ForceBackend, band_search_numpy
from repro.md.cells import CellGrid, CellList, HALF_SHELL_OFFSETS
from repro.md.pairplan import ROWS_PER_CELL, CellPairPlan
from repro.util.errors import ValidationError


def skin_exceeded(
    positions: np.ndarray,
    build_positions: Optional[np.ndarray],
    box: np.ndarray,
    skin: float,
) -> bool:
    """The classic Verlet skin/2 displacement criterion.

    True when any particle moved (minimum-image) more than ``skin / 2``
    since ``build_positions``: two particles each moving skin/2 toward
    one another is the worst case that could bring an unlisted pair
    inside the cutoff.  Shared by the Verlet neighbor list and
    :class:`CellState`.
    """
    if build_positions is None:
        return True
    delta = positions - build_positions
    delta -= box * np.rint(delta / box)
    max_disp2 = float(np.max(np.sum(delta * delta, axis=1)))
    return max_disp2 > (0.5 * skin) ** 2


class BandPairs:
    """Per-offset flat candidate lists of one skin-banded build.

    Attributes
    ----------
    a / b:
        ``(L,)`` int64 global *slot* indices (into the bucket ``order``)
        of the home-side / neighbor-side particle of each candidate.
    c:
        ``(L,)`` int64 evaluating (home) cell id per candidate.
    js:
        ``(L,)`` int64 neighbor-side slot-within-bucket per candidate
        (for presence-bit statistics).
    segs:
        ``ROWS_PER_CELL + 1`` prefix offsets: candidates of offset ``k``
        occupy ``a[segs[k]:segs[k+1]]``, in ascending flat
        ``(cell, slot_i, slot_j)`` order — the enumeration order of
        every band search, skin-banded or fresh.
    """

    __slots__ = ("a", "b", "c", "js", "segs")

    def __init__(self, a, b, c, js, segs):
        self.a = a
        self.b = b
        self.c = c
        self.js = js
        self.segs = segs

    @property
    def n_pairs(self) -> int:
        return int(self.segs[-1])


def band_slot_pairs(
    plan: CellPairPlan,
    start: np.ndarray,
    counts: np.ndarray,
    packed_s: np.ndarray,
    offsets: np.ndarray,
    band: float,
    homes: Optional[np.ndarray] = None,
    cap: Optional[int] = None,
    backend: Optional[ForceBackend] = None,
) -> BandPairs:
    """Search the candidate pairs of a bucket layout once, out to ``band``.

    ``start``/``counts`` are the bucket layout (cell ``c`` owns slots
    ``start[c]:start[c] + counts[c]``); ``packed_s`` is, in slot order,
    the per-particle 3-vector the consumer's admission test works in
    (quantized cell fractions for the machine, box-local coordinates
    for the float64 reference); ``offsets`` the corresponding per-row
    displacement (cell units or angstrom); ``band`` the widened
    squared-distance bound *including* the conservative float32
    margin.  ``homes`` (ascending cell ids, default every occupied
    cell) restricts the search to those cells' plan rows — a
    distributed node's home cells; their neighbor cells are read from
    the same bucket layout.  ``cap`` (default: the largest searched
    occupancy) only bounds the numpy kernel's padding.

    The search runs ``backend.band_search`` (the numpy kernel when
    ``backend`` or its kernel is ``None``); every kernel returns
    bitwise the lists of :func:`~repro.md.backends.band_search_numpy`.
    The inputs are validated first, because the compiled kernel walks
    them through raw pointers.  The returned lists enumerate, per
    offset, every flat (cell, slot_i, slot_j) whose float32 banded
    ``r2`` passes — a superset of anything the fresh path can admit
    while no particle has moved more than skin/2.
    """
    C = plan.n_cells
    counts = np.ascontiguousarray(counts, dtype=np.int64)
    start = np.ascontiguousarray(np.asarray(start)[:C], dtype=np.int64)
    if counts.shape != (C,) or start.shape != (C,):
        raise ValidationError(
            f"band search: counts/start must have the plan's {C} cells"
        )
    if np.any(counts < 0) or not np.array_equal(
        start, np.cumsum(counts) - counts
    ):
        raise ValidationError(
            "band search: start must be the prefix sums of counts"
        )
    if np.shape(packed_s) != (int(counts.sum()), 3):
        raise ValidationError(
            f"band search: packed vectors of shape {np.shape(packed_s)} "
            f"for {int(counts.sum())} bucketed particles"
        )
    if np.shape(offsets) != (ROWS_PER_CELL, 3):
        raise ValidationError(
            f"band search: offsets must be ({ROWS_PER_CELL}, 3), "
            f"got {np.shape(offsets)}"
        )
    if homes is None:
        homes = np.flatnonzero(counts)
    homes = np.ascontiguousarray(homes, dtype=np.int64)
    if homes.ndim != 1 or (
        homes.size
        and (homes[0] < 0 or homes[-1] >= C or np.any(np.diff(homes) <= 0))
    ):
        raise ValidationError(
            f"band search: homes must be strictly ascending in [0, {C})"
        )
    nbr = np.ascontiguousarray(
        plan.nbr.reshape(C, ROWS_PER_CELL), dtype=np.int64
    )
    need = int(counts[nbr[homes]].max()) if homes.size else 0
    if cap is None:
        cap = need
    elif cap < need:
        raise ValidationError(
            f"band search: cap {cap} below the searched occupancy {need}"
        )
    kernel = getattr(backend, "band_search", None) or band_search_numpy
    return BandPairs(*kernel(
        nbr, start, counts,
        np.ascontiguousarray(packed_s, dtype=np.float32),
        np.ascontiguousarray(offsets, dtype=np.float32),
        np.float32(band), homes, int(cap),
    ))


class CellState:
    """Persistent binning + skin-banded candidate lists for one grid.

    Parameters
    ----------
    grid / plan:
        The cell grid and its (cached) half-shell pair plan.
    skin:
        Skin margin in angstrom.  Candidates are listed out to
        ``cutoff + skin``; the state stays valid until some particle
        moves more than ``skin / 2`` (or changes cell).
    pack_fn:
        ``positions -> (packed, offsets, band)``: what the consumer's
        band search screens (see :func:`band_slot_pairs`), with
        ``band`` already widened to
        ``(cutoff + skin)^2`` *in packed units* plus the conservative
        float32 margin.
    """

    def __init__(
        self,
        grid: CellGrid,
        plan: CellPairPlan,
        skin: float,
        pack_fn: Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray, float]],
    ):
        if skin <= 0:
            raise ValidationError("CellState skin must be > 0")
        self.grid = grid
        self.plan = plan
        self.skin = float(skin)
        self._pack_fn = pack_fn
        self.version = 0
        self.builds = 0
        self.reuse_steps = 0
        self.last_rebuilt = False
        self.clist: Optional[CellList] = None
        self.coords: Optional[np.ndarray] = None
        self.cids: Optional[np.ndarray] = None
        self.cap = 0
        self.pairs: Optional[BandPairs] = None
        self.build_positions: Optional[np.ndarray] = None
        #: Consumer-attached per-build artifacts; cleared on rebuild.
        self.artifacts: Dict[str, object] = {}

    # -- checkpoint metadata ---------------------------------------------------

    def meta(self) -> Dict[str, float]:
        """Reuse metadata for checkpoints — counters, not arrays.

        The band lists themselves are never persisted: a restored
        consumer rebuilds them from positions on its first force pass
        (bitwise-equal to any fresh build), so only the cumulative
        counters need to survive a restart.
        """
        return {
            "skin": self.skin,
            "builds": self.builds,
            "reuse_steps": self.reuse_steps,
            "version": self.version,
        }

    def restore_meta(self, meta: Dict[str, float]) -> None:
        """Continue the cumulative counters of a checkpointed state.

        Restoration costs one rebuild (``build_positions`` starts empty),
        so a restored run's ``builds`` may exceed an uninterrupted run's
        by the number of restarts — the documented, honest cost of a
        restart.
        """
        self.builds = int(meta["builds"])
        self.reuse_steps = int(meta["reuse_steps"])
        self.version = int(meta["version"])

    # -- rebuild criterion -----------------------------------------------------

    def needs_rebuild(self, positions: np.ndarray) -> bool:
        """Whether reuse would no longer be bitwise-safe.

        Two triggers, both cheap O(N) passes:

        * the shared skin/2 displacement criterion (:func:`skin_exceeded`)
          — coverage: an unlisted pair could now be inside the cutoff;
        * any change of cell assignment — identity: the bucket order
          and accumulation grouping of a fresh build would
          differ from the stored ones, so reuse would stop being
          bit-identical even though it would still be *covering*.
        """
        if self.build_positions is None or self.pairs is None:
            return True
        if skin_exceeded(positions, self.build_positions, self.grid.box, self.skin):
            return True
        coords = self.grid.coords_of_positions(positions)
        cids = self.grid.cell_id(coords)
        if not np.array_equal(cids, self.cids):
            return True
        # Cache the (identical) coords so the consumer's quantization
        # pass does not recompute them.
        self.coords = coords
        return False

    def ensure(
        self, positions: np.ndarray, backend: Optional[ForceBackend] = None
    ) -> bool:
        """Rebuild if required; returns True when a rebuild happened.

        ``backend`` runs the band search of a rebuild (see
        :func:`band_slot_pairs`).
        """
        if self.needs_rebuild(positions):
            self.build(positions, backend)
            self.last_rebuilt = True
            return True
        self.reuse_steps += 1
        self.last_rebuilt = False
        return False

    def build(
        self, positions: np.ndarray, backend: Optional[ForceBackend] = None
    ) -> None:
        """(Re)build binning and band lists from the current positions.

        ``backend`` runs the band search (see :func:`band_slot_pairs`);
        every backend builds bitwise the same lists.

        Exception-safe: ``pack_fn`` may refuse pathological inputs (the
        reference pack raises ``FloatingPointError`` on non-box-local
        positions), in which case the previously built state is left
        fully intact — the caller falls back to its fresh path.
        """
        clist = CellList(self.grid, positions)
        coords = self.grid.coords_of_positions(positions)
        packed, offsets, band = self._pack_fn(positions)
        pairs = band_slot_pairs(
            self.plan, clist.start, clist.counts, packed[clist.order],
            offsets, band, backend=backend,
        )
        self.clist = clist
        self.coords = coords
        self.cids = self.grid.cell_id(coords)
        self.cap = int(clist.counts.max()) if clist.counts.size else 0
        self.pairs = pairs
        self.build_positions = positions.copy()
        self.version += 1
        self.builds += 1
        self.artifacts.clear()


def engine_pack_fn(
    grid: CellGrid, plan: CellPairPlan, skin: float
) -> Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray, float]]:
    """``pack_fn`` for the float64 reference path (box-local coordinates).

    Mirrors ``_forces_cells_padded``: packed vectors are box-local
    positions (angstrom), offsets are the half-shell offsets scaled by
    the cell edges, and the band is ``(cutoff + skin)^2`` with the same
    conservative 1e-3 float32 margin the fresh path uses at the cutoff.
    """
    off_len = (
        np.concatenate(
            [np.zeros((1, 3)), np.asarray(HALF_SHELL_OFFSETS, dtype=np.float64)]
        )
        * plan.edges
    )
    listing = float(grid.cell_edge) + float(skin)
    band = listing * listing * (1.0 + 1e-3)

    def pack(positions: np.ndarray):
        cids = np.arange(plan.n_cells, dtype=np.int64)
        corner = plan.edges * plan.cell_coords_of(cids)
        local = positions - corner[grid.cell_id(grid.coords_of_positions(positions))]
        if np.abs(local).max(initial=0.0) > 4.0 * plan.edges.max():
            raise FloatingPointError("positions not box-local")
        return local, off_len, band

    return pack


def machine_pack_fn(
    fmt, cutoff: float, skin: float, grid: CellGrid
) -> Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray, float]]:
    """``pack_fn`` for the fixed-point machine path (cell fractions).

    Mirrors ``FasdaMachine._eval_band``: packed vectors are quantized
    in-cell fractions (normalized units, cutoff = 1), offsets are the
    integer half-shell offsets, and the band is ``(1 + skin')^2`` with
    the fresh path's 1e-3 float32 margin, ``skin' = skin / cutoff``.
    """
    from repro.core.datapath import quantize_cell_fractions

    offs = np.concatenate(
        [np.zeros((1, 3)), np.asarray(HALF_SHELL_OFFSETS, dtype=np.float64)]
    )
    skin_n = float(skin) / float(cutoff)
    band = (1.0 + skin_n) ** 2 * (1.0 + 1e-3)

    def pack(positions: np.ndarray):
        coords = grid.coords_of_positions(positions)
        frac = quantize_cell_fractions(positions, coords, cutoff, fmt)
        return frac, offs, band

    return pack
