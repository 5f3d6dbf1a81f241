"""Staged unitary reduction of Hermitian operators onto nested patterns.

A dense Hermitian operator is brought to diagonal form in three stages.
Each stage block-diagonalizes with respect to a finer index partition,
and each unitary after the first is constrained to act only inside the
blocks established by the previous stage: the second stage unitary
respects the even-order pattern, the third respects the zero-quantum
pattern. The spectrum is untouched throughout, so the cascade ends with
the eigenvalues on the diagonal while exhibiting propagator factors of
progressively narrower support.

Each stage works on eigenpairs of its input's constraint blocks. The
eigenvectors are assigned to target cells greedily by descending
subspace overlap under exact cell capacities, and the stage unitary is
the unitary polar factor of the direct-rotation sum ``D = sum_c P_c
Q_c`` (cell projector times assigned eigenprojector; Davis & Kahan,
SIAM J. Numer. Anal. 7, 1 (1970)), which maps each assigned eigenspace
exactly onto its cell. Every eigenvector goes to exactly one cell and
cell ``c`` receives ``|c|`` of them, so ``D = Pi blockdiag(X_c) V_A^H``
with ``X_c = v[rows_c, cols_c]`` square, ``Pi`` a row permutation and
``V_A`` the unitary of reordered eigenvectors. Its polar factor is
therefore ``Pi blockdiag(polar(X_c)) V_A^H`` (Higham, SIAM J. Sci.
Stat. Comput. 7, 1160 (1986)) and its smallest singular value the least
``sigma_min(X_c)``: one small SVD per cell replaces the SVD of the whole
sum. When that sum is close to singular the stage falls back to an
explicit eigenvector-to-axis mapping, which is flagged in the result.

Either way the reduced operator's block on cell ``c`` has known
eigenpairs: the eigenvalues assigned to ``c`` with the columns of
``polar(X_c)``, or of the axis mapping's permutation, as eigenvectors.
Each stage's target cells are the next stage's constraint blocks, so
:func:`cascade` hands those pairs on and only the first stage calls
``eigh``, once, on the whole input. A block whose degenerate clusters
were rotated hands on nothing, since a rotated vector is an eigenvector
only to within its cluster's spread; the next stage diagonalizes that
block afresh.

The stage unitary is block-diagonal over the constraint blocks, and
both callers run one block stage: each constraint block ``A_b`` of the
stage's input yields its unitary ``U_b``, and ``U_b A_b U_b^H`` is formed
per block. :func:`cascade` hands each stage only the blocks of its input
on the stage's constraint blocks: the whole input, then the two parity
blocks, then the ``n + 1`` popcount blocks. A stage keeps each target
cell's block of those products, which is the next stage's input, and
carries the off-target weight it drops as a number. A unitary confined
to the blocks leaves that dropped weight unchanged, so each reported
residual is the ``hypot`` of the previous one and the stage's own
within-block off-target weight, which is the dense off-target weight of
the reduced operator. ``stage_classes`` is read from the unitary blocks
too, since the dense unitaries are zero outside them. :func:`stage_reduce`
takes its blocks from a dense input and forms the dense ``V h V^H``:
every off-block entry of ``h`` is carried through the product, so its
residual, measured densely, is the full weight outside the target cells
and an independent check on the number :func:`cascade` carries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, InvariantError, ToleranceError
from .operators import (
    Operator,
    SpinSystem,
    _adopt,
    _down_counts,
    _ensure_hermitian,
    _hermitian_part,
    _integer,
    _real,
)
from .subspaces import (
    MEMBERSHIP_TOL,
    Membership,
    SubspaceTag,
    _block_scatter,
    _mask,
    _outside_weight,
    is_member,
    selective_blocks,
)

__all__ = [
    "StageReduction",
    "CascadeResult",
    "parity_partition",
    "popcount_partition",
    "singleton_partition",
    "stage_reduce",
    "cascade",
]

STAGE_TOL = 1e-8
CLUSTER_GAP = 1e-10
FALLBACK_SIGMA = 1e-8


def parity_partition(system: SpinSystem) -> list[tuple[int, ...]]:
    """Two cells: states with even and odd down-spin counts."""
    pc = _down_counts(system.n)
    even = tuple(int(i) for i in np.nonzero(pc % 2 == 0)[0])
    odd = tuple(int(i) for i in np.nonzero(pc % 2 == 1)[0])
    return [even, odd]


def popcount_partition(system: SpinSystem) -> list[tuple[int, ...]]:
    """One cell per selective block, ``k`` ascending."""
    return [block.state_indices for block in selective_blocks(system)]


def singleton_partition(system: SpinSystem) -> list[tuple[int, ...]]:
    return [(i,) for i in range(system.dim)]


@dataclass(frozen=True)
class StageReduction:
    """One stage's unitary, its reduced operator and diagnostics.

    ``smallest_sigma`` is the smallest singular value of the
    direct-rotation sum over every constraint block; a block whose value
    is at most ``FALLBACK_SIGMA`` took the axis mapping instead
    (``fallback_used``).
    """

    unitary: Operator
    reduced: Operator
    residual: float
    fallback_used: bool
    smallest_sigma: float


# the blocks of each constraint pattern, as index cells
_CONSTRAINT_PARTITIONS = {
    SubspaceTag.FULL: lambda system: [tuple(range(system.dim))],
    SubspaceTag.EVEN_MQ: parity_partition,
    SubspaceTag.ZERO_QUANTUM: popcount_partition,
    SubspaceTag.LOMSO: singleton_partition,
}


def _align_cluster(cols: np.ndarray, local_cells: list[np.ndarray]) -> np.ndarray:
    """Rotate a degenerate eigenvector cluster towards the target cells.

    Any orthonormal basis of a degenerate cluster is equally valid, so
    the basis is rotated, cell by cell, onto directions of maximal cell
    overlap; directions carrying a majority of their weight inside one
    cell are peeled off. Right-multiplications by unitaries keep the
    columns orthonormal. Only ``s`` and the square ``vh`` of each cell's
    SVD are read, so the left factor is computed thin whenever the cell
    has at least as many rows as the cluster has columns.
    """
    remaining = cols
    finished = []
    for rows in local_cells:
        if remaining.shape[1] == 0:
            break
        block = remaining[rows, :]
        _, s, vh = np.linalg.svd(block, full_matrices=block.shape[0] < block.shape[1])
        remaining = remaining @ vh.conj().T
        keep = int(np.sum(s ** 2 >= 0.5))
        if keep:
            finished.append(remaining[:, :keep])
            remaining = remaining[:, keep:]
    if remaining.shape[1]:
        finished.append(remaining)
    return np.hstack(finished) if finished else cols


def _assignment_order(
    overlaps: np.ndarray, w: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Every (eigenvector column, cell) pair in greedy assignment order.

    ``overlaps[ci, col]`` is the weight of column ``col`` inside cell
    ``ci`` and ``w`` the eigenvalues. Pairs are sorted by descending
    overlap, then ascending eigenvalue, column and cell; the column and
    cell indices are returned in that order.
    """
    cells, m = overlaps.shape
    ci = np.repeat(np.arange(cells), m)
    col = np.tile(np.arange(m), cells)
    # lexsort's last key is the primary one
    order = np.lexsort((ci, col, w[col], -overlaps.reshape(-1)))
    return col[order], ci[order]


def _direct_rotation_polar(
    v: np.ndarray, local_cells: list[np.ndarray], assigned_cols: list[list[int]]
) -> tuple[np.ndarray, float, list[np.ndarray]]:
    """Polar factor and smallest singular value of a direct-rotation sum.

    ``v`` holds one constraint block's eigenvectors, ``local_cells`` the
    rows of each target cell and ``assigned_cols`` the columns assigned
    to it, as many as it has rows. The sum ``sum_c P_c V_c V_c^H`` is a
    row permutation of ``blockdiag(X_c)`` times a unitary, with
    ``X_c = v[rows_c, cols_c]``, so its polar factor has rows
    ``polar(X_c) V_c^H`` and its smallest singular value is the least
    over cells of ``sigma_min(X_c)``. Each cell's ``polar(X_c)`` is
    returned too: its columns are the eigenvectors of the reduced block
    on that cell's rows, for the eigenvalues of ``cols_c`` in order.
    """
    m = v.shape[0]
    u_block = np.empty((m, m), dtype=complex)
    smallest = np.inf
    factors = []
    for rows, cols in zip(local_cells, assigned_cols):
        vc = v[:, cols]
        uu, sigma, vvh = np.linalg.svd(vc[rows, :])
        smallest = min(smallest, float(sigma[-1]))
        factor = uu @ vvh
        u_block[rows, :] = factor @ vc.conj().T
        factors.append(factor)
    return u_block, smallest, factors


def _axis_mapping(
    v: np.ndarray, local_cells: list[np.ndarray], assigned_cols: list[list[int]]
) -> np.ndarray:
    """Map each cell's assigned eigenvectors straight onto its axes.

    Inside a cell, ascending columns (eigenvalues) go to ascending rows.
    """
    m = v.shape[0]
    u_block = np.empty((m, m), dtype=complex)
    for rows, cols in zip(local_cells, assigned_cols):
        u_block[np.sort(rows), :] = v[:, sorted(cols)].conj().T
    return u_block


def _block_reduction(block: np.ndarray, local_cells: list[np.ndarray], pair=None):
    """Reduce one constraint block onto the target cells inside it.

    ``block`` holds the block's entries, rows and columns in the block's
    index order; it is read, never written. ``local_cells`` holds the rows
    of each target cell inside the block. ``pair``, unless None, is ``(w,
    p)`` handed on by the stage before: eigenvalues in any order and, with
    the block's indices as rows, their eigenvectors ``p``, or ``p =
    None``. Given eigenvectors are sorted by eigenvalue and used as they
    are; without them the Hermitian part of ``block`` is diagonalized with
    ``eigh``.

    Degenerate clusters are rotated towards the cells, the eigenvectors
    are assigned greedily and the block's unitary is the per-cell polar
    factor of the direct-rotation sum, or the axis mapping when that sum
    is near singular. Returns ``(u_block, sigma_min, fallback_used,
    handed)``: ``handed`` holds one ``(w_c, p_c)`` pair per cell, the
    eigenvalues assigned to the cell and, with the cell's indices as
    rows, the eigenvectors of the reduced block on that cell. That is the
    cell's polar factor ``polar(X_c)``, which maps the assigned
    eigenvectors onto the cell's axes, or on a fallback the axis
    mapping's permutation. A block whose degenerate clusters were rotated
    hands on ``p_c = None``: a rotated vector is an eigenvector only to
    within its cluster's spread, up to ``CLUSTER_GAP`` of the block's
    spectrum width.
    """
    if pair is not None and pair[1] is not None:
        w, p = pair
        order = np.argsort(w, kind="stable")
        w, v = w[order], p[:, order]
    else:
        # the folded copy lives only as long as eigh needs it
        w, v = np.linalg.eigh(_hermitian_part(block.copy()))
    m = v.shape[0]

    # rotate degenerate clusters so exact block structure survives eigh
    rotated = False
    if m > 1:
        gap_tol = CLUSTER_GAP * max(1.0, float(w[-1] - w[0]))
        start = 0
        for stop in range(1, m + 1):
            if stop == m or w[stop] - w[stop - 1] > gap_tol:
                if stop - start > 1:
                    v[:, start:stop] = _align_cluster(v[:, start:stop], local_cells)
                    rotated = True
                start = stop

    overlaps = np.stack([np.sum(np.abs(v[rows, :]) ** 2, axis=0) for rows in local_cells])
    cand_cols, cand_cells = _assignment_order(overlaps, w)
    capacity = [rows.size for rows in local_cells]
    assigned_cols: list[list[int]] = [[] for _ in local_cells]
    col_taken = [False] * m
    for col, ci in zip(cand_cols.tolist(), cand_cells.tolist()):
        if col_taken[col] or capacity[ci] == 0:
            continue
        col_taken[col] = True
        capacity[ci] -= 1
        assigned_cols[ci].append(col)

    u_block, sigma_min, factors = _direct_rotation_polar(v, local_cells, assigned_cols)
    fallback_used = not sigma_min > FALLBACK_SIGMA
    if fallback_used:
        # near-singular direct rotation: map eigenvectors straight onto
        # cell axes, eigenvalue order inside each cell
        u_block = _axis_mapping(v, local_cells, assigned_cols)
        assigned_cols = [sorted(cols) for cols in assigned_cols]
        factors = [np.eye(rows.size, dtype=complex)[:, np.argsort(rows)] for rows in local_cells]
    handed = [
        (w[cols], None if rotated else factor) for cols, factor in zip(assigned_cols, factors)
    ]
    return u_block, sigma_min, fallback_used, handed


def _cells_by_block(dim: int, blocks, cells) -> tuple[list[list[int]], list[list[np.ndarray]]]:
    """Which target cells each block holds, and their rows inside it.

    ``blocks`` and ``cells`` are index arrays; each cell must lie inside
    one block, and is listed under the block holding its first index.
    """
    block_of = np.empty(dim, dtype=int)
    position = np.empty(dim, dtype=int)
    for b, blk in enumerate(blocks):
        block_of[blk] = b
        position[blk] = np.arange(blk.size)
    owned: list[list[int]] = [[] for _ in blocks]
    local_cells: list[list[np.ndarray]] = [[] for _ in blocks]
    for c, cell in enumerate(cells):
        b = block_of[cell[0]]
        owned[b].append(c)
        local_cells[b].append(position[cell])
    return owned, local_cells


def stage_reduce(
    h: Operator,
    target_partition,
    unitary_constraint: SubspaceTag = SubspaceTag.FULL,
    tol: float = STAGE_TOL,
) -> StageReduction:
    """Find a unitary that block-diagonalizes ``h`` onto a partition.

    ``target_partition`` is a list of disjoint index cells covering the
    whole space. ``unitary_constraint`` names the support pattern the
    returned unitary must live in; ``h`` must already be block-diagonal
    with respect to that pattern's blocks (within ``tol`` relative) so
    each of them can be processed independently, which is what makes the
    constraint hold exactly. Every target cell must lie inside a single
    constraint block. The reduced operator is ``V h adjoint(V)`` with
    the same spectrum as ``h``.

    ``V`` comes from one :func:`cascade` stage on ``h``'s constraint
    blocks (see the module notes). ``V h adjoint(V)`` is then formed as
    one dense product, off-block entries of ``h`` included, so
    ``residual``, the dense weight outside the target cells, counts them
    too.

    Each cell index follows :func:`~mqspace.operators._integer` (a float
    or a bool is refused, never truncated) and must lie in ``0..dim - 1``;
    ``tol`` is checked as in :func:`~mqspace.subspaces.is_member`.
    """
    _real(tol, "tol", 0)
    system = h.system
    dim = system.dim
    try:
        cells = [
            [_integer(i, "target cell index", 0) for i in cell] for cell in target_partition
        ]
    except TypeError:
        raise ConfigurationError("target_partition must be a list of index cells") from None
    beyond = [i for cell in cells for i in cell if i >= dim]
    if beyond:
        raise ConfigurationError(f"target cell index {beyond[0]} outside 0..{dim - 1}")
    _ensure_hermitian(h, "stage input")

    cells = [np.asarray(cell, dtype=int) for cell in cells]
    cell_of = np.full(dim, -1, dtype=int)
    for c, cell in enumerate(cells):
        if cell.size == 0:
            raise ConfigurationError(f"target cell {c} is empty")
        if (cell_of[cell] != -1).any():
            raise ConfigurationError("target cells overlap")
        cell_of[cell] = c
    if (cell_of == -1).any():
        raise ConfigurationError("target cells do not cover every index")

    scale = max(h.norm(), 1.0)
    coarse = [
        np.array(blk) for blk in _CONSTRAINT_PARTITIONS[unitary_constraint](system)
    ]
    coarse_of = np.full(dim, -1, dtype=int)
    for b, blk in enumerate(coarse):
        coarse_of[blk] = b
    _refuse_dropped(is_member(h, unitary_constraint).residual, unitary_constraint, tol * scale)
    for c, cell in enumerate(cells):
        if len(set(coarse_of[cell].tolist())) != 1:
            raise ConfigurationError(
                f"target cell {c} straddles {unitary_constraint.value} blocks"
            )

    stage, _ = _block_stage(dim, [(blk, h.entries[np.ix_(blk, blk)]) for blk in coarse], cells)
    unitary = _block_scatter(dim, stage.unitary)
    reduced = _hermitian_part(unitary @ h.entries @ unitary.conj().T)
    off_target = np.where(cell_of[:, None] == cell_of[None, :], 0.0, reduced)
    return StageReduction(
        _adopt(system, unitary),
        _adopt(system, reduced, True),
        float(np.linalg.norm(off_target)),
        stage.fallback_used,
        stage.smallest_sigma,
    )


class _BlockStage(NamedTuple):
    """One cascade stage held as blocks.

    ``unitary`` holds ``(indices, u_b)`` per constraint block and
    ``reduced`` holds ``(indices, block)`` per target cell, cell order;
    ``dropped`` is the Frobenius weight of the products outside the
    target cells, which no block keeps.
    """

    unitary: list
    reduced: list
    dropped: float
    fallback_used: bool
    smallest_sigma: float


def _block_stage(dim: int, blocks, cells, pairs=None):
    """One stage of :func:`cascade` or :func:`stage_reduce` on the blocks of its input.

    ``blocks`` holds ``(indices, a_b)`` per constraint block, ``a_b`` the
    input's entries on those indices; ``cells`` holds the target cells as
    index arrays, each inside one block. ``pairs``, unless None, holds
    the eigenpairs handed on for each block, as :func:`_block_reduction`
    takes them; an entry is set to None once read. Each block's product
    ``U_b a_b U_b^H`` is folded to its Hermitian part.

    Returns a :class:`_BlockStage` and each cell's hand-off.
    """
    unitary, reduced, handed = [], [None] * len(cells), [None] * len(cells)
    dropped = 0.0
    fallback_used = False
    smallest_sigma = np.inf
    owned, local_cells = _cells_by_block(dim, [blk for blk, _ in blocks], cells)
    for b, ((blk, a), block_cells, local) in enumerate(zip(blocks, owned, local_cells)):
        pair = None
        if pairs is not None:
            pair, pairs[b] = pairs[b], None
        u_block, sigma_min, fallback, cell_pairs = _block_reduction(a, local, pair)
        del pair
        smallest_sigma = min(smallest_sigma, sigma_min)
        fallback_used |= fallback

        product = _hermitian_part(u_block @ a @ u_block.conj().T)
        for c, rows, cell_pair in zip(block_cells, local, cell_pairs):
            kept = product[np.ix_(rows, rows)]
            product[np.ix_(rows, rows)] = 0.0
            reduced[c] = (cells[c], kept)
            handed[c] = cell_pair
        dropped = float(np.hypot(dropped, np.linalg.norm(product)))
        del product
        unitary.append((blk, u_block))
    for indices, block in unitary + reduced:
        indices.setflags(write=False)
        block.setflags(write=False)
    return _BlockStage(unitary, reduced, dropped, fallback_used, smallest_sigma), handed


def _dense(system: SpinSystem, blocks, hint: bool | None = None) -> Operator:
    """A read-only dense operator holding ``(state indices, block)`` pairs."""
    return _adopt(system, _block_scatter(system.dim, blocks), hint)


def _block_membership(n: int, blocks, tag: SubspaceTag) -> Membership:
    """:func:`~mqspace.subspaces.is_member` of :func:`_dense` of ``blocks``.

    The dense operator is zero outside the blocks, so its residual and
    norm are the ``hypot`` of the blocks' own.
    """
    mask = _mask(tag, n)
    residual = norm = 0.0
    for idx, block in blocks:
        residual = float(np.hypot(residual, _outside_weight(block, mask[np.ix_(idx, idx)])))
        norm = float(np.hypot(norm, np.linalg.norm(block)))
    return Membership(tag, residual <= MEMBERSHIP_TOL * norm, residual, norm, MEMBERSHIP_TOL)


@dataclass(frozen=True, eq=False)
class CascadeResult:
    """Unitaries, reduced operators and diagnostics of the three stages.

    ``unitary_blocks`` holds each stage's unitary as read-only ``(state
    indices, block)`` pairs over its constraint blocks: the whole space,
    the two parity cells, the ``n + 1`` popcount cells.
    ``reduced_blocks`` holds each stage's reduced operator the same way
    over its target cells: the parity cells, the popcount cells, the
    single states. ``v1``, ``v2``, ``v3`` and ``h1``, ``h2``, ``h3`` are
    read-only dense :class:`~mqspace.operators.Operator` views of them,
    built afresh on each read.

    ``residuals`` holds the Frobenius weight each reduced operator
    carries outside the pattern its stage targets (even-order, then
    zero-quantum, then diagonal); the blocks leave that weight out.
    ``stage_classes`` records that the second unitary is an even-order
    member and the third a zero-quantum member; both hold exactly because
    each stage works inside the blocks the previous one established.
    ``fallbacks`` flags the stages that took the axis mapping and
    ``smallest_sigmas`` holds each stage's smallest direct-rotation
    singular value. ``spectrum_error`` compares the input eigenvalues
    that the first stage computed, sorted, with the sorted diagonal of
    the final operator.
    """

    system: SpinSystem
    unitary_blocks: tuple[list, list, list]
    reduced_blocks: tuple[list, list, list]
    residuals: dict[str, float]
    stage_classes: dict[str, Membership]
    fallbacks: tuple[bool, bool, bool]
    smallest_sigmas: tuple[float, float, float]
    spectrum_error: float

    @property
    def v1(self) -> Operator:
        return _dense(self.system, self.unitary_blocks[0])

    @property
    def v2(self) -> Operator:
        return _dense(self.system, self.unitary_blocks[1])

    @property
    def v3(self) -> Operator:
        return _dense(self.system, self.unitary_blocks[2])

    @property
    def h1(self) -> Operator:
        return _dense(self.system, self.reduced_blocks[0], True)

    @property
    def h2(self) -> Operator:
        return _dense(self.system, self.reduced_blocks[1], True)

    @property
    def h3(self) -> Operator:
        return _dense(self.system, self.reduced_blocks[2], True)

    @property
    def overall_unitary(self) -> Operator:
        """The product ``v3 v2 v1`` taking the input straight to ``h3``."""
        return self.v3 @ self.v2 @ self.v1


def _refuse_dropped(weight: float, constraint: SubspaceTag, limit: float) -> None:
    """Refuse a stage input carrying ``weight`` outside its constraint pattern.

    :func:`stage_reduce` measures that weight on its dense input; stages
    2 and 3 of :func:`cascade` read it from the weight dropped so far,
    which lies outside their constraint pattern.
    """
    if weight > limit:
        raise ToleranceError(
            f"input carries weight {weight:.3e} outside the "
            f"{constraint.value} constraint pattern"
        )


def cascade(h: Operator, tol: float = STAGE_TOL) -> CascadeResult:
    """Run the three reduction stages and package the diagnostics.

    Each stage takes its input's blocks on its constraint blocks, and
    their eigenpairs, from the stage before (see the module notes), so a
    generic input costs one ``eigh`` of the whole input plus the stages'
    small SVDs and block products. As in :func:`stage_reduce`, stages 2
    and 3 raise :class:`ToleranceError` for an input carrying more than
    ``tol`` relative weight outside their constraint pattern. Raises
    :class:`InvariantError` if any stage residual, membership or the
    spectrum comparison fails its tolerance; for a Hermitian input this
    indicates an internal defect, not a data problem. ``tol`` is checked
    as in :func:`~mqspace.subspaces.is_member`, once per call.
    """
    _real(tol, "tol", 0)
    system = h.system
    dim = system.dim
    _ensure_hermitian(h, "cascade input")
    scale = max(h.norm(), 1.0)

    # each stage's target cells are the next stage's constraint blocks, in
    # the same order, so its kept blocks and hand-off are the next input
    def cells(partition):
        return [np.asarray(cell, dtype=int) for cell in partition(system)]

    s1, pairs = _block_stage(dim, [(np.arange(dim), h.entries)], cells(parity_partition))
    eigenvalues = np.sort(np.concatenate([w for w, _ in pairs]))
    r1 = s1.dropped
    _refuse_dropped(r1, SubspaceTag.EVEN_MQ, tol * scale)
    s2, pairs = _block_stage(dim, s1.reduced, cells(popcount_partition), pairs)
    r2 = float(np.hypot(r1, s2.dropped))
    _refuse_dropped(r2, SubspaceTag.ZERO_QUANTUM, tol * scale)
    s3, _ = _block_stage(dim, s2.reduced, cells(singleton_partition), pairs)
    r3 = float(np.hypot(r2, s3.dropped))
    del pairs

    residuals = {"even_mq": r1, "zero_quantum": r2, "lomso": r3}
    for name, value in residuals.items():
        if value > tol * scale:
            raise InvariantError(
                f"stage residual {name} = {value:.3e} exceeds {tol:.0e} * {scale:.3e}"
            )

    stage_classes = {
        "v2_even_mq": _block_membership(system.n, s2.unitary, SubspaceTag.EVEN_MQ),
        "v3_zero_quantum": _block_membership(system.n, s3.unitary, SubspaceTag.ZERO_QUANTUM),
    }
    for name, membership in stage_classes.items():
        if not membership:
            raise InvariantError(
                f"{name} failed: residual {membership.residual:.3e}"
            )

    diagonal = np.sort(np.real(np.concatenate([b.diagonal() for _, b in s3.reduced])))
    spectrum_error = float(np.max(np.abs(eigenvalues - diagonal)))
    if spectrum_error > tol * scale:
        raise InvariantError(
            f"spectrum drift {spectrum_error:.3e} exceeds {tol:.0e} * {scale:.3e}"
        )

    return CascadeResult(
        system,
        (s1.unitary, s2.unitary, s3.unitary),
        (s1.reduced, s2.reduced, s3.reduced),
        residuals,
        stage_classes,
        (s1.fallback_used, s2.fallback_used, s3.fallback_used),
        (s1.smallest_sigma, s2.smallest_sigma, s3.smallest_sigma),
        spectrum_error,
    )
