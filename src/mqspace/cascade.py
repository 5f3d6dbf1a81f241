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

The stage unitary is block-diagonal over the constraint blocks, so the
reduced operator ``U h U^H`` is formed block by block on ``h`` gathered
into constraint-block order. Every off-block entry of ``h`` is carried
through the product, so the stage residual still measures the full
weight outside the target cells.
"""

from __future__ import annotations

from dataclasses import dataclass

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
)
from .subspaces import Membership, SubspaceTag, is_member, selective_blocks

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

    Each block's unitary is the polar factor of its direct-rotation sum,
    taken one target cell at a time (see :func:`_direct_rotation_polar`).
    ``V h adjoint(V)`` is applied in constraint-block order: ``h`` is
    gathered once so each block is a contiguous slice, multiplied by the
    block's unitary from the left on its rows and by its adjoint from
    the right on its columns, and scattered back. That is the dense
    product, off-block entries of ``h`` included, so ``residual`` counts
    them too.

    Each cell index follows :func:`~mqspace.operators._integer` (a float
    or a bool is refused, never truncated) and must lie in ``0..dim - 1``.
    """
    dim = h.system.dim
    try:
        cells = [
            [_integer(i, "target cell index", 0) for i in cell] for cell in target_partition
        ]
    except TypeError:
        raise ConfigurationError("target_partition must be a list of index cells") from None
    beyond = [i for cell in cells for i in cell if i >= dim]
    if beyond:
        raise ConfigurationError(f"target cell index {beyond[0]} outside 0..{dim - 1}")
    return _stage(h, cells, unitary_constraint, tol)[0]


def _stage(h: Operator, target_partition, unitary_constraint, tol, given=None):
    """:func:`stage_reduce`, taking and handing on block eigenpairs.

    ``given``, unless None, holds a pair ``(w, p)`` per constraint block:
    eigenvalues in any order and, with the block's indices as rows,
    their eigenvectors ``p``, or ``p = None``. A block with no
    eigenvectors given is gathered, folded and diagonalized with
    ``eigh``; given ones are sorted by eigenvalue and used as they are,
    and their entry of ``given`` is set to ``None`` once read.

    Returns the reduction and one ``(w_c, p_c)`` pair per target cell:
    the eigenvalues assigned to cell ``c`` and, with the cell's indices
    as rows, the eigenvectors of the reduced operator's block on that
    cell. That is the cell's polar factor ``polar(X_c)``, which maps the
    assigned eigenvectors onto the cell's axes, or on a fallback the
    axis mapping's permutation. A block whose degenerate clusters were
    rotated hands on ``p_c = None``: a rotated vector is an eigenvector
    only to within its cluster's spread, up to ``CLUSTER_GAP`` of the
    block's spectrum width.
    """
    system = h.system
    dim = system.dim
    _ensure_hermitian(h, 1e-10, "stage input")

    cells = [np.asarray(cell, dtype=int) for cell in target_partition]
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
    off_norm = is_member(h, unitary_constraint).residual
    if off_norm > tol * scale:
        raise ToleranceError(
            f"input carries weight {off_norm:.3e} outside the "
            f"{unitary_constraint.value} constraint pattern"
        )
    for c, cell in enumerate(cells):
        owners = set(coarse_of[cell].tolist())
        if len(owners) != 1:
            raise ConfigurationError(
                f"target cell {c} straddles {unitary_constraint.value} blocks"
            )

    unitary = np.zeros((dim, dim), dtype=complex)
    u_blocks = []
    fallback_used = False
    smallest_sigma = np.inf
    handed = [None] * len(cells)
    for b, blk in enumerate(coarse):
        pos_of = {int(g): p for p, g in enumerate(blk)}
        block_cells = [c for c, cell in enumerate(cells) if coarse_of[cell[0]] == b]
        local_cells = [np.array([pos_of[int(g)] for g in cells[c]]) for c in block_cells]

        if given is not None and given[b][1] is not None:
            # read once and dropped, so the given vectors are freed before
            # the conjugation below
            w, p = given[b]
            given[b] = None
            order = np.argsort(w, kind="stable")
            w, v = w[order], p[:, order]
            del p
        else:
            w, v = np.linalg.eigh(_hermitian_part(h.entries[np.ix_(blk, blk)]))
        m = blk.size

        # rotate degenerate clusters so exact block structure survives eigh
        rotated = False
        if m > 1:
            gap_tol = CLUSTER_GAP * max(1.0, float(w[-1] - w[0]))
            start = 0
            for stop in range(1, m + 1):
                if stop == m or w[stop] - w[stop - 1] > gap_tol:
                    if stop - start > 1:
                        v[:, start:stop] = _align_cluster(
                            v[:, start:stop], local_cells
                        )
                        rotated = True
                    start = stop

        overlaps = np.stack(
            [np.sum(np.abs(v[rows, :]) ** 2, axis=0) for rows in local_cells]
        )
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
        smallest_sigma = min(smallest_sigma, sigma_min)
        if not sigma_min > FALLBACK_SIGMA:
            # near-singular direct rotation: map eigenvectors straight
            # onto cell axes, eigenvalue order inside each cell
            fallback_used = True
            u_block = _axis_mapping(v, local_cells, assigned_cols)
            assigned_cols = [sorted(cols) for cols in assigned_cols]
            factors = [
                np.eye(rows.size, dtype=complex)[:, np.argsort(rows)]
                for rows in local_cells
            ]
        for c, cols, factor in zip(block_cells, assigned_cols, factors):
            handed[c] = (w[cols], None if rotated else factor)
        unitary[np.ix_(blk, blk)] = u_block
        u_blocks.append(u_block)
    del v  # a whole-space block's eigenvectors are as large as h

    # U h U^H in constraint-block order, where U is block-diagonal; each
    # full-size temporary is dropped once consumed to bound peak memory
    order = np.concatenate(coarse)
    bounds = np.cumsum([0] + [blk.size for blk in coarse])
    slices = [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
    hp = h.entries[np.ix_(order, order)]
    left = np.empty_like(hp)
    for u_block, sl in zip(u_blocks, slices):
        left[sl] = u_block @ hp[sl]
    del hp
    product = np.empty_like(left)
    for u_block, sl in zip(u_blocks, slices):
        product[:, sl] = left[:, sl] @ u_block.conj().T
    del left
    _hermitian_part(product)
    reduced = np.empty_like(product)
    reduced[np.ix_(order, order)] = product
    del product

    off_target = np.where(cell_of[:, None] == cell_of[None, :], 0.0, reduced)
    residual = float(np.linalg.norm(off_target))
    return StageReduction(
        _adopt(system, unitary),
        _adopt(system, reduced, True),
        residual,
        fallback_used,
        smallest_sigma,
    ), handed


@dataclass(frozen=True)
class CascadeResult:
    """Unitaries, reduced operators and diagnostics of the three stages.

    ``residuals`` holds the Frobenius weight each reduced operator
    carries outside the pattern its stage targets (even-order, then
    zero-quantum, then diagonal). ``stage_classes`` records that the
    second unitary is an even-order member and the third a zero-quantum
    member; both hold exactly because each stage works inside the blocks
    the previous one established. ``fallbacks`` flags the stages that
    took the axis mapping and ``smallest_sigmas`` holds each stage's
    smallest direct-rotation singular value. ``spectrum_error`` compares
    the input eigenvalues that the first stage computed, sorted, with the
    sorted diagonal of the final operator.
    """

    v1: Operator
    v2: Operator
    v3: Operator
    h1: Operator
    h2: Operator
    h3: Operator
    residuals: dict[str, float]
    stage_classes: dict[str, Membership]
    fallbacks: tuple[bool, bool, bool]
    smallest_sigmas: tuple[float, float, float]
    spectrum_error: float

    @property
    def overall_unitary(self) -> Operator:
        """The product ``v3 v2 v1`` taking the input straight to ``h3``."""
        return self.v3 @ self.v2 @ self.v1


def cascade(h: Operator, tol: float = STAGE_TOL) -> CascadeResult:
    """Run the three reduction stages and package the diagnostics.

    Each stage takes the eigenpairs of its constraint blocks from the
    stage before (see the module notes), so a generic input costs one
    ``eigh`` of the whole input plus the stages' small SVDs and products.
    Raises :class:`InvariantError` if any stage residual, membership
    or the spectrum comparison fails its tolerance; for a Hermitian
    input this indicates an internal defect, not a data problem.
    """
    system = h.system
    _ensure_hermitian(h, 1e-10, "cascade input")
    scale = max(h.norm(), 1.0)

    # each stage hands the next the eigenpairs of its target cells, which
    # are the next stage's constraint blocks
    s1, pairs = _stage(h, parity_partition(system), SubspaceTag.FULL, tol)
    eigenvalues = np.sort(np.concatenate([w for w, _ in pairs]))
    s2, pairs = _stage(
        s1.reduced, popcount_partition(system), SubspaceTag.EVEN_MQ, tol, pairs
    )
    s3, _ = _stage(
        s2.reduced, singleton_partition(system), SubspaceTag.ZERO_QUANTUM, tol, pairs
    )

    residuals = {
        "even_mq": s1.residual,
        "zero_quantum": s2.residual,
        "lomso": s3.residual,
    }
    for name, value in residuals.items():
        if value > tol * scale:
            raise InvariantError(
                f"stage residual {name} = {value:.3e} exceeds {tol:.0e} * {scale:.3e}"
            )

    stage_classes = {
        "v2_even_mq": is_member(s2.unitary, SubspaceTag.EVEN_MQ),
        "v3_zero_quantum": is_member(s3.unitary, SubspaceTag.ZERO_QUANTUM),
    }
    for name, membership in stage_classes.items():
        if not membership:
            raise InvariantError(
                f"{name} failed: residual {membership.residual:.3e}"
            )

    diagonal = np.sort(np.real(np.diag(s3.reduced.entries)))
    spectrum_error = float(np.max(np.abs(eigenvalues - diagonal)))
    if spectrum_error > tol * scale:
        raise InvariantError(
            f"spectrum drift {spectrum_error:.3e} exceeds {tol:.0e} * {scale:.3e}"
        )

    return CascadeResult(
        s1.unitary,
        s2.unitary,
        s3.unitary,
        s1.reduced,
        s2.reduced,
        s3.reduced,
        residuals,
        stage_classes,
        (s1.fallback_used, s2.fallback_used, s3.fallback_used),
        (s1.smallest_sigma, s2.smallest_sigma, s3.smallest_sigma),
        spectrum_error,
    )
