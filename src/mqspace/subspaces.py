"""Nested operator subspaces selected by element support patterns.

Four nested families are distinguished by which matrix elements they
allow. Diagonal operators commute with every longitudinal term and form
the smallest family; zero-quantum operators only connect basis states
with equal down-spin counts; even-order operators only connect states
whose down-spin counts agree modulo two; the full space allows
everything. Membership is a property of the element support pattern, so
it is checked by measuring how much Frobenius weight an operator carries
outside the pattern.

The zero-quantum family splits further into independent blocks, one per
down-spin count ``k``, each of dimension ``binomial(n, k)``. Those
blocks drive every block-wise algorithm in the package.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError, ToleranceError
from .operators import (
    Operator,
    SpinSystem,
    _down_counts,
    _gaussian_entries,
    _integer,
    _real,
    _shift_label,
    identity_operator,
)

__all__ = [
    "SubspaceTag",
    "Membership",
    "SelectiveBlock",
    "ClosureReport",
    "support_mask",
    "block_dimension",
    "subspace_dims",
    "is_member",
    "project",
    "selective_blocks",
    "decompose_zq",
    "zq_offdiagonal_cells",
    "verify_closure",
]

MEMBERSHIP_TOL = 1e-10


class SubspaceTag(enum.Enum):
    """The four nested support patterns, smallest to largest."""

    LOMSO = "LOMSO"
    ZERO_QUANTUM = "ZeroQuantum"
    EVEN_MQ = "EvenMQ"
    FULL = "Full"


# each pattern's place in the nesting, narrowest first
_WIDTH = {tag: rank for rank, tag in enumerate(SubspaceTag)}


@lru_cache(maxsize=None)
def _mask(tag: SubspaceTag, n: int) -> np.ndarray:
    pc = _down_counts(n)
    if tag is SubspaceTag.LOMSO:
        mask = np.eye(1 << n, dtype=bool)
    elif tag is SubspaceTag.ZERO_QUANTUM:
        mask = pc[:, None] == pc[None, :]
    elif tag is SubspaceTag.EVEN_MQ:
        mask = (pc[:, None] - pc[None, :]) % 2 == 0
    else:
        mask = np.ones((1 << n, 1 << n), dtype=bool)
    mask.setflags(write=False)
    return mask


def support_mask(tag: SubspaceTag, system: SpinSystem) -> np.ndarray:
    """Boolean element-support pattern of a subspace (read only)."""
    return _mask(tag, system.n)


def block_dimension(n: int, k: int) -> int:
    """Dimension of the selective zero-quantum block with ``k`` down spins.

    ``n`` and ``k`` must be integers, not bools.
    """
    n, k = _integer(n, "spin count"), _integer(k, "block index")
    if not 0 <= k <= n:
        raise ConfigurationError(f"block index {k} outside 0..{n}")
    return math.comb(n, k)


def subspace_dims(n: int) -> dict[SubspaceTag, int]:
    """Element-pattern dimension of each subspace for an ``n`` spin system.

    The closed forms are ``2**n``, ``binomial(2n, n)``, ``2**(2n-1)``
    and ``4**n``; the middle one equals the sum of the squared selective
    block dimensions. ``n`` must be an integer of at least 1.
    """
    n = _integer(n, "spin count", 1)
    return {
        SubspaceTag.LOMSO: 2 ** n,
        SubspaceTag.ZERO_QUANTUM: math.comb(2 * n, n),
        SubspaceTag.EVEN_MQ: 2 ** (2 * n - 1),
        SubspaceTag.FULL: 4 ** n,
    }


@dataclass(frozen=True)
class Membership:
    """Outcome of a membership test, truthy when the operator belongs."""

    tag: SubspaceTag
    member: bool
    residual: float
    norm: float
    tolerance: float

    def __bool__(self) -> bool:
        return self.member


def is_member(q: Operator, tag: SubspaceTag, tol: float = MEMBERSHIP_TOL) -> Membership:
    """Test whether ``q`` carries weight only inside a support pattern.

    The residual is the Frobenius norm of the out-of-pattern part and
    membership requires ``residual <= tol * norm(q)``. The zero operator
    belongs to every subspace. ``tol`` follows
    :func:`~mqspace.operators._real` with minimum 0; it is checked, not
    converted, so a numpy scalar keeps its own arithmetic.
    """
    _real(tol, "tol", 0)
    norm = q.norm()
    residual, member = _pattern_residual(q.entries, _mask(tag, q.system.n), tol, norm)
    return Membership(tag, member, residual, norm, tol)


def _pattern_residual(
    entries: np.ndarray, mask: np.ndarray, tol: float, norm: float
) -> tuple[float, bool]:
    """``(residual, member)`` of the membership rule for a plain array.

    ``residual`` is the Frobenius norm of the entries outside ``mask``
    and ``member`` is ``residual <= tol * norm``, ``norm`` being the
    Frobenius norm of all the entries.
    """
    residual = _outside_weight(entries, mask)
    return residual, residual <= tol * norm


def _outside_weight(entries: np.ndarray, mask: np.ndarray) -> float:
    """Frobenius norm of the entries outside ``mask``, the membership residual."""
    return float(np.linalg.norm(np.where(mask, 0.0, entries)))


def _ensure_zero_quantum(q: Operator, tol: float, what: str) -> None:
    """Reject ``q`` unless it passes the zero-quantum membership test.

    The verdict is :func:`is_member`'s, so a NaN residual is refused.
    """
    membership = is_member(q, SubspaceTag.ZERO_QUANTUM, tol)
    if not membership.member:
        raise ToleranceError(
            f"{what} is not zero-quantum: out-of-pattern residual "
            f"{membership.residual:.3e} exceeds {tol:.0e} * {membership.norm:.3e}"
        )


def project(q: Operator, tag: SubspaceTag) -> Operator:
    """Zero every matrix element outside the subspace support pattern."""
    mask = _mask(tag, q.system.n)
    hint = True if q.hermitian_hint is True else None
    return Operator(q.system, np.where(mask, q.entries, 0.0), hint)


def _random_member(
    rng: np.random.Generator, tag: SubspaceTag, n: int, hermitian: bool = False
) -> np.ndarray:
    """``project(random_operator(...), tag).entries`` as a fresh plain array.

    The generator is read exactly as :func:`random_operator` reads it,
    so a sweep built on this helper draws the same members.
    """
    return np.where(_mask(tag, n), _gaussian_entries(rng, 1 << n, hermitian), 0.0)


@dataclass(frozen=True)
class SelectiveBlock:
    """One zero-quantum block: the states with exactly ``k`` down spins."""

    k: int
    state_indices: tuple[int, ...]

    @property
    def dimension(self) -> int:
        return len(self.state_indices)


@lru_cache(maxsize=16)
def _block_states(n: int) -> tuple[np.ndarray, ...]:
    """Basis states of each selective block, ``k`` ascending, indices ascending.

    The arrays are read only and shared by every caller for this ``n``.
    """
    states = tuple(np.flatnonzero(_down_counts(n) == k) for k in range(n + 1))
    for idx in states:
        idx.setflags(write=False)
    return states


def _block_scatter(dim: int, blocks) -> np.ndarray:
    """Complex ``dim x dim`` zeros holding each ``(state indices, block)`` pair's block."""
    out = np.zeros((dim, dim), dtype=complex)
    for idx, block in blocks:
        out[np.ix_(idx, idx)] = block
    return out


def selective_blocks(system: SpinSystem) -> list[SelectiveBlock]:
    """The ``n + 1`` selective blocks, ``k`` ascending, indices ascending."""
    return [
        SelectiveBlock(k, tuple(idx.tolist()))
        for k, idx in enumerate(_block_states(system.n))
    ]


def decompose_zq(
    z: Operator, tol: float = MEMBERSHIP_TOL
) -> list[tuple[int, Operator]]:
    """Split a zero-quantum operator into its per-block components.

    Returns ``n + 1`` pairs ``(k, component)`` where each component is a
    full-dimension operator supported only on block ``k``. Components of
    distinct blocks commute and they sum back to the projection of ``z``
    onto the zero-quantum pattern. Operators failing the membership test
    are rejected.
    """
    _ensure_zero_quantum(z, tol, "operator")
    hint = True if z.hermitian_hint is True else None
    pieces = [(idx, z.entries[np.ix_(idx, idx)]) for idx in _block_states(z.system.n)]
    return [
        (k, Operator(z.system, _block_scatter(z.system.dim, [piece]), hint))
        for k, piece in enumerate(pieces)
    ]


@lru_cache(maxsize=16)
def zq_offdiagonal_cells(n: int):
    """Index pairs and unit labels of the off-diagonal zero-quantum cells.

    Returns ``(rows, cols, labels)`` where the label of each ``(i, j)``
    cell is the shift base operator equal to the elementary matrix unit
    supported there. These are the coherence carriers of the
    zero-quantum space: everything zero-quantum that is not diagonal.
    """
    mask = _mask(SubspaceTag.ZERO_QUANTUM, n) & ~np.eye(1 << n, dtype=bool)
    rows, cols = np.nonzero(mask)
    # a label is the concatenation of its high-spin and low-spin halves,
    # each looked up in a table indexed by (row bits, col bits)
    low = n - n // 2
    low_mask = (1 << low) - 1
    prefix = _shift_label_table(1, n // 2)
    suffix = _shift_label_table(n // 2 + 1, low)
    hi = ((rows >> low) << (n // 2)) | (cols >> low)
    lo = ((rows & low_mask) << low) | (cols & low_mask)
    labels = tuple(map(str.__add__, prefix[hi].tolist(), suffix[lo].tolist()))
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols, labels


@lru_cache(maxsize=16)
def _zq_row_layout(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``(start, position)`` per basis state, for :func:`_zq_cell_rank`.

    ``start[r]`` counts the off-diagonal zero-quantum cells of all rows
    before ``r`` (row ``r'`` holds ``d(k') - 1``, ``k'`` its block) and
    ``position[s]`` is the rank of state ``s`` among the states of its
    block, ascending.
    """
    pc = _down_counts(n)
    position = np.empty_like(pc)
    for idx in _block_states(n):
        position[idx] = np.arange(len(idx))
    per_row = np.bincount(pc)[pc] - 1
    start = np.cumsum(per_row) - per_row
    for arr in (start, position):
        arr.setflags(write=False)
    return start, position


def _zq_cell_rank(n: int, rows, cols):
    """Positions of off-diagonal zero-quantum cells in :func:`zq_offdiagonal_cells` order.

    Row ``r``'s cells follow those of every earlier row and run through
    the other states of ``r``'s block in ascending order, so the rank of
    ``(r, c)`` is the row's start plus the rank of ``c`` in the block,
    less one when ``c`` lies past the skipped diagonal. The cells must be
    zero-quantum and off the diagonal; that is not checked here.
    """
    start, position = _zq_row_layout(n)
    return start[rows] + position[cols] - (cols > rows)


@lru_cache(maxsize=16)
def _zq_stored_cells(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``(rows, cols)`` of the off-diagonal zero-quantum cells a trace stores.

    These are the cells ``(i, j)`` with ``i < j``: block ``k`` ascending,
    then the upper triangle of that block in row-major order, so each
    block's ``d(k) (d(k) - 1) / 2`` cells form one contiguous run. A
    Hermitian operator's cell ``(j, i)`` is the conjugate of ``(i, j)``,
    so these cells hold all of its off-diagonal part. The table is built
    from the block index lists, with no label table and no ``2^n x 2^n``
    mask; the arrays are read only.
    """
    triangles = [(idx, *np.triu_indices(len(idx), 1)) for idx in _block_states(n)]
    rows = np.concatenate([idx[i] for idx, i, _ in triangles])
    cols = np.concatenate([idx[j] for idx, _, j in triangles])
    for arr in (rows, cols):
        arr.setflags(write=False)
    return rows, cols


@lru_cache(maxsize=16)
def _zq_cell_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``(position, lower)`` of the off-diagonal zero-quantum cells.

    Both are indexed by rank in :func:`zq_offdiagonal_cells` order:
    ``position[r]`` is the place in :func:`_zq_stored_cells` of cell ``r``
    or of its transpose, whichever has ``i < j``, and ``lower[r]`` is true
    when cell ``r`` has ``i > j``, so a cell and its transpose share one
    slot. The arrays are read only.
    """
    rows, cols = _zq_stored_cells(n)
    # the stored cells, then their transposes, each ranked in label order;
    # sorting the ranks gives each label rank's place in that list
    places = np.argsort(_zq_cell_rank(n, np.r_[rows, cols], np.r_[cols, rows]))
    position, lower = places % rows.size, places >= rows.size
    for arr in (position, lower):
        arr.setflags(write=False)
    return position, lower


def _shift_label_table(first: int, count: int) -> np.ndarray:
    """Shift-label fragments of spins ``first .. first + count - 1``.

    Entry ``(r << count) | c`` names the unit connecting the row bits
    ``r`` to the column bits ``c`` of those spins, the first spin owning
    the most significant bit.
    """
    shifts = range(count - 1, -1, -1)
    table = [
        _shift_label(
            [("a", "+", "-", "b")[2 * ((r >> s) & 1) + ((c >> s) & 1)] for s in shifts],
            first,
        )
        for r in range(1 << count)
        for c in range(1 << count)
    ]
    return np.array(table, dtype=object)


@dataclass
class ClosureReport:
    """Statistics from randomized closure checks of one subspace."""

    tag: SubspaceTag
    n: int
    trials: int
    tolerance: float
    checks: int = 0
    max_residual: float = 0.0
    identity_member: bool = False
    violations: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.identity_member and not self.violations


def verify_closure(
    tag: SubspaceTag,
    system: SpinSystem,
    trials: int = 100,
    seed: int = 0,
    tol: float = MEMBERSHIP_TOL,
) -> ClosureReport:
    """Check closure of a subspace under the operations that matter.

    Random members are produced by projecting dense Gaussian draws onto
    the support pattern. Every trial checks the product, the commutator
    and a real linear combination of a Hermitian pair; each result must
    pass the membership test. The identity operator must belong as well,
    whatever the tag: a closed operator algebra needs its unit.
    ``trials`` must be an integer of at least 1 and ``seed`` one of at
    least 0. ``tol`` follows :func:`~mqspace.operators._real`, checked,
    not converted; a negative ``tol`` fails every check, the identity's
    included, which exercises the failure report.

    A trial works on plain ``2^n x 2^n`` arrays: four members drawn one
    at a time and the three results, formed one after another, so it
    holds a few dense matrices at once and builds no ``Operator``. The
    members are those of ``project(random_operator(...), tag)``, drawn
    in the order a, b, ha, hb, then the two weights. ``mqspace verify``
    runs its three tags through the same loop, which draws once for all
    of them and reports what three calls of this function would.
    """
    (report,) = _closure_sweeps((tag,), system, trials, seed, tol)
    return report


def _closure_sweeps(
    tags: tuple[SubspaceTag, ...], system: SpinSystem, trials: int, seed: int, tol: float
) -> list[ClosureReport]:
    """:func:`verify_closure` of each tag, from one stream of draws.

    Each trial draws the four Gaussian matrices and the two weights
    once. The tags are then taken from the widest pattern to the
    narrowest; each zeroes the draws outside its own pattern in place,
    which leaves exactly the members :func:`project` would give, since
    the wider patterns hold every narrower one, and runs the three
    checks into its own report. The reports come back in ``tags`` order
    and equal those of separate :func:`verify_closure` calls.
    """
    trials = _integer(trials, "trials", 1)
    seed = _integer(seed, "seed", 0)
    _real(tol, "tol")
    n = system.n
    rng = np.random.default_rng(seed)
    reports = [ClosureReport(tag, n, trials, tol) for tag in tags]
    # is_member's rule, which would refuse a negative tol
    identity = identity_operator(system)
    for report in reports:
        _, member = _pattern_residual(identity.entries, _mask(report.tag, n), tol, identity.norm())
        report.identity_member = bool(member)
        if not report.identity_member:
            report.violations.append("identity operator failed membership")
    widest_first = sorted(reports, key=lambda r: _WIDTH[r.tag], reverse=True)
    sweeps = [(r, _mask(r.tag, n), ~_mask(r.tag, n)) for r in widest_first]

    def _check(report, mask, name: str, q: np.ndarray):
        residual, member = _pattern_residual(q, mask, tol, float(np.linalg.norm(q)))
        report.checks += 1
        report.max_residual = max(report.max_residual, residual)
        if not member:
            report.violations.append(
                f"trial {trial}: {name} left the subspace (residual {residual:.3e})"
            )

    for trial in range(trials):
        draws = [_gaussian_entries(rng, 1 << n, h) for h in (False, False, True, True)]
        w = rng.standard_normal(2)
        a, b, ha, hb = draws
        for report, mask, outside in sweeps:
            _zero_outside(draws, outside)
            q = a @ b
            _check(report, mask, "product", q)
            q -= b @ a
            _check(report, mask, "commutator", q)
            del q
            _check(report, mask, "hermitian combination", w[0] * ha + w[1] * hb)
        # free this trial's matrices before the next trial draws its own
        del draws, a, b, ha, hb
    return reports


def _zero_outside(draws: list[np.ndarray], outside: np.ndarray) -> None:
    """Zero the entries of each array in ``draws`` where ``outside`` holds.

    Each array then equals ``np.where(~outside, array, 0.0)`` bit for bit.
    """
    for q in draws:
        np.copyto(q, 0.0, where=outside)
