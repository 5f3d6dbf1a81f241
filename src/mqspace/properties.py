"""Numerical verification of the structural theorems about order-0 operators.

Two statements are checked by brute force rather than assumed. First,
multiplying any definite-order shift base operator by an order-0 member,
from either side or inside a commutator, never moves weight to a
different coherence order. Second, every off-diagonal order-0 base
operator annihilates the all-up and all-down basis states, so those two
states are exact zero-eigenvalue eigenvectors of any Hermitian
combination. Each product is formed exactly on its support (a shift
base operator has a single nonzero element, so its products with a
matrix fill one row, one column or one vector entry) and its weight at
other orders is measured with the element-order mask; no residual is
derived from index bookkeeping alone. The order sweep takes the units
a block of rows at a time: a pass spans at most 2^16 product entries,
or one unit row where a row alone is larger, so every row fits in one
pass up to n = 5 and a pass holds one row from n = 8 on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .operators import SpinSystem, _element_orders, _hermitian_part, _integer
from .subspaces import SubspaceTag, _random_member, zq_offdiagonal_cells

__all__ = [
    "PropertyReport",
    "verify_order_preservation",
    "verify_extreme_states",
]


@dataclass
class PropertyReport:
    """Outcome of one verification sweep.

    ``max_residuals`` holds the worst out-of-pattern weight seen per
    check name; ``violations`` lists human-readable failures. A sweep
    with an empty violation list passed.
    """

    name: str
    n: int
    checks: int = 0
    max_residuals: dict[str, float] = field(default_factory=dict)
    violations: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations

    def _record(self, key: str, value: float, tol: float, context: str) -> None:
        self.max_residuals[key] = max(self.max_residuals.get(key, 0.0), value)
        if value > tol:
            self.violations.append(f"{context}: {key} residual {value:.3e} > {tol:.0e}")


# entries of one (rows, 2^n, 2^n) pass of _order_leaks: n <= 5 takes
# every row in one pass, n >= 8 one row per pass
_PASS_ENTRIES = 1 << 16


def _order_leaks(zm: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Out-of-order weight of ``Z E_rc``, ``E_rc Z`` and ``[Z, E_rc]`` per unit.

    ``E_rc`` is the shift base operator with its single 1 at (r, c).
    ``Z E_rc`` is the matrix whose column c holds ``Z[:, r]``, ``E_rc Z``
    the one whose row r holds ``Z[c, :]``, and the commutator is that
    column minus that row: ``Z[i, r] - delta_ir Z[c, c]`` down column c
    and ``Z[r, r] delta_jc - Z[c, j]`` along row r, the shared element
    (r, c) counted once, in the column. Entry [r, c] of each returned
    ``(2^n, 2^n)`` array is the Frobenius norm of the product's elements
    whose order differs from that of ``E_rc``: the squared magnitudes of
    its elements summed against the boolean order mask, so a leak is
    exactly 0 when every out-of-order element is.

    A pass takes a block of consecutive rows r, with r, c and the free
    index vectorized: two boolean order masks and the commutator's
    columns, ``rows * 4^n`` entries each, capped at 2^16 (0.5 MB of
    floats) and never below one row. That is every row in one pass for
    n <= 5 and one row per pass for n >= 8.
    """
    orders = _element_orders(n)
    orders_t = np.ascontiguousarray(orders.T)
    dim = 1 << n
    step = max(1, min(dim, _PASS_ENTRIES // (dim * dim)))
    # row r of E_rc Z holds Z[c, j] and that of the commutator -Z[c, j],
    # its shared element j = c left to the column; neither depends on r
    row_comm = -zm
    np.fill_diagonal(row_comm, 0.0)
    rows_sq = _squared(np.stack([zm, row_comm]))
    # [r, i] = |Z[i, r]|^2: column c of Z E_rc, whatever c
    cols_sq = rows_sq[0].T
    diagonal = np.diagonal(zm)
    leaks = np.empty((3, dim, dim))
    for start in range(0, dim, step):
        rs = np.arange(start, min(start + step, dim))
        unit_orders = orders[rs]
        # [r, c, i]: element (i, c) of a column-c product leaves E_rc's order
        col_off = orders_t[None] != unit_orders[:, :, None]
        # [r, c, j]: element (r, j) of a row-r product leaves E_rc's order
        row_off = unit_orders[:, None, :] != unit_orders[:, :, None]
        # column c of the commutator: [r, c, i] = |Z[i, r] - delta_ir Z[c, c]|^2
        comm_col = np.empty((len(rs), dim, dim))
        comm_col[:] = cols_sq[rs, None, :]
        comm_col[np.arange(len(rs)), :, rs] = _squared(zm[rs, rs][:, None] - diagonal)
        leaks[0, rs] = np.einsum("rci,ri->rc", col_off, cols_sq[rs])
        leaks[1, rs] = np.einsum("rcj,cj->rc", row_off, rows_sq[0])
        leaks[2, rs] = np.einsum("rci,rci->rc", col_off, comm_col) + np.einsum(
            "rcj,cj->rc", row_off, rows_sq[1]
        )
    return tuple(np.sqrt(leaks))


def _squared(entries: np.ndarray) -> np.ndarray:
    return entries.real ** 2 + entries.imag ** 2


def verify_order_preservation(
    system: SpinSystem,
    trials: int = 100,
    seed: int = 0,
    tol: float = 1e-10,
) -> PropertyReport:
    """Order-0 members never shift the order of a definite-order operator.

    For ``trials`` random order-0 members Z (unit Frobenius norm) and
    every one of the 4^n shift base operators Q of order p, the products
    Z@Q and Q@Z and the commutator are formed on their support and their
    weight at orders other than p is measured. All three residuals must
    stay below ``tol``. ``trials`` must be an integer of at least 1.

    A trial costs O(8^n) time and O(4^n) memory. Its units are taken in
    passes over blocks of unit rows of at most 2^16 product entries
    (every row at once for n <= 5, one row at a time for n >= 8), and a
    pass adds about 0.6 MB at most up to n = 8.
    """
    trials = _integer(trials, "trials", 1)
    n = system.n
    report = PropertyReport("order_preservation", n)
    rng = np.random.default_rng(seed)

    for trial in range(trials):
        z = _random_member(rng, SubspaceTag.ZERO_QUANTUM, n)
        zm = z / max(float(np.linalg.norm(z)), 1e-300)
        leaks = _order_leaks(zm, n)
        for key, leak in zip(("left", "right", "commutator"), leaks):
            report._record(key, float(leak.max()), tol, f"trial {trial}")
        report.checks += 3 * zm.size
    return report


def verify_extreme_states(
    system: SpinSystem,
    combos: int = 50,
    seed: int = 0,
    tol: float = 1e-12,
) -> PropertyReport:
    """The all-up and all-down states are zero modes of every coherence.

    Exhaustively applies each off-diagonal order-0 base operator to the
    first and last basis vectors, demanding exact zeros, then draws
    Hermitian combinations of those operators and checks that both
    extreme states remain eigenvectors with eigenvalue 0 within ``tol``.
    ``combos`` must be an integer of at least 0.
    """
    combos = _integer(combos, "combos", 0)
    n = system.n
    dim = system.dim
    report = PropertyReport("extreme_states", n)
    rows, cols, labels = zq_offdiagonal_cells(n)

    e_first = np.zeros(dim, dtype=complex)
    e_first[0] = 1.0
    e_last = np.zeros(dim, dtype=complex)
    e_last[-1] = 1.0

    for state, which in ((e_first, "all-up"), (e_last, "all-down")):
        # E_rc e = e_r e[c]: each cell's product is e[c] at row r
        hit = state[cols]
        worst = float(np.abs(hit).max()) if len(rows) else 0.0
        report._record(f"basis_{which}", worst, 0.0, "exhaustive base sweep")
        report.checks += len(rows)

    rng = np.random.default_rng(seed)
    for trial in range(combos):
        coeff = rng.standard_normal(len(labels)) + 1j * rng.standard_normal(len(labels))
        raw = np.zeros((dim, dim), dtype=complex)
        raw[rows, cols] = coeff
        h = _hermitian_part(raw)
        for state, which in ((e_first, "all-up"), (e_last, "all-down")):
            residual = float(np.linalg.norm(h @ state))
            report._record(f"combo_{which}", residual, tol, f"combination {trial}")
        report.checks += 2
    return report
