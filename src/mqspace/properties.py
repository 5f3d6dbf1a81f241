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
derived from index bookkeeping alone. Z E_rc is column c holding
Z[:, r], whose elements leave the unit's order exactly where the states
i and r differ in popcount, whatever c is; E_rc Z is row r holding
Z[c, :], out of order where j and c differ. So the order sweep sums
Z's masked squared entries down each column and along each row once
per trial, and every unit's three leaks are read from those two sums.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .operators import SpinSystem, _element_orders, _hermitian_part, _integer, _real
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


def _order_leaks(zm: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Out-of-order weight of ``Z E_rc``, ``E_rc Z`` and ``[Z, E_rc]`` per unit.

    ``E_rc`` is the shift base operator with its single 1 at (r, c).
    ``Z E_rc`` is the matrix whose column c holds ``Z[:, r]``, ``E_rc Z``
    the one whose row r holds ``Z[c, :]``, and the commutator is that
    column minus that row: ``Z[i, r] - delta_ir Z[c, c]`` down column c
    and ``Z[r, r] delta_jc - Z[c, j]`` along row r, the shared element
    (r, c) counted once, in the column. Entry [r, c] of each returned
    ``(2^n, 2^n)`` array is the Frobenius norm of the product's elements
    whose order differs from that of ``E_rc``.

    Element (i, c) of the column leaves the order of ``E_rc`` exactly
    when element (i, r) of Z is off order 0, and element (r, j) of the
    row exactly when element (c, j) of Z is. With ``off`` the squared
    magnitudes of Z's entries summed against the element-order mask,
    the left leak is the root of column r's sum and the right leak that
    of row c's. The commutator's delta terms and its shared element all
    sit at the unit's own order, so its leak is the root of both sums.
    """
    off = np.where(_element_orders(n) != 0, zm.real ** 2 + zm.imag ** 2, 0.0)
    col = off.sum(axis=0)[:, None]
    row = off.sum(axis=1)[None, :]
    return tuple(np.broadcast_to(np.sqrt(sums), zm.shape) for sums in (col, row, col + row))


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

    ``seed`` must be an integer of at least 0 and ``tol`` a finite real;
    a negative ``tol`` fails every check.

    A trial costs O(4^n) time and memory: every unit's leaks follow from
    one column sum and one row sum of Z's out-of-order weight.
    """
    trials = _integer(trials, "trials", 1)
    seed = _integer(seed, "seed", 0)
    tol = _real(tol, "tol")
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
    ``combos`` must be an integer of at least 0, ``seed`` an integer of
    at least 0 and ``tol`` a finite real.
    """
    combos = _integer(combos, "combos", 0)
    seed = _integer(seed, "seed", 0)
    tol = _real(tol, "tol")
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
