"""Numerical verification of the structural theorems about order-0 operators.

Two statements are checked by brute force rather than assumed. First,
multiplying any definite-order shift base operator by an order-0 member,
from either side or inside a commutator, never moves weight to a
different coherence order. Second, every off-diagonal order-0 base
operator annihilates the all-up and all-down basis states, so those two
states are exact zero-eigenvalue eigenvectors of any Hermitian
combination. Checks run on honest dense products; nothing is derived
from index bookkeeping alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .operators import (
    SpinSystem,
    _element_orders,
    random_operator,
)
from .subspaces import SubspaceTag, project, zq_offdiagonal_cells

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


def _unit_stack(n: int) -> tuple[np.ndarray, np.ndarray]:
    """All 4^n shift base operators as a dense stack plus their orders."""
    dim = 1 << n
    # unit r * dim + c has its single 1 at (r, c), flat position r * dim + c
    stack = np.eye(dim * dim, dtype=complex).reshape(dim * dim, dim, dim)
    return stack, _element_orders(n).reshape(-1)


def verify_order_preservation(
    system: SpinSystem,
    trials: int = 100,
    seed: int = 0,
    tol: float = 1e-10,
) -> PropertyReport:
    """Order-0 members never shift the order of a definite-order operator.

    For ``trials`` random order-0 members Z (unit Frobenius norm) and
    every one of the 4^n shift base operators Q of order p, the products
    Z@Q and Q@Z and the commutator are formed densely and their weight
    at orders other than p is measured. All three residuals must stay
    below ``tol``.
    """
    n = system.n
    report = PropertyReport("order_preservation", n)
    units, unit_orders = _unit_stack(n)
    element_orders = _element_orders(n)
    # off_mask[u] flags every element whose order differs from unit u's
    off_mask = element_orders[None, :, :] != unit_orders[:, None, None]
    rng = np.random.default_rng(seed)

    for trial in range(trials):
        z = project(random_operator(system, rng), SubspaceTag.ZERO_QUANTUM)
        zm = z.entries / max(z.norm(), 1e-300)
        left = np.matmul(zm[None, :, :], units)
        right = np.matmul(units, zm[None, :, :])
        comm = left - right
        for key, prod in (("left", left), ("right", right), ("commutator", comm)):
            leaked = np.where(off_mask, prod, 0.0)
            worst = float(np.linalg.norm(leaked.reshape(len(units), -1), axis=1).max())
            report._record(key, worst, tol, f"trial {trial}")
        report.checks += 3 * len(units)
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
    """
    n = system.n
    dim = system.dim
    report = PropertyReport("extreme_states", n)
    rows, cols, labels = zq_offdiagonal_cells(n)
    stack = np.zeros((len(rows), dim, dim), dtype=complex)
    stack[np.arange(len(rows)), rows, cols] = 1.0

    e_first = np.zeros(dim, dtype=complex)
    e_first[0] = 1.0
    e_last = np.zeros(dim, dtype=complex)
    e_last[-1] = 1.0

    for state, which in ((e_first, "all-up"), (e_last, "all-down")):
        hit = np.matmul(stack, state)
        worst = float(np.abs(hit).max()) if len(stack) else 0.0
        report._record(f"basis_{which}", worst, 0.0, "exhaustive base sweep")
        report.checks += len(stack)

    rng = np.random.default_rng(seed)
    for trial in range(combos):
        coeff = rng.standard_normal(len(labels)) + 1j * rng.standard_normal(len(labels))
        raw = np.tensordot(coeff, stack, axes=(0, 0))
        h = 0.5 * (raw + raw.conj().T)
        for state, which in ((e_first, "all-up"), (e_last, "all-down")):
            residual = float(np.linalg.norm(h @ state))
            report._record(f"combo_{which}", residual, tol, f"combination {trial}")
        report.checks += 2
    return report
