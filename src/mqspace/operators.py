"""Spin systems, product base operators and operator-space expansions.

Conventions used throughout the package:

* A system of ``n`` spin-1/2 particles has Hilbert dimension ``2**n`` and
  operator-space dimension ``4**n``.
* Computational basis states are indexed by integers whose binary digits
  give the spin orientations. Spin 1 owns the most significant bit and a
  bit value of 0 means that spin points up. Index 0 is therefore the
  all-up state and index ``2**n - 1`` the all-down state.
* The coherence order of a matrix element ``(row, col)`` is
  ``popcount(col) - popcount(row)``, the difference in the number of down
  spins between the two states. Raising operators carry order +1.
* Cartesian product base operators carry the conventional ``2**(q-1)``
  prefactor, ``q`` being the number of non-identity factors, so every
  base operator has squared Frobenius norm ``2**(n-2)`` and the two-spin
  products come out unit norm at ``n = 2``.
* Shift base operators are tensor products of ``alpha``, ``beta``,
  ``plus`` and ``minus`` single-spin matrices and are exactly the
  elementary matrix units, each with a sharp coherence order equal to
  the number of plus factors minus the number of minus factors.

Expansion coefficients are Hilbert-Schmidt projections divided by the
squared norm of each base operator, which makes reported amplitudes
directly comparable to the product-operator literature.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from .errors import ConfigurationError, ToleranceError

__all__ = [
    "SpinSystem",
    "Operator",
    "BaseOperatorSpec",
    "OperatorExpansion",
    "CARTESIAN",
    "SHIFT",
    "max_spins",
    "single_spin_matrix",
    "build_operator",
    "enumerate_basis",
    "hs_inner",
    "expand",
    "reconstruct",
    "coherence_order_of_element",
    "order_components",
    "spin_operator",
    "total_z",
    "identity_operator",
    "random_operator",
    "commutator",
]

CARTESIAN = "cartesian"
SHIFT = "shift"

DEFAULT_MAX_SPINS = 12

CARTESIAN_FACTORS = ("e", "x", "y", "z")
SHIFT_FACTORS = ("a", "b", "+", "-")

HERMITIAN_HINT_TOL = 1e-12

_SINGLE_SPIN = {
    # basis order (up, down); bit 0 is up
    "e": np.eye(2, dtype=complex),
    "x": np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex),
    "y": np.array([[0.0, -0.5j], [0.5j, 0.0]], dtype=complex),
    "z": np.array([[0.5, 0.0], [0.0, -0.5]], dtype=complex),
    "a": np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex),
    "b": np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex),
    "+": np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex),
    "-": np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex),
}


def max_spins() -> int:
    """Spin-count ceiling, overridable through the MQSPACE_MAX_N variable."""
    raw = os.environ.get("MQSPACE_MAX_N")
    if raw is None:
        return DEFAULT_MAX_SPINS
    try:
        value = int(raw)
    except ValueError as exc:
        raise ConfigurationError(f"MQSPACE_MAX_N is not an integer: {raw!r}") from exc
    if value < 1:
        raise ConfigurationError(f"MQSPACE_MAX_N must be positive, got {value}")
    return value


def _integer(value, what: str, minimum: int | None = None) -> int:
    """``value`` as an ``int``; it must be a Python or numpy integer, not a bool.

    With ``minimum`` given, a smaller value is refused as well.
    """
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ConfigurationError(f"{what} must be an integer, got {value!r}")
    value = int(value)
    if minimum is not None and value < minimum:
        raise ConfigurationError(f"{what} must be at least {minimum}, got {value}")
    return value


def _real(value, what: str, minimum: float | None = None) -> float:
    """``value`` as a finite ``float``; it must be a Python or numpy int or float.

    A bool, a string and an integer too large for a float are refused, and
    with ``minimum`` given, a smaller value is refused as well.
    """
    if not isinstance(value, (int, float, np.integer, np.floating)) or isinstance(value, bool):
        raise ConfigurationError(f"{what} must be a real number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:
        raise ConfigurationError(f"{what} is too large for a float") from None
    if not math.isfinite(value):
        raise ConfigurationError(f"{what} must be finite, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigurationError(f"{what} must be at least {minimum}, got {value!r}")
    return value


def single_spin_matrix(factor: str) -> np.ndarray:
    """Return the 2x2 matrix for one single-spin factor.

    Cartesian factors are ``e``, ``x``, ``y``, ``z`` (identity and the
    three spin-1/2 angular momentum components). Shift factors are
    ``a``, ``b``, ``+``, ``-`` (up projector, down projector, raising,
    lowering).
    """
    try:
        return _SINGLE_SPIN[factor].copy()
    except KeyError:
        raise ConfigurationError(f"unknown single-spin factor {factor!r}") from None


@dataclass(frozen=True)
class SpinSystem:
    """A register of ``n`` coupled spin-1/2 particles.

    Parameters
    ----------
    n : int
        Number of spins, between 1 and :func:`max_spins`. A numpy integer
        is stored as the equal ``int``; a bool is refused.
    """

    n: int

    def __post_init__(self):
        ceiling = max_spins()
        object.__setattr__(self, "n", _integer(self.n, "spin count"))
        if not 1 <= self.n <= ceiling:
            raise ConfigurationError(
                f"spin count {self.n} outside the supported range 1..{ceiling}"
            )

    @property
    def dim(self) -> int:
        """Hilbert-space dimension ``2**n``."""
        return 1 << self.n

    def down_counts(self) -> np.ndarray:
        """Number of down spins for every computational basis index."""
        return _down_counts(self.n).copy()

    def magnetizations(self) -> np.ndarray:
        """Total z quantum number ``n/2 - down_count`` per basis index."""
        return self.n / 2.0 - _down_counts(self.n)


@lru_cache(maxsize=None)
def _down_counts(n: int) -> np.ndarray:
    counts = np.bitwise_count(np.arange(1 << n, dtype=np.uint32)).astype(np.int64)
    counts.setflags(write=False)
    return counts


@lru_cache(maxsize=None)
def _element_orders(n: int) -> np.ndarray:
    """Matrix of coherence orders, entry (r, c) = popcount(c) - popcount(r).

    Orders lie in -n..n, so the read-only table is int8: an eighth of the
    int64 size, and comparisons against it stay in int8.
    """
    pc = _down_counts(n).astype(np.int8)
    orders = pc[None, :] - pc[:, None]
    orders.setflags(write=False)
    return orders


class Operator(object):
    """A dense complex matrix attached to a spin system.

    Instances are immutable: the entry array is copied on construction
    and marked read only. When ``hermitian_hint`` is True the entries
    are checked against the adjoint at a relative 1e-12 tolerance, so a
    True hint can be trusted downstream. ``None`` means unknown and
    ``False`` means known non-Hermitian; neither is checked.
    """

    __slots__ = ("system", "_entries", "hermitian_hint")

    def __init__(self, system: SpinSystem, entries, hermitian_hint: bool | None = None):
        arr = np.array(entries, dtype=complex, copy=True)
        if arr.shape != (system.dim, system.dim):
            raise ConfigurationError(
                f"operator shape {arr.shape} does not match system dimension {system.dim}"
            )
        if hermitian_hint is True:
            defect = float(np.max(np.abs(arr - arr.conj().T))) if arr.size else 0.0
            scale = _frobenius(arr)
            # written so that a NaN defect or scale is refused too
            if not defect <= HERMITIAN_HINT_TOL * scale:
                raise ToleranceError(
                    "hermitian_hint is set but max asymmetry "
                    f"{defect:.3e} exceeds {HERMITIAN_HINT_TOL:.0e} * {scale:.3e}"
                )
        arr.setflags(write=False)
        self.system = system
        self._entries = arr
        self.hermitian_hint = hermitian_hint

    @property
    def entries(self) -> np.ndarray:
        """Read-only view of the matrix entries."""
        return self._entries

    def adjoint(self) -> "Operator":
        return Operator(self.system, self._entries.conj().T, self.hermitian_hint)

    def trace(self) -> complex:
        return complex(np.trace(self._entries))

    def norm(self) -> float:
        """Frobenius norm of the entries; see :func:`_frobenius`."""
        return _frobenius(self._entries)

    def hermiticity_defect(self) -> float:
        """Largest absolute difference between the entries and their adjoint."""
        return float(np.max(np.abs(self._entries - self._entries.conj().T)))

    def _require_same_system(self, other: "Operator"):
        if self.system.n != other.system.n:
            raise ConfigurationError(
                f"dimension mismatch: {self.system.n} spins vs {other.system.n}"
            )

    def __add__(self, other):
        if not isinstance(other, Operator):
            return NotImplemented
        self._require_same_system(other)
        hint = True if (self.hermitian_hint is True and other.hermitian_hint is True) else None
        return Operator(self.system, self._entries + other._entries, hint)

    def __sub__(self, other):
        if not isinstance(other, Operator):
            return NotImplemented
        self._require_same_system(other)
        hint = True if (self.hermitian_hint is True and other.hermitian_hint is True) else None
        return Operator(self.system, self._entries - other._entries, hint)

    def __neg__(self):
        return Operator(self.system, -self._entries, self.hermitian_hint)

    def __mul__(self, scalar):
        if not isinstance(scalar, (int, float, complex)):
            return NotImplemented
        real = isinstance(scalar, (int, float)) or scalar.imag == 0.0
        hint = True if (self.hermitian_hint is True and real) else None
        return Operator(self.system, self._entries * scalar, hint)

    __rmul__ = __mul__

    def __matmul__(self, other):
        if not isinstance(other, Operator):
            return NotImplemented
        self._require_same_system(other)
        return Operator(self.system, self._entries @ other._entries, None)

    def __repr__(self):
        return f"Operator(n={self.system.n}, hermitian_hint={self.hermitian_hint})"


def hs_inner(a: Operator, b: Operator) -> complex:
    """Hilbert-Schmidt inner product ``trace(adjoint(a) @ b)``.

    Conjugate linear in the first argument, linear in the second.
    """
    a._require_same_system(b)
    return complex(np.vdot(a.entries, b.entries))


def commutator(a: Operator, b: Operator) -> Operator:
    a._require_same_system(b)
    return Operator(a.system, a.entries @ b.entries - b.entries @ a.entries, None)


def _adopt(system: SpinSystem, arr: np.ndarray, hermitian_hint: bool | None = None) -> Operator:
    """Wrap a freshly allocated array without the defensive copy.

    Internal fast path: the caller must own ``arr`` exclusively, hand it
    over with the right shape and dtype, and set a True hint only when
    the entries are Hermitian by construction.
    """
    op = Operator.__new__(Operator)
    arr.setflags(write=False)
    op.system = system
    op._entries = arr
    op.hermitian_hint = hermitian_hint
    return op


def _frobenius(arr: np.ndarray) -> float:
    """Frobenius norm of ``arr``, the scale of every relative tolerance guard.

    A norm that overflows to inf is a :class:`ToleranceError`, since
    ``tol * inf`` would accept any residual. A NaN norm is returned, for
    the guards to refuse.
    """
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(arr))
    if norm == np.inf:
        raise ToleranceError(
            "operator's Frobenius norm overflows to inf (largest entry "
            f"magnitude {float(np.max(np.abs(arr))):.3e}), so no relative "
            "tolerance can be applied"
        )
    return norm


def _ensure_hermitian(op: Operator, tol: float, what: str) -> None:
    """Accept a trusted hint or verify Hermiticity; NaN entries fail."""
    if op.hermitian_hint is True:
        return
    defect = op.hermiticity_defect()
    if not defect <= tol * max(op.norm(), 1.0):
        raise ToleranceError(
            f"{what} is not Hermitian: measured asymmetry {defect:.3e} "
            f"exceeds the {tol:.0e} relative tolerance"
        )


_CART_LABEL = re.compile(r"([0-9]*)(?:I[1-9][0-9]*[xyz])+")
_SHIFT_LABEL = re.compile(r"(?:[ab][1-9][0-9]*|I[1-9][0-9]*[+-])+")
# one factor token of either kind: I<spin><axis or +/-> or <a/b><spin>
_TOKEN = re.compile(r"I([0-9]+)([xyz+-])|([ab])([0-9]+)")


def _shift_label(factors, first: int = 1) -> str:
    """Shift-label text of ``factors``, the first of them on spin ``first``."""
    return "".join(
        f"{f}{k}" if f in ("a", "b") else f"I{k}{f}"
        for k, f in enumerate(factors, first)
    )


@dataclass(frozen=True)
class BaseOperatorSpec:
    """Symbolic description of one product base operator.

    ``kind`` is ``"cartesian"`` or ``"shift"`` and ``factors`` holds one
    single-spin factor per spin, spin 1 first. Cartesian factors come
    from ``{e, x, y, z}`` and carry an implied ``2**(q-1)`` prefactor
    with ``q`` the number of non-``e`` entries; shift factors come from
    ``{a, b, +, -}`` and the expanded matrix is an elementary unit.
    """

    kind: str
    factors: tuple[str, ...]

    def __post_init__(self):
        if self.kind not in (CARTESIAN, SHIFT):
            raise ConfigurationError(f"unknown basis kind {self.kind!r}")
        object.__setattr__(self, "factors", tuple(self.factors))
        if not self.factors:
            raise ConfigurationError("a base operator needs at least one factor")
        alphabet = CARTESIAN_FACTORS if self.kind == CARTESIAN else SHIFT_FACTORS
        for f in self.factors:
            if f not in alphabet:
                raise ConfigurationError(
                    f"factor {f!r} is not valid for the {self.kind} basis"
                )

    @property
    def n(self) -> int:
        return len(self.factors)

    @property
    def prefactor(self) -> float:
        if self.kind == SHIFT:
            return 1.0
        q = sum(1 for f in self.factors if f != "e")
        return 2.0 ** (q - 1)

    @property
    def shift_order(self) -> int | None:
        """Sharp coherence order for shift specs, None for Cartesian ones."""
        if self.kind != SHIFT:
            return None
        return self.factors.count("+") - self.factors.count("-")

    @property
    def label(self) -> str:
        if self.kind == SHIFT:
            return _shift_label(self.factors)
        tokens = [f"I{k + 1}{f}" for k, f in enumerate(self.factors) if f != "e"]
        if not tokens:
            return "E/2"
        if len(tokens) == 1:
            return tokens[0]
        return str(2 ** (len(tokens) - 1)) + "".join(tokens)

    @classmethod
    def from_label(cls, label: str, n: int) -> "BaseOperatorSpec":
        """Parse a canonical label back into a spec for an ``n``-spin system.

        Parsing is case sensitive and takes the whole string (a trailing
        newline too). Spins are 1-indexed ASCII numbers without leading
        zeros, in strictly ascending order. Cartesian labels must carry the
        exact ``2**(q-1)`` prefactor (omitted when it equals one) and
        shift labels must mention every spin exactly once.
        """
        if not isinstance(label, str):
            raise ConfigurationError(f"label must be a string, got {label!r}")
        if label == "E/2":
            return cls(CARTESIAN, ("e",) * n)

        cart = _CART_LABEL.fullmatch(label)
        if not cart and not _SHIFT_LABEL.fullmatch(label):
            raise ConfigurationError(f"unparseable base operator label {label!r}")
        # a Cartesian prefactor holds no token, so both kinds scan the whole label
        tokens = _TOKEN.findall(label)
        factors = ["e" if cart else None] * n
        last = 0
        for i_spin, i_factor, ab_factor, ab_spin in tokens:
            spin, factor = int(i_spin or ab_spin), i_factor or ab_factor
            if spin <= last:
                raise ConfigurationError(
                    f"label {label!r}: spins must be strictly ascending"
                )
            if spin > n:
                raise ConfigurationError(
                    f"label {label!r}: spin {spin} exceeds system size {n}"
                )
            factors[spin - 1] = factor
            last = spin
        if cart:
            q = len(tokens)
            expected = "" if q == 1 else str(2 ** (q - 1))
            if cart[1] != expected:
                raise ConfigurationError(
                    f"label {label!r}: prefactor {cart[1] or '1'!r} does not match "
                    f"the canonical 2**(q-1) convention for q={q}"
                )
        elif None in factors:
            raise ConfigurationError(
                f"label {label!r}: shift labels must mention every spin once"
            )
        return cls(CARTESIAN if cart else SHIFT, tuple(factors))


def build_operator(system: SpinSystem, spec: BaseOperatorSpec) -> Operator:
    """Expand a base operator spec into its dense matrix.

    Cartesian results carry a trusted Hermitian hint; shift results are
    elementary matrix units and the hint is left unknown.
    """
    if spec.n != system.n:
        raise ConfigurationError(
            f"spec covers {spec.n} spins but the system has {system.n}"
        )
    out = _SINGLE_SPIN[spec.factors[0]]
    for f in spec.factors[1:]:
        out = np.kron(out, _SINGLE_SPIN[f])
    out = spec.prefactor * out
    hint = True if spec.kind == CARTESIAN else None
    return Operator(system, out, hint)


def enumerate_basis(system: SpinSystem, kind: str) -> list[BaseOperatorSpec]:
    """All ``4**n`` base operator specs of one kind, in canonical order.

    The enumeration runs the spin-1 factor slowest with factor order
    ``e, x, y, z`` (Cartesian) or ``a, b, +, -`` (shift); expansions and
    the command line listing follow the same order.
    """
    if kind not in (CARTESIAN, SHIFT):
        raise ConfigurationError(f"unknown basis kind {kind!r}")
    alphabet = CARTESIAN_FACTORS if kind == CARTESIAN else SHIFT_FACTORS
    return [BaseOperatorSpec(kind, fs) for fs in product(alphabet, repeat=system.n)]


@lru_cache(maxsize=8)
def _basis_labels(n: int, kind: str) -> tuple[str, ...]:
    return tuple(s.label for s in enumerate_basis(SpinSystem(n), kind))


def _dual_matrix(kind: str) -> np.ndarray:
    """4x4 map from per-spin (row, col) cells onto factor coefficients."""
    if kind == CARTESIAN:
        duals = [
            0.5 * _SINGLE_SPIN["e"],
            2.0 * _SINGLE_SPIN["x"],
            2.0 * _SINGLE_SPIN["y"],
            2.0 * _SINGLE_SPIN["z"],
        ]
    else:
        duals = [_SINGLE_SPIN[f] for f in SHIFT_FACTORS]
    return np.conj(np.stack([d.reshape(4) for d in duals]))


def _primal_matrix(kind: str) -> np.ndarray:
    factors = CARTESIAN_FACTORS if kind == CARTESIAN else SHIFT_FACTORS
    return np.stack([_SINGLE_SPIN[f].reshape(4) for f in factors])


def _to_cells(entries: np.ndarray, n: int) -> np.ndarray:
    """Reshape a 2**n square matrix into an n-axis tensor of 4-cells."""
    t = entries.reshape((2,) * (2 * n))
    order = [ax for k in range(n) for ax in (k, n + k)]
    return t.transpose(order).reshape((4,) * n)

def _from_cells(cells: np.ndarray, n: int) -> np.ndarray:
    t = cells.reshape((2,) * (2 * n))
    order = [ax for k in range(n) for ax in (k, n + k)]
    return t.transpose(np.argsort(order)).reshape(1 << n, 1 << n)


def _coefficient_tensor(entries: np.ndarray, n: int, kind: str) -> np.ndarray:
    """Coefficients of the plain factor products, as a (4,)*n tensor."""
    t = _to_cells(entries, n)
    w = _dual_matrix(kind)
    for k in range(n):
        t = np.moveaxis(np.tensordot(w, t, axes=([1], [k])), 0, k)
    return t


def _reconstruct_tensor(coeffs: np.ndarray, n: int, kind: str) -> np.ndarray:
    t = coeffs
    m = _primal_matrix(kind)
    for k in range(n):
        t = np.moveaxis(np.tensordot(m, t, axes=([0], [k])), 0, k)
    return _from_cells(t, n)


@lru_cache(maxsize=16)
def _prefactor_scale(n: int) -> np.ndarray:
    """2**(1-q) per Cartesian factor tuple, q = number of non-e factors."""
    counts = np.zeros((4,) * n)
    marker = np.array([0.0, 1.0, 1.0, 1.0])
    for k in range(n):
        shape = [1] * n
        shape[k] = 4
        counts = counts + marker.reshape(shape)
    scale = 2.0 ** (1.0 - counts)
    scale.setflags(write=False)
    return scale


@dataclass(frozen=True)
class OperatorExpansion:
    """Result of projecting an operator onto a complete product basis.

    ``coefficients`` maps canonical labels to complex amplitudes; exact
    zeros are omitted. ``residual`` is the Frobenius norm of the
    difference between the source operator and its reconstruction.
    """

    basis_kind: str
    coefficients: dict[str, complex]
    residual: float


def expand(q: Operator, kind: str) -> OperatorExpansion:
    """Expand an operator in the Cartesian or shift product basis.

    The coefficient of each base operator ``B`` is
    ``hs_inner(B, q) / hs_inner(B, B)``, so summing
    ``coefficient * B`` over the returned labels reproduces ``q``.
    """
    if kind not in (CARTESIAN, SHIFT):
        raise ConfigurationError(f"unknown basis kind {kind!r}")
    n = q.system.n
    coeff = _coefficient_tensor(q.entries, n, kind)
    if kind == CARTESIAN:
        base_coeff = coeff * _prefactor_scale(n)
    else:
        base_coeff = coeff
    labels = _basis_labels(n, kind)
    flat = base_coeff.reshape(-1)
    coefficients = {
        labels[i]: complex(flat[i]) for i in np.nonzero(flat)[0]
    }
    recon = _reconstruct_tensor(coeff, n, kind)
    residual = float(np.linalg.norm(q.entries - recon))
    return OperatorExpansion(kind, coefficients, residual)


def reconstruct(system: SpinSystem, expansion: OperatorExpansion) -> Operator:
    """Rebuild the dense operator described by an expansion."""
    n = system.n
    kind = expansion.basis_kind
    if kind not in (CARTESIAN, SHIFT):
        raise ConfigurationError(f"unknown basis kind {kind!r}")
    alphabet = CARTESIAN_FACTORS if kind == CARTESIAN else SHIFT_FACTORS
    coeff = np.zeros((4,) * n, dtype=complex).reshape(-1)
    for label, value in expansion.coefficients.items():
        spec = BaseOperatorSpec.from_label(label, n)
        if spec.kind != kind:
            raise ConfigurationError(
                f"label {label!r} does not belong to the {kind} basis"
            )
        # the factors are base-4 digits, spin 1 the most significant, as
        # in enumerate_basis
        index = 0
        for f in spec.factors:
            index = 4 * index + alphabet.index(f)
        coeff[index] = value
    coeff = coeff.reshape((4,) * n)
    if kind == CARTESIAN:
        coeff = coeff / _prefactor_scale(n)
    return Operator(system, _reconstruct_tensor(coeff, n, kind))


def coherence_order_of_element(system: SpinSystem, row: int, col: int) -> int:
    """Coherence order ``popcount(col) - popcount(row)`` of one element.

    Equivalently the difference ``m(row) - m(col)`` of total z quantum
    numbers, so elements of raising type carry positive order. ``row``
    and ``col`` follow :func:`_integer`: a float or a bool is refused,
    never truncated.
    """
    row, col = _integer(row, "row index"), _integer(col, "column index")
    dim = system.dim
    if not (0 <= row < dim and 0 <= col < dim):
        raise ConfigurationError(
            f"element ({row}, {col}) outside the 0..{dim - 1} index range"
        )
    return col.bit_count() - row.bit_count()


def order_components(q: Operator) -> dict[int, Operator]:
    """Split an operator into its coherence-order components.

    Component ``p`` keeps exactly the matrix elements whose coherence
    order is ``p`` and zeros everything else; the components sum back to
    the input. Orders whose component vanishes identically are omitted,
    so a diagonal operator yields the single key 0.
    """
    orders = _element_orders(q.system.n)
    out: dict[int, Operator] = {}
    # every order in -n..n has elements
    for p in range(-q.system.n, q.system.n + 1):
        comp = np.where(orders == p, q.entries, 0.0)
        if not comp.any():
            continue
        out[p] = Operator(q.system, comp)
    return out


def spin_operator(system: SpinSystem, k: int, factor: str) -> Operator:
    """Single-spin operator for spin ``k`` (1-indexed) embedded in the register.

    ``k`` follows :func:`_integer`: a float or a bool is refused, never
    truncated.
    """
    k = _integer(k, "spin index")
    if not 1 <= k <= system.n:
        raise ConfigurationError(f"spin index {k} outside 1..{system.n}")
    if factor not in _SINGLE_SPIN:
        raise ConfigurationError(f"unknown single-spin factor {factor!r}")
    before = 1 << (k - 1)
    after = 1 << (system.n - k)
    out = np.kron(np.kron(np.eye(before), _SINGLE_SPIN[factor]), np.eye(after))
    hint = True if factor in ("x", "y", "z", "a", "b") else None
    return Operator(system, out, hint)


def total_z(system: SpinSystem) -> Operator:
    """Total z angular momentum, the diagonal of per-state magnetizations."""
    return Operator(system, np.diag(system.magnetizations().astype(complex)), True)


def identity_operator(system: SpinSystem) -> Operator:
    return Operator(system, np.eye(system.dim, dtype=complex), True)


def random_operator(
    system: SpinSystem, rng: np.random.Generator, hermitian: bool = False
) -> Operator:
    """Dense Gaussian random operator, optionally symmetrized.

    The fresh entries are adopted without a copy: a Hermitian draw is
    exactly Hermitian by construction, so its hint needs no check.
    """
    a = _gaussian_entries(rng, system.dim, hermitian)
    return _adopt(system, a, True if hermitian else None)


def _gaussian_entries(
    rng: np.random.Generator, dim: int, hermitian: bool = False
) -> np.ndarray:
    """The entries of :func:`random_operator`, as a fresh plain array.

    The real parts of all ``dim * dim`` entries are drawn first, row by
    row, then the imaginary parts; a Hermitian draw is the average of
    that matrix and its adjoint. Sweeps that need many random operators
    call this directly and skip the ``Operator`` wrapper, reading the
    generator in exactly the same order. Each part is drawn into a
    temporary and copied into one complex array, which then equals ``x +
    1j * y`` for the draws ``x`` and ``y``, without that formula's two
    further temporaries.
    """
    a = np.empty((dim, dim), dtype=complex)
    a.real = rng.standard_normal((dim, dim))
    a.imag = rng.standard_normal((dim, dim))
    if hermitian:
        _hermitian_part(a)
    return a


def _hermitian_part(r: np.ndarray) -> np.ndarray:
    """Fold ``r`` into ``(r + r^H) / 2`` and return the fold.

    The result is exactly Hermitian: the fold removes roundoff asymmetry.
    ``r`` must be a writable array the caller owns. Beside it the fold
    holds only the conjugate transpose, and it writes into whichever of
    the two is C-ordered: ``r`` itself, unless ``r`` is a transposed view,
    so callers read rows without a copy. The bytes equal those of
    ``0.5 * (r + r.conj().T)``.
    """
    if r.flags.c_contiguous:
        r += r.conj().T
        r *= 0.5
        return r
    h = r.conj().T
    h += r
    h *= 0.5
    return h
