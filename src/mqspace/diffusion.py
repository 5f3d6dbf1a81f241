"""Longitudinal magnetization transfer runs over a time grid.

A run starts from a diagonal base operator, evolves it under a
zero-quantum Hamiltonian and records the amplitude bins at every grid
point. Two engines produce the same trace: a full-space conjugation per
time point, and a block-wise path that evolves each magnetization block
independently and therefore touches far fewer matrix entries. Purging
is modeled algebraically by zeroing the spin-order and coherence bins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np

from .errors import ConfigurationError
from .operators import CARTESIAN, BaseOperatorSpec, Operator, SpinSystem, _integer
from .subspaces import zq_offdiagonal_cells
from .dynamics import (
    AmplitudeProfile,
    HamiltonianSpec,
    _blockwise_cells,
    _dense_cells,
    _diagonal_groups,
    _hamiltonian_blocks,
    _label_cell,
    _profile,
    _walsh_bin,
    build_hamiltonian,
)

__all__ = [
    "DiffusionConfig",
    "DiffusionTrace",
    "linear_times",
    "purge",
    "run_diffusion",
    "run_blockwise",
    "channel_discrepancy",
]

TrackSpec = Union[str, tuple]


def linear_times(start: float, end: float, points: int) -> tuple[float, ...]:
    """Uniform grid of ``points`` times from ``start`` to ``end`` inclusive."""
    points = _integer(points, "the number of grid times")
    if points < 2:
        raise ConfigurationError(f"a time grid needs at least 2 points, got {points}")
    if not (math.isfinite(start) and math.isfinite(end)):
        raise ConfigurationError(
            f"time grid ends must be finite, got start={start!r} end={end!r}"
        )
    if not 0 <= start < end:
        raise ConfigurationError(
            f"need 0 <= start < end, got start={start!r} end={end!r}"
        )
    return tuple(float(t) for t in np.linspace(start, end, points))


@dataclass(frozen=True)
class DiffusionConfig:
    """Frozen description of one transfer experiment.

    ``times`` is always an explicit grid here; use :func:`linear_times`
    to build a uniform one. ``track`` is either the string ``"all"`` or
    a tuple of channel labels; ``initial`` must name a traceless
    diagonal base operator (so ``"E/2"`` is rejected).
    """

    system: SpinSystem
    hamiltonian: HamiltonianSpec
    times: tuple[float, ...]
    initial: str = "I1z"
    purge: bool = False
    track: TrackSpec = "all"

    def __post_init__(self) -> None:
        times = tuple(float(t) for t in self.times)
        if not times:
            raise ConfigurationError("time grid is empty")
        if not all(math.isfinite(t) for t in times):
            raise ConfigurationError(f"times must be finite, got {times!r}")
        if times[0] < 0:
            raise ConfigurationError(f"times must be non-negative, got {times[0]!r}")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ConfigurationError("time grid must be strictly increasing")
        object.__setattr__(self, "times", times)

        spec = BaseOperatorSpec.from_label(self.initial, self.system.n)
        if spec.kind != CARTESIAN or any(f not in ("e", "z") for f in spec.factors):
            raise ConfigurationError(
                f"initial operator {self.initial!r} is not diagonal"
            )
        if all(f == "e" for f in spec.factors):
            raise ConfigurationError(
                "initial operator 'E/2' has trace; transfer runs start from "
                "a traceless diagonal base operator"
            )

        if isinstance(self.track, str):
            if self.track != "all":
                raise ConfigurationError(
                    f"track must be 'all' or a tuple of channel labels, got {self.track!r}"
                )
        else:
            track = tuple(str(lab) for lab in self.track)
            if not track:
                raise ConfigurationError("track list is empty; use 'all' or labels")
            for lab in track:
                cell = _label_cell(lab, self.system.n)
                # subset 0 is the identity "E/2", which is no channel
                if cell is None or cell == (True, 0):
                    raise ConfigurationError(
                        f"unknown channel label {lab!r} for n={self.system.n}"
                    )
            if len(set(track)) != len(track):
                raise ConfigurationError("track list repeats a label")
            object.__setattr__(self, "track", track)

    def tracked_labels(self) -> tuple[str, ...]:
        """Tracked channel labels: longitudinal, spin-order, then coherence."""
        if self.track != "all":
            return self.track
        (_, longitudinal), (_, orders) = _diagonal_groups(self.system.n)
        return longitudinal + orders + zq_offdiagonal_cells(self.system.n)[2]


@dataclass(frozen=True)
class DiffusionTrace:
    """Time series produced by one run.

    The binned amplitudes are held in three read-only arrays with one row
    per grid point: ``coefficients`` is ``(T, 2**n)`` real, the
    coefficient of the all-z base operator of every spin subset in
    :func:`itertools.product` order over ``"ez"`` (spin 1 the most
    significant bit, so column 0 is the identity); ``coherences`` is
    ``(T, cells)`` complex, the off-diagonal zero-quantum entries in
    :func:`~mqspace.subspaces.zq_offdiagonal_cells` order; ``residuals``
    is ``(T,)``, the Frobenius weight outside the zero-quantum pattern.
    ``conserved`` is the inner product of the total-z operator with the
    evolved state, constant whenever the Hamiltonian commutes with total
    z. ``track`` is the run's :attr:`DiffusionConfig.track`.
    ``block_sizes`` maps each magnetization block ``k`` to its d(k)^2
    entries for the block-wise engine, and is None otherwise; it counts
    entries, not the arithmetic done, which the spin-flip reductions of
    :func:`run_blockwise` lower for mirrored and split blocks.

    The label-keyed views are built from these arrays on first read and
    kept. ``channels`` maps each tracked label to a real array over the
    grid; coherence channels report magnitudes since their amplitudes
    are complex. Under ``track="all"`` it holds T floats for every
    channel label, ``binomial(2n, n) - 1`` of them. ``undesired`` lists
    the tracked labels other than the single-spin longitudinal ones, and
    ``profiles`` presents the binned numbers as one
    :class:`~mqspace.dynamics.AmplitudeProfile` per grid point.
    """

    times: tuple[float, ...]
    coefficients: np.ndarray
    coherences: np.ndarray
    residuals: np.ndarray
    conserved: np.ndarray
    track: TrackSpec
    engine: str
    block_sizes: dict[int, int] | None = None

    @property
    def _n(self) -> int:
        return self.coefficients.shape[1].bit_length() - 1

    @cached_property
    def channels(self) -> dict[str, np.ndarray]:
        """Tracked label to channel series, built on first access."""
        # one row per channel in label order, one column per time
        if self.track == "all":
            (long_idx, longitudinal), (order_idx, orders) = _diagonal_groups(self._n)
            labels = longitudinal + orders + zq_offdiagonal_cells(self._n)[2]
            n_diag = len(long_idx) + len(order_idx)
            table = np.empty((len(labels), len(self.times)))
            table[:n_diag] = self.coefficients[:, np.concatenate([long_idx, order_idx])].T
            table[n_diag:] = np.abs(self.coherences).T
        else:
            labels = self.track
            table = np.array([
                self.coefficients[:, i] if diagonal else np.abs(self.coherences[:, i])
                for diagonal, i in (_label_cell(lab, self._n) for lab in labels)
            ])
        return dict(zip(labels, table))

    @cached_property
    def undesired(self) -> tuple[str, ...]:
        """Tracked labels other than single-spin longitudinal ones."""
        (_, longitudinal), (_, orders) = _diagonal_groups(self._n)
        if self.track == "all":
            return orders + zq_offdiagonal_cells(self._n)[2]
        return tuple(lab for lab in self.track if lab not in longitudinal)

    @cached_property
    def profiles(self) -> tuple[AmplitudeProfile, ...]:
        """One amplitude profile per grid point, built on first access."""
        return tuple(
            _profile(self._n, t, coeff, zqc, residual)
            for t, coeff, zqc, residual in zip(
                self.times, self.coefficients, self.coherences, self.residuals.tolist()
            )
        )


def purge(profile: AmplitudeProfile) -> AmplitudeProfile:
    """Zero the spin-order and coherence bins, keeping their keys.

    The longitudinal bin and the identity coefficient pass through
    untouched, so purging is idempotent and never grows the norm of the
    reconstructed operator.
    """
    return AmplitudeProfile(
        time=profile.time,
        identity=profile.identity,
        longitudinal=dict(profile.longitudinal),
        spin_orders={lab: 0.0 for lab in profile.spin_orders},
        zqc={lab: 0j for lab in profile.zqc},
        residual=profile.residual,
    )


def _initial_diagonal(config: DiffusionConfig) -> np.ndarray:
    """Initial operator's diagonal, ``0.5 * (-1)**popcount(S & i)`` exactly.

    ``S`` is the spin subset of the config's all-z label.
    """
    n = config.system.n
    _, subset = _label_cell(config.initial, n)
    return 0.5 - (np.bitwise_count(subset & np.arange(1 << n)) & 1)


def _assemble(
    config: DiffusionConfig,
    cells,
    engine: str,
    block_sizes: dict[int, int] | None,
) -> DiffusionTrace:
    """Bin each time's ``(diag, zqc, residual)`` cells into the trace."""
    n = config.system.n
    (long_idx, _), (order_idx, _) = _diagonal_groups(n)
    points = len(config.times)
    coefficients = np.empty((points, 1 << n))
    # every zero-quantum cell off the diagonal
    coherences = np.empty((points, math.comb(2 * n, n) - (1 << n)), dtype=complex)
    residuals = np.empty(points)
    for i, (diag, zqc, residual) in enumerate(cells):
        coefficients[i] = _walsh_bin(n, diag, zqc, residual)
        coherences[i] = zqc
        residuals[i] = residual
    if config.purge:
        coefficients[:, order_idx] = 0.0
        coherences[:] = 0.0
    for arr in (coefficients, coherences, residuals):
        arr.setflags(write=False)

    # conserved = <F_z, rho(t)>; each I_kz has squared norm 2^(n-2); the
    # rows are summed one after another, in label order
    longitudinal = np.ascontiguousarray(coefficients[:, long_idx].T)
    return DiffusionTrace(
        times=config.times,
        coefficients=coefficients,
        coherences=coherences,
        residuals=residuals,
        conserved=2.0 ** (n - 2) * longitudinal.sum(axis=0),
        track=config.track,
        engine=engine,
        block_sizes=block_sizes,
    )


def run_diffusion(config: DiffusionConfig) -> DiffusionTrace:
    """Full-space engine: one propagator conjugation per grid point.

    This is the dense reference for :func:`run_blockwise`: every grid
    point conjugates the full ``2^n x 2^n`` operator and measures the
    weight left outside the zero-quantum pattern.
    """
    h = build_hamiltonian(config.system, config.hamiltonian)
    q0 = Operator(config.system, np.diag(_initial_diagonal(config)), True)
    cells = (_dense_cells(h, q0, t) for t in config.times)
    return _assemble(config, cells, "full", None)


def run_blockwise(config: DiffusionConfig) -> DiffusionTrace:
    """Block-wise engine: each magnetization block evolves on its own.

    The Hamiltonian is built as its ``n + 1`` magnetization blocks and the
    initial operator as its ``2^n`` diagonal of signs. Every block is
    diagonalized at most once and that vector's part rotated into its
    eigenbasis once; each grid point then costs at most two ``d(k) x d(k)``
    products per block, whose entries go straight into the amplitude bins,
    binned by one fast Walsh-Hadamard transform. An exactly real block
    takes real arithmetic, and blocks that the global spin flip maps
    exactly onto each other are evolved once (see
    :func:`~mqspace.dynamics._blockwise_cells`); so a named model's blocks
    ``k > n / 2`` are never diagonalized and, for even ``n``, the middle
    block is diagonalized as two halves. A named model never exists as a
    ``2^n x 2^n`` matrix; a custom one is realized densely once, to be
    checked and split.
    """
    n = config.system.n
    # no reference to the blocks is kept here: the cell generator frees
    # them before binning
    cells = _blockwise_cells(
        _hamiltonian_blocks(config.system, config.hamiltonian),
        _initial_diagonal(config),
        config.times,
    )
    sizes = {k: math.comb(n, k) ** 2 for k in range(n + 1)}
    return _assemble(config, cells, "blockwise", sizes)


def channel_discrepancy(a: DiffusionTrace, b: DiffusionTrace) -> np.ndarray:
    """Per-grid-point max absolute channel difference between two traces."""
    if a.times != b.times:
        raise ConfigurationError("traces cover different time grids")
    if set(a.channels) != set(b.channels):
        raise ConfigurationError("traces track different channels")
    if not a.channels:
        return np.zeros(len(a.times))
    stacked = np.stack(
        [np.abs(a.channels[lab] - b.channels[lab]) for lab in a.channels]
    )
    return stacked.max(axis=0)
