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
from functools import cached_property, lru_cache
from typing import Union

import numpy as np

from .errors import ConfigurationError
from .operators import (
    CARTESIAN,
    BaseOperatorSpec,
    SpinSystem,
    _integer,
    _real,
)
from .subspaces import _zq_cell_pairs, _zq_stored_cells, zq_offdiagonal_cells
from .dynamics import (
    AmplitudeProfile,
    HamiltonianSpec,
    _block_spectra,
    _blockwise_cells,
    _diagonal_groups,
    _hamiltonian_blocks,
    _label_cell,
    _profile,
    _walsh_bin,
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
    """Uniform grid of ``points`` times from ``start`` to ``end`` inclusive.

    The ends follow :func:`~mqspace.operators._real` (finite ints or
    floats, not bools or strings) and ``points`` follows
    :func:`~mqspace.operators._integer`.
    """
    points = _integer(points, "the number of grid times")
    if points < 2:
        raise ConfigurationError(f"a time grid needs at least 2 points, got {points}")
    # checked, not converted: np.linspace keeps a numpy float32 end's precision
    lo, hi = _real(start, "time grid start"), _real(end, "time grid end")
    if not 0 <= lo < hi:
        raise ConfigurationError(
            f"need 0 <= start < end, got start={start!r} end={end!r}"
        )
    return tuple(float(t) for t in np.linspace(start, end, points))


@dataclass(frozen=True)
class DiffusionConfig:
    """Frozen description of one transfer experiment.

    ``times`` is always an explicit grid here, each entry a non-negative
    :func:`~mqspace.operators._real`; use :func:`linear_times` to build
    a uniform one. ``track`` is either the string ``"all"`` or
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
        try:
            times = tuple(_real(t, "time", 0) for t in self.times)
        except TypeError:
            raise ConfigurationError(
                f"times must be a sequence of numbers, got {type(self.times).__name__}"
            ) from None
        if not times:
            raise ConfigurationError("time grid is empty")
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
                # subset 0 is the identity "E/2", which is no channel
                if _label_cell(lab, self.system.n) in (None, (True, 0)):
                    raise ConfigurationError(
                        f"unknown channel label {lab!r} for n={self.system.n}"
                    )
            if len(set(track)) != len(track):
                raise ConfigurationError("track list repeats a label")
            object.__setattr__(self, "track", track)

    def tracked_labels(self) -> tuple[str, ...]:
        """Tracked channel labels: longitudinal, spin-order, then coherence."""
        return _tracked_labels(self.system.n, self.track)


@lru_cache(maxsize=16)
def _every_channel_label(n: int) -> tuple[str, ...]:
    """Every channel label of ``n`` spins: longitudinal, spin-order, then coherence.

    The first ``n`` are the single-spin longitudinal labels, and the
    coherence labels come in :func:`~mqspace.subspaces.zq_offdiagonal_cells`
    order.
    """
    (_, longitudinal), (_, orders) = _diagonal_groups(n)
    return longitudinal + orders + zq_offdiagonal_cells(n)[2]


def _tracked_labels(n: int, track: TrackSpec) -> tuple[str, ...]:
    """The labels that ``track`` names for ``n`` spins, in channel order."""
    return _every_channel_label(n) if track == "all" else track


def _undesired(n: int, track: TrackSpec) -> tuple[str, ...]:
    """The labels ``track`` names other than the single-spin longitudinal ones."""
    if track == "all":
        return _every_channel_label(n)[n:]
    (_, longitudinal), _ = _diagonal_groups(n)
    return tuple(lab for lab in track if lab not in longitudinal)


def _label_series(labels: tuple[str, ...], table: np.ndarray, rows: np.ndarray) -> dict:
    """Each label's row of a channel table, the two labels of a shared row one array."""
    series = list(table)
    return {lab: series[r] for lab, r in zip(labels, rows.tolist())}


@dataclass(frozen=True)
class DiffusionTrace:
    """Time series produced by one run.

    The binned amplitudes are held in read-only arrays with one row per
    grid point: ``coefficients`` is ``(T, 2**n)`` real, the coefficient
    of the all-z base operator of every spin subset in
    :func:`itertools.product` order over ``"ez"`` (spin 1 the most
    significant bit, so column 0 is the identity); ``upper_coherences``
    is ``(T, cells / 2)`` complex, the off-diagonal zero-quantum entries
    ``(i, j)`` with ``i < j`` in block-major order: magnetization block
    ``k`` ascending, then the upper triangle of that block row-major over
    its states in ascending order, so each block's cells form one
    contiguous run; ``residuals`` is ``(T,)``, the Frobenius weight outside
    the zero-quantum pattern. The evolved operator is Hermitian, so cell
    ``(j, i)`` is the conjugate of ``(i, j)`` and is not stored.
    ``conserved``, read only as well, is the inner product of the total-z
    operator with the evolved state, constant whenever the Hamiltonian
    commutes with total z. ``track`` is the run's
    :attr:`DiffusionConfig.track`.
    ``block_sizes`` maps each magnetization block ``k`` to its d(k)^2
    entries for the block-wise engine, and is None otherwise; it counts
    entries, not the arithmetic done, which the spin-flip reductions of
    :func:`run_blockwise` lower for mirrored and split blocks.

    ``coherences`` is every off-diagonal cell, ``(T, cells)`` complex in
    :func:`~mqspace.subspaces.zq_offdiagonal_cells` order, read only. It
    is built on first read and kept, which adds ``T * cells * 16`` bytes
    to the trace: a lower cell copies its upper cell's real part and takes
    ``0.0 - imag`` as its imaginary part, the bits that the dense engine's
    Hermitian fold writes there.

    The label-keyed views are built from the stored arrays on first read
    and kept. ``channels`` maps each tracked label to a read-only real
    array over the grid; coherence channels report magnitudes since their
    amplitudes are complex, and the two labels of a conjugate pair share
    one array. Under ``track="all"`` it names all ``binomial(2n, n) - 1``
    channel labels, so a trace whose channels are read holds about ``T *
    cells * 12`` bytes: 16 per stored cell and 8 per channel array, for
    half the cells each. The channel arrays are rows of one ``(channels,
    T)`` table stored time-major, each time's channels contiguous, which
    :func:`_stream_table` fills one time at a time as it fills the table
    of ``mqspace evolve``; they outlive the trace: once the channels are
    taken, dropping the trace frees the 16 bytes per stored cell.
    :func:`channel_discrepancy` keeps neither view. ``undesired`` lists
    the tracked labels other than the single-spin longitudinal ones, and
    ``profiles`` presents the binned numbers as one
    :class:`~mqspace.dynamics.AmplitudeProfile` per grid point; it reads
    the stored upper cells one time at a time and builds no
    ``coherences``.
    """

    times: tuple[float, ...]
    coefficients: np.ndarray
    upper_coherences: np.ndarray
    residuals: np.ndarray
    conserved: np.ndarray
    track: TrackSpec
    engine: str
    block_sizes: dict[int, int] | None = None

    @property
    def _n(self) -> int:
        return self.coefficients.shape[1].bit_length() - 1

    @cached_property
    def coherences(self) -> np.ndarray:
        """Every off-diagonal zero-quantum cell per grid point, built on first read."""
        return _full_coherences(self._n, self.upper_coherences)

    def _points(self):
        """Each grid time's stored ``(coefficients, upper, residual)``, as
        :func:`_binned` yields them."""
        return zip(self.coefficients, self.upper_coherences, self.residuals)

    @cached_property
    def _channel_table(self) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
        """``(labels, table, rows)``: the tracked labels, the read-only
        :func:`_stream_table` of the stored points, and each label's row of it."""
        table, rows, _ = _stream_table(self._n, self.track, self._points(), len(self.times))
        return _tracked_labels(self._n, self.track), table, rows

    @cached_property
    def channels(self) -> dict[str, np.ndarray]:
        """Tracked label to channel series, built on first access."""
        return _label_series(*self._channel_table)

    @cached_property
    def undesired(self) -> tuple[str, ...]:
        """Tracked labels other than single-spin longitudinal ones."""
        return _undesired(self._n, self.track)

    @cached_property
    def profiles(self) -> tuple[AmplitudeProfile, ...]:
        """One amplitude profile per grid point, built on first access."""
        n = self._n
        return tuple(
            _profile(n, t, coeff, _full_coherences(n, upper[None])[0], residual)
            for t, coeff, upper, residual in zip(
                self.times, self.coefficients, self.upper_coherences, self.residuals.tolist()
            )
        )


def _channel_cells(n: int, track: TrackSpec):
    """``(columns, positions, rows)``: where the channels ``track`` names are stored.

    A label's channel is a column of :attr:`DiffusionTrace.coefficients`,
    listed in ``columns``, or the magnitude of a cell of
    :attr:`DiffusionTrace.upper_coherences`, listed in ``positions``; each
    list keeps label order. ``rows[j]`` places label ``j`` in the columns
    followed by the positions. ``track="all"`` gives ``positions =
    slice(None)``: each stored cell once, read by both labels of its
    conjugate pair. The cell pair table is read only for a coherence label.
    """
    if track == "all":
        columns = np.concatenate([idx for idx, _ in _diagonal_groups(n)])
        return columns, slice(None), np.r_[
            np.arange(columns.size), columns.size + _zq_cell_pairs(n)[0]
        ]
    diagonal, index = map(np.array, zip(*(_label_cell(lab, n) for lab in track)))
    # a stable sort puts the diagonal labels first; its inverse is each label's place
    rows = np.argsort(np.argsort(~diagonal, kind="stable"))
    ranks = index[~diagonal]
    positions = _zq_cell_pairs(n)[0][ranks] if ranks.size else ranks
    return index[diagonal], positions, rows


def _channel_column(coefficients: np.ndarray, upper: np.ndarray, cells, out: np.ndarray):
    """Write one time's channels at :func:`_channel_cells` ``cells`` into ``out``.

    ``coefficients`` and ``upper`` are one time's rows of
    :attr:`DiffusionTrace.coefficients` and
    :attr:`DiffusionTrace.upper_coherences`. The coefficients come first,
    then the coherence magnitudes, which ``np.abs`` writes in place.
    """
    columns, positions, _ = cells
    out[: columns.size] = coefficients[columns]
    np.abs(upper[positions], out=out[columns.size :])
    return out


def _stream_table(n: int, track: TrackSpec, points, count: int):
    """``(table, rows, conserved)`` of ``count`` points, binned one time at a time.

    ``points`` yields each time's ``(coefficients, upper, residual)``, as
    :func:`_binned` yields them or :meth:`DiffusionTrace._points` reads
    them. Each time's :func:`_channel_column` of the channels ``track``
    names is one contiguous row of a time-major ``(count, rows)`` buffer,
    handed out read-only as its ``(rows, count)`` transpose; ``rows[j]`` is
    the row of the track's label ``j``. ``conserved`` is :func:`_conserved`
    of the points.
    """
    (long_idx, _), _ = _diagonal_groups(n)
    cells = _channel_cells(n, track)
    # every table row is some label's
    table = np.empty((count, int(cells[2].max()) + 1))
    longitudinal = np.empty((n, count))
    for i, (coefficients, upper, _) in enumerate(points):
        _channel_column(coefficients, upper, cells, table[i])
        longitudinal[:, i] = coefficients[long_idx]
    table.setflags(write=False)
    return table.T, cells[2], _conserved(n, longitudinal)


def _stream_gap(n: int, track: TrackSpec, columns, points) -> np.ndarray:
    """Per-time max absolute difference between ``columns``, one channel
    column per time, and the channels ``track`` names of ``points``.

    ``points`` is as :func:`_stream_table` takes it and ``columns`` as the
    transpose of its table gives them; each time is compared as it arrives,
    in one scratch column.
    """
    cells = _channel_cells(n, track)
    gap = np.empty(len(columns))
    x = np.empty(columns.shape[1])
    for i, ((coefficients, upper, _), column) in enumerate(zip(points, columns)):
        np.subtract(column, _channel_column(coefficients, upper, cells, x), out=x)
        gap[i] = np.abs(x, out=x).max()
    return gap


def _full_coherences(n: int, upper: np.ndarray) -> np.ndarray:
    """Every off-diagonal zero-quantum cell from the cells ``(i, j)``, ``i < j``.

    ``upper`` is ``(T, cells / 2)`` as :attr:`DiffusionTrace.upper_coherences`
    holds it. A lower cell takes its transpose's real part and ``0.0 - imag``:
    ``(a + conj(b)) / 2`` and ``(b + conj(a)) / 2`` have equal real parts and
    imaginary parts ``x`` and ``0.0 - x``, signed zeros included, where
    ``np.conj`` would write ``-0.0`` for ``x = 0.0``. Returns a read-only
    ``(T, cells)`` array.
    """
    position, lower = _zq_cell_pairs(n)
    full = upper[:, position]
    full.imag[:, lower] = 0.0 - full.imag[:, lower]
    full.setflags(write=False)
    return full


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


def _binned(n: int, cells, purge: bool):
    """Each time's ``(coefficients, upper, residual)`` as a trace stores them.

    ``cells`` yields ``(diag, upper, residual)`` per time, ``upper`` the
    cells ``(i, j)`` with ``i < j`` in
    :func:`~mqspace.subspaces._zq_stored_cells` order, a new array each
    time. ``diag`` is binned by :func:`~mqspace.dynamics._walsh_bin`, whose
    norm check sees the evolved cells; ``purge`` then zeroes the spin-order
    coefficients and, in place, the coherence cells.
    """
    _, (order_idx, _) = _diagonal_groups(n)
    for diag, upper, residual in cells:
        coefficients = _walsh_bin(n, diag, upper, residual)
        if purge:
            coefficients[order_idx] = 0.0
            upper[:] = 0.0
        yield coefficients, upper, residual


def _conserved(n: int, longitudinal: np.ndarray) -> np.ndarray:
    """``<F_z, rho(t)>`` per time from the C-contiguous ``(n, T)`` longitudinal
    coefficients.

    Each ``I_kz`` has squared norm ``2^(n-2)``; the rows are summed one
    after another, in label order. Returns a read-only ``(T,)`` array.
    """
    conserved = 2.0 ** (n - 2) * longitudinal.sum(axis=0)
    conserved.setflags(write=False)
    return conserved


def _block_sizes(n: int, engine: str) -> dict[int, int] | None:
    """:attr:`DiffusionTrace.block_sizes` of a run of ``engine``."""
    return None if engine == "full" else {k: math.comb(n, k) ** 2 for k in range(n + 1)}


def _engine_rows(config: DiffusionConfig, engine: str):
    """Each grid time's ``(coefficients, upper, residual)`` from ``engine``,
    ``"full"`` or ``"blockwise"``, on ``config``: its cells, :func:`_binned`.

    Both engines are generators over the grid. No reference to the
    Hamiltonian blocks is kept here: the full engine keeps their spectra,
    and allocates its three ``2^n x 2^n`` working arrays once, at its first
    cell, for the whole run; the block engine's generator frees the blocks
    before its first cell.
    """
    blocks = _hamiltonian_blocks(config.system, config.hamiltonian)
    q = _initial_diagonal(config)
    if engine == "full":
        cells = _dense_cells(_block_spectra(blocks), q, config.times)
    else:
        cells = _blockwise_cells(blocks, q, config.times)
    return _binned(config.system.n, cells, config.purge)


def _assemble(config: DiffusionConfig, engine: str) -> DiffusionTrace:
    """The trace of ``engine`` on ``config``: its :func:`_engine_rows`, stored."""
    n = config.system.n
    (long_idx, _), _ = _diagonal_groups(n)
    points = len(config.times)
    coefficients = np.empty((points, 1 << n))
    # the off-diagonal zero-quantum cells (i, j) with i < j
    upper_coherences = np.empty((points, (math.comb(2 * n, n) - (1 << n)) // 2), dtype=complex)
    residuals = np.empty(points)
    for i, row in enumerate(_engine_rows(config, engine)):
        coefficients[i], upper_coherences[i], residuals[i] = row
    for arr in (coefficients, upper_coherences, residuals):
        arr.setflags(write=False)
    return DiffusionTrace(
        times=config.times,
        coefficients=coefficients,
        upper_coherences=upper_coherences,
        residuals=residuals,
        conserved=_conserved(n, np.ascontiguousarray(coefficients[:, long_idx].T)),
        track=config.track,
        engine=engine,
        block_sizes=_block_sizes(n, engine),
    )


def run_diffusion(config: DiffusionConfig) -> DiffusionTrace:
    """Full-space engine: one propagator conjugation per grid point.

    This is the dense reference for :func:`run_blockwise`. It starts from
    the same inputs, the spectrum of every magnetization block of the
    Hamiltonian and the initial operator's ``2^n`` diagonal ``q``, but
    takes no spin-flip reduction and no block shortcut: every grid point
    writes each block's propagator into the full ``2^n x 2^n`` propagator
    ``u``, forms the full product ``(u * q) @ u^H`` (``u diag(q) u^H``),
    folds the cells it reads exactly Hermitian and measures the weight the
    product holds outside the zero-quantum pattern. It works on plain
    arrays, builds no dense Hamiltonian, and allocates its three ``2^n x
    2^n`` arrays once per run, not once per grid point.
    """
    return _assemble(config, "full")


def _dense_cells(spectra, q: np.ndarray, times):
    """Each time's ``(diag, upper, residual)`` of ``u diag(q) u^H``, ``u`` the
    dense propagator of the block spectra at that time.

    Three complex ``2^n x 2^n`` arrays live for the whole run: ``w``, the
    propagator scaled by ``q``; ``c``, its conjugate; and ``r``, the full
    product ``w @ c^T``. Each block's propagator is written into its cells
    of ``w`` and ``c`` at every time; no other cell of either is ever
    written, so both stay exact zeros outside the blocks. Each block's
    ``np.ix_`` and ``v^H`` are built once. :func:`_folded_cells`
    then reads the product's cells.
    """
    dim = q.size
    w, c = np.zeros((dim, dim), dtype=complex), np.zeros((dim, dim), dtype=complex)
    r = np.empty((dim, dim), dtype=complex)
    # a real v's conj() is v itself, so its v^H is a view, not a copy
    blocks = [(np.ix_(idx, idx), q[idx], e, v, v.conj().T) for idx, e, v in spectra]
    pattern = [ix for ix, *_ in blocks]
    for t in times:
        for ix, q_k, e, v, vh in blocks:
            p = (v * np.exp(-1j * e * t)) @ vh
            c[ix] = p.conj()
            p *= q_k
            w[ix] = p
        np.matmul(w, c.T, out=r)
        yield _folded_cells(r, pattern)


def _folded_cells(r: np.ndarray, pattern):
    """``(diag, upper, residual)`` of the product ``r``, folded Hermitian
    where it is read.

    Only the cells a trace stores are folded: the diagonal as ``d +
    conj(d)`` and each upper cell ``(i, j)`` as ``r[i, j] + conj(r[j,
    i])``, each then halved, the operations and bytes of
    :func:`~mqspace.operators._hermitian_part`'s fold of the whole array.
    ``pattern`` holds the ``np.ix_`` of every block, which together cover
    the zero-quantum pattern; they are zeroed in ``r``, in place, and the
    residual is the Frobenius norm of what is left, the weight outside the
    pattern before the fold, which the fold never increases.
    """
    rows, cols = _zq_stored_cells(len(r).bit_length() - 1)
    d = r.diagonal()
    diag = d + d.conj()
    diag *= 0.5
    upper, lower = r[rows, cols], r[cols, rows]
    upper += np.conjugate(lower, out=lower)
    upper *= 0.5
    for ix in pattern:
        r[ix] = 0.0
    return diag, upper, float(np.linalg.norm(r))


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
    :func:`~mqspace.dynamics._evolution_plan`); so a named model's blocks
    ``k > n / 2`` are never diagonalized and, for even ``n``, the middle
    block is diagonalized as two halves. A named model never exists as a
    ``2^n x 2^n`` matrix; a custom one is realized densely once, to be
    checked and split.
    """
    return _assemble(config, "blockwise")


def channel_discrepancy(a: DiffusionTrace, b: DiffusionTrace) -> np.ndarray:
    """Per-grid-point max absolute channel difference between two traces.

    The traces must share their time grid and spin count, and track the
    same channels: equal tracks, or tracks whose label sets are equal.
    Trace ``a``'s stored points fill a :func:`_stream_table` of its track,
    and :func:`_stream_gap` compares its columns with ``b``'s stored
    points, one time at a time; neither trace keeps a channel table, and
    under ``track="all"`` each conjugate pair of coherence channels is
    compared once.
    """
    if a.times != b.times:
        raise ConfigurationError("traces cover different time grids")
    if a._n != b._n:
        raise ConfigurationError("traces cover different spin counts")
    if a.track != b.track and set(_tracked_labels(a._n, a.track)) != set(
        _tracked_labels(b._n, b.track)
    ):
        raise ConfigurationError("traces track different channels")
    table, _, _ = _stream_table(a._n, a.track, a._points(), len(a.times))
    return _stream_gap(a._n, a.track, table.T, b._points())
