"""Zero-quantum Hamiltonians, exact propagators and amplitude profiles.

Propagators are built from Hermitian eigendecompositions rather than
scaling and squaring, which keeps them exactly unitary up to roundoff.
For zero-quantum generators the exponential factorizes over the
selective blocks, so the propagator is assembled block by block and an
operator confined to a single block can be evolved while touching only
that block's entries. Every block's spectrum comes from one function,
:func:`_block_spectra`, as read-only arrays, real for an exactly real
block: the block engine builds the spectra it needs once from the
Hamiltonian's blocks, skipping or halving those the global spin flip
relates, and a :class:`BlockSpectra` value holds every block's spectrum
for :func:`zq_propagator`, :func:`blockwise_conjugate` and
:func:`amplitude_profile` to share across calls. The dense transfer
engine builds every block's spectrum from the Hamiltonian's blocks, as
the block engine does but with no spin-flip reduction, and assembles
each full propagator from them as :func:`zq_propagator` does.

Conjugating a diagonal operator by a zero-quantum propagator scatters
its weight over three kinds of terms: single-spin longitudinal
amplitudes, multi-spin longitudinal product amplitudes and zero-quantum
coherence amplitudes. :func:`amplitude_profile` reports exactly that
split and the Frobenius weight, if any, left outside the zero-quantum
pattern.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from .errors import ConfigurationError, InvariantError, ToleranceError
from .operators import (
    CARTESIAN,
    HERMITICITY_TOL,
    BaseOperatorSpec,
    Operator,
    OperatorExpansion,
    SpinSystem,
    _adopt,
    _complex,
    _ensure_hermitian,
    _hermitian_part,
    _integer,
    _real,
    reconstruct,
)
from .subspaces import (
    MEMBERSHIP_TOL,
    SubspaceTag,
    _block_scatter,
    _block_states,
    _ensure_zero_quantum,
    _mask,
    _outside_weight,
    _zq_cell_rank,
    _zq_row_layout,
    _zq_stored_cells,
    zq_offdiagonal_cells,
)

__all__ = [
    "HamiltonianSpec",
    "BlockSpectra",
    "AmplitudeProfile",
    "HAMILTONIAN_MODELS",
    "build_hamiltonian",
    "expm_hermitian",
    "zq_propagator",
    "conjugate",
    "amplitude_profile",
    "blockwise_conjugate",
    "reconstruct_profile",
]

HAMILTONIAN_MODELS = ("flipflop", "dipolar_secular", "isotropic_j", "offsets", "custom")

# a coupling of strength J between spins k and l adds
# J * (zz * I_kz I_lz + flip * (I_k+ I_l- + I_k- I_l+)) for these (zz, flip)
_PAIR_WEIGHTS = {
    "flipflop": (0.0, 0.5),
    "dipolar_secular": (2.0, -0.5),
    "isotropic_j": (1.0, 0.5),
}


@dataclass(frozen=True)
class HamiltonianSpec:
    """Declarative description of a coupling Hamiltonian.

    ``couplings`` holds ``(k, l, value)`` triples with 1-indexed spins
    and is used by the pairwise models; ``offsets`` holds ``(k, value)``
    pairs for the longitudinal model; ``custom`` supplies an explicit
    operator expansion. Fields not used by the chosen model must stay
    empty, and each spin pair or spin may appear only once. Spin indices
    follow :func:`~mqspace.operators._integer` (bools and floats are
    refused, never truncated) and values :func:`~mqspace.operators._real`
    (finite ints or floats, not bools or strings); malformed terms are a
    :class:`ConfigurationError`.
    """

    model: str
    couplings: tuple[tuple[int, int, float], ...] = ()
    offsets: tuple[tuple[int, float], ...] = ()
    custom: OperatorExpansion | None = None

    def __post_init__(self):
        if self.model not in HAMILTONIAN_MODELS:
            raise ConfigurationError(
                f"unknown hamiltonian model {self.model!r}; "
                f"expected one of {', '.join(HAMILTONIAN_MODELS)}"
            )
        try:
            couplings = tuple(
                (k, l, _real(j, "coupling strength")) for (k, l, j) in self.couplings
            )
            offsets = tuple((k, _real(w, "offset")) for (k, w) in self.offsets)
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(f"malformed hamiltonian terms: {exc}") from exc
        couplings = tuple(
            (_integer(k, "spin index"), _integer(l, "spin index"), j)
            for k, l, j in couplings
        )
        offsets = tuple((_integer(k, "spin index"), w) for k, w in offsets)
        object.__setattr__(self, "couplings", couplings)
        object.__setattr__(self, "offsets", offsets)

        seen_pairs = set()
        for k, l, _ in couplings:
            if k < 1 or l < 1:
                raise ConfigurationError("spin indices are 1-based")
            if k == l:
                raise ConfigurationError(f"coupling of spin {k} with itself")
            pair = (min(k, l), max(k, l))
            if pair in seen_pairs:
                raise ConfigurationError(f"duplicate coupling for spins {pair}")
            seen_pairs.add(pair)
        seen_spins = set()
        for k, _ in offsets:
            if k < 1:
                raise ConfigurationError("spin indices are 1-based")
            if k in seen_spins:
                raise ConfigurationError(f"duplicate offset for spin {k}")
            seen_spins.add(k)

        if self.model == "offsets":
            if couplings or self.custom is not None:
                raise ConfigurationError(
                    "the offsets model takes only the offsets field"
                )
        elif self.model == "custom":
            if self.custom is None:
                raise ConfigurationError("the custom model needs an expansion")
            if couplings or offsets:
                raise ConfigurationError(
                    "the custom model takes only the custom field"
                )
        else:
            if offsets or self.custom is not None:
                raise ConfigurationError(
                    f"the {self.model} model takes only the couplings field"
                )


def build_hamiltonian(system: SpinSystem, spec: HamiltonianSpec) -> Operator:
    """Realize a Hamiltonian spec as a dense Hermitian operator.

    A custom expansion is rebuilt from its coefficients, verified to be
    Hermitian within 1e-10 and then symmetrized. A named model is the
    scatter of its :func:`_hamiltonian_blocks` into zeros, so the dense
    and the block form agree entry for entry.
    """
    if spec.model == "custom":
        realized = reconstruct(system, spec.custom)
        _ensure_hermitian(realized, "custom hamiltonian")
        return Operator(system, _hermitian_part(realized.entries.copy()), True)
    return _adopt(system, _block_scatter(system.dim, _hamiltonian_blocks(system, spec)), True)


def _hamiltonian_blocks(system: SpinSystem, spec: HamiltonianSpec):
    """``(state indices, block)`` of each selective block of the Hamiltonian.

    One pair per ``k``, ascending. A named model is built inside each
    block from bit operations and is exactly Hermitian and zero-quantum
    by construction: z terms are sign diagonals, and a flip-flop pair
    links each state ``s`` whose two bits differ to ``s ^ pair``, which
    sits in the same block. A custom expansion is realized densely and
    goes through :func:`_zq_blocks`.
    """
    n = system.n
    for k, l, _ in spec.couplings:
        if k > n or l > n:
            raise ConfigurationError(f"coupling ({k}, {l}) exceeds system size {n}")
    for k, _ in spec.offsets:
        if k > n:
            raise ConfigurationError(f"offset spin {k} exceeds system size {n}")
    if spec.model == "custom":
        return _zq_blocks(build_hamiltonian(system, spec))

    _, position = _zq_row_layout(n)
    blocks = []
    for idx in _block_states(n):
        diag = np.zeros(len(idx))
        h = np.zeros((len(idx), len(idx)), dtype=complex)
        for k, w in spec.offsets:
            diag += w * (0.5 - ((idx >> (n - k)) & 1))
        for k, l, j in spec.couplings:
            zz_weight, flip_weight = _PAIR_WEIGHTS[spec.model]
            pair = (1 << (n - k)) | (1 << (n - l))
            differ = np.bitwise_count(idx & pair) == 1
            if zz_weight:
                diag += (j * zz_weight) * np.where(differ, -0.25, 0.25)
            h[differ, position[idx[differ] ^ pair]] = j * flip_weight
        np.fill_diagonal(h, diag)
        blocks.append((idx, h))
    return blocks


def _zq_blocks(z: Operator):
    """``(state indices, block)`` of each selective block of a dense generator.

    ``z`` must be Hermitian within 1e-10 and pass the zero-quantum
    membership test, both measured on every call; the blocks are
    gathered and symmetrized.
    """
    _ensure_hermitian(z, "propagator generator")
    _ensure_zero_quantum(z, MEMBERSHIP_TOL, "propagator generator")
    return [
        (idx, _hermitian_part(z.entries[np.ix_(idx, idx)]))
        for idx in _block_states(z.system.n)
    ]


def _exactly_real(a: np.ndarray) -> np.ndarray:
    """``a``'s real part when its imaginary part is exactly 0, else ``a`` itself."""
    if np.iscomplexobj(a) and not a.imag.any():
        return a.real
    return a


def _propagator(w, v, t):
    """``v @ diag(exp(-iwt)) @ v^H``, the exponential of the spectrum ``(w, v)``."""
    return (v * np.exp(-1j * w * t)) @ v.conj().T


def _assembled_propagator(dim: int, spectra, t: float) -> np.ndarray:
    """The dense ``dim x dim`` propagator of block spectra at ``t``.

    ``spectra`` are :func:`_block_spectra` triples covering every selective
    block; each block's :func:`_propagator` is scattered into zeros.
    """
    return _block_scatter(dim, ((idx, _propagator(w, v, t)) for idx, w, v in spectra))


def _evolved_cells(r: np.ndarray):
    """``(diag, upper, residual)`` of a dense evolved operator's entries ``r``.

    The cells as :func:`_walsh_bin` takes them: the diagonal, the
    off-diagonal zero-quantum entries ``(i, j)`` with ``i < j`` in
    :func:`~mqspace.subspaces._zq_stored_cells` order and the Frobenius
    weight outside the zero-quantum pattern, measured by
    :func:`~mqspace.subspaces.is_member`'s rule. The diagonal is a copy, so
    the cells keep no reference to ``r``.
    """
    n = len(r).bit_length() - 1
    rows, cols = _zq_stored_cells(n)
    outside = _outside_weight(r, _mask(SubspaceTag.ZERO_QUANTUM, n))
    return r.diagonal().copy(), r[rows, cols], outside


def _block_spectra(blocks):
    """``(state indices, eigenvalues, eigenvectors)`` of each Hermitian piece.

    ``blocks`` are ``(state indices, block)`` pairs as :func:`_hamiltonian_blocks`
    or :func:`_zq_blocks` give them, or the flip sectors that
    :func:`_evolution_plan` cuts from a middle block, ``block = v @ diag(w) @
    v^H``. This is the one place a selective block is diagonalized: a block
    whose imaginary part is exactly 0 gets real eigenvectors. The result is
    a tuple of read-only arrays, safe to share between callers.
    """
    spectra = tuple((idx, *np.linalg.eigh(_exactly_real(block))) for idx, block in blocks)
    for _, w, v in spectra:
        w.setflags(write=False)
        v.setflags(write=False)
    return spectra


@dataclass(frozen=True, eq=False)
class BlockSpectra:
    """The spectrum of every selective block of one zero-quantum generator.

    ``blocks`` holds the read-only ``(state indices, eigenvalues,
    eigenvectors)`` triple of each block ``k = 0..n`` as
    :func:`_block_spectra` gives them. Build the value once with
    :meth:`from_spec`, which forms no ``2^n x 2^n`` matrix for a named
    model, or :meth:`from_operator`, and pass it to :func:`zq_propagator`,
    :func:`blockwise_conjugate` and :func:`amplitude_profile`: they then
    decompose nothing. Given an :class:`Operator` instead, they build a
    fresh value on every call. Values compare by identity.
    """

    system: SpinSystem
    blocks: tuple

    @classmethod
    def from_spec(cls, system: SpinSystem, spec: HamiltonianSpec) -> BlockSpectra:
        """The spectra of ``spec``'s Hamiltonian, from its :func:`_hamiltonian_blocks`."""
        return cls(system, _block_spectra(_hamiltonian_blocks(system, spec)))

    @classmethod
    def from_operator(cls, z: Operator) -> BlockSpectra:
        """The spectra of the generator ``z``, checked as :func:`_zq_blocks` checks it."""
        return cls(z.system, _block_spectra(_zq_blocks(z)))


def _spectra_of(z: BlockSpectra | Operator) -> BlockSpectra:
    """``z`` itself if it is a :class:`BlockSpectra`, else a fresh one of the generator ``z``."""
    return z if isinstance(z, BlockSpectra) else BlockSpectra.from_operator(z)


def expm_hermitian(h: Operator, t: float) -> Operator:
    """Unitary ``exp(-i h t)`` from the eigendecomposition of ``h``.

    This is the dense reference route: every call decomposes ``h``, in
    real arithmetic for an exactly real generator. ``t`` follows
    :func:`~mqspace.operators._real`; it is checked, not converted, so a
    numpy scalar keeps its own arithmetic.
    """
    _real(t, "time")
    _ensure_hermitian(h, "exponential generator")
    w, v = np.linalg.eigh(_exactly_real(h.entries))
    return _adopt(h.system, _propagator(w, v, t))


def zq_propagator(z: BlockSpectra | Operator, t: float) -> Operator:
    """Propagator of a zero-quantum generator, assembled block by block.

    ``z`` is the generator's :class:`BlockSpectra`, or the generator
    itself, which must be Hermitian and pass the zero-quantum membership
    test; anything else is rejected. The result carries weight only
    inside the zero-quantum pattern. ``t`` follows
    :func:`~mqspace.operators._real`, checked as in :func:`expm_hermitian`.
    """
    _real(t, "time")
    z = _spectra_of(z)
    return _adopt(z.system, _assembled_propagator(z.system.dim, z.blocks, t))


def conjugate(u: Operator, q: Operator) -> Operator:
    """Similarity transform ``u @ q @ adjoint(u)``.

    ``u`` is taken to be unitary; Hermitian inputs give exactly
    Hermitian outputs (the roundoff asymmetry is folded away).
    """
    u._require_same_system(q)
    r = u.entries @ q.entries @ u.entries.conj().T
    if q.hermitian_hint is True:
        return _adopt(u.system, _hermitian_part(r), True)
    return _adopt(u.system, r)


def _nonzero_parts(a: np.ndarray) -> int:
    """The number of nonzero real and imaginary parts of a complex array.

    An entry is nonzero exactly when one of its parts is, and -0.0 counts
    as zero, as it does in the complex count.
    """
    return int(np.count_nonzero(a.ravel(order="K").view(np.float64)))


def blockwise_conjugate(
    z: BlockSpectra | Operator, q_k: Operator, k: int, t: float
) -> Operator:
    """Evolve an operator confined to selective block ``k``.

    ``z`` is taken as in :func:`zq_propagator`. Only the ``binomial(n,
    k)`` square block of the generator is exponentiated and only that
    block of ``q_k`` is transformed, so the arithmetic touches
    ``binomial(n, k)**2`` entries instead of the full ``4**n``. The result
    is exact for block-confined operators because a zero-quantum
    propagator never mixes blocks; input support outside block ``k`` is
    rejected at a relative 1e-12 tolerance. ``t`` follows
    :func:`~mqspace.operators._real`, checked as in :func:`expm_hermitian`.
    """
    q_k._require_same_system(z)
    k = _integer(k, "block index")
    _real(t, "time")
    if not 0 <= k <= z.system.n:
        raise ConfigurationError(f"block index {k} outside 0..{z.system.n}")

    idx, w, v = _spectra_of(z).blocks[k]
    sub = q_k.entries[np.ix_(idx, idx)]

    # support check: when every nonzero real or imaginary part sits inside
    # the block the out-of-block weight is exactly zero and no copy or norm
    # is needed; counting parts on float64 views is the cheaper count
    if _nonzero_parts(sub) != _nonzero_parts(q_k.entries):
        outside = q_k.entries.copy()
        outside[np.ix_(idx, idx)] = 0.0
        support_residual = float(np.linalg.norm(outside))
        # written so that a NaN residual is refused too
        if not support_residual <= 1e-12 * q_k.norm():
            raise ToleranceError(
                f"operator carries weight {support_residual:.3e} outside "
                f"selective block k={k} (dimension {len(idx)})"
            )

    u_small = _propagator(w, v, t)
    r_small = u_small @ sub @ u_small.conj().T
    hint = True if q_k.hermitian_hint is True else None
    if hint:
        r_small = _hermitian_part(r_small)
    return _adopt(z.system, _block_scatter(z.system.dim, [(idx, r_small)]), hint)


@dataclass(frozen=True)
class AmplitudeProfile:
    """Amplitudes of one conjugated operator at one time point.

    ``identity`` is the coefficient of the unit base operator and stays
    at zero for traceless inputs. ``longitudinal`` maps single-spin
    ``Ikz`` labels to real amplitudes, ``spin_orders`` does the same for
    products of two or more ``z`` factors and ``zqc`` maps off-diagonal
    zero-quantum unit labels to complex amplitudes. ``residual`` is the
    Frobenius weight outside the zero-quantum pattern, which vanishes
    for zero-quantum dynamics: within that pattern the bins are a
    complete, exact expansion.
    """

    time: float
    identity: float
    longitudinal: dict[str, float]
    spin_orders: dict[str, float]
    zqc: dict[str, complex]
    residual: float


@lru_cache(maxsize=16)
def _diagonal_labels(n: int) -> tuple[str, ...]:
    """Label of the all-z Cartesian base operator for every spin subset.

    Subset bits follow the basis-state convention, spin 1 the most
    significant, so the subsets come in :func:`itertools.product` order.
    """
    return tuple(BaseOperatorSpec(CARTESIAN, fs).label for fs in product("ez", repeat=n))


@lru_cache(maxsize=16)
def _diagonal_groups(n: int):
    """``(subset indices, labels)`` of the single-spin and the multi-spin z products."""
    labels = _diagonal_labels(n)
    weight = np.bitwise_count(np.arange(1 << n))
    groups = []
    for chosen in (weight == 1, weight > 1):
        idx = np.nonzero(chosen)[0]
        idx.setflags(write=False)
        groups.append((idx, tuple(labels[s] for s in idx.tolist())))
    return tuple(groups)


def _label_cell(label, n: int) -> tuple[bool, int] | None:
    """Where the amplitude a channel label names is kept.

    ``(True, s)`` for the all-z Cartesian operator of spin subset ``s``
    (``s`` as in :func:`_diagonal_labels`, so ``"E/2"`` is 0);
    ``(False, rank)`` for an off-diagonal zero-quantum unit, ``rank``
    its position in :func:`zq_offdiagonal_cells` order; None for anything
    else. Only canonical spellings parse, so each cell has one label.
    """
    try:
        spec = BaseOperatorSpec.from_label(label, n)
    except ConfigurationError:
        return None
    if spec.kind == CARTESIAN:
        if any(f not in ("e", "z") for f in spec.factors):
            return None
        return True, int("".join("1" if f == "z" else "0" for f in spec.factors), 2)
    # a and + leave the row bit up, a and - the column bit
    row = int("".join("0" if f in ("a", "+") else "1" for f in spec.factors), 2)
    col = int("".join("0" if f in ("a", "-") else "1" for f in spec.factors), 2)
    if row == col or row.bit_count() != col.bit_count():
        return None
    return False, int(_zq_cell_rank(n, row, col))


def _walsh(x: np.ndarray) -> np.ndarray:
    """``out[s] = sum_i (-1)**popcount(s & i) * x[i]``, spin 1 the top bit.

    The unnormalized fast Walsh-Hadamard transform of a ``2^n`` vector, one
    butterfly pass per bit (Fino & Algazi, IEEE Trans. Comput. C-25, 1142
    (1976)); the rows come in :func:`_diagonal_labels` order.
    """
    out = np.array(x)
    for bit in range(out.size.bit_length() - 1):
        pairs = out.reshape(-1, 2, 1 << bit)
        top, bottom = pairs[:, 0].copy(), pairs[:, 1]
        pairs[:, 0] += bottom
        pairs[:, 1] = top - bottom
    return out


def _walsh_bin(n: int, diag: np.ndarray, upper: np.ndarray, residual: float) -> np.ndarray:
    """Real base-operator coefficients of an evolved operator's diagonal.

    The Hermitian operator is given by its cells: ``diag``, the off-diagonal
    zero-quantum entries ``upper`` with ``i < j``, each standing for itself
    and its conjugate transpose, and the Frobenius weight ``residual``
    outside the zero-quantum pattern. Imaginary coefficient parts above
    1e-10 of its norm are an :class:`InvariantError`.
    """
    coeff = _walsh(diag) / float(2 ** (n - 1))
    norm = math.sqrt(
        np.vdot(diag, diag).real + 2 * np.vdot(upper, upper).real + residual**2
    )
    imag_peak = float(np.max(np.abs(coeff.imag))) if coeff.size else 0.0
    if imag_peak > HERMITICITY_TOL * max(norm, 1.0):
        raise InvariantError(
            f"longitudinal amplitudes acquired imaginary parts ({imag_peak:.3e})"
        )
    return coeff.real


def _profile(
    n: int, t: float, coeff: np.ndarray, zqc: np.ndarray, residual: float
) -> AmplitudeProfile:
    """Amplitude profile of binned coefficients and coherence cells."""
    (long_idx, long_labels), (order_idx, order_labels) = _diagonal_groups(n)
    _, _, unit_labels = zq_offdiagonal_cells(n)
    return AmplitudeProfile(
        t,
        float(coeff[0]),
        dict(zip(long_labels, coeff[long_idx].tolist())),
        dict(zip(order_labels, coeff[order_idx].tolist())),
        dict(zip(unit_labels, zqc.tolist())),
        residual,
    )


def _mirror_sign(near, far, q_near, q_far):
    """``s`` in (1, -1) when ``far`` is ``near`` and ``q_far`` is ``s * q_near``,
    each reversed on every axis, exactly; None otherwise."""
    if np.array_equal(far, near[::-1, ::-1]):
        for sign in (1, -1):
            if np.array_equal(q_far, sign * q_near[::-1]):
                return sign
    return None


def _sandwich(a, g, b):
    """``a @ g @ b^H`` for a C-contiguous complex ``g``.

    Viewed as float64, such a ``g`` holds its real and imaginary parts as
    interleaved columns, so real ``a`` and ``b`` multiply it in two real
    products of twice the width, about half the work of two complex ones.
    """
    if np.iscomplexobj(a) or np.iscomplexobj(b):
        return a @ g @ b.conj().T
    y = (a @ g.view(np.float64)).view(complex)
    return (b @ np.ascontiguousarray(y.T).view(np.float64)).view(complex).T


def _evolution_plan(blocks, q):
    """Everything the block engine needs that does not depend on time.

    ``blocks`` are a Hamiltonian's ``(state indices, H_k)`` pairs, as
    :func:`_hamiltonian_blocks` gives them, and ``q`` the ``2^n`` diagonal
    of the start. Returns one ``(split, products, triu, targets)`` entry per
    group of blocks that evolve together, in ascending ``k``.

    The global spin flip ``F|s> = |s ^ (2^n - 1)>`` maps block ``k`` onto
    block ``n - k`` with its states in reverse order, and ``q`` onto ``(-1)^m
    q`` for ``m`` z factors. When block ``n - k`` equals block ``k`` reversed
    on both axes, exactly, and its part of ``q`` is ``s`` times block ``k``'s
    reversed (:func:`_mirror_sign`), it joins block ``k``'s group: it is
    neither diagonalized nor evolved. For even ``n`` the middle block maps
    onto itself; when it is exactly centrosymmetric, ``[[A, C J], [J C, J A
    J]]`` with ``J`` the reversal, it is diagonalized as its two flip
    sectors ``A + C`` and ``A - C`` of half its size, and ``split`` is its
    sign ``(-1)^m``. Every other block is its own group, ``split`` None,
    and is diagonalized whole: every block of ``offsets`` (the flip
    reverses each offset) or of a custom model the flip does not preserve.

    Each group's one or two pieces go to :func:`_block_spectra`, so
    ``H = V diag(w) V^H``, and ``q``'s part is rotated once into the
    eigenbasis, ``Q = V^H diag(q[idx]) V``. ``products`` holds ``(wa, va, wb,
    vb, Q)`` per product: one for a whole block; for a split one two
    diagonal sector products for ``split = 1``, since ``q``'s part is then
    ``diag(q1, q1)`` in the sector basis (``q1`` its top half), or one
    off-diagonal one, ``X``, for ``split = -1``, where it is ``[[0, q1],
    [q1, 0]]``. ``triu`` is the ``np.triu_indices`` pair of the group's block
    size. ``targets`` holds ``(state indices, run, sign, mirrored)`` per block
    the group's evolved block is written to, times ``sign``: the block itself,
    and the mirrored block, which reads the evolved block reversed on both
    axes. ``run`` is the block's slice of
    :func:`~mqspace.subspaces._zq_stored_cells` order.
    """
    n = len(blocks) - 1
    starts = np.cumsum([0] + [len(idx) * (len(idx) - 1) // 2 for idx, _ in blocks]).tolist()
    plan, mirrored = [], set()
    for k, (idx, h) in enumerate(blocks):
        if k in mirrored:
            continue
        far_idx, far_h = blocks[n - k]
        sign = _mirror_sign(h, far_h, q[idx], q[far_idx]) if k <= n - k else None
        split = sign if k == n - k else None
        targets = [(idx, slice(starts[k], starts[k + 1]), 1, False)]
        if split is not None:
            p = len(idx) // 2
            a, c = h[:p, :p], h[:p, p:][:, ::-1]
            (part, wp, vp), (_, wm, vm) = _block_spectra([(idx[:p], a + c), (idx[:p], a - c)])
            bases = [(wp, vp, wp, vp), (wm, vm, wm, vm)] if split == 1 else [(wp, vp, wm, vm)]
        else:
            ((part, w, v),) = _block_spectra([(idx, h)])
            bases = [(w, v, w, v)]
            if sign is not None:  # k < n - k: block n - k is the mirror
                targets.append((far_idx, slice(starts[n - k], starts[n - k + 1]), sign, True))
                mirrored.add(n - k)
        # q's part rotated once into each pair of eigenbases
        products = [(wa, va, wb, vb, (va.conj().T * q[part]) @ vb) for wa, va, wb, vb in bases]
        plan.append((split, products, np.triu_indices(len(idx), 1), targets))
    return plan


def _evolved_block(split, products, t):
    """A group of :func:`_evolution_plan` evolved to time ``t``, one block.

    Each product evolves as ``Va (Q * outer(ea, conj(eb))) Vb^H``, ``e =
    exp(-iwt)``. A whole block is its one product, folded exactly
    Hermitian. A split block is reassembled from its two evolved sectors
    ``(R+, R-)``, or ``(X^H, X)`` for ``split = -1``: its top rows are
    ``[(R+ + R-) / 2, (R+ - R-) J / 2]`` and its bottom rows the flip image
    of the top ones, ``split`` times them reversed on both axes.
    """
    evolved = [
        _sandwich(va, rot * np.outer(np.exp(-1j * wa * t), np.exp(1j * wb * t)), vb)
        for wa, va, wb, vb, rot in products
    ]
    if split is None:
        return _hermitian_part(evolved[0])
    if split == 1:
        plus, minus = map(_hermitian_part, evolved)
    else:
        plus, minus = evolved[0].conj().T, evolved[0]
    top = np.hstack([0.5 * (plus + minus), (0.5 * (plus - minus))[:, ::-1]])
    return np.vstack([top, split * top[::-1, ::-1]])


def _blockwise_cells(blocks, q: np.ndarray, times):
    """Cells of the diagonal operator ``diag(q)`` evolved block by block, per time.

    ``blocks`` and ``q`` are as :func:`_evolution_plan` takes them; ``q`` is
    not checked, since a transfer config admits only traceless diagonals.
    At each time every group's :func:`_evolved_block` is written to its
    targets: its diagonal into one ``2^n`` vector and its upper triangle
    into the target block's run of
    :func:`~mqspace.subspaces._zq_stored_cells` order. No array is larger
    than a block or the ``2^n`` diagonal apart from the cells themselves,
    and the residual is exactly 0 by construction. Yields ``(diag, upper,
    0.0)`` per time.
    """
    n = q.size.bit_length() - 1
    plan = _evolution_plan(blocks, q)
    del blocks  # no Hamiltonian block is kept while binning
    n_stored = (math.comb(2 * n, n) - q.size) // 2  # the cells (i, j) with i < j
    for t in times:
        diag = np.empty(q.size, dtype=complex)
        upper = np.empty(n_stored, dtype=complex)
        for split, products, triu, targets in plan:
            r = _evolved_block(split, products, t)
            for idx, run, sign, mirrored in targets:
                src = r[::-1, ::-1] if mirrored else r
                diag[idx] = sign * np.diagonal(src)
                upper[run] = sign * src[triu]
        yield diag, upper, 0.0


def amplitude_profile(z: BlockSpectra | Operator, q: Operator, t: float) -> AmplitudeProfile:
    """Conjugate ``q`` by the propagator of ``z`` and bin the result.

    ``z`` is taken as in :func:`zq_propagator`; ``q`` must be Hermitian,
    traceless and a zero-quantum member. Violations are rejected with the
    measured residual; ``q`` is checked on every call. The result is
    ``conjugate(zq_propagator(z, t), q)``, whose out-of-pattern weight is
    :func:`~mqspace.subspaces.is_member`'s residual; for a diagonal ``q``
    the dense transfer engine reproduces those cells bit for bit. The
    longitudinal and spin-order amplitudes are real within 1e-10. ``t``
    follows :func:`~mqspace.operators._real`, checked as in
    :func:`expm_hermitian`.
    """
    _real(t, "time")
    _ensure_hermitian(q, "expanded operator")
    tr = abs(q.trace())
    if tr > 1e-10 * max(q.norm(), 1.0):
        raise ToleranceError(f"expanded operator has trace {tr:.3e}, expected 0")
    _ensure_zero_quantum(q, MEMBERSHIP_TOL, "expanded operator")
    r = conjugate(zq_propagator(z, t), q).entries
    diag, upper, residual = _evolved_cells(r)
    n = z.system.n
    rows, cols, _ = zq_offdiagonal_cells(n)
    return _profile(n, t, _walsh_bin(n, diag, upper, residual), r[rows, cols], residual)


def reconstruct_profile(system: SpinSystem, profile: AmplitudeProfile) -> Operator:
    """Dense operator described by the bins of an amplitude profile.

    Labels are looked up in tables over the diagonal and the coherence
    labels of ``n`` spins, built once per call. The identity, longitudinal
    and spin-order values follow :func:`~mqspace.operators._real` and the
    coherence values :func:`~mqspace.operators._complex`.
    """
    n = system.n
    subsets = dict(zip(_diagonal_labels(n), range(1 << n)))
    rows, cols, units = zq_offdiagonal_cells(n)
    ranks = dict(zip(units, range(len(units))))
    coeff = np.zeros(1 << n)
    coeff[0] = _real(profile.identity, "identity amplitude")
    for lab, value in (profile.longitudinal | profile.spin_orders).items():
        if lab not in subsets:
            raise ConfigurationError(f"label {lab!r} is not diagonal for n={n}")
        coeff[subsets[lab]] = _real(value, f"amplitude of {lab}")
    cells, values = [], []
    for lab, value in profile.zqc.items():
        if lab not in ranks:
            raise ConfigurationError(
                f"label {lab!r} is not an off-diagonal zero-quantum unit for n={n}"
            )
        cells.append(ranks[lab])
        values.append(_complex(value, f"amplitude of {lab}"))
    entries = np.diag((0.5 * _walsh(coeff)).astype(complex))
    entries[rows[cells], cols[cells]] = values
    return Operator(system, entries)
