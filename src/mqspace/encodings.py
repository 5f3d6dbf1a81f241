"""Product-basis encodings and the permutation connecting them.

The computational encoding orders basis states by their binary index.
The magnetization-sorted encoding reorders them so the total-z
eigenvalue never increases from top to bottom, which makes every
equal-magnetization block contiguous. The permutation between the two
encodings is synthesized exactly from rank-one Hermitian reflection
generators.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError
from .operators import Operator, SpinSystem, _integer

__all__ = [
    "Encoding",
    "iz_sorted_encoding",
    "permutation_matrix",
    "synthesize_permutation",
    "reencode",
]


@dataclass(frozen=True)
class Encoding:
    """Bijection from basis positions to computational indices.

    ``permutation[p]`` is the computational index stored at position
    ``p``; each entry follows :func:`~mqspace.operators._integer`, so a
    float or a bool is refused, never truncated. The inverse array is
    derived at construction; both are kept as immutable tuples so an
    encoding can be hashed and reused.
    """

    permutation: tuple[int, ...]
    inverse: tuple[int, ...] = field(init=False)

    def __post_init__(self) -> None:
        perm = tuple(_integer(p, "permutation entry") for p in self.permutation)
        size = len(perm)
        if sorted(perm) != list(range(size)):
            raise ConfigurationError(
                f"permutation of length {size} is not a bijection on 0..{size - 1}"
            )
        inv = [0] * size
        for pos, idx in enumerate(perm):
            inv[idx] = pos
        object.__setattr__(self, "permutation", perm)
        object.__setattr__(self, "inverse", tuple(inv))

    @property
    def size(self) -> int:
        return len(self.permutation)

    @property
    def is_identity(self) -> bool:
        return all(p == i for i, p in enumerate(self.permutation))

    def cycles(self) -> list[tuple[int, ...]]:
        """Non-trivial cycles of the index-to-position map.

        Cycles follow ``inverse`` (where each computational index ends
        up), are listed in ascending order of their smallest element and
        start at that element. Fixed points are omitted.
        """
        out: list[tuple[int, ...]] = []
        seen = [False] * self.size
        for start in range(self.size):
            if seen[start] or self.inverse[start] == start:
                seen[start] = True
                continue
            cycle = [start]
            seen[start] = True
            nxt = self.inverse[start]
            while nxt != start:
                cycle.append(nxt)
                seen[nxt] = True
                nxt = self.inverse[nxt]
            out.append(tuple(cycle))
        return out


def iz_sorted_encoding(system: SpinSystem) -> Encoding:
    """Encoding that sorts basis states by descending total magnetization.

    The magnetization of index ``i`` is ``n/2 - popcount(i)``, so the
    sort is by ascending down-spin count. The sort is stable: indices
    with equal magnetization keep their ascending computational order,
    which pins a unique encoding for every ``n``.
    """
    order = np.argsort(system.down_counts(), kind="stable")
    return Encoding(tuple(int(i) for i in order))


def _check_size(enc: Encoding, system: SpinSystem) -> None:
    if enc.size != system.dim:
        raise ConfigurationError(
            f"encoding length {enc.size} does not match dimension {system.dim}"
        )


def permutation_matrix(enc: Encoding, system: SpinSystem) -> Operator:
    """Unitary 0/1 matrix sending computational state j to its position."""
    _check_size(enc, system)
    entries = np.eye(system.dim, dtype=complex)[list(enc.permutation), :]
    return Operator(system, entries)


def synthesize_permutation(
    enc: Encoding, system: SpinSystem
) -> list[tuple[Operator, float]]:
    """Exact generator factorization of the encoding's permutation matrix.

    Each non-trivial cycle is unrolled right to left into transpositions
    anchored at its smallest element; a transposition (i, j) is produced
    by the rank-one reflection generator G = |psi><psi| with
    psi = (e_i - e_j)/sqrt(2), since exp(-i*pi*G) = 1 - 2|psi><psi| swaps
    e_i and e_j with no residual phase. The ordered product of the
    returned exponentials (first entry leftmost) reproduces
    :func:`permutation_matrix` up to round-off only.
    """
    _check_size(enc, system)
    pairs: list[tuple[int, int]] = []
    for cycle in enc.cycles():
        anchor = cycle[0]
        for other in cycle[:0:-1]:
            pairs.append((anchor, other))

    out: list[tuple[Operator, float]] = []
    for i, j in pairs:
        psi = np.zeros(system.dim, dtype=complex)
        psi[i] = 1.0 / np.sqrt(2.0)
        psi[j] = -1.0 / np.sqrt(2.0)
        gen = Operator(system, np.outer(psi, psi.conj()), True)
        out.append((gen, float(np.pi)))
    return out


def reencode(q: Operator, enc: Encoding) -> Operator:
    """Conjugate an operator into the encoding's basis order.

    Equal to ``P @ q @ adjoint(P)`` with P from
    :func:`permutation_matrix`; computed by fancy indexing because a
    permutation similarity only moves entries. Row and column down-spin
    censuses are preserved, so subspace memberships survive reencoding
    as pattern statements even though the patterns themselves move.
    """
    _check_size(enc, q.system)
    perm = list(enc.permutation)
    entries = q.entries[np.ix_(perm, perm)]
    return Operator(q.system, entries, q.hermitian_hint)
