#!/usr/bin/env python3
"""Why confinement pays: block-wise versus dense evolution.

An operator that lives in the single-down-spin block of a ten-spin
system touches a 10x10 problem, not a 1024x1024 one. The Hamiltonian's
block spectra are built once from its spec, as a BlockSpectra value, and
that build is timed on its own. The block path is then timed as one
blockwise_conjugate call on the value; the dense path as one
expm_hermitian call, which decomposes the 1024x1024 Hamiltonian, and one
conjugation. Each path runs once before it is timed.
"""

import time

import numpy as np

from mqspace import (
    BlockSpectra,
    HamiltonianSpec,
    Operator,
    SpinSystem,
    blockwise_conjugate,
    build_hamiltonian,
    conjugate,
    expm_hermitian,
)

n = 10
system = SpinSystem(n)
spec = HamiltonianSpec("flipflop", couplings=((1, 2, 1.0),))
h = build_hamiltonian(system, spec)

begin = time.perf_counter()
spectra = BlockSpectra.from_spec(system, spec)
build_s = time.perf_counter() - begin

down = np.array([bin(i).count("1") for i in range(system.dim)])
idx = np.nonzero(down == 1)[0]
entries = np.zeros((system.dim, system.dim), dtype=complex)
entries[idx, idx] = 0.5 - (idx >> (n - 1)).astype(float)
q1 = Operator(system, entries, True)

blockwise_conjugate(spectra, q1, 1, 0.3)
conjugate(expm_hermitian(h, 0.3), q1)

begin = time.perf_counter()
fast = blockwise_conjugate(spectra, q1, 1, 0.7)
block_s = time.perf_counter() - begin

begin = time.perf_counter()
slow = conjugate(expm_hermitian(h, 0.7), q1)
full_s = time.perf_counter() - begin

agree = np.max(np.abs(fast.entries - slow.entries))
print(f"n = {n}: block spectra built once in {build_s * 1e3:.1f} ms")
print(f"block path {block_s * 1e3:.2f} ms, dense path {full_s * 1e3:.1f} ms")
print(f"speedup {full_s / block_s:.0f}x, results agree to {agree:.1e}")
