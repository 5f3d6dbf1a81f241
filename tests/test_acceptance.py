"""Acceptance sweep: one test per shipped guarantee, tolerances included.

Every test measures its own wall time against the budget it promises.
Reference values come from tests/oracles.py brute-force routes or from
closed-form combinatorics computed in place, never from the code under
test.
"""

import gc
import math
import time
import warnings

import numpy as np

import oracles
from mqspace import (
    BlockSpectra,
    DiffusionConfig,
    HamiltonianSpec,
    Operator,
    SpinSystem,
    SubspaceTag,
    amplitude_profile,
    block_dimension,
    blockwise_conjugate,
    build_hamiltonian,
    cascade,
    commutator,
    conjugate,
    decompose_zq,
    expm_hermitian,
    is_member,
    iz_sorted_encoding,
    permutation_matrix,
    project,
    random_operator,
    reconstruct_profile,
    reencode,
    run_blockwise,
    run_diffusion,
    spin_operator,
    subspace_dims,
    synthesize_permutation,
    total_z,
    verify_closure,
    verify_extreme_states,
    verify_order_preservation,
    zq_propagator,
)

TAGS = (
    SubspaceTag.LOMSO,
    SubspaceTag.ZERO_QUANTUM,
    SubspaceTag.EVEN_MQ,
    SubspaceTag.FULL,
)


def test_criterion_01_block_dimension_tables():
    started = time.perf_counter()
    for n in range(1, 13):
        census = [0] * (n + 1)
        for i in range(1 << n):
            census[bin(i).count("1")] += 1
        for k in range(n + 1):
            assert block_dimension(n, k) == math.comb(n, k)
            assert block_dimension(n, k) == census[k]
        total = sum(d * d for d in census)
        assert total == math.comb(2 * n, n)
        assert subspace_dims(n)[SubspaceTag.ZERO_QUANTUM] == total
    assert time.perf_counter() - started < 1.0


def test_criterion_02_two_spin_subspace_census():
    started = time.perf_counter()
    dims = subspace_dims(2)
    counted = {
        tag: int(oracles.pattern_mask(tag.value, 2).sum()) for tag in TAGS
    }
    assert counted[SubspaceTag.LOMSO] == dims[SubspaceTag.LOMSO] == 4
    assert counted[SubspaceTag.ZERO_QUANTUM] == dims[SubspaceTag.ZERO_QUANTUM] == 6
    assert counted[SubspaceTag.EVEN_MQ] == dims[SubspaceTag.EVEN_MQ] == 8
    assert counted[SubspaceTag.FULL] == dims[SubspaceTag.FULL] == 16
    for n in range(2, 7):
        chain = [subspace_dims(n)[tag] for tag in TAGS]
        assert chain[0] < chain[1] < chain[2] < chain[3]
    assert time.perf_counter() - started < 1.0


def test_criterion_03_closure_suite():
    started = time.perf_counter()
    for n in range(1, 6):
        system = SpinSystem(n)
        for tag in TAGS:
            report = verify_closure(tag, system, trials=200, seed=n, tol=1e-10)
            assert report.passed, f"{tag.value} n={n}: {report.violations[:3]}"
            assert report.checks == 600
    assert time.perf_counter() - started < 60.0


def test_criterion_04_two_spin_isomorphism():
    started = time.perf_counter()
    system = SpinSystem(2)

    def embedded(k, axis):
        return spin_operator(system, k, axis)

    x_like = embedded(1, "x") @ embedded(2, "y") - embedded(1, "y") @ embedded(2, "x")
    y_like = embedded(1, "x") @ embedded(2, "x") + embedded(1, "y") @ embedded(2, "y")
    z_like = 0.5 * (embedded(1, "z") - embedded(2, "z"))

    triples = (
        (x_like, y_like, z_like),
        (y_like, z_like, x_like),
        (z_like, x_like, y_like),
    )
    for a, b, c in triples:
        residual = commutator(a, b).entries - 1j * c.entries
        assert np.max(np.abs(residual)) <= 1e-12
    assert time.perf_counter() - started < 1.0


def test_criterion_05_propagators_and_transfer():
    started = time.perf_counter()
    for n in range(2, 7):
        couplings = tuple((k, k + 1, 1.0 / k) for k in range(1, n))
        h = build_hamiltonian(
            SpinSystem(n), HamiltonianSpec("dipolar_secular", couplings=couplings)
        )
        fast = zq_propagator(h, 0.8)
        full = expm_hermitian(h, 0.8)
        assert np.max(np.abs(fast.entries - full.entries)) <= 1e-10
        assert is_member(fast, SubspaceTag.ZERO_QUANTUM)
        profile = amplitude_profile(h, spin_operator(SpinSystem(n), 1, "z"), 0.8)
        assert profile.residual <= 1e-9

    # full transfer of the two-spin exchange pair at t = pi / J, against
    # an independently built 4x4 brute-force exponential
    system = SpinSystem(2)
    pair = HamiltonianSpec("flipflop", couplings=((1, 2, 1.0),))
    h2 = build_hamiltonian(system, pair)
    t_transfer = np.pi
    profile = amplitude_profile(h2, spin_operator(system, 1, "z"), t_transfer)
    assert abs(profile.longitudinal["I2z"] - 1.0) <= 1e-10
    assert abs(profile.longitudinal["I1z"]) <= 1e-10
    ref = oracles.evolve(
        oracles.hamiltonian(2, "flipflop", ((1, 2, 1.0),)),
        oracles.single_spin(2, 1, "z"),
        t_transfer,
    )
    rebuilt = reconstruct_profile(system, profile)
    assert np.max(np.abs(rebuilt.entries - ref)) <= 1e-10
    assert time.perf_counter() - started < 30.0


def test_criterion_06_block_confinement():
    started = time.perf_counter()
    cases = 0
    rng = np.random.default_rng(6)
    for n in range(2, 7):
        system = SpinSystem(n)
        for _ in range(4):
            z = project(
                random_operator(system, rng, hermitian=True),
                SubspaceTag.ZERO_QUANTUM,
            )
            q = project(
                random_operator(system, rng, hermitian=True),
                SubspaceTag.ZERO_QUANTUM,
            )
            parts = decompose_zq(q)
            assert np.array_equal(
                sum(c.entries for _, c in parts), q.entries
            )
            u = zq_propagator(z, 0.6)
            down_counts = np.array([bin(i).count("1") for i in range(system.dim)])
            for k, component in parts:
                moved = blockwise_conjugate(z, component, k, 0.6)
                reference = conjugate(u, component)
                assert np.max(np.abs(moved.entries - reference.entries)) <= 1e-10
                leak = moved.entries.copy()
                inside = np.nonzero(down_counts == k)[0]
                leak[np.ix_(inside, inside)] = 0.0
                assert not leak.any()
            cases += 1
    assert cases == 20
    assert time.perf_counter() - started < 60.0


def test_criterion_07_cascade_reduction():
    started = time.perf_counter()
    rng = np.random.default_rng(7)
    system = SpinSystem(4)
    for _ in range(20):
        raw = random_operator(system, rng, hermitian=True)
        h = (1.0 / raw.norm()) * raw
        result = cascade(h)
        assert result.residuals["even_mq"] <= 1e-8
        assert result.residuals["zero_quantum"] <= 1e-8
        assert result.residuals["lomso"] <= 1e-8
        assert result.stage_classes["v2_even_mq"]
        assert result.stage_classes["v3_zero_quantum"]
        assert result.spectrum_error <= 1e-8
    assert time.perf_counter() - started < 60.0


def test_criterion_08_structural_property_sweeps():
    started = time.perf_counter()
    for n in range(1, 6):
        system = SpinSystem(n)
        order = verify_order_preservation(system, trials=100, seed=8)
        assert order.passed, order.violations[:3]
        assert order.checks == 100 * 3 * 4**n
        extreme = verify_extreme_states(system, combos=100, seed=8)
        assert extreme.passed, extreme.violations[:3]
    assert time.perf_counter() - started < 120.0


def test_criterion_09_sorted_encoding():
    started = time.perf_counter()
    enc3 = iz_sorted_encoding(SpinSystem(3))
    assert list(enc3.permutation) == [0, 1, 2, 4, 3, 5, 6, 7]

    for n in (2, 3, 4):
        system = SpinSystem(n)
        enc = iz_sorted_encoding(system)
        product = np.eye(system.dim, dtype=complex)
        for gen, angle in synthesize_permutation(enc, system):
            product = product @ expm_hermitian(gen, angle).entries
        target = permutation_matrix(enc, system).entries
        assert np.max(np.abs(product - target)) <= 1e-12

    for n in range(1, 13):
        system = SpinSystem(n)
        moved = reencode(total_z(system), iz_sorted_encoding(system))
        diag = np.real(np.diag(moved.entries))
        assert np.all(np.diff(diag) <= 0.0)
        del moved
        gc.collect()
    assert time.perf_counter() - started < 30.0


def test_criterion_10_blockwise_speed_advantage():
    n = 12
    system = SpinSystem(n)
    h = build_hamiltonian(
        system, HamiltonianSpec("flipflop", couplings=((1, 2, 1.0),))
    )

    # initial operator confined to the k = 1 magnetization block: the
    # single-down-spin part of the first spin's longitudinal operator
    down_counts = np.array([bin(i).count("1") for i in range(system.dim)])
    block_idx = np.nonzero(down_counts == 1)[0]
    confined = np.zeros((system.dim, system.dim), dtype=complex)
    first_z = 0.5 - (np.arange(system.dim)[block_idx] >> (n - 1)).astype(float)
    confined[block_idx, block_idx] = first_z
    q1 = Operator(system, confined, True)
    del confined
    gc.collect()

    t0, t1 = 0.3, 0.7

    # one call down each path first, checked to agree; neither keeps a
    # decomposition, so each timed call below decomposes h afresh
    moved_warm = blockwise_conjugate(h, q1, 1, t0)
    u_warm = expm_hermitian(h, t0)
    full_warm = conjugate(u_warm, q1)
    assert np.max(np.abs(moved_warm.entries - full_warm.entries)) <= 1e-10
    del moved_warm, u_warm, full_warm
    gc.collect()

    begin = time.perf_counter()
    fast = blockwise_conjugate(h, q1, 1, t1)
    block_seconds = time.perf_counter() - begin

    # the same call on block spectra built outside the timer: the kernel
    # alone, which the 100x expectation below describes
    spectra = BlockSpectra.from_operator(h)
    begin = time.perf_counter()
    warm = blockwise_conjugate(spectra, q1, 1, t1)
    warm_seconds = time.perf_counter() - begin
    assert np.max(np.abs(warm.entries - fast.entries)) <= 1e-10
    del warm
    gc.collect()

    begin = time.perf_counter()
    u = expm_hermitian(h, t1)
    slow = conjugate(u, q1)
    full_seconds = time.perf_counter() - begin

    assert np.max(np.abs(fast.entries - slow.entries)) <= 1e-10
    del fast, u, slow
    gc.collect()

    ratio = full_seconds / max(block_seconds, 1e-12)
    assert ratio >= 10.0, (
        f"block-wise path only {ratio:.1f}x faster "
        f"({block_seconds:.4f}s vs {full_seconds:.4f}s)"
    )
    warm_ratio = full_seconds / max(warm_seconds, 1e-12)
    if warm_ratio < 100.0:
        warnings.warn(
            f"block-wise speedup on given block spectra {warm_ratio:.1f}x "
            f"({warm_seconds:.4f}s) is below the expected 100x",
            stacklevel=1,
        )
