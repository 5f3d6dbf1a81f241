"""Structural verification sweeps and their reporting."""

import importlib
import math
import tracemalloc

import numpy as np
import pytest

import oracles
from mqspace import (
    ConfigurationError,
    SpinSystem,
    SubspaceTag,
    build_operator,
    commutator,
    order_components,
    project,
    random_operator,
    spin_operator,
    verify_closure,
    verify_extreme_states,
    verify_order_preservation,
)
from mqspace.operators import BaseOperatorSpec, _gaussian_entries


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_order_preservation_sweep_passes(n):
    report = verify_order_preservation(SpinSystem(n), trials=20, seed=3)
    assert report.passed
    assert report.name == "order_preservation"
    assert report.checks == 20 * 3 * 4**n
    assert set(report.max_residuals) == {"left", "right", "commutator"}
    assert max(report.max_residuals.values()) <= 1e-10


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_extreme_states_sweep_passes(n):
    report = verify_extreme_states(SpinSystem(n), combos=20, seed=4)
    assert report.passed
    # the exhaustive part demands exact zeros, not merely small ones
    assert report.max_residuals["basis_all-up"] == 0.0
    assert report.max_residuals["basis_all-down"] == 0.0
    assert report.max_residuals.get("combo_all-up", 0.0) <= 1e-12


def test_reports_collect_violations_under_impossible_tolerance():
    report = verify_order_preservation(SpinSystem(2), trials=2, seed=0, tol=-1.0)
    assert not report.passed
    assert len(report.violations) == 2 * 3
    noisy = verify_extreme_states(SpinSystem(2), combos=2, seed=0, tol=-1.0)
    assert not noisy.passed
    assert any("combination" in v for v in noisy.violations)


@pytest.mark.parametrize("bad", [0, -3, 2.5, True, "3", None])
def test_sweeps_refuse_a_trial_count_that_is_not_a_positive_integer(bad):
    # a sweep of no trials would report a pass with no check run
    system = SpinSystem(2)
    with pytest.raises(ConfigurationError, match="trials"):
        verify_order_preservation(system, trials=bad)
    with pytest.raises(ConfigurationError, match="trials"):
        verify_closure(SubspaceTag.ZERO_QUANTUM, system, trials=bad)


@pytest.mark.parametrize("bad", [-1, -2, 1.5, False, "2"])
def test_extreme_sweep_refuses_a_combination_count_below_zero(bad):
    with pytest.raises(ConfigurationError, match="combos"):
        verify_extreme_states(SpinSystem(2), combos=bad)


# numpy would take True as seed 1, and a NaN tol would pass a leaking
# generator; verify_closure's tol is checked in test_input_rules
BAD_SEEDS = [("seed", bad) for bad in (1.5, "3", -1, True, None)]
BAD_SEEDS_AND_TOLS = BAD_SEEDS + [("tol", bad) for bad in (math.nan, math.inf, "1e-3", None, True)]


@pytest.mark.parametrize("key, bad", BAD_SEEDS_AND_TOLS)
def test_order_preservation_sweep_refuses_a_bad_seed_or_tol(key, bad):
    with pytest.raises(ConfigurationError, match=f"^{key} "):
        verify_order_preservation(SpinSystem(2), trials=1, **{key: bad})


@pytest.mark.parametrize("key, bad", BAD_SEEDS_AND_TOLS)
def test_extreme_sweep_refuses_a_bad_seed_or_tol(key, bad):
    with pytest.raises(ConfigurationError, match=f"^{key} "):
        verify_extreme_states(SpinSystem(2), combos=1, **{key: bad})


@pytest.mark.parametrize("key, bad", BAD_SEEDS)
def test_closure_sweep_refuses_a_bad_seed(key, bad):
    with pytest.raises(ConfigurationError, match=f"^{key} "):
        verify_closure(SubspaceTag.ZERO_QUANTUM, SpinSystem(2), trials=1, **{key: bad})


def test_sweeps_take_numpy_counts_and_zero_combinations():
    system = SpinSystem(2)
    assert verify_order_preservation(system, trials=np.int64(2)).checks == 2 * 3 * 16
    closure = verify_closure(SubspaceTag.EVEN_MQ, system, trials=np.int32(2))
    assert closure.checks == 6 and closure.trials == 2 and type(closure.trials) is int
    # n = 2 has two off-diagonal zero-quantum cells, each applied to both states
    extreme = verify_extreme_states(system, combos=0)
    assert extreme.passed and extreme.checks == 4
    seeded = verify_order_preservation(system, trials=1, seed=np.int64(3), tol=np.float32(1e-10))
    assert seeded == verify_order_preservation(system, trials=1, seed=3, tol=1e-10)


def test_specific_commutator_stays_inside_one_order():
    # a flip-flop pair is order 0; a bare raising operator is order +1;
    # their commutator must stay pure order +1
    system = SpinSystem(3)
    flip = build_operator(system, BaseOperatorSpec.from_label("I1+I2-a3", 3))
    exchange = flip + flip.adjoint()
    raising = spin_operator(system, 3, "+")
    moved = commutator(exchange, raising)
    components = order_components(moved)
    assert set(components) <= {1}


def test_multi_spin_coherence_annihilates_extremes():
    system = SpinSystem(3)
    unit = build_operator(system, BaseOperatorSpec.from_label("I1+I2-I3+", 3))
    m = unit.entries + unit.entries.conj().T
    for state_index in (0, 7):
        e = np.zeros(8)
        e[state_index] = 1.0
        assert not (m @ e).any()


def test_extreme_states_are_exact_null_eigenvectors():
    # cross-check with an eigendecomposition: the two extreme basis
    # vectors span part of the null space of any Hermitian combination
    rng = np.random.default_rng(9)
    system = SpinSystem(3)
    from mqspace import zq_offdiagonal_cells

    rows, cols, _ = zq_offdiagonal_cells(3)
    m = np.zeros((8, 8), dtype=complex)
    weights = rng.standard_normal(len(rows)) + 1j * rng.standard_normal(len(rows))
    m[rows, cols] = weights
    h = 0.5 * (m + m.conj().T)
    w, v = np.linalg.eigh(h)
    null_vectors = v[:, np.abs(w) <= 1e-12]
    for state_index in (0, 7):
        e = np.zeros(8)
        e[state_index] = 1.0
        overlap = null_vectors.conj().T @ e
        assert np.linalg.norm(overlap) == pytest.approx(1.0, abs=1e-10)


# the package exports functions that shadow some submodule names
properties = importlib.import_module("mqspace.properties")


def _planted_operators(n, rng):
    """A projected order-0 Z, and two that leak: one planted element, and all orders."""
    system = SpinSystem(n)
    zq = project(random_operator(system, rng), SubspaceTag.ZERO_QUANTUM).entries
    planted = zq.copy()
    # element (0, 1) has order +1
    planted[0, 1] += 0.3 - 0.2j
    full = random_operator(system, rng).entries
    return {"zero_quantum": zq, "planted": planted, "all_orders": full}


def _sampled_units(n, rng, count=48):
    """Units spread over the whole grid, the corners and a diagonal cell among them.

    Units in row 1 and column 0 meet the element (0, 1) that
    ``_planted_operators`` plants, in Z E and in E Z.
    """
    dim = 2**n
    picked = {(0, 0), (0, dim - 1), (dim - 1, 0), (dim - 1, dim - 1), (dim // 2, dim // 2)}
    picked |= {(1, 0), (1, dim - 1)}
    while len(picked) < count:
        picked.add(tuple(int(v) for v in rng.integers(0, dim, 2)))
    return sorted(picked)


# above n = 5 the dense stack (16**n work) is formed for a sample of
# units only
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 8])
def test_order_leaks_match_dense_unit_stack(n):
    rng = np.random.default_rng(40 + n)
    units = None if n <= 5 else _sampled_units(n, rng)
    for name, z in _planted_operators(n, rng).items():
        zm = z / np.linalg.norm(z)
        fast = properties._order_leaks(zm, n)
        dense = oracles.order_leaks_dense(zm, n, units)
        if units is not None:
            rows, cols = (list(v) for v in zip(*units))
            assert all(got.shape == (2**n, 2**n) for got in fast), name
            fast_all, fast = fast, tuple(got[rows, cols] for got in fast)
        for key, got, want in zip(("left", "right", "commutator"), fast, dense):
            assert got.shape == want.shape, (name, key)
            assert np.abs(got - want).max() <= 1e-15, (name, key)
            if name == "zero_quantum":
                assert not got.any(), key
            else:
                assert want.max() > 1e-3, (name, key)
        if units is not None and name == "zero_quantum":
            assert not any(got.any() for got in fast_all)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_dense_order_leaks_follow_one_column_and_one_row_of_z(n):
    # brute force over every unit: the left leak of E_rc depends on r
    # only, the right leak on c only, and the commutator's squared leak
    # is their sum, for leaking Z as well as order-0 ones
    rng = np.random.default_rng(80 + n)
    for name, z in _planted_operators(n, rng).items():
        left, right, comm = oracles.order_leaks_dense(z / np.linalg.norm(z), n)
        assert np.abs(left - left[:, :1]).max() <= 1e-15, name
        assert np.abs(right - right[:1, :]).max() <= 1e-15, name
        assert np.abs(comm**2 - left**2 - right**2).max() <= 1e-15, name


@pytest.mark.parametrize("n", [1, 5, 6, 7, 8])
def test_order_leaks_match_the_one_row_sweep(n):
    rng = np.random.default_rng(60 + n)
    for name, z in _planted_operators(n, rng).items():
        zm = z / np.linalg.norm(z)
        fast = properties._order_leaks(zm, n)
        by_row = oracles.order_leaks_by_row(zm, n)
        for key, got, want in zip(("left", "right", "commutator"), fast, by_row):
            assert got.shape == want.shape == (2**n, 2**n), (name, key)
            assert np.abs(got - want).max() <= 1e-15, (name, key)


def test_order_preservation_sweep_records_a_leaking_generator(monkeypatch):
    # skip the zero-quantum projection so every trial's Z has all orders
    monkeypatch.setattr(
        properties, "_random_member", lambda rng, tag, n: _gaussian_entries(rng, 2**n)
    )
    report = verify_order_preservation(SpinSystem(3), trials=2, seed=0)
    assert not report.passed
    assert report.checks == 2 * 3 * 4**3
    assert len(report.violations) == 2 * 3
    assert all(value > 0.05 for value in report.max_residuals.values())
    assert report.violations[0].startswith("trial 0: left residual")


@pytest.mark.parametrize("n", [2, 3])
def test_order_preservation_sweep_draws_what_random_operator_draws(n, monkeypatch):
    # the sweep's Z of trial t is the t-th draw of random_operator from
    # the same generator, projected and normalized, bit for bit
    system = SpinSystem(n)
    seen = []

    def spy(zm, n_spins):
        seen.append(zm.copy())
        return real(zm, n_spins)

    real = properties._order_leaks
    monkeypatch.setattr(properties, "_order_leaks", spy)
    verify_order_preservation(system, trials=4, seed=6)
    rng = np.random.default_rng(6)
    assert len(seen) == 4
    for zm in seen:
        z = project(random_operator(system, rng), SubspaceTag.ZERO_QUANTUM)
        want = z.entries / max(z.norm(), 1e-300)
        assert zm.tobytes() == want.tobytes()


def test_order_preservation_memory_is_bounded_at_seven_spins():
    # a dense unit stack would need 16**7 complex entries (over 4 GiB)
    tracemalloc.start()
    try:
        report = verify_order_preservation(SpinSystem(7), trials=1, seed=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed
    assert report.checks == 3 * 4**7
    assert peak < 64 * 2**20
