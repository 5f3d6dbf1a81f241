"""Structural verification sweeps and their reporting."""

import importlib
import tracemalloc

import numpy as np
import pytest

import oracles
from mqspace import (
    SpinSystem,
    SubspaceTag,
    build_operator,
    commutator,
    order_components,
    project,
    random_operator,
    spin_operator,
    verify_extreme_states,
    verify_order_preservation,
)
from mqspace.operators import BaseOperatorSpec


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


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_order_leaks_match_dense_unit_stack(n):
    rng = np.random.default_rng(40 + n)
    for name, z in _planted_operators(n, rng).items():
        zm = z / np.linalg.norm(z)
        fast = properties._order_leaks(zm, n)
        dense = oracles.order_leaks_dense(zm, n)
        for key, got, want in zip(("left", "right", "commutator"), fast, dense):
            assert got.shape == want.shape == (2**n, 2**n), (name, key)
            assert np.abs(got - want).max() <= 1e-15, (name, key)
            if name == "zero_quantum":
                assert not got.any(), key
            else:
                assert want.max() > 1e-3, (name, key)


def test_order_preservation_sweep_records_a_leaking_generator(monkeypatch):
    # skip the zero-quantum projection so every trial's Z has all orders
    monkeypatch.setattr(properties, "project", lambda q, tag: q)
    report = verify_order_preservation(SpinSystem(3), trials=2, seed=0)
    assert not report.passed
    assert report.checks == 2 * 3 * 4**3
    assert len(report.violations) == 2 * 3
    assert all(value > 0.05 for value in report.max_residuals.values())
    assert report.violations[0].startswith("trial 0: left residual")


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
