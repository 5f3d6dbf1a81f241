"""Hamiltonian construction, exact propagators and amplitude profiles."""

import importlib

import numpy as np
import pytest

import oracles
from mqspace import (
    CARTESIAN,
    SHIFT,
    AmplitudeProfile,
    BaseOperatorSpec,
    ConfigurationError,
    HamiltonianSpec,
    InvariantError,
    Operator,
    OperatorExpansion,
    SpinSystem,
    SubspaceTag,
    ToleranceError,
    amplitude_profile,
    blockwise_conjugate,
    build_hamiltonian,
    conjugate,
    decompose_zq,
    expand,
    expm_hermitian,
    identity_operator,
    is_member,
    order_components,
    project,
    random_operator,
    reconstruct_profile,
    spin_operator,
    zq_propagator,
)
from mqspace.dynamics import (
    _diagonal_groups,
    _diagonal_labels,
    _label_cell,
    _walsh,
    _walsh_bin,
)
from mqspace.subspaces import zq_offdiagonal_cells

dynamics = importlib.import_module("mqspace.dynamics")

COUPLINGS = ((1, 2, 0.8), (2, 3, -0.5), (1, 3, 0.3))


def test_spec_rejects_unknown_model():
    with pytest.raises(ConfigurationError):
        HamiltonianSpec("heisenberg")


def test_spec_rejects_bad_couplings():
    with pytest.raises(ConfigurationError):
        HamiltonianSpec("flipflop", couplings=((1, 1, 1.0),))
    with pytest.raises(ConfigurationError):
        HamiltonianSpec("flipflop", couplings=((0, 2, 1.0),))
    with pytest.raises(ConfigurationError):
        HamiltonianSpec("flipflop", couplings=((1, 2, 1.0), (2, 1, 0.5)))


def test_spec_rejects_bad_offsets():
    with pytest.raises(ConfigurationError):
        HamiltonianSpec("offsets", offsets=((0, 1.0),))
    with pytest.raises(ConfigurationError):
        HamiltonianSpec("offsets", offsets=((1, 1.0), (1, 2.0)))


def test_spec_enforces_field_consistency():
    # pairwise models take couplings only, offsets takes offsets only,
    # mixing the two requires an explicit custom expansion
    with pytest.raises(ConfigurationError):
        HamiltonianSpec("flipflop", couplings=((1, 2, 1.0),), offsets=((1, 1.0),))
    with pytest.raises(ConfigurationError):
        HamiltonianSpec("offsets", couplings=((1, 2, 1.0),))
    with pytest.raises(ConfigurationError):
        HamiltonianSpec("custom")
    exp = OperatorExpansion(CARTESIAN, {"I1z": 1.0}, 0.0)
    with pytest.raises(ConfigurationError):
        HamiltonianSpec("custom", couplings=((1, 2, 1.0),), custom=exp)


def test_spec_normalizes_numeric_types():
    spec = HamiltonianSpec("flipflop", couplings=((1, 2, 1),))
    assert spec.couplings == ((1, 2, 1.0),)
    assert isinstance(spec.couplings[0][2], float)


def test_build_rejects_out_of_range_spins():
    system = SpinSystem(2)
    with pytest.raises(ConfigurationError):
        build_hamiltonian(system, HamiltonianSpec("flipflop", couplings=((1, 3, 1.0),)))
    with pytest.raises(ConfigurationError):
        build_hamiltonian(system, HamiltonianSpec("offsets", offsets=((3, 1.0),)))


@pytest.mark.parametrize("model", ["flipflop", "dipolar_secular", "isotropic_j"])
def test_pairwise_models_match_oracle(model):
    system = SpinSystem(3)
    mine = build_hamiltonian(system, HamiltonianSpec(model, couplings=COUPLINGS))
    ref = oracles.hamiltonian(3, model, COUPLINGS)
    assert np.allclose(mine.entries, ref, atol=1e-14)
    assert mine.hermitian_hint is True
    assert is_member(mine, SubspaceTag.ZERO_QUANTUM)


def test_offsets_model_matches_oracle():
    system = SpinSystem(3)
    offsets = ((1, 2.5), (3, -1.0))
    mine = build_hamiltonian(system, HamiltonianSpec("offsets", offsets=offsets))
    ref = oracles.hamiltonian(3, "flipflop", (), offsets)
    assert np.array_equal(mine.entries, ref)


def _scrambled_couplings(n):
    """A reversed nearest-neighbour chain plus non-adjacent pairs."""
    rng = np.random.default_rng(n)
    pairs = [(k + 1, k) for k in range(1, n)]
    if n >= 3:
        pairs.append((1, n))
    if n >= 4:
        pairs.append((n, 2))
    return tuple((k, l, float(rng.uniform(-1.0, 1.0))) for k, l in pairs)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("model", ["flipflop", "dipolar_secular", "isotropic_j"])
def test_pairwise_models_match_oracle_across_sizes(model, n):
    couplings = _scrambled_couplings(n)
    mine = build_hamiltonian(SpinSystem(n), HamiltonianSpec(model, couplings=couplings))
    ref = oracles.hamiltonian(n, model, couplings)
    assert np.allclose(mine.entries, ref, rtol=0.0, atol=1e-14)
    assert mine.hermitian_hint is True


def _named_spec(model, n):
    if model == "offsets":
        offsets = tuple((k, 0.75 * k - 1.9) for k in range(n, 0, -1))
        return HamiltonianSpec("offsets", offsets=offsets)
    return HamiltonianSpec(model, couplings=_scrambled_couplings(n))


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("model", ["flipflop", "dipolar_secular", "isotropic_j", "offsets"])
def test_named_models_equal_the_flat_index_builder(model, n):
    spec = _named_spec(model, n)
    flat = oracles.hamiltonian_flat(n, model, spec.couplings, spec.offsets)
    dense = build_hamiltonian(SpinSystem(n), spec)
    assert np.array_equal(dense.entries, flat)
    assert dense.hermitian_hint is True
    blocks = dynamics._hamiltonian_blocks(SpinSystem(n), spec)
    assert len(blocks) == n + 1
    for k, (idx, block) in enumerate(blocks):
        states = [s for s in range(2**n) if oracles.popcount(s) == k]
        assert idx.tolist() == states
        assert np.array_equal(block, flat[np.ix_(states, states)]), k


def test_custom_model_blocks_are_checked_and_split():
    system = SpinSystem(3)
    direct = build_hamiltonian(system, HamiltonianSpec("isotropic_j", couplings=COUPLINGS))
    spec = HamiltonianSpec("custom", custom=expand(direct, CARTESIAN))
    rebuilt = build_hamiltonian(system, spec).entries
    for idx, block in dynamics._hamiltonian_blocks(system, spec):
        assert np.array_equal(block, rebuilt[np.ix_(idx, idx)])
    transverse = HamiltonianSpec("custom", custom=OperatorExpansion(CARTESIAN, {"I2x": 1.0}, 0.0))
    with pytest.raises(ToleranceError, match="not zero-quantum"):
        dynamics._hamiltonian_blocks(system, transverse)


@pytest.mark.parametrize(
    "couplings, offsets",
    [
        (((1, 2.9, 1.0),), ()),
        (((1.0, 2, 1.0),), ()),
        (((True, 2, 1.0),), ()),
        (((np.bool_(True), 2, 1.0),), ()),
        (((1, "2", 1.0),), ()),
        ((), ((True, 1.0),)),
        ((), ((2.5, 1.0),)),
    ],
)
def test_spec_refuses_non_integer_spin_indices(couplings, offsets):
    model = "offsets" if offsets else "flipflop"
    with pytest.raises(ConfigurationError, match="spin index must be an integer"):
        HamiltonianSpec(model, couplings=couplings, offsets=offsets)


@pytest.mark.parametrize(
    "couplings, offsets",
    [
        (((1, 2),), ()),
        (((1, 2, 1.0, 4),), ()),
        (((1, 2, "x"),), ()),
        (((1, 2, None),), ()),
        (((1, 2, 1j),), ()),
        ((3,), ()),
        ((), ((1,),)),
        ((), ((1, "x"),)),
    ],
)
def test_spec_turns_malformed_terms_into_configuration_errors(couplings, offsets):
    model = "offsets" if offsets else "flipflop"
    with pytest.raises(ConfigurationError, match="malformed hamiltonian terms"):
        HamiltonianSpec(model, couplings=couplings, offsets=offsets)


def test_spec_accepts_numpy_integer_spin_indices():
    spec = HamiltonianSpec("flipflop", couplings=((np.int64(1), np.int32(2), 1.0),))
    assert spec.couplings == ((1, 2, 1.0),)
    assert all(type(k) is int for k in spec.couplings[0][:2])
    offsets = HamiltonianSpec("offsets", offsets=((np.int64(2), 0.5),)).offsets
    assert offsets == ((2, 0.5),) and type(offsets[0][0]) is int


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_offsets_model_matches_oracle_across_sizes(n):
    offsets = tuple((k, 0.75 * k - 1.9) for k in range(n, 0, -1))
    mine = build_hamiltonian(SpinSystem(n), HamiltonianSpec("offsets", offsets=offsets))
    assert np.array_equal(mine.entries, oracles.hamiltonian(n, "flipflop", (), offsets))


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_spec_rejects_non_finite_terms(value):
    with pytest.raises(ConfigurationError):
        HamiltonianSpec("dipolar_secular", couplings=((1, 2, value),))
    with pytest.raises(ConfigurationError):
        HamiltonianSpec("offsets", offsets=((1, 0.5), (2, value)))


def test_walsh_bin_rejects_imaginary_longitudinal_parts():
    # the diagonal of I1z, then with i * I2z added
    i1z = np.array([0.5, 0.5, -0.5, -0.5], dtype=complex)
    zqc = np.zeros(2, dtype=complex)
    assert np.array_equal(_walsh_bin(2, i1z, zqc, 0.0), [0.0, 0.0, 1.0, 0.0])
    with pytest.raises(InvariantError):
        _walsh_bin(2, i1z + 1j * np.array([0.5, -0.5, 0.5, -0.5]), zqc, 0.0)


def test_flipflop_two_spin_matrix():
    system = SpinSystem(2)
    h = build_hamiltonian(system, HamiltonianSpec("flipflop", couplings=((1, 2, 1.0),)))
    expected = np.zeros((4, 4), dtype=complex)
    expected[1, 2] = expected[2, 1] = 0.5
    assert np.array_equal(h.entries, expected)


def test_custom_round_trip():
    system = SpinSystem(3)
    direct = build_hamiltonian(
        system, HamiltonianSpec("dipolar_secular", couplings=COUPLINGS)
    )
    spec = HamiltonianSpec("custom", custom=expand(direct, CARTESIAN))
    rebuilt = build_hamiltonian(system, spec)
    assert np.allclose(rebuilt.entries, direct.entries, atol=1e-12)


def test_custom_rejects_non_hermitian_expansion():
    system = SpinSystem(2)
    lopsided = OperatorExpansion(SHIFT, {"I1+I2-": 1.0}, 0.0)
    with pytest.raises(ToleranceError):
        build_hamiltonian(system, HamiltonianSpec("custom", custom=lopsided))


def test_expm_hermitian_single_spin_closed_form():
    system = SpinSystem(1)
    z = spin_operator(system, 1, "z")
    t = 1.3
    u = expm_hermitian(z, t)
    expected = np.diag([np.exp(-0.5j * t), np.exp(0.5j * t)])
    assert np.allclose(u.entries, expected, atol=1e-14)


def test_expm_hermitian_matches_scipy_oracle():
    rng = np.random.default_rng(11)
    system = SpinSystem(3)
    h = random_operator(system, rng, hermitian=True)
    for t in (0.0, 0.4, -2.2):
        mine = expm_hermitian(h, t).entries
        ref = oracles.expm(-1j * t * h.entries)
        assert np.allclose(mine, ref, atol=1e-10)
    eye = expm_hermitian(h, 0.0).entries
    assert np.allclose(eye, np.eye(8), atol=1e-14)


def test_exactly_real_generators_take_real_eigh(monkeypatch):
    system = SpinSystem(3)
    real = build_hamiltonian(system, HamiltonianSpec("isotropic_j", couplings=COUPLINGS))
    twisted = real.entries.copy()
    twisted[1, 2] += 0.25j  # states 001 and 010 share the k = 1 block
    twisted[2, 1] -= 0.25j
    dtypes = []
    eigh = np.linalg.eigh

    def recording_eigh(a, *args, **kwargs):
        dtypes.append(a.dtype)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    for entries, dtype in ((real.entries, float), (twisted, complex)):
        h = Operator(system, entries, True)
        dtypes.clear()
        for t in (0.0, 0.7):
            ref = oracles.expm(-1j * t * entries)
            assert np.max(np.abs(expm_hermitian(h, t).entries - ref)) <= 1e-12
            assert np.max(np.abs(zq_propagator(h, t).entries - ref)) <= 1e-12
        # one dense and n + 1 block decompositions; only the twisted block
        # and the dense twisted generator are complex
        assert dtypes[0] == np.dtype(dtype)
        assert dtypes[1:] == [np.dtype(dtype if k == 1 else float) for k in range(4)]


def test_expm_hermitian_rejects_non_hermitian():
    rng = np.random.default_rng(12)
    g = random_operator(SpinSystem(2), rng)
    with pytest.raises(ToleranceError):
        expm_hermitian(g, 1.0)


def test_zq_propagator_matches_full_exponential():
    system = SpinSystem(3)
    h = build_hamiltonian(system, HamiltonianSpec("isotropic_j", couplings=COUPLINGS))
    for t in (0.3, 1.7):
        fast = zq_propagator(h, t)
        full = expm_hermitian(h, t)
        assert np.allclose(fast.entries, full.entries, atol=1e-12)
        assert is_member(fast, SubspaceTag.ZERO_QUANTUM)
        product = fast.entries @ fast.entries.conj().T
        assert np.allclose(product, np.eye(8), atol=1e-12)


def test_zq_propagator_rejects_non_zq_generator():
    system = SpinSystem(2)
    with pytest.raises(ToleranceError):
        zq_propagator(spin_operator(system, 1, "x"), 1.0)


def test_conjugate_preserves_spectral_data():
    rng = np.random.default_rng(13)
    system = SpinSystem(3)
    h = build_hamiltonian(system, HamiltonianSpec("flipflop", couplings=COUPLINGS))
    u = expm_hermitian(h, 0.9)
    q = random_operator(system, rng, hermitian=True)
    qc = conjugate(u, q)
    assert qc.hermitian_hint is True
    assert qc.hermiticity_defect() == 0.0
    assert qc.trace() == pytest.approx(q.trace(), abs=1e-12)
    assert qc.norm() == pytest.approx(q.norm(), rel=1e-12)
    assert np.allclose(
        np.linalg.eigvalsh(qc.entries), np.linalg.eigvalsh(q.entries), atol=1e-10
    )


def test_conjugation_preserves_coherence_orders():
    # a zero-quantum propagator cannot move weight between orders
    system = SpinSystem(3)
    h = build_hamiltonian(system, HamiltonianSpec("dipolar_secular", couplings=COUPLINGS))
    u = zq_propagator(h, 0.8)
    double = spin_operator(system, 1, "+") @ spin_operator(system, 2, "+")
    q = double + double.adjoint()
    moved = conjugate(u, q)
    assert set(order_components(moved)) == {-2, 2}


def test_flipflop_amplitude_profile_frozen_values():
    system = SpinSystem(2)
    h = build_hamiltonian(system, HamiltonianSpec("flipflop", couplings=((1, 2, 1.0),)))
    q = spin_operator(system, 1, "z")
    profile = amplitude_profile(h, q, oracles.FLIPFLOP_T)
    assert profile.time == oracles.FLIPFLOP_T
    assert profile.identity == pytest.approx(0.0, abs=1e-14)
    assert profile.longitudinal["I1z"] == pytest.approx(oracles.FLIPFLOP_CHANNEL_1)
    assert profile.longitudinal["I2z"] == pytest.approx(oracles.FLIPFLOP_CHANNEL_2)
    assert profile.zqc["I1+I2-"] == pytest.approx(oracles.FLIPFLOP_COHERENCE)
    assert profile.zqc["I1-I2+"] == pytest.approx(np.conj(oracles.FLIPFLOP_COHERENCE))
    # two coupled spins never develop a longitudinal two-spin product
    assert profile.spin_orders["2I1zI2z"] == pytest.approx(0.0, abs=1e-14)
    assert profile.residual <= 1e-14
    total = sum(profile.longitudinal.values())
    assert total == pytest.approx(1.0)


def test_flipflop_full_transfer_at_pi():
    system = SpinSystem(2)
    h = build_hamiltonian(system, HamiltonianSpec("flipflop", couplings=((1, 2, 1.0),)))
    q = spin_operator(system, 1, "z")
    profile = amplitude_profile(h, q, np.pi)
    assert profile.longitudinal["I1z"] == pytest.approx(0.0, abs=1e-12)
    assert profile.longitudinal["I2z"] == pytest.approx(1.0, rel=1e-12)
    for v in profile.zqc.values():
        assert abs(v) <= 1e-12


def test_amplitude_profile_against_brute_force_evolution():
    # dual route: reconstruct the binned profile and compare against a
    # scipy expm evolution of independently built matrices
    system = SpinSystem(3)
    spec = HamiltonianSpec("dipolar_secular", couplings=COUPLINGS)
    h = build_hamiltonian(system, spec)
    q = spin_operator(system, 2, "z")
    t = 1.1
    profile = amplitude_profile(h, q, t)
    mine = reconstruct_profile(system, profile)
    ref = oracles.evolve(
        oracles.hamiltonian(3, "dipolar_secular", COUPLINGS),
        oracles.single_spin(3, 2, "z"),
        t,
    )
    assert np.allclose(mine.entries, ref, atol=1e-10)
    assert profile.residual <= 1e-12


def test_amplitude_profile_rejections():
    system = SpinSystem(2)
    h = build_hamiltonian(system, HamiltonianSpec("flipflop", couplings=((1, 2, 1.0),)))
    rng = np.random.default_rng(14)
    with pytest.raises(ToleranceError):
        amplitude_profile(h, random_operator(system, rng), 1.0)
    with pytest.raises(ToleranceError):
        amplitude_profile(h, identity_operator(system), 1.0)
    with pytest.raises(ToleranceError):
        amplitude_profile(h, spin_operator(system, 1, "x"), 1.0)


def test_reconstruct_profile_round_trip():
    system = SpinSystem(3)
    h = build_hamiltonian(system, HamiltonianSpec("isotropic_j", couplings=COUPLINGS))
    q = spin_operator(system, 1, "z")
    profile = amplitude_profile(h, q, 0.6)
    back = reconstruct_profile(system, profile)
    direct = conjugate(zq_propagator(h, 0.6), q)
    assert np.allclose(back.entries, direct.entries, atol=1e-12)


def test_reconstruct_profile_rejects_foreign_labels():
    system = SpinSystem(2)
    base = amplitude_profile(
        build_hamiltonian(system, HamiltonianSpec("flipflop", couplings=((1, 2, 1.0),))),
        spin_operator(system, 1, "z"),
        0.2,
    )
    bad_diag = base.__class__(
        base.time, base.identity, {"I1x": 1.0}, {}, {}, base.residual
    )
    with pytest.raises(ConfigurationError):
        reconstruct_profile(system, bad_diag)
    bad_unit = base.__class__(base.time, base.identity, {}, {}, {"a1b2": 1.0}, 0.0)
    with pytest.raises(ConfigurationError):
        reconstruct_profile(system, bad_unit)


def test_blockwise_conjugate_matches_full_conjugation():
    rng = np.random.default_rng(15)
    system = SpinSystem(4)
    h = build_hamiltonian(
        system,
        HamiltonianSpec("dipolar_secular", couplings=((1, 2, 1.0), (2, 3, 0.7), (3, 4, 0.5))),
    )
    z = project(random_operator(system, rng, hermitian=True), SubspaceTag.ZERO_QUANTUM)
    u = zq_propagator(h, 0.45)
    for k, comp in decompose_zq(z):
        moved = blockwise_conjugate(h, comp, k, 0.45)
        full = conjugate(u, comp)
        assert np.allclose(moved.entries, full.entries, atol=1e-12), k
        # no leakage at all outside the block
        outside = moved.entries.copy()
        idx = [i for i in range(16) if oracles.popcount(i) == k]
        outside[np.ix_(idx, idx)] = 0.0
        assert not outside.any()


def test_blockwise_conjugate_block_zero_is_frozen():
    system = SpinSystem(3)
    h = build_hamiltonian(system, HamiltonianSpec("flipflop", couplings=((1, 2, 1.0),)))
    q = np.zeros((8, 8), dtype=complex)
    q[0, 0] = 1.0
    frozen = Operator(system, q, True)
    moved = blockwise_conjugate(h, frozen, 0, 2.3)
    assert np.array_equal(moved.entries, frozen.entries)


def test_blockwise_conjugate_rejections():
    system = SpinSystem(3)
    h = build_hamiltonian(system, HamiltonianSpec("flipflop", couplings=((1, 2, 1.0),)))
    q = spin_operator(system, 1, "z")  # spread across every block
    with pytest.raises(ToleranceError):
        blockwise_conjugate(h, q, 1, 0.5)
    confined = np.zeros((8, 8), dtype=complex)
    confined[0, 0] = 1.0
    with pytest.raises(ConfigurationError):
        blockwise_conjugate(h, Operator(system, confined, True), 5, 0.5)


def test_walsh_matrix_matches_oracle():
    for n in (1, 2, 3, 4, 5, 6):
        # the oracle is symmetric: unit vector i transforms to its row i
        rows = [_walsh(unit) for unit in np.eye(2**n)]
        assert np.array_equal(np.array(rows), oracles.walsh(n))


@pytest.mark.parametrize("n", range(1, 11))
def test_walsh_agrees_with_the_oracle_product(n):
    rng = np.random.default_rng(n)
    w = oracles.walsh(n)
    real = rng.standard_normal(2**n)
    for x in (real, real + 1j * rng.standard_normal(2**n)):
        saved = x.copy()
        out = _walsh(x)
        assert np.array_equal(x, saved)
        assert out.dtype == x.dtype
        assert np.max(np.abs(out - w @ x)) <= 1e-15 * np.sum(np.abs(x))


def test_diagonal_label_order():
    assert _diagonal_labels(2) == ("E/2", "I2z", "I1z", "2I1zI2z")
    labels3 = _diagonal_labels(3)
    assert labels3[0] == "E/2"
    assert labels3[7] == "4I1zI2zI3z"
    assert labels3[5] == "2I1zI3z"


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_label_cell_places_every_channel_label(n):
    for s, label in enumerate(_diagonal_labels(n)):
        assert _label_cell(label, n) == (True, s), label
    for group in _diagonal_groups(n):
        for s, label in zip(group[0].tolist(), group[1]):
            assert _label_cell(label, n) == (True, s), label
    for rank, label in enumerate(zq_offdiagonal_cells(n)[2]):
        assert _label_cell(label, n) == (False, rank), label


@pytest.mark.parametrize("label", ["I1x", "a1b2", "I1+a2", "I9z", "I1zI2z", "I01z", 3])
def test_label_cell_rejects_other_labels(label):
    assert _label_cell(label, 2) is None


def _profile_with(field, label):
    bins = {"longitudinal": {}, "spin_orders": {}, "zqc": {}}
    bins[field] = {label: 1.0}
    return AmplitudeProfile(0.0, 0.0, residual=0.0, **bins)


@pytest.mark.parametrize("label", ["I1x", "a1b2", "I1+a2", "I9z", "I1zI2z"])
@pytest.mark.parametrize("field", ["longitudinal", "spin_orders"])
def test_reconstruct_profile_names_a_foreign_diagonal_label(field, label):
    with pytest.raises(ConfigurationError) as info:
        reconstruct_profile(SpinSystem(2), _profile_with(field, label))
    assert str(info.value) == f"label {label!r} is not diagonal for n=2"


@pytest.mark.parametrize("label", ["E/2", "I1x", "a1b2", "I1+a2", "I9z", "I1zI2z"])
def test_reconstruct_profile_names_a_foreign_unit_label(label):
    with pytest.raises(ConfigurationError) as info:
        reconstruct_profile(SpinSystem(2), _profile_with("zqc", label))
    assert str(info.value) == (
        f"label {label!r} is not an off-diagonal zero-quantum unit for n=2"
    )


def test_reconstruct_profile_parses_no_label(monkeypatch):
    n = 6
    system = SpinSystem(n)
    h = build_hamiltonian(system, _named_spec("dipolar_secular", n))
    profile = amplitude_profile(h, spin_operator(system, 2, "z"), 0.8)
    expected = reconstruct_profile(system, profile).entries

    def refuse(*args):
        raise AssertionError("a label was parsed")

    monkeypatch.setattr(BaseOperatorSpec, "from_label", refuse)
    assert np.array_equal(reconstruct_profile(system, profile).entries, expected)


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("model", ["flipflop", "dipolar_secular", "isotropic_j", "offsets"])
def test_block_spectra_equal_the_memoized_generator_spectra(model, n):
    system = SpinSystem(n)
    spec = _named_spec(model, n)
    direct = dynamics._block_spectra(dynamics._hamiltonian_blocks(system, spec))
    memoized = dynamics._block_eigh_cached(build_hamiltonian(system, spec))
    assert len(direct) == len(memoized) == n + 1
    for mine, theirs in zip(direct, memoized):
        for a, b in zip(mine, theirs, strict=True):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()


def test_memoized_block_spectra_are_read_only():
    system = SpinSystem(4)
    h = build_hamiltonian(system, _named_spec("isotropic_j", 4))
    spectra = dynamics._block_eigh_cached(h)
    assert dynamics._block_eigh_cached(h) is spectra
    for idx, w, v in spectra:
        for arr in (idx, w, v):
            with pytest.raises(ValueError):
                arr[0] = 0


def test_repeated_calls_reuse_one_eigendecomposition(monkeypatch):
    n = 4
    system = SpinSystem(n)
    h = build_hamiltonian(
        system,
        HamiltonianSpec("dipolar_secular", couplings=((1, 2, 1.0), (2, 3, 0.7), (3, 4, 0.5))),
    )
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        calls.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    first = expm_hermitian(h, 0.3)
    expm_hermitian(h, 0.9)
    assert calls == [(16, 16)]

    calls.clear()
    zq_propagator(h, 0.3)
    zq_propagator(h, 0.9)
    q = np.zeros((16, 16), dtype=complex)
    q[1, 2] = q[2, 1] = 1.0  # confined to the k = 1 block
    blockwise_conjugate(h, Operator(system, q, True), 1, 0.5)
    assert len(calls) == n + 1
    # a cached decomposition gives the same propagator as a fresh one
    assert np.array_equal(expm_hermitian(h, 0.3).entries, first.entries)
    assert len(calls) == n + 1


def test_conjugate_adopts_its_result_without_a_copy(monkeypatch):
    # the product is freshly allocated, so it is wrapped as it is: no
    # constructor copy, no second asymmetry or norm pass
    rng = np.random.default_rng(17)
    system = SpinSystem(3)
    h = build_hamiltonian(system, HamiltonianSpec("flipflop", couplings=COUPLINGS))
    u = expm_hermitian(h, 0.4)
    hermitian = random_operator(system, rng, hermitian=True)
    general = random_operator(system, rng)
    constructed = []
    init = Operator.__init__

    def counting(self, *args, **kwargs):
        constructed.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Operator, "__init__", counting)
    norms = []
    monkeypatch.setattr(np.linalg, "norm", lambda *a, **k: norms.append(a))
    moved = conjugate(u, hermitian)
    moved_general = conjugate(u, general)
    monkeypatch.undo()
    assert constructed == [] and norms == []

    assert moved.hermitian_hint is True
    assert moved.hermiticity_defect() == 0.0
    r = u.entries @ hermitian.entries @ u.entries.conj().T
    assert np.array_equal(moved.entries, 0.5 * (r + r.conj().T))
    assert moved_general.hermitian_hint is None
    assert np.array_equal(
        moved_general.entries, u.entries @ general.entries @ u.entries.conj().T
    )
    for op in (moved, moved_general):
        assert op.entries.dtype == complex
        assert not op.entries.flags.writeable
        with pytest.raises(ValueError):
            op.entries[0, 0] = 1.0
