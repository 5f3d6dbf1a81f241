"""Core operator tests: base operators, labels, expansions, orders."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from mqspace import (
    CARTESIAN,
    SHIFT,
    BaseOperatorSpec,
    ConfigurationError,
    Operator,
    OperatorExpansion,
    SpinSystem,
    ToleranceError,
    build_operator,
    coherence_order_of_element,
    commutator,
    enumerate_basis,
    expand,
    hs_inner,
    identity_operator,
    max_spins,
    order_components,
    random_operator,
    spin_operator,
    total_z,
)
from mqspace.operators import (
    _adopt,
    _element_orders,
    _ensure_hermitian,
    _gaussian_entries,
    _hermitian_part,
    reconstruct,
)


def test_spin_system_validation():
    with pytest.raises(ConfigurationError):
        SpinSystem(0)
    with pytest.raises(ConfigurationError):
        SpinSystem(-2)
    with pytest.raises(ConfigurationError):
        SpinSystem(True)
    with pytest.raises(ConfigurationError):
        SpinSystem(max_spins() + 1)
    assert SpinSystem(3).dim == 8


@pytest.mark.parametrize("n", [np.int64(3), np.int32(3)], ids=["int64", "int32"])
def test_spin_system_accepts_numpy_integers(n):
    system = SpinSystem(n)
    assert type(system.n) is int
    assert system == SpinSystem(3)
    assert system.dim == 8


@pytest.mark.parametrize("n", [True, 3.0, np.float64(3.0)], ids=["bool", "float", "float64"])
def test_spin_system_refuses_non_integers(n):
    with pytest.raises(ConfigurationError, match="spin count must be an integer"):
        SpinSystem(n)


def test_max_spins_env_override(monkeypatch):
    monkeypatch.setenv("MQSPACE_MAX_N", "2")
    assert max_spins() == 2
    with pytest.raises(ConfigurationError):
        SpinSystem(3)
    monkeypatch.delenv("MQSPACE_MAX_N")
    assert max_spins() == 12


def test_down_counts_and_magnetizations():
    system = SpinSystem(3)
    assert list(system.down_counts()) == [0, 1, 1, 2, 1, 2, 2, 3]
    mags = system.magnetizations()
    assert mags[0] == pytest.approx(1.5)
    assert mags[-1] == pytest.approx(-1.5)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cartesian_base_operators_match_kron_oracle(n):
    system = SpinSystem(n)
    for spec in enumerate_basis(system, CARTESIAN):
        mine = build_operator(system, spec).entries
        ref = oracles.cartesian_base(spec.factors)
        assert np.array_equal(mine, ref), spec.label


@pytest.mark.parametrize("n", [1, 2, 3])
def test_shift_base_operators_match_kron_oracle(n):
    system = SpinSystem(n)
    for spec in enumerate_basis(system, SHIFT):
        mine = build_operator(system, spec).entries
        ref = oracles.shift_base(spec.factors)
        assert np.array_equal(mine, ref), spec.label


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_cartesian_base_operator_norms(n):
    # every base operator has squared Frobenius norm 2^(n-2)
    system = SpinSystem(n)
    for spec in enumerate_basis(system, CARTESIAN):
        op = build_operator(system, spec)
        assert op.norm() ** 2 == pytest.approx(2.0 ** (n - 2), rel=1e-12)


def test_shift_bases_are_matrix_units():
    system = SpinSystem(2)
    seen = set()
    for spec in enumerate_basis(system, SHIFT):
        m = build_operator(system, spec).entries
        positions = np.argwhere(m != 0)
        assert len(positions) == 1
        assert m[tuple(positions[0])] == 1.0
        seen.add(tuple(positions[0]))
    assert len(seen) == 16


def test_labels_of_known_operators():
    assert BaseOperatorSpec(CARTESIAN, ("e", "e")).label == "E/2"
    assert BaseOperatorSpec(CARTESIAN, ("z", "e", "e")).label == "I1z"
    assert BaseOperatorSpec(CARTESIAN, ("z", "z", "e")).label == "2I1zI2z"
    assert BaseOperatorSpec(CARTESIAN, ("z", "z", "z")).label == "4I1zI2zI3z"
    assert BaseOperatorSpec(CARTESIAN, ("x", "e", "y")).label == "2I1xI3y"
    assert BaseOperatorSpec(SHIFT, ("+", "-")).label == "I1+I2-"
    assert BaseOperatorSpec(SHIFT, ("a", "b")).label == "a1b2"
    assert BaseOperatorSpec(SHIFT, ("a", "+", "-")).label == "a1I2+I3-"


@pytest.mark.parametrize(
    "label",
    [
        "2I1z",          # q=1 must omit the prefactor
        "I1zI2z",        # q=2 needs prefactor 2
        "4I1zI2z",       # wrong power
        "2I2zI1z",       # spins must ascend
        "2I1zI1x",       # repeated spin
        "I9z",           # spin beyond system
        "a1",            # shift labels cover every spin
        "I1+I1-",        # repeated spin
        "b2a1",          # shift spins must ascend
        "E",             # not a label
        "",
    ],
)
def test_label_parse_rejections(label):
    with pytest.raises(ConfigurationError):
        BaseOperatorSpec.from_label(label, 2)


PREFACTOR = "does not match the canonical 2**(q-1) convention"


@pytest.mark.parametrize(
    "label, message",
    [
        ("2I2zI1x", "label '2I2zI1x': spins must be strictly ascending"),
        ("b2a1", "label 'b2a1': spins must be strictly ascending"),
        ("I3z", "label 'I3z': spin 3 exceeds system size 2"),
        ("a1b2I3+", "label 'a1b2I3+': spin 3 exceeds system size 2"),
        ("I1zI2y", f"label 'I1zI2y': prefactor '1' {PREFACTOR} for q=2"),
        ("2I2x", f"label '2I2x': prefactor '2' {PREFACTOR} for q=1"),
        ("I1-", "label 'I1-': shift labels must mention every spin once"),
        ("2I1zI2+", "unparseable base operator label '2I1zI2+'"),
        ("a1b", "unparseable base operator label 'a1b'"),
    ],
    ids=[
        "cartesian-descending", "shift-descending", "cartesian-past-n",
        "shift-past-n", "prefactor-missing", "prefactor-extra",
        "shift-spin-missing", "mixed-kinds", "shift-no-spin",
    ],
)
def test_label_rejection_messages(label, message):
    with pytest.raises(ConfigurationError) as exc:
        BaseOperatorSpec.from_label(label, 2)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "label",
    ["I01z", "2I01zI2z", "a01b2", "I1+I02-", "I\u0661z", "I1z\n", "E/2\n", "I0z"],
)
def test_non_canonical_spellings_are_rejected(label):
    with pytest.raises(ConfigurationError):
        BaseOperatorSpec.from_label(label, 2)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("kind", [CARTESIAN, SHIFT])
def test_every_canonical_label_round_trips(kind, n):
    alphabet = "exyz" if kind == CARTESIAN else "ab+-"
    for factors in itertools.product(alphabet, repeat=n):
        spec = BaseOperatorSpec(kind, factors)
        assert BaseOperatorSpec.from_label(spec.label, n) == spec


def test_two_digit_spin_numbers_parse():
    assert BaseOperatorSpec.from_label("I10z", 10).factors == ("e",) * 9 + ("z",)
    spec = BaseOperatorSpec(SHIFT, ("a",) * 9 + ("+", "-"))
    assert spec.label.endswith("a9I10+I11-")
    assert BaseOperatorSpec.from_label(spec.label, 11) == spec


@given(
    factors=st.lists(st.sampled_from("exyz"), min_size=1, max_size=5),
)
def test_cartesian_label_round_trip(factors):
    spec = BaseOperatorSpec(CARTESIAN, tuple(factors))
    assert BaseOperatorSpec.from_label(spec.label, len(factors)) == spec


@given(
    factors=st.lists(st.sampled_from("ab+-"), min_size=1, max_size=5),
)
def test_shift_label_round_trip(factors):
    spec = BaseOperatorSpec(SHIFT, tuple(factors))
    assert BaseOperatorSpec.from_label(spec.label, len(factors)) == spec


def test_operator_requires_square_matching_dimension():
    system = SpinSystem(2)
    with pytest.raises(ConfigurationError):
        Operator(system, np.zeros((3, 3)))
    with pytest.raises(ConfigurationError):
        Operator(system, np.zeros((4, 3)))


def test_hermitian_hint_is_checked_at_construction():
    system = SpinSystem(1)
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ToleranceError):
        Operator(system, bad, True)
    op = Operator(system, bad)
    assert op.hermitian_hint is None
    assert op.hermiticity_defect() == pytest.approx(1.0)


def test_operator_entries_are_immutable():
    op = spin_operator(SpinSystem(1), 1, "z")
    with pytest.raises(ValueError):
        op.entries[0, 0] = 9.0


def test_operator_arithmetic_and_hint_propagation():
    system = SpinSystem(2)
    a = spin_operator(system, 1, "x")
    b = spin_operator(system, 2, "y")
    s = a + b
    assert s.hermitian_hint is True
    assert np.array_equal(s.entries, a.entries + b.entries)
    d = a - b
    assert d.hermitian_hint is True
    assert (2.0 * a).hermitian_hint is True
    assert (1j * a).hermitian_hint is None
    assert (a @ b).hermitian_hint is None
    assert np.array_equal((-a).entries, -a.entries)


def test_adjoint_trace_norm():
    rng = np.random.default_rng(0)
    q = random_operator(SpinSystem(2), rng)
    assert np.array_equal(q.adjoint().entries, q.entries.conj().T)
    assert q.trace() == pytest.approx(np.trace(q.entries))
    assert q.norm() == pytest.approx(np.linalg.norm(q.entries))


def test_hs_inner_and_commutator():
    rng = np.random.default_rng(1)
    system = SpinSystem(2)
    a = random_operator(system, rng)
    b = random_operator(system, rng)
    assert hs_inner(a, b) == pytest.approx(np.trace(a.entries.conj().T @ b.entries))
    c = commutator(a, b)
    assert np.allclose(c.entries, a.entries @ b.entries - b.entries @ a.entries)


def test_cross_system_operations_rejected():
    a = spin_operator(SpinSystem(1), 1, "z")
    b = spin_operator(SpinSystem(2), 1, "z")
    with pytest.raises(ConfigurationError):
        _ = a + b


def test_spin_operator_matches_oracle_and_validates():
    system = SpinSystem(3)
    for k in (1, 2, 3):
        for axis in "xyz":
            mine = spin_operator(system, k, axis).entries
            assert np.array_equal(mine, oracles.single_spin(3, k, axis))
    with pytest.raises(ConfigurationError):
        spin_operator(system, 0, "z")
    with pytest.raises(ConfigurationError):
        spin_operator(system, 4, "z")
    with pytest.raises(ConfigurationError):
        spin_operator(system, 1, "q")


def test_total_z_is_sum_of_longitudinal_operators():
    system = SpinSystem(3)
    ref = sum(oracles.single_spin(3, k, "z") for k in (1, 2, 3))
    assert np.array_equal(total_z(system).entries, ref)


def test_identity_operator():
    system = SpinSystem(2)
    assert np.array_equal(identity_operator(system).entries, np.eye(4))


def test_expand_flipflop_unit_frozen_coefficients():
    system = SpinSystem(2)
    unit = build_operator(system, BaseOperatorSpec.from_label("I1+I2-", 2))
    result = expand(unit, CARTESIAN)
    assert set(result.coefficients) == set(oracles.FLIPFLOP_UNIT_EXPANSION)
    for label, value in oracles.FLIPFLOP_UNIT_EXPANSION.items():
        assert result.coefficients[label] == pytest.approx(value, abs=1e-14)
    assert result.residual <= 1e-14


@pytest.mark.parametrize("kind", [CARTESIAN, SHIFT])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_expand_matches_inner_product_definition(kind, n):
    # dual route: the fast transform against the defining ratio
    # <B, q> / <B, B> computed base operator by base operator
    rng = np.random.default_rng(n)
    system = SpinSystem(n)
    q = random_operator(system, rng)
    result = expand(q, kind)
    for spec in enumerate_basis(system, kind):
        base = build_operator(system, spec)
        ref = hs_inner(base, q) / hs_inner(base, base)
        got = result.coefficients.get(spec.label, 0.0)
        assert got == pytest.approx(ref, abs=1e-12), spec.label


@pytest.mark.parametrize("kind", [CARTESIAN, SHIFT])
def test_expand_reconstruct_round_trip(kind):
    rng = np.random.default_rng(7)
    system = SpinSystem(3)
    q = random_operator(system, rng)
    result = expand(q, kind)
    back = reconstruct(system, result)
    assert np.allclose(back.entries, q.entries, atol=1e-12)
    assert result.residual <= 1e-12 * q.norm()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("kind", [CARTESIAN, SHIFT])
def test_reconstruct_agrees_with_expand_on_full_and_sparse_expansions(kind, n):
    rng = np.random.default_rng(n)
    system = SpinSystem(n)
    q = random_operator(system, rng)
    full = expand(q, kind)
    assert len(full.coefficients) == 4**n
    assert np.allclose(reconstruct(system, full).entries, q.entries, atol=1e-12)
    specs = enumerate_basis(system, kind)
    picked = rng.choice(len(specs), size=min(3, len(specs)), replace=False)
    sparse = {specs[i].label: complex(rng.standard_normal()) for i in picked}
    back = reconstruct(system, OperatorExpansion(kind, sparse, 0.0))
    direct = sum(
        (c * build_operator(system, BaseOperatorSpec.from_label(lab, n))
         for lab, c in sparse.items()),
        Operator(system, np.zeros((2**n, 2**n))),
    )
    assert np.allclose(back.entries, direct.entries, atol=1e-12)
    again = expand(back, kind).coefficients
    assert set(again) == set(sparse)
    for lab, c in sparse.items():
        assert again[lab] == pytest.approx(c, abs=1e-12), lab


@pytest.mark.parametrize(
    "kind, label", [(CARTESIAN, "I1+I2-"), (SHIFT, "I1z"), (SHIFT, "E/2")]
)
def test_reconstruct_rejects_a_label_of_the_other_kind(kind, label):
    with pytest.raises(ConfigurationError) as info:
        reconstruct(SpinSystem(2), OperatorExpansion(kind, {label: 1.0}, 0.0))
    assert str(info.value) == f"label {label!r} does not belong to the {kind} basis"


def test_expand_drops_exact_zeros():
    system = SpinSystem(2)
    q = spin_operator(system, 1, "z")
    result = expand(q, CARTESIAN)
    assert list(result.coefficients) == ["I1z"]
    assert result.coefficients["I1z"] == pytest.approx(1.0)


def test_coherence_order_of_element():
    system = SpinSystem(3)
    for row in range(8):
        for col in range(8):
            expected = oracles.element_order(row, col)
            assert coherence_order_of_element(system, row, col) == expected
    with pytest.raises(ConfigurationError):
        coherence_order_of_element(system, 0, 8)


def test_order_components_partition_the_operator():
    rng = np.random.default_rng(3)
    system = SpinSystem(3)
    q = random_operator(system, rng)
    parts = order_components(q)
    total = sum(p.entries for p in parts.values())
    assert np.array_equal(total, q.entries)
    for p, comp in parts.items():
        for row, col in np.argwhere(comp.entries != 0):
            assert oracles.element_order(row, col) == p


def test_order_components_of_diagonal_is_single_zero_order():
    system = SpinSystem(2)
    parts = order_components(spin_operator(system, 1, "z"))
    assert list(parts) == [0]


def test_shift_order_property():
    assert BaseOperatorSpec.from_label("I1+I2-", 2).shift_order == 0
    assert BaseOperatorSpec.from_label("I1+I2+", 2).shift_order == 2
    assert BaseOperatorSpec.from_label("a1I2-", 2).shift_order == -1
    assert BaseOperatorSpec.from_label("I1z", 2).shift_order is None


def test_random_operator_hermitian_flag():
    rng = np.random.default_rng(5)
    system = SpinSystem(2)
    h = random_operator(system, rng, hermitian=True)
    assert h.hermitian_hint is True
    assert np.allclose(h.entries, h.entries.conj().T)
    g = random_operator(system, rng)
    assert g.hermitian_hint is None


@pytest.mark.parametrize("hermitian", [False, True])
def test_random_operator_adopts_its_draw(hermitian):
    # the fresh draw is wrapped without a copy, with the hint the checked
    # constructor gives it
    hint = True if hermitian else None
    for n in range(1, 9):
        system = SpinSystem(n)
        drawn = random_operator(system, np.random.default_rng(n), hermitian)
        entries = _gaussian_entries(np.random.default_rng(n), system.dim, hermitian)
        built = Operator(system, entries, hint)
        assert drawn.entries.tobytes() == built.entries.tobytes(), n
        assert drawn.hermitian_hint is hint
        assert not drawn.entries.flags.writeable


def test_random_operator_peaks_at_three_dense_matrices():
    # the draw and the fold's conjugate, after a first call has paid the
    # one-off allocations; a copy of the draw and its asymmetry check took four
    system = SpinSystem(8)
    dense = system.dim**2 * 16
    random_operator(system, np.random.default_rng(0), hermitian=True)
    tracemalloc.start()
    try:
        random_operator(system, np.random.default_rng(0), hermitian=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * dense, peak / dense


def test_hinted_construction_skips_later_checks(monkeypatch):
    rng = np.random.default_rng(4)
    a = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    op = Operator(SpinSystem(4), a + a.conj().T, hermitian_hint=True)
    norm = np.linalg.norm
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return norm(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counted)
    monkeypatch.setattr(Operator, "hermiticity_defect", counted)
    # a checked True hint is trusted: no asymmetry or norm pass
    _ensure_hermitian(op, 1e-10, "hinted operator")
    assert calls == []
    # the norm is measured when asked for, one pass each time
    assert op.norm() == norm(op.entries)
    assert op.norm() == norm(op.entries)
    assert len(calls) == 2


def test_operator_holds_only_its_system_entries_and_hint():
    system = SpinSystem(2)
    assert Operator.__slots__ == ("system", "_entries", "hermitian_hint")
    for op in (Operator(system, np.eye(4), True), _adopt(system, np.eye(4, dtype=complex))):
        assert not hasattr(op, "__dict__")
        with pytest.raises(AttributeError):
            op.cache = {}


@pytest.mark.parametrize("where", [(0, 0), (0, 1), (3, 2)])
def test_hinted_construction_refuses_nan_entries(where):
    entries = np.eye(4, dtype=complex)
    entries[where] = np.nan
    with pytest.raises(ToleranceError, match="hermitian_hint"):
        Operator(SpinSystem(2), entries, hermitian_hint=True)


def test_hinted_construction_refuses_an_overflowing_norm():
    # finite entries near 1e200 overflow the norm, and tol * inf would
    # accept any asymmetry
    rng = np.random.default_rng(3)
    entries = 1e200 * (rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
    with pytest.raises(ToleranceError, match="overflows"):
        Operator(SpinSystem(3), entries, hermitian_hint=True)
    with pytest.raises(ToleranceError, match="overflows"):
        Operator(SpinSystem(3), entries).norm()


def test_element_order_table_is_a_read_only_int8_table():
    for n in (1, 3, 5):
        orders = _element_orders(n)
        assert orders.dtype == np.int8
        assert not orders.flags.writeable
        pc = np.array([bin(i).count("1") for i in range(1 << n)])
        assert np.array_equal(orders, pc[None, :] - pc[:, None])


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("dim", [1, 2, 5, 64, 300])
def test_hermitian_fold_writes_the_averaged_sum_in_c_order(dim, dtype):
    # the fold writes the bytes of 0.5 * (r + r^H), signed zeros included,
    # into its argument, or for a transposed view into the conjugate
    # transpose, so the result is C-ordered either way
    rng = np.random.default_rng(dim)
    r = rng.standard_normal((dim, dim)).astype(dtype)
    if dtype is complex:
        r += 1j * rng.standard_normal((dim, dim))
    r[0, 0] = -0.0
    r[rng.integers(dim, size=dim), rng.integers(dim, size=dim)] = -0.0
    for source in (r, r.T):
        expected = 0.5 * (source + source.conj().T)
        folded = source.copy(order="K")
        result = _hermitian_part(folded)
        assert result.flags.c_contiguous
        assert (result is folded) == folded.flags.c_contiguous
        assert result.tobytes() == expected.tobytes()
    with pytest.raises(ValueError):
        _hermitian_part(random_operator(SpinSystem(1), rng, hermitian=True).entries)


@pytest.mark.parametrize("hermitian", [False, True])
@pytest.mark.parametrize("dim", [1, 2, 32, 256, 1024])
def test_gaussian_draw_keeps_the_bytes_of_the_summed_parts(dim, hermitian):
    # the parts are copied into one complex array; the generator is read
    # as by the formula x + 1j * y, and the bytes are those it gives
    for seed in range(5):
        rng = np.random.default_rng(seed)
        expected = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        if hermitian:
            expected = 0.5 * (expected + expected.conj().T)
        drawn = _gaussian_entries(np.random.default_rng(seed), dim, hermitian)
        assert drawn.tobytes() == expected.tobytes(), seed
