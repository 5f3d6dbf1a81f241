"""Subspace taxonomy tests: dimensions, membership, blocks, closure."""

import importlib
import math
import tracemalloc

import numpy as np
import pytest

import oracles
from mqspace import (
    ClosureReport,
    ConfigurationError,
    Operator,
    SpinSystem,
    SubspaceTag,
    ToleranceError,
    block_dimension,
    build_operator,
    decompose_zq,
    identity_operator,
    is_member,
    project,
    random_operator,
    selective_blocks,
    spin_operator,
    subspace_dims,
    support_mask,
    verify_closure,
    zq_offdiagonal_cells,
)
from mqspace.operators import BaseOperatorSpec
from mqspace.subspaces import (
    _closure_sweeps,
    _zq_cell_pairs,
    _zq_cell_rank,
    _zq_stored_cells,
)

subspaces = importlib.import_module("mqspace.subspaces")

TAGS = list(SubspaceTag)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_dims_match_brute_force_census(n):
    # dual route: closed-form dimensions vs counting allowed elements
    dims = subspace_dims(n)
    for tag in TAGS:
        counted = int(oracles.pattern_mask(tag.value, n).sum())
        assert dims[tag] == counted, tag


def test_dims_n2_values():
    dims = subspace_dims(2)
    assert dims[SubspaceTag.LOMSO] == 4
    assert dims[SubspaceTag.ZERO_QUANTUM] == 6
    assert dims[SubspaceTag.EVEN_MQ] == 8
    assert dims[SubspaceTag.FULL] == 16


@pytest.mark.parametrize("n", range(2, 13))
def test_dims_form_strict_chain_from_two_spins(n):
    values = [subspace_dims(n)[t] for t in TAGS]
    assert values == sorted(values)
    assert len(set(values)) == 4


def test_single_spin_dims_collapse():
    # the three smaller subspaces coincide for one spin
    dims = subspace_dims(1)
    assert dims[SubspaceTag.LOMSO] == dims[SubspaceTag.ZERO_QUANTUM] == 2
    assert dims[SubspaceTag.EVEN_MQ] == 2
    assert dims[SubspaceTag.FULL] == 4


def test_dims_rejects_nonpositive():
    with pytest.raises(ConfigurationError):
        subspace_dims(0)


@pytest.mark.parametrize("n", [True, 2.0, "2"], ids=["bool", "float", "text"])
def test_dims_refuse_a_spin_count_that_is_no_integer(n):
    with pytest.raises(ConfigurationError, match="spin count must be an integer"):
        subspace_dims(n)


@pytest.mark.parametrize("n", range(1, 13))
def test_block_dimensions_are_binomials_and_sum_of_squares(n):
    dims = [block_dimension(n, k) for k in range(n + 1)]
    assert dims == [math.comb(n, k) for k in range(n + 1)]
    assert sum(d * d for d in dims) == subspace_dims(n)[SubspaceTag.ZERO_QUANTUM]


def test_block_dimension_range_check():
    with pytest.raises(ConfigurationError):
        block_dimension(3, -1)
    with pytest.raises(ConfigurationError):
        block_dimension(3, 4)


@pytest.mark.parametrize(
    "n, k, what",
    [(3, 1.0, "block index"), (3, True, "block index"), (3.0, 1, "spin count"),
     (True, 0, "spin count")],
    ids=["float-k", "bool-k", "float-n", "bool-n"],
)
def test_block_dimension_refuses_an_index_that_is_no_integer(n, k, what):
    with pytest.raises(ConfigurationError, match=f"{what} must be an integer"):
        block_dimension(n, k)
    # numpy integers are integers
    assert block_dimension(np.int64(3), np.int8(1)) == 3


def test_n12_zero_quantum_fraction():
    dims = subspace_dims(12)
    ratio = dims[SubspaceTag.ZERO_QUANTUM] / dims[SubspaceTag.FULL]
    assert ratio == oracles.N12_BLOCK_RATIO


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_support_masks_match_oracle(n):
    system = SpinSystem(n)
    for tag in TAGS:
        assert np.array_equal(
            support_mask(tag, system), oracles.pattern_mask(tag.value, n)
        )


def test_support_mask_is_read_only():
    mask = support_mask(SubspaceTag.LOMSO, SpinSystem(2))
    with pytest.raises(ValueError):
        mask[0, 0] = False


def test_membership_of_named_operators():
    system = SpinSystem(2)
    iz = spin_operator(system, 1, "z")
    assert is_member(iz, SubspaceTag.LOMSO)
    ix = spin_operator(system, 1, "x")
    assert not is_member(ix, SubspaceTag.LOMSO)
    assert not is_member(ix, SubspaceTag.ZERO_QUANTUM)
    assert not is_member(ix, SubspaceTag.EVEN_MQ)
    assert is_member(ix, SubspaceTag.FULL)
    flip = build_operator(system, BaseOperatorSpec.from_label("I1+I2-", 2))
    assert is_member(flip, SubspaceTag.ZERO_QUANTUM)
    assert not is_member(flip, SubspaceTag.LOMSO)
    double = build_operator(system, BaseOperatorSpec.from_label("I1+I2+", 2))
    assert is_member(double, SubspaceTag.EVEN_MQ)
    assert not is_member(double, SubspaceTag.ZERO_QUANTUM)


def test_membership_report_fields():
    system = SpinSystem(2)
    ix = spin_operator(system, 1, "x")
    report = is_member(ix, SubspaceTag.LOMSO)
    assert report.tag is SubspaceTag.LOMSO
    assert not report.member
    assert report.residual == pytest.approx(ix.norm())
    assert report.tolerance == 1e-10
    # zero operator belongs everywhere
    zero = ix - ix
    for tag in TAGS:
        assert is_member(zero, tag)


def test_projection_splits_weight():
    rng = np.random.default_rng(2)
    system = SpinSystem(3)
    q = random_operator(system, rng)
    for tag in TAGS:
        inside = project(q, tag)
        assert is_member(inside, tag)
        outside_norm = is_member(q, tag).residual
        # Pythagoras over disjoint element sets
        assert inside.norm() ** 2 + outside_norm**2 == pytest.approx(q.norm() ** 2)
    assert np.array_equal(project(q, SubspaceTag.FULL).entries, q.entries)


def test_projection_keeps_hermitian_hint():
    rng = np.random.default_rng(3)
    h = random_operator(SpinSystem(2), rng, hermitian=True)
    assert project(h, SubspaceTag.ZERO_QUANTUM).hermitian_hint is True
    g = random_operator(SpinSystem(2), rng)
    assert project(g, SubspaceTag.ZERO_QUANTUM).hermitian_hint is None


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_selective_blocks_partition_the_basis(n):
    system = SpinSystem(n)
    blocks = selective_blocks(system)
    assert [b.k for b in blocks] == list(range(n + 1))
    seen = []
    for b in blocks:
        assert b.dimension == math.comb(n, b.k)
        for i in b.state_indices:
            assert oracles.popcount(i) == b.k
        assert list(b.state_indices) == sorted(b.state_indices)
        seen.extend(b.state_indices)
    assert sorted(seen) == list(range(2**n))


def test_decompose_zq_reassembles_exactly():
    rng = np.random.default_rng(4)
    system = SpinSystem(3)
    z = project(random_operator(system, rng, hermitian=True), SubspaceTag.ZERO_QUANTUM)
    parts = decompose_zq(z)
    assert [k for k, _ in parts] == [0, 1, 2, 3]
    total = sum(c.entries for _, c in parts)
    assert np.array_equal(total, z.entries)
    for _, c in parts:
        assert c.hermitian_hint is True
    # components live on disjoint index blocks, so they commute exactly
    for i, (_, a) in enumerate(parts):
        for _, b in parts[i + 1 :]:
            assert not (a.entries @ b.entries).any()
            assert not (b.entries @ a.entries).any()


def test_decompose_zq_rejects_non_members():
    rng = np.random.default_rng(5)
    q = random_operator(SpinSystem(2), rng)
    with pytest.raises(ToleranceError):
        decompose_zq(q)


def _overflowing(n):
    """Finite random entries near 1e200, whose Frobenius norm overflows."""
    rng = np.random.default_rng(3)
    dim = 2**n
    return 1e200 * (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))


def test_is_member_refuses_an_overflowing_norm():
    q = Operator(SpinSystem(3), _overflowing(3))
    with pytest.raises(ToleranceError, match="overflows"):
        is_member(q, SubspaceTag.ZERO_QUANTUM)


def test_decompose_zq_refuses_an_overflowing_norm():
    with pytest.raises(ToleranceError, match="overflows"):
        decompose_zq(Operator(SpinSystem(3), _overflowing(3)))


def test_decompose_zq_refuses_nan_at_an_order_one_element():
    entries = np.eye(4, dtype=complex)
    entries[0, 1] = np.nan
    q = Operator(SpinSystem(2), entries)
    assert not is_member(q, SubspaceTag.ZERO_QUANTUM).member
    with pytest.raises(ToleranceError, match="not zero-quantum"):
        decompose_zq(q)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_zq_offdiagonal_cells_are_labelled_matrix_units(n):
    system = SpinSystem(n)
    rows, cols, labels = zq_offdiagonal_cells(n)
    expected = subspace_dims(n)[SubspaceTag.ZERO_QUANTUM] - 2**n
    assert len(labels) == len(rows) == len(cols) == expected
    for i, j, label in zip(rows, cols, labels):
        assert i != j
        assert oracles.popcount(int(i)) == oracles.popcount(int(j))
        # dual route: the label must rebuild exactly the unit at (i, j)
        spec = BaseOperatorSpec.from_label(label, n)
        unit = build_operator(system, spec).entries
        ref = np.zeros((2**n, 2**n), dtype=complex)
        ref[i, j] = 1.0
        assert np.array_equal(unit, ref), label
        assert spec.shift_order == 0


def _cell_label(i, j, n):
    """Shift label of the matrix unit at (i, j), one spin at a time."""
    parts = []
    for k in range(1, n + 1):
        row_bit = (i >> (n - k)) & 1
        col_bit = (j >> (n - k)) & 1
        parts.append({(0, 0): f"a{k}", (1, 1): f"b{k}", (0, 1): f"I{k}+",
                      (1, 0): f"I{k}-"}[(row_bit, col_bit)])
    return "".join(parts)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_zq_offdiagonal_cells_match_per_cell_loop(n):
    cells = [
        (i, j)
        for i in range(2**n)
        for j in range(2**n)
        if i != j and oracles.popcount(i) == oracles.popcount(j)
    ]
    rows, cols, labels = zq_offdiagonal_cells(n)
    assert rows.tolist() == [i for i, _ in cells]
    assert cols.tolist() == [j for _, j in cells]
    assert labels == tuple(_cell_label(i, j, n) for i, j in cells)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
def test_zq_cell_rank_reproduces_cell_order(n):
    rows, cols, _ = zq_offdiagonal_cells(n)
    assert np.array_equal(_zq_cell_rank(n, rows, cols), np.arange(len(rows)))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
def test_zq_stored_cells_run_block_by_block_over_upper_cells(n):
    rows, cols = _zq_stored_cells(n)
    assert len(rows) == len(cols) == (math.comb(2 * n, n) - 2**n) // 2
    assert np.all(rows < cols)
    blocks = np.array([oracles.popcount(r) for r in rows.tolist()], dtype=int)
    assert blocks.tolist() == [oracles.popcount(c) for c in cols.tolist()]
    # block-major: k never decreases, so each block's cells form one run,
    # and inside a run the cells are row-major
    assert np.all(np.diff(blocks) >= 0)
    keys = rows * 2**n + cols
    same = np.diff(blocks) == 0
    assert np.all(np.diff(keys)[same] > 0)
    # dual route: one loop over every state pair
    states = [[s for s in range(2**n) if oracles.popcount(s) == k] for k in range(n + 1)]
    cells = [(i, j) for block in states for i in block for j in block if i < j]
    assert list(zip(rows.tolist(), cols.tolist())) == cells
    for arr in (rows, cols):
        assert not arr.flags.writeable


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
def test_zq_cell_pairs_name_each_cells_transpose(n):
    rows, cols, labels = zq_offdiagonal_cells(n)
    stored_rows, stored_cols = _zq_stored_cells(n)
    position, lower = _zq_cell_pairs(n)
    assert len(position) == len(lower) == len(labels) == 2 * len(stored_rows)
    # each cell's slot holds the cell or its transpose, whichever has i < j
    assert np.array_equal(stored_rows[position], np.minimum(rows, cols))
    assert np.array_equal(stored_cols[position], np.maximum(rows, cols))
    assert np.array_equal(lower, rows > cols)
    # a cell and its transpose share one slot, and no two pairs do
    slot_of = dict(zip(zip(rows.tolist(), cols.tolist()), position.tolist()))
    assert all(slot_of[c, r] == p for (r, c), p in slot_of.items())
    uses = np.bincount(position, minlength=len(stored_rows))
    assert np.array_equal(uses, [2] * len(stored_rows))
    for arr in (position, lower):
        assert not arr.flags.writeable


def test_zq_cell_pairs_build_no_label_table_and_no_mask(monkeypatch):
    def refuse(*args):
        raise AssertionError("a full-space table was built")

    monkeypatch.setattr(subspaces, "zq_offdiagonal_cells", refuse)
    monkeypatch.setattr(subspaces, "_mask", refuse)
    _zq_stored_cells.cache_clear()
    _zq_cell_pairs.cache_clear()
    (rows, _), (position, lower) = _zq_stored_cells(6), _zq_cell_pairs(6)
    assert len(rows) == len(position) // 2 == int(lower.sum())
    assert len(rows) == (math.comb(12, 6) - 2**6) // 2


def test_zq_offdiagonal_cells_two_digit_spins():
    n = 10
    rows, cols, labels = zq_offdiagonal_cells(n)
    assert len(labels) == math.comb(2 * n, n) - 2**n
    for pos in list(range(0, len(labels), 997)) + [len(labels) - 1]:
        i, j = int(rows[pos]), int(cols[pos])
        assert labels[pos] == _cell_label(i, j, n)
    assert labels[0] == "a1a2a3a4a5a6a7a8I9+I10-"


def test_zq_offdiagonal_cell_labels_n2():
    rows, cols, labels = zq_offdiagonal_cells(2)
    cells = {(int(i), int(j)): lab for i, j, lab in zip(rows, cols, labels)}
    assert cells == {(1, 2): "I1+I2-", (2, 1): "I1-I2+"}


@pytest.mark.parametrize("tag", TAGS)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_closure_holds_for_every_subspace(tag, n):
    report = verify_closure(tag, SpinSystem(n), trials=25, seed=1)
    assert isinstance(report, ClosureReport)
    assert report.passed
    assert report.identity_member
    assert report.checks == 75
    assert report.violations == []
    assert report.max_residual <= 1e-12


# the package exports functions that shadow some submodule names
subspaces = importlib.import_module("mqspace.subspaces")


@pytest.mark.parametrize("tol", [1e-10, -1.0])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("tag", TAGS)
def test_closure_sweep_matches_the_operator_level_reference(tag, n, tol):
    # tol = -1 fails every check, so the violation texts are compared too
    for seed in range(3):
        got = verify_closure(tag, SpinSystem(n), trials=3, seed=seed, tol=tol)
        want = oracles.closure_sweep_operators(tag, n, 3, seed, tol)
        assert got == want, (seed, got, want)
        assert got.max_residual.hex() == want.max_residual.hex()


def _recording(calls, function, keep):
    def wrapper(*args, **kwargs):
        value = function(*args, **kwargs)
        calls.append(keep(args, value).copy())
        return value

    return wrapper


@pytest.mark.parametrize("n", [2, 3])
def test_closure_sweep_draws_and_measures_the_operator_level_stream(n, monkeypatch):
    # every report of a closed pattern is exactly zero, so a reordered
    # stream would not show in it; compare what each trial draws and
    # measures, bit for bit, with project(random_operator(...)) drawn in
    # the order a, b, ha, hb, weights, and with the written-out draw rule
    system = SpinSystem(n)
    trials, seed = 4, 5
    for tag in TAGS:
        drawn, measured = [], []

        def members(draws, outside, zero=subspaces._zero_outside):
            zero(draws, outside)
            drawn.extend(q.copy() for q in draws)

        monkeypatch.setattr(subspaces, "_zero_outside", members)
        monkeypatch.setattr(
            subspaces,
            "_pattern_residual",
            _recording(measured, subspaces._pattern_residual, lambda args, value: args[0]),
        )
        verify_closure(tag, system, trials=trials, seed=seed)
        monkeypatch.undo()

        mask = oracles.pattern_mask(tag.value, n)
        rng = np.random.default_rng(seed)
        twin = np.random.default_rng(seed)
        want_drawn = []
        want_measured = [np.eye(2**n, dtype=complex)]
        for _ in range(trials):
            ops = [project(random_operator(system, rng), tag) for _ in range(2)]
            ops += [project(random_operator(system, rng, hermitian=True), tag) for _ in range(2)]
            w = rng.standard_normal(2)
            raw = [oracles.gaussian_entries(twin, 2**n, h) for h in (False, False, True, True)]
            twin_w = twin.standard_normal(2)
            for op, entries in zip(ops, raw):
                assert op.entries.tobytes() == np.where(mask, entries, 0.0).tobytes()
            assert w.tobytes() == twin_w.tobytes()
            a, b, ha, hb = ops
            want_drawn += [op.entries for op in ops]
            want_measured += [(a @ b).entries, (a @ b - b @ a).entries, (w[0] * ha + w[1] * hb).entries]
        assert len(drawn) == 4 * trials and len(measured) == 1 + 3 * trials
        for got, want in zip(drawn + measured, want_drawn + want_measured):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), tag


# the Operator-level sweep (one Operator per draw, projection and
# result, each a copied 128 x 128 complex matrix) peaked at 2,757,842 to
# 2,759,838 traced bytes on these calls, depending on what ran before;
# the bound is the smallest of those
OPERATOR_SWEEP_PEAK_N7 = 2_757_842


@pytest.mark.parametrize("trials", [1, 3])
def test_closure_sweep_memory_at_seven_spins_is_not_above_the_operator_sweep(trials):
    system = SpinSystem(7)
    verify_closure(SubspaceTag.EVEN_MQ, system, trials=1, seed=1)
    tracemalloc.start()
    try:
        report = verify_closure(SubspaceTag.EVEN_MQ, system, trials=trials, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed and report.checks == 3 * trials
    assert peak <= OPERATOR_SWEEP_PEAK_N7, peak


VERIFY_TAGS = (SubspaceTag.LOMSO, SubspaceTag.ZERO_QUANTUM, SubspaceTag.EVEN_MQ)


@pytest.mark.parametrize("tol", [1e-10, -1.0])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_three_tag_sweep_equals_single_tag_sweeps_and_the_reference(n, tol):
    # tol = -1 fails every check, so the violation texts are compared too;
    # the tags are taken in the order given, whatever their nesting
    system = SpinSystem(n)
    for seed in range(3):
        for tags in (VERIFY_TAGS, VERIFY_TAGS[::-1], (SubspaceTag.ZERO_QUANTUM, SubspaceTag.LOMSO)):
            reports = _closure_sweeps(tags, system, 3, seed, tol)
            assert [r.tag for r in reports] == list(tags)
            for got, tag in zip(reports, tags):
                single = verify_closure(tag, system, trials=3, seed=seed, tol=tol)
                want = oracles.closure_sweep_operators(tag, n, 3, seed, tol)
                assert got == single == want, (seed, tag, got, want)
                assert got.max_residual.hex() == single.max_residual.hex()
                assert got.max_residual.hex() == want.max_residual.hex()


@pytest.mark.parametrize("n", [2, 3])
def test_three_tag_sweep_draws_once_and_masks_the_widest_pattern_first(n, monkeypatch):
    # a member masked to a narrower pattern still passes a wider tag's
    # check, so the reports would not show masks taken in the wrong order;
    # every array a tag measures must be its own tag's product of
    # project(random_operator(...)), drawn once for all tags in the order
    # a, b, ha, hb, weights
    system = SpinSystem(n)
    trials, seed = 4, 5
    draws, measured = [], []

    def counting(*args, draw=subspaces._gaussian_entries):
        draws.append(args)
        return draw(*args)

    def recording(q, mask, *rest, measure=subspaces._pattern_residual):
        measured.append((mask, q.copy()))
        return measure(q, mask, *rest)

    monkeypatch.setattr(subspaces, "_gaussian_entries", counting)
    monkeypatch.setattr(subspaces, "_pattern_residual", recording)
    reports = _closure_sweeps(VERIFY_TAGS, system, trials, seed, 1e-10)
    monkeypatch.undo()
    assert len(draws) == 4 * trials
    assert all(r.passed and r.checks == 3 * trials for r in reports)

    for tag in VERIFY_TAGS:
        got = [q for mask, q in measured if mask is subspaces._mask(tag, n)]
        rng = np.random.default_rng(seed)
        want = [np.eye(2**n, dtype=complex)]
        for _ in range(trials):
            a, b = (project(random_operator(system, rng), tag) for _ in range(2))
            ha, hb = (project(random_operator(system, rng, hermitian=True), tag) for _ in range(2))
            w = rng.standard_normal(2)
            want += [(a @ b).entries, (a @ b - b @ a).entries, (w[0] * ha + w[1] * hb).entries]
        assert len(got) == len(want) == 1 + 3 * trials, tag
        for g, q in zip(got, want):
            assert g.dtype == q.dtype and g.tobytes() == q.tobytes(), tag


@pytest.mark.parametrize("trials", [1, 3])
def test_three_tag_sweep_memory_at_seven_spins_is_not_above_the_operator_sweep(trials):
    # the shared draws are masked in place, so the three tags cost no more
    # than one
    system = SpinSystem(7)
    _closure_sweeps(VERIFY_TAGS, system, 1, 1, 1e-10)
    tracemalloc.start()
    try:
        reports = _closure_sweeps(VERIFY_TAGS, system, trials, 0, 1e-10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(r.passed and r.checks == 3 * trials for r in reports)
    assert peak <= OPERATOR_SWEEP_PEAK_N7, peak


def test_closure_report_failure_path():
    # an impossible tolerance forces every check to be reported
    report = verify_closure(SubspaceTag.FULL, SpinSystem(2), trials=3, seed=0, tol=-1.0)
    assert not report.passed
    assert not report.identity_member
    assert "identity" in report.violations[0]
    assert len(report.violations) == 1 + 3 * 3
