"""Staged reduction tests: partitions, single stages, full cascades."""

import importlib
import tracemalloc

import numpy as np
import pytest

import oracles
from mqspace import (
    CARTESIAN,
    ConfigurationError,
    HamiltonianSpec,
    Operator,
    OperatorExpansion,
    SpinSystem,
    SubspaceTag,
    ToleranceError,
    build_hamiltonian,
    cascade,
    is_member,
    parity_partition,
    popcount_partition,
    project,
    random_operator,
    singleton_partition,
    spin_operator,
    stage_reduce,
    support_mask,
    total_z,
)


def test_partitions_cover_and_respect_their_invariants():
    system = SpinSystem(3)
    par = parity_partition(system)
    assert sorted(i for cell in par for i in cell) == list(range(8))
    assert all(oracles.popcount(i) % 2 == 0 for i in par[0])
    assert all(oracles.popcount(i) % 2 == 1 for i in par[1])
    pop = popcount_partition(system)
    assert [len(cell) for cell in pop] == [1, 3, 3, 1]
    for k, cell in enumerate(pop):
        assert all(oracles.popcount(i) == k for i in cell)
    single = singleton_partition(system)
    assert single == [(i,) for i in range(8)]


def test_stage_reduce_validates_partitions():
    rng = np.random.default_rng(0)
    system = SpinSystem(2)
    h = random_operator(system, rng, hermitian=True)
    with pytest.raises(ConfigurationError):
        stage_reduce(h, [(0, 1), (1, 2, 3)])  # overlap
    with pytest.raises(ConfigurationError):
        stage_reduce(h, [(0, 1), (2,)])  # missing index
    with pytest.raises(ConfigurationError):
        stage_reduce(h, [(0, 1), (2, 3), ()])  # empty cell


def test_stage_reduce_rejects_non_hermitian_input():
    rng = np.random.default_rng(1)
    system = SpinSystem(2)
    with pytest.raises(ToleranceError):
        stage_reduce(random_operator(system, rng), parity_partition(system))


def test_stage_reduce_rejects_input_outside_constraint():
    # a generic dense operator is not even-order block-diagonal
    rng = np.random.default_rng(2)
    system = SpinSystem(2)
    h = random_operator(system, rng, hermitian=True)
    with pytest.raises(ToleranceError):
        stage_reduce(h, popcount_partition(system), SubspaceTag.EVEN_MQ)


def test_stage_reduce_rejects_straddling_cells():
    rng = np.random.default_rng(3)
    system = SpinSystem(2)
    h = project(random_operator(system, rng, hermitian=True), SubspaceTag.EVEN_MQ)
    # cell {0, 1} mixes even and odd down-spin counts
    with pytest.raises(ConfigurationError):
        stage_reduce(h, [(0, 1), (2, 3)], SubspaceTag.EVEN_MQ)


def test_single_stage_block_diagonalizes_random_input():
    rng = np.random.default_rng(4)
    system = SpinSystem(3)
    h = random_operator(system, rng, hermitian=True)
    stage = stage_reduce(h, parity_partition(system))
    assert stage.residual <= 1e-8 * h.norm()
    assert is_member(stage.reduced, SubspaceTag.EVEN_MQ)
    u = stage.unitary.entries
    assert np.allclose(u @ u.conj().T, np.eye(8), atol=1e-12)
    assert np.allclose(
        stage.reduced.entries, u @ h.entries @ u.conj().T, atol=1e-12
    )
    assert np.allclose(
        np.linalg.eigvalsh(stage.reduced.entries),
        np.linalg.eigvalsh(h.entries),
        atol=1e-10,
    )


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("n", [2, 3, 4])
def test_cascade_on_random_hermitian_inputs(n, seed):
    rng = np.random.default_rng(seed)
    system = SpinSystem(n)
    h = random_operator(system, rng, hermitian=True)
    result = cascade(h)
    scale = h.norm()
    assert result.residuals["even_mq"] <= 1e-8 * scale
    assert result.residuals["zero_quantum"] <= 1e-8 * scale
    assert result.residuals["lomso"] <= 1e-8 * scale
    assert is_member(result.h1, SubspaceTag.EVEN_MQ)
    assert is_member(result.h2, SubspaceTag.ZERO_QUANTUM)
    assert is_member(result.h3, SubspaceTag.LOMSO)
    assert result.stage_classes["v2_even_mq"]
    assert result.stage_classes["v3_zero_quantum"]
    assert result.spectrum_error <= 1e-8 * scale


def test_cascade_overall_unitary_maps_input_to_diagonal():
    rng = np.random.default_rng(7)
    system = SpinSystem(3)
    h = random_operator(system, rng, hermitian=True)
    result = cascade(h)
    v = result.overall_unitary.entries
    assert np.allclose(v @ v.conj().T, np.eye(8), atol=1e-12)
    assert np.allclose(v @ h.entries @ v.conj().T, result.h3.entries, atol=1e-10)


def test_cascade_handles_degenerate_diagonal_input():
    # total z has huge degeneracies; the stages must still complete
    system = SpinSystem(3)
    result = cascade(total_z(system))
    assert result.spectrum_error <= 1e-10
    assert is_member(result.h3, SubspaceTag.LOMSO)


def test_cascade_handles_structured_sparse_input():
    system = SpinSystem(3)
    h = build_hamiltonian(
        system,
        HamiltonianSpec("isotropic_j", couplings=((1, 2, 1.0), (2, 3, 1.0))),
    )
    result = cascade(h)
    assert result.spectrum_error <= 1e-10 * max(h.norm(), 1.0)
    diag = np.sort(np.real(np.diag(result.h3.entries)))
    assert np.allclose(diag, np.sort(np.linalg.eigvalsh(h.entries)), atol=1e-10)


def test_cascade_handles_single_spin_offsets():
    system = SpinSystem(2)
    h = build_hamiltonian(
        system, HamiltonianSpec("offsets", offsets=((1, 0.9), (2, -0.4)))
    )
    result = cascade(h)
    assert result.spectrum_error <= 1e-12


def test_cascade_rejects_non_hermitian():
    rng = np.random.default_rng(8)
    with pytest.raises(ToleranceError):
        cascade(random_operator(SpinSystem(2), rng))


def test_stage_unitaries_nest_like_the_subspaces():
    # the second unitary never leaves the even-order pattern and the
    # third never leaves the zero-quantum pattern
    rng = np.random.default_rng(9)
    system = SpinSystem(4)
    h = random_operator(system, rng, hermitian=True)
    result = cascade(h)
    assert is_member(result.v2, SubspaceTag.EVEN_MQ).residual == 0.0
    assert is_member(result.v3, SubspaceTag.ZERO_QUANTUM).residual == 0.0
    for v in (result.v1, result.v2, result.v3):
        prod = v.entries @ v.entries.conj().T
        assert np.allclose(prod, np.eye(16), atol=1e-12)


def test_already_diagonal_input_stays_diagonal():
    system = SpinSystem(2)
    h = Operator(system, np.diag([3.0, 1.0, -1.0, 2.0]).astype(complex), True)
    result = cascade(h)
    assert np.allclose(
        np.sort(np.real(np.diag(result.h3.entries))), [-1.0, 1.0, 2.0, 3.0]
    )
    assert result.residuals["lomso"] <= 1e-12


def test_zero_operator_cascades_cleanly():
    system = SpinSystem(2)
    zero = Operator(system, np.zeros((4, 4)), True)
    result = cascade(zero)
    assert result.spectrum_error == 0.0
    assert not zero.entries.any()


def test_projector_input_with_massive_degeneracy():
    # rank-one projector: eigenvalue 1 once, eigenvalue 0 with
    # multiplicity 7, exercising the degenerate-cluster alignment
    system = SpinSystem(3)
    vec = np.ones(8) / np.sqrt(8.0)
    h = Operator(system, np.outer(vec, vec), True)
    result = cascade(h)
    assert result.spectrum_error <= 1e-10
    diag = np.sort(np.real(np.diag(result.h3.entries)))
    assert diag[-1] == pytest.approx(1.0, abs=1e-10)
    assert np.all(np.abs(diag[:-1]) <= 1e-10)


def test_flipflop_hamiltonian_cascade():
    system = SpinSystem(2)
    h = build_hamiltonian(system, HamiltonianSpec("flipflop", couplings=((1, 2, 1.0),)))
    result = cascade(h)
    assert np.allclose(
        np.sort(np.real(np.diag(result.h3.entries))), [-0.5, 0.0, 0.0, 0.5], atol=1e-12
    )


def test_longitudinal_input_is_fixed_by_every_stage():
    system = SpinSystem(3)
    h = spin_operator(system, 2, "z")
    result = cascade(h)
    for reduced in (result.h1, result.h2, result.h3):
        assert is_member(reduced, SubspaceTag.LOMSO).residual <= 1e-12


# the package's ``cascade`` attribute is the function, not the module
cascade_module = importlib.import_module("mqspace.cascade")


def _tuple_sort_order(overlaps, w):
    reference = sorted(
        (-overlaps[ci, col], w[col], col, ci)
        for ci in range(overlaps.shape[0])
        for col in range(overlaps.shape[1])
    )
    return [col for _, _, col, _ in reference], [ci for _, _, _, ci in reference]


@pytest.mark.parametrize("n", [4, 5, 6])
def test_assignment_order_matches_tuple_sort_on_degenerate_input(n, monkeypatch):
    # a uniform flip-flop chain has repeated eigenvalues and, after the
    # cluster alignment, many exactly equal overlaps; every stage's
    # candidate order must equal the sort over (-overlap, w, col, cell)
    seen = []
    order = cascade_module._assignment_order

    def recording(overlaps, w):
        cols, cells = order(overlaps, w)
        seen.append((overlaps.copy(), w.copy(), cols, cells))
        return cols, cells

    monkeypatch.setattr(cascade_module, "_assignment_order", recording)
    system = SpinSystem(n)
    chain = tuple((k, k + 1, 1.0) for k in range(1, n))
    cascade(build_hamiltonian(system, HamiltonianSpec("flipflop", couplings=chain)))

    assert seen
    ties = 0
    for overlaps, w, cols, cells in seen:
        assert (cols.tolist(), cells.tolist()) == _tuple_sort_order(overlaps, w)
        ties += len(w) - len(np.unique(w))
    assert ties > 0


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_thin_cluster_alignment_matches_full_left_factor(n, monkeypatch):
    # a uniform dipolar chain has degenerate clusters in every stage; the
    # alignment reads only s and the square vh of each SVD, so taking the
    # left factor thin must leave the whole cascade where the full one puts it
    system = SpinSystem(n)
    chain = tuple((k, k + 1, 1.0) for k in range(1, n))
    h = build_hamiltonian(system, HamiltonianSpec("dipolar_secular", couplings=chain))
    align = cascade_module._align_cluster
    calls = []

    def counting(cols, local_cells):
        calls.append(cols.shape[1])
        return align(cols, local_cells)

    monkeypatch.setattr(cascade_module, "_align_cluster", counting)
    thin = cascade(h)
    monkeypatch.setattr(cascade_module, "_align_cluster", oracles.align_cluster_full)
    full = cascade(h)

    assert calls
    assert thin.fallbacks == full.fallbacks
    scale = max(h.norm(), 1.0)
    for name in ("v1", "v2", "v3", "h1", "h2", "h3"):
        gap = np.max(np.abs(getattr(thin, name).entries - getattr(full, name).entries))
        assert gap <= 1e-10 * scale, name


def test_assignment_order_uses_every_tie_breaking_key():
    # eigh returns ascending eigenvalues, so a cascade never shows the
    # eigenvalue key apart from the column key; draw unsorted eigenvalues
    # and overlaps from few values, signed zeros included, to tie all keys
    rng = np.random.default_rng(11)
    for cells, m in ((1, 1), (3, 8), (5, 5), (7, 20)):
        overlaps = rng.choice([0.0, -0.0, 0.25, 0.5, 1.0], size=(cells, m))
        w = rng.choice([-1.0, 0.0, -0.0, 2.0], size=m)
        cols, cell_ids = cascade_module._assignment_order(overlaps, w)
        assert (cols.tolist(), cell_ids.tolist()) == _tuple_sort_order(overlaps, w)


def _record_polar_inputs(monkeypatch):
    """Record each stage's ``_polar_factors`` inputs and ``_direct_rotation_polar`` output.

    Returns a list with one entry per stage, each a list of ``(v,
    local_cells, assigned_cols, u_block, sigma_min)`` per constraint
    block; ``u_block`` is None for a block that took the axis mapping.
    """
    stages = []
    factors_of = cascade_module._polar_factors
    polar = cascade_module._direct_rotation_polar
    stage = cascade_module._block_stage

    def recording_factors(v, local_cells, assigned_cols):
        factors, sigma_min = factors_of(v, local_cells, assigned_cols)
        stages[-1].append(
            [v.copy(), [r.copy() for r in local_cells],
             [list(c) for c in assigned_cols], None, sigma_min]
        )
        return factors, sigma_min

    def recording_polar(*args):
        stages[-1][-1][3] = u_block = polar(*args)
        return u_block

    def recording_stage(*args, **kwargs):
        stages.append([])
        return stage(*args, **kwargs)

    monkeypatch.setattr(cascade_module, "_polar_factors", recording_factors)
    monkeypatch.setattr(cascade_module, "_direct_rotation_polar", recording_polar)
    monkeypatch.setattr(cascade_module, "_block_stage", recording_stage)
    return stages


def _random_hermitian(n, seed):
    return random_operator(SpinSystem(n), np.random.default_rng(seed), hermitian=True)


def _projector():
    vec = np.ones(8) / np.sqrt(8.0)
    return Operator(SpinSystem(3), np.outer(vec, vec), True)


# the degenerate inputs of the cascade tests above
_DEGENERATE_INPUTS = [
    pytest.param(
        lambda: Operator(
            SpinSystem(2), np.diag([3.0, 1.0, -1.0, 2.0]).astype(complex), True
        ),
        id="diagonal",
    ),
    pytest.param(_projector, id="projector"),
    pytest.param(lambda: Operator(SpinSystem(2), np.zeros((4, 4)), True), id="zero"),
    pytest.param(
        lambda: build_hamiltonian(
            SpinSystem(2), HamiltonianSpec("flipflop", couplings=((1, 2, 1.0),))
        ),
        id="flipflop",
    ),
    pytest.param(lambda: total_z(SpinSystem(3)), id="total-z"),
]

_POLAR_INPUTS = [
    pytest.param(lambda n=n: _random_hermitian(n, 20 + n), id=f"random-n{n}")
    for n in range(1, 7)
] + _DEGENERATE_INPUTS


@pytest.mark.parametrize("make_input", _POLAR_INPUTS)
def test_per_cell_polar_factor_matches_dense_direct_rotation(make_input, monkeypatch):
    # the polar factor taken one cell at a time equals the polar factor
    # of the whole m x m direct-rotation sum, and so does sigma_min
    stages = _record_polar_inputs(monkeypatch)
    result = cascade(make_input())
    assert len(stages) == 3
    for stage, smallest in zip(stages, result.smallest_sigmas):
        dense_sigmas = []
        for v, local_cells, assigned_cols, u_block, sigma_min in stage:
            u_dense, sigma_dense = oracles.direct_rotation_polar_dense(
                v, local_cells, assigned_cols
            )
            assert abs(sigma_min - sigma_dense) <= 1e-12
            assert np.max(np.abs(u_block - u_dense)) <= 1e-12
            dense_sigmas.append(sigma_dense)
        assert abs(smallest - min(dense_sigmas)) <= 1e-12


@pytest.mark.parametrize("make_input", _POLAR_INPUTS)
def test_axis_mapping_matches_outer_product_loop(make_input, monkeypatch):
    stages = _record_polar_inputs(monkeypatch)
    cascade(make_input())
    for stage in stages:
        for v, local_cells, assigned_cols, _, _ in stage:
            assert np.array_equal(
                cascade_module._axis_mapping(v, local_cells, assigned_cols),
                oracles.axis_mapping_loop(v, local_cells, assigned_cols),
            )


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_forced_fallback_still_reduces(n, monkeypatch):
    # no input reaches the near-singular branch on its own; a threshold
    # above every singular value sends every block through it, and no
    # block fills the direct rotation it does not use
    monkeypatch.setattr(cascade_module, "FALLBACK_SIGMA", 10.0)

    def refuse(*args):
        raise AssertionError("the direct rotation of a fallback block was filled")

    monkeypatch.setattr(cascade_module, "_direct_rotation_polar", refuse)
    h = _random_hermitian(n, 40 + n)
    result = cascade(h)
    limit = cascade_module.STAGE_TOL * max(h.norm(), 1.0)
    assert result.fallbacks == (True, True, True)
    assert all(value <= limit for value in result.residuals.values())
    assert all(result.stage_classes.values())
    assert result.spectrum_error <= limit
    assert all(0.0 < sigma <= 1.0 for sigma in result.smallest_sigmas)


def _symmetrized_dense_product(stage, h):
    u = stage.unitary.entries
    r = u @ h.entries @ u.conj().T
    return 0.5 * (r + r.conj().T)


def test_block_order_conjugation_matches_dense_product():
    system = SpinSystem(4)
    h = random_operator(system, np.random.default_rng(31), hermitian=True)
    # each input lies inside its constraint pattern
    cases = [
        (h, parity_partition(system), SubspaceTag.FULL),
        (project(h, SubspaceTag.EVEN_MQ), popcount_partition(system), SubspaceTag.EVEN_MQ),
        (
            project(h, SubspaceTag.ZERO_QUANTUM),
            singleton_partition(system),
            SubspaceTag.ZERO_QUANTUM,
        ),
    ]
    for source, partition, constraint in cases:
        stage = stage_reduce(source, partition, constraint)
        scale = max(source.norm(), 1.0)
        dense = _symmetrized_dense_product(stage, source)
        assert np.max(np.abs(stage.reduced.entries - dense)) <= 1e-12 * scale
        assert stage.reduced.hermiticity_defect() == 0.0
        assert not stage.reduced.entries.flags.writeable
        assert not stage.unitary.entries.flags.writeable


@pytest.mark.parametrize("constraint", [SubspaceTag.EVEN_MQ, SubspaceTag.ZERO_QUANTUM])
def test_residual_counts_off_block_weight_below_tolerance(constraint):
    # weight outside the constraint pattern, small enough to be accepted,
    # stays in the product and therefore in the residual
    system = SpinSystem(4)
    rng = np.random.default_rng(32)
    h = random_operator(system, rng, hermitian=True)
    inside = project(h, constraint)
    outside = h - inside
    planted_norm = 1e-3 * cascade_module.STAGE_TOL * max(inside.norm(), 1.0)
    noisy = inside + outside * (planted_norm / outside.norm())
    planted = is_member(noisy, constraint).residual
    assert 0.0 < planted <= cascade_module.STAGE_TOL * max(noisy.norm(), 1.0)
    partition = (
        popcount_partition(system)
        if constraint is SubspaceTag.EVEN_MQ
        else singleton_partition(system)
    )
    stage = stage_reduce(noisy, partition, constraint)
    scale = max(noisy.norm(), 1.0)
    dense = _symmetrized_dense_product(stage, noisy)
    assert np.max(np.abs(stage.reduced.entries - dense)) <= 1e-12 * scale
    assert abs(stage.residual - planted) <= 1e-3 * planted


@pytest.mark.parametrize("n", range(1, 9))
def test_cascade_matches_the_stage_by_stage_route(n):
    # handing each stage's eigenpairs to the next stage must leave every
    # result where three independent stage_reduce calls put it
    for seed in range(1, 21):
        h = _random_hermitian(n, seed)
        result = cascade(h)
        reference = oracles.cascade_by_stages(h)
        assert result.fallbacks == reference.fallbacks
        for key, membership in result.stage_classes.items():
            other = reference.stage_classes[key]
            assert (bool(membership), membership.residual) == (bool(other), other.residual)
        scale = max(h.norm(), 1.0)
        for name in ("v1", "v2", "v3", "h1", "h2", "h3"):
            gap = np.max(np.abs(getattr(result, name).entries - getattr(reference, name).entries))
            assert gap <= 1e-10 * scale, (seed, name)


@pytest.mark.parametrize("make_input", _DEGENERATE_INPUTS)
def test_degenerate_inputs_stay_within_stage_tolerance(make_input):
    h = make_input()
    result = cascade(h)
    reference = oracles.cascade_by_stages(h)
    limit = cascade_module.STAGE_TOL * max(h.norm(), 1.0)
    for values in (result, reference):
        assert all(value <= limit for value in values.residuals.values())
        assert values.spectrum_error <= limit
    assert result.fallbacks == reference.fallbacks


def _count_decompositions(monkeypatch):
    """Record the shape of every ``eigh`` input and every ``eigvalsh`` call.

    Each ``eigh`` entry is ``(stage, shape)``, ``stage`` counting from 0;
    the second list collects each stage's hand-off to the next.
    """
    eigh_calls, eigvalsh_calls, handed = [], [], []
    eigh, eigvalsh = np.linalg.eigh, np.linalg.eigvalsh
    stage = cascade_module._block_stage

    def counting_eigh(a, *args, **kwargs):
        eigh_calls.append((len(handed), a.shape))
        return eigh(a, *args, **kwargs)

    def counting_eigvalsh(a, *args, **kwargs):
        eigvalsh_calls.append(a.shape)
        return eigvalsh(a, *args, **kwargs)

    def recording_stage(*args, **kwargs):
        reduction, pairs = stage(*args, **kwargs)
        handed.append(list(pairs))
        return reduction, pairs

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    monkeypatch.setattr(cascade_module, "_block_stage", recording_stage)
    return eigh_calls, eigvalsh_calls, handed


def test_random_cascade_diagonalizes_its_input_once(monkeypatch):
    # stages 2 and 3 take their eigenpairs from the stage before, and the
    # spectrum check reads stage 1's eigenvalues
    h = _random_hermitian(6, 3)
    eigh_calls, eigvalsh_calls, _ = _count_decompositions(monkeypatch)
    result = cascade(h)
    monkeypatch.undo()
    assert eigh_calls == [(0, (64, 64))]
    assert eigvalsh_calls == []
    assert result.spectrum_error <= 1e-12 * max(h.norm(), 1.0)


def _has_cluster(w):
    w = np.sort(w)
    gap_tol = cascade_module.CLUSTER_GAP * max(1.0, float(w[-1] - w[0]))
    return bool(np.any(np.diff(w) <= gap_tol))


@pytest.mark.parametrize("n, eigh_count", [(5, 3), (6, 10)])
def test_uniform_chain_diagonalizes_again_only_after_rotated_clusters(n, eigh_count, monkeypatch):
    # a block whose degenerate clusters were rotated hands on no
    # eigenvectors, and only those blocks are diagonalized again: at n = 5
    # stage 2 rotates no cluster, so stage 3 calls no eigh
    system = SpinSystem(n)
    chain = tuple((k, k + 1, 1.0) for k in range(1, n))
    h = build_hamiltonian(system, HamiltonianSpec("dipolar_secular", couplings=chain))
    eigh_calls, eigvalsh_calls, handed = _count_decompositions(monkeypatch)
    cascade(h)
    monkeypatch.undo()
    assert eigvalsh_calls == []
    first, second = handed[0], handed[1]
    parity = parity_partition(system)
    popcount = popcount_partition(system)

    # stage 1 has one block holding both parity cells; stage 2's blocks
    # are the parity cells, each holding the popcount cells of its parity
    clustered = _has_cluster(np.concatenate([w for w, _ in first]))
    assert all((p is None) == clustered for _, p in first)
    for parity_bit in (0, 1):
        cells = [second[k] for k in range(parity_bit, n + 1, 2)]
        clustered = _has_cluster(np.concatenate([w for w, _ in cells]))
        assert all((p is None) == clustered for _, p in cells)

    expected = [(0, (2**n, 2**n))]
    for stage, blocks, pairs in ((1, parity, first), (2, popcount, second)):
        expected += [(stage, (len(b), len(b))) for b, (_, p) in zip(blocks, pairs) if p is None]
    assert eigh_calls == expected
    assert len(eigh_calls) == eigh_count


def test_uniform_chain_at_ten_spins_reduces_to_roundoff():
    # a uniform chain's spectrum is full of near-degenerate clusters; vectors
    # rotated inside one are eigenvectors only to within its spread, which
    # shows here when they are handed on
    n = 10
    system = SpinSystem(n)
    chain = tuple((k, k + 1, 1.0) for k in range(1, n))
    h = build_hamiltonian(system, HamiltonianSpec("dipolar_secular", couplings=chain))
    result = cascade(h)
    scale = max(h.norm(), 1.0)
    assert result.residuals["lomso"] <= 1e-12 * scale
    assert result.spectrum_error <= 1e-12 * scale


@pytest.mark.parametrize("fallback_sigma", [cascade_module.FALLBACK_SIGMA, 10.0])
@pytest.mark.parametrize("n", [1, 3, 5])
def test_handed_eigenpairs_diagonalize_each_reduced_cell(n, fallback_sigma, monkeypatch):
    # each cell's polar factor, or on a fallback the axis permutation,
    # holds eigenvectors of the reduced block on that cell
    monkeypatch.setattr(cascade_module, "FALLBACK_SIGMA", fallback_sigma)
    h = _random_hermitian(n, 50 + n)
    system = h.system
    scale = max(h.norm(), 1.0)
    cells = [np.array(cell) for cell in parity_partition(system)]
    stage, pairs = cascade_module._block_stage(
        system.dim, [(np.arange(system.dim), h.entries)], cells
    )
    assert stage.fallback_used is (fallback_sigma == 10.0)
    assert np.allclose(
        np.sort(np.concatenate([w for w, _ in pairs])),
        np.linalg.eigvalsh(h.entries),
        atol=1e-12 * scale,
    )
    for cell, (idx, block), (w, p) in zip(cells, stage.reduced, pairs):
        assert np.array_equal(idx, cell)
        assert np.allclose(p.conj().T @ p, np.eye(len(cell)), atol=1e-12)
        assert np.max(np.abs(block @ p - p * w)) <= 1e-12 * scale


def test_stage_one_folds_only_an_input_that_is_not_exactly_hermitian(monkeypatch):
    # eigh reads one triangle, which an exactly Hermitian input shares with
    # its fold, so stage 1 hands it the input itself; an input Hermitian only
    # within tolerance is handed its fold, an exactly Hermitian copy
    inputs = []  # the array each eigh call is given, in call order
    eigh = np.linalg.eigh

    def recording_eigh(a, *args, **kwargs):
        inputs.append(a)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    h = _random_hermitian(6, 3)
    cascade(h)
    assert np.shares_memory(inputs[0], h.entries)

    skew = 1e-13 * random_operator(h.system, np.random.default_rng(4)).entries
    entries = h.entries + skew
    inexact = Operator(h.system, entries)
    assert inexact.hermitian_hint is None and inexact.hermiticity_defect() > 0.0
    inputs.clear()
    result = cascade(inexact)
    folded = inputs[0]
    assert not np.shares_memory(folded, inexact.entries)
    assert np.array_equal(folded, folded.conj().T)
    assert folded.tobytes() == (0.5 * (entries + entries.conj().T)).tobytes()
    limit = cascade_module.STAGE_TOL * max(inexact.norm(), 1.0)
    assert max(result.residuals.values()) <= limit
    assert result.spectrum_error <= limit


def _custom_model(n):
    """A custom Hamiltonian with complex exchange and single-quantum terms."""
    terms = {"I1x": 0.3, "I1z": -0.2}
    for k in range(1, n):
        terms |= {
            f"2I{k}xI{k + 1}x": 0.6 / k, f"2I{k}yI{k + 1}y": 0.6 / k,
            f"2I{k}xI{k + 1}y": 0.35, f"2I{k}yI{k + 1}x": -0.35,
        }
    spec = HamiltonianSpec("custom", custom=OperatorExpansion(CARTESIAN, terms, 0.0))
    return build_hamiltonian(SpinSystem(n), spec)


_BLOCK_STAGE_INPUTS = [
    pytest.param(lambda n=n: _random_hermitian(n, 60 + n), id=f"random-n{n}")
    for n in range(1, 7)
] + [pytest.param(lambda: _custom_model(4), id="custom-n4")]


@pytest.mark.parametrize("make_input", _BLOCK_STAGE_INPUTS)
def test_block_stage_products_equal_the_dense_conjugate_route(make_input, monkeypatch):
    # each constraint block's U a U^H is formed without a conjugate copy of
    # U; its target-cell blocks and dropped weight must equal those of the
    # folded dense product u @ a @ u.conj().T, in stage_reduce's one stage
    # and in each of the cascade's three
    h = make_input()
    scale = max(h.norm(), 1.0)
    calls = []
    block_stage = cascade_module._block_stage

    def recording_stage(dim, blocks, cells, pairs=None):
        stage, handed = block_stage(dim, blocks, cells, pairs)
        calls.append((blocks, cells, stage))
        return stage, handed

    monkeypatch.setattr(cascade_module, "_block_stage", recording_stage)
    stage_reduce(h, parity_partition(h.system))
    cascade(h)
    assert len(calls) == 4
    for blocks, cells, stage in calls:
        dropped = 0.0
        for (blk, a), (idx, u) in zip(blocks, stage.unitary):
            assert np.array_equal(idx, blk)
            r = u @ a @ u.conj().T
            product = 0.5 * (r + r.conj().T)
            position = {int(i): row for row, i in enumerate(blk)}
            for cell, (cell_idx, kept) in zip(cells, stage.reduced):
                if int(cell[0]) not in position:
                    continue
                assert np.array_equal(cell_idx, cell)
                rows = [position[int(i)] for i in cell]
                dense = product[np.ix_(rows, rows)]
                assert np.max(np.abs(kept - dense)) <= 1e-14 * scale
                product[np.ix_(rows, rows)] = 0.0
            dropped = float(np.hypot(dropped, np.linalg.norm(product)))
        assert abs(stage.dropped - dropped) <= 1e-14 * scale


@pytest.mark.parametrize("n", range(1, 9))
def test_stage_reduce_runs_one_block_stage(n, monkeypatch):
    # stage_reduce is the cascade's block stage plus one dense product, so
    # its stage-1 unitary is the cascade's v1, byte for byte
    entered = []
    block_stage = cascade_module._block_stage

    def counting_stage(*args, **kwargs):
        entered.append(True)
        return block_stage(*args, **kwargs)

    for seed in (1, 2, 3):
        h = _random_hermitian(n, seed)
        v1 = cascade(h).v1.entries.tobytes()
        monkeypatch.setattr(cascade_module, "_block_stage", counting_stage)
        entered.clear()
        reference = oracles.cascade_by_stages(h)
        monkeypatch.undo()
        assert len(entered) == 3
        assert reference.v1.entries.tobytes() == v1


def test_cascade_reads_stage_classes_from_the_blocks(monkeypatch):
    # no dense view is built inside cascade; the block reading equals
    # is_member on the views
    def refuse(*args, **kwargs):
        raise AssertionError("cascade built a dense view")

    h = _random_hermitian(6, 1)
    monkeypatch.setattr(cascade_module, "_dense", refuse)
    result = cascade(h)
    monkeypatch.undo()
    for key, view, tag in (
        ("v2_even_mq", result.v2, SubspaceTag.EVEN_MQ),
        ("v3_zero_quantum", result.v3, SubspaceTag.ZERO_QUANTUM),
    ):
        membership, dense = result.stage_classes[key], is_member(view, tag)
        assert (membership.member, membership.residual) == (dense.member, dense.residual)
        assert (membership.tag, membership.tolerance) == (dense.tag, dense.tolerance)
        assert abs(membership.norm - dense.norm) <= 1e-14 * dense.norm


def _uniform_chain(model, n):
    chain = tuple((k, k + 1, 1.0) for k in range(1, n))
    return build_hamiltonian(SpinSystem(n), HamiltonianSpec(model, couplings=chain))


@pytest.mark.parametrize("n", range(1, 9))
def test_carried_residuals_equal_the_dense_off_target_weight(n):
    # each stage drops the weight outside its target cells and carries it
    # as a number; it must equal the weight that V h V^H, formed densely
    # from the result's own views, holds outside each stage's pattern
    inputs = [_random_hermitian(n, seed) for seed in range(1, 21)]
    if n > 1:
        inputs += [
            _uniform_chain(model, n) for model in ("dipolar_secular", "flipflop", "isotropic_j")
        ]
    patterns = {
        "even_mq": SubspaceTag.EVEN_MQ,
        "zero_quantum": SubspaceTag.ZERO_QUANTUM,
        "lomso": SubspaceTag.LOMSO,
    }
    for h in inputs:
        result = cascade(h)
        scale = max(h.norm(), 1.0)
        v = np.eye(h.system.dim, dtype=complex)
        for stage, (name, tag) in zip((result.v1, result.v2, result.v3), patterns.items()):
            v = stage.entries @ v
            r = v @ h.entries @ v.conj().T
            dense = float(np.linalg.norm(np.where(support_mask(tag, h.system), 0.0, r)))
            assert abs(result.residuals[name] - dense) <= 1e-14 * scale, name


# in units of one dense 2^n x 2^n complex matrix, the input and eigh's
# LAPACK workspace not counted: the peak is stage 1's U A U^H, with the
# unitary, two dense products (U A and the product, or the product and its
# fold's conjugate) and the cells' polar factors, half a matrix, alive;
# 3.6 at n = 8. A conjugate copy of U, or the last cell's SVD factors kept
# while the unitary is filled, takes it past 4.5
CASCADE_PEAK_DENSE = 4


def test_cascade_peak_memory_is_a_few_dense_matrices():
    h = _random_hermitian(8, 1)
    dense = h.system.dim**2 * 16
    cascade(h)  # the one-off allocations of a first call
    tracemalloc.start()
    try:
        cascade(h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= CASCADE_PEAK_DENSE * dense, peak / dense


def test_dense_views_are_read_only_and_built_on_read():
    result = cascade(_random_hermitian(4, 2))
    for name in ("v1", "v2", "v3", "h1", "h2", "h3"):
        view = getattr(result, name)
        assert not view.entries.flags.writeable, name
        assert getattr(result, name) is not view
        assert view.hermitian_hint is (True if name.startswith("h") else None)
    for stage in result.unitary_blocks + result.reduced_blocks:
        for idx, block in stage:
            assert not idx.flags.writeable
            assert not block.flags.writeable
    # the blocks are what the views hold: each stage's unitary on its
    # constraint blocks, each reduced operator on its target cells
    system = SpinSystem(4)
    assert [len(stage) for stage in result.unitary_blocks] == [1, 2, 5]
    assert [len(stage) for stage in result.reduced_blocks] == [2, 5, 16]
    for stage, partition in zip(
        result.reduced_blocks,
        (parity_partition(system), popcount_partition(system), singleton_partition(system)),
    ):
        assert [tuple(idx.tolist()) for idx, _ in stage] == partition
