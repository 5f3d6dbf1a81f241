"""Transfer-run tests: config validation, engines, purging, discrepancy."""

import importlib
import itertools
import math

import numpy as np
import pytest

import oracles
from mqspace import (
    CARTESIAN,
    BaseOperatorSpec,
    ConfigurationError,
    DiffusionConfig,
    HamiltonianSpec,
    Operator,
    OperatorExpansion,
    SpinSystem,
    ToleranceError,
    build_hamiltonian,
    build_operator,
    channel_discrepancy,
    conjugate,
    linear_times,
    purge,
    reconstruct_profile,
    run_blockwise,
    run_diffusion,
    zq_offdiagonal_cells,
    zq_propagator,
)
from mqspace.dynamics import _blockwise_cells, _dense_cells, _profile, _walsh_bin

diffusion = importlib.import_module("mqspace.diffusion")
dynamics = importlib.import_module("mqspace.dynamics")
subspaces = importlib.import_module("mqspace.subspaces")

CHAIN4 = HamiltonianSpec(
    "dipolar_secular", couplings=((1, 2, 1.0), (2, 3, 0.7), (3, 4, 0.5))
)
PAIR = HamiltonianSpec("flipflop", couplings=((1, 2, 1.0),))


def test_linear_times_endpoints_and_spacing():
    grid = linear_times(0.0, 2.0, 5)
    assert grid == (0.0, 0.5, 1.0, 1.5, 2.0)


def test_linear_times_validation():
    with pytest.raises(ConfigurationError):
        linear_times(0.0, 1.0, 1)
    with pytest.raises(ConfigurationError):
        linear_times(-0.5, 1.0, 4)
    with pytest.raises(ConfigurationError):
        linear_times(1.0, 1.0, 4)
    with pytest.raises(ConfigurationError):
        linear_times(2.0, 1.0, 4)


@pytest.mark.parametrize("points", [2.5, 3.0, "3", True, None])
def test_linear_times_refuses_a_non_integer_point_count(points):
    with pytest.raises(ConfigurationError, match="number of grid times must be an integer"):
        linear_times(0.0, 1.0, points)


def test_linear_times_accepts_a_numpy_integer_point_count():
    assert linear_times(0.0, 1.0, np.int64(3)) == (0.0, 0.5, 1.0)


@pytest.mark.parametrize(
    "start, end", [(0.0, math.inf), (0.0, math.nan), (math.nan, 1.0), (-math.inf, 1.0)]
)
def test_linear_times_rejects_non_finite_ends(start, end):
    with pytest.raises(ConfigurationError):
        linear_times(start, end, 3)


@pytest.mark.parametrize(
    "times", [(0.0, math.nan), (0.0, math.inf), (math.nan, 1.0), (0.0, 0.5, math.inf)]
)
def test_config_rejects_non_finite_times(times):
    with pytest.raises(ConfigurationError):
        DiffusionConfig(SpinSystem(2), PAIR, times=times)


def test_config_validates_time_grid():
    system = SpinSystem(2)
    with pytest.raises(ConfigurationError):
        DiffusionConfig(system, PAIR, times=())
    with pytest.raises(ConfigurationError):
        DiffusionConfig(system, PAIR, times=(-0.1, 0.5))
    with pytest.raises(ConfigurationError):
        DiffusionConfig(system, PAIR, times=(0.0, 0.5, 0.5))
    with pytest.raises(ConfigurationError):
        DiffusionConfig(system, PAIR, times=(0.5, 0.2))


def test_config_validates_initial_operator():
    system = SpinSystem(2)
    times = (0.0, 1.0)
    DiffusionConfig(system, PAIR, times, initial="2I1zI2z")
    with pytest.raises(ConfigurationError):
        DiffusionConfig(system, PAIR, times, initial="E/2")
    with pytest.raises(ConfigurationError):
        DiffusionConfig(system, PAIR, times, initial="I1x")
    with pytest.raises(ConfigurationError):
        DiffusionConfig(system, PAIR, times, initial="I1+I2-")
    with pytest.raises(ConfigurationError):
        DiffusionConfig(system, PAIR, times, initial="I3z")


def test_config_validates_track_list():
    system = SpinSystem(2)
    times = (0.0, 1.0)
    cfg = DiffusionConfig(system, PAIR, times, track=("I1z", "I1+I2-"))
    assert cfg.tracked_labels() == ("I1z", "I1+I2-")
    with pytest.raises(ConfigurationError):
        DiffusionConfig(system, PAIR, times, track=("I9z",))
    with pytest.raises(ConfigurationError):
        DiffusionConfig(system, PAIR, times, track=())
    with pytest.raises(ConfigurationError):
        DiffusionConfig(system, PAIR, times, track=("I1z", "I1z"))


@pytest.mark.parametrize("label", ["E/2", "I1x", "a1b2", "I1+a2", "I9z", "I1zI2z"])
def test_config_names_an_unknown_channel_label(label):
    with pytest.raises(ConfigurationError) as info:
        DiffusionConfig(SpinSystem(2), PAIR, (0.0, 1.0), track=("I1z", label))
    assert str(info.value) == f"unknown channel label {label!r} for n=2"


def test_config_rejects_a_bare_label_string_as_track():
    with pytest.raises(ConfigurationError) as info:
        DiffusionConfig(SpinSystem(2), PAIR, (0.0, 1.0), track="I1z")
    assert str(info.value) == (
        "track must be 'all' or a tuple of channel labels, got 'I1z'"
    )


def test_tracked_labels_all_covers_every_channel():
    cfg = DiffusionConfig(SpinSystem(2), PAIR, (0.0, 1.0))
    labels = cfg.tracked_labels()
    assert set(labels) == {"I1z", "I2z", "2I1zI2z", "I1+I2-", "I1-I2+"}


def test_initial_point_of_grid_is_the_unmoved_operator():
    cfg = DiffusionConfig(SpinSystem(2), PAIR, (0.0, 0.4))
    trace = run_diffusion(cfg)
    assert trace.engine == "full"
    assert trace.block_sizes is None
    assert trace.channels["I1z"][0] == pytest.approx(1.0, abs=1e-12)
    assert trace.channels["I2z"][0] == pytest.approx(0.0, abs=1e-12)
    assert trace.channels["I1+I2-"][0] == pytest.approx(0.0, abs=1e-12)


def test_flipflop_pair_full_transfer():
    cfg = DiffusionConfig(SpinSystem(2), PAIR, (0.0, np.pi / 2, np.pi))
    trace = run_diffusion(cfg)
    assert trace.channels["I2z"][-1] == pytest.approx(1.0, abs=1e-12)
    assert trace.channels["I1z"][-1] == pytest.approx(0.0, abs=1e-12)
    # halfway the two longitudinal channels share the weight equally
    assert trace.channels["I1z"][1] == pytest.approx(0.5, abs=1e-12)
    assert trace.channels["I2z"][1] == pytest.approx(0.5, abs=1e-12)


def test_conserved_series_is_flat_for_coupling_models():
    cfg = DiffusionConfig(SpinSystem(4), CHAIN4, linear_times(0.0, 3.0, 9))
    trace = run_diffusion(cfg)
    assert trace.conserved[0] == pytest.approx(2.0 ** (4 - 2))
    assert np.allclose(trace.conserved, trace.conserved[0], atol=1e-10)


def test_spin_orders_emerge_in_a_generic_chain():
    # an asymmetric network with longitudinal coupling terms must leak
    # visible weight into multi-spin order channels
    cfg = DiffusionConfig(SpinSystem(4), CHAIN4, linear_times(0.0, 4.0, 33))
    trace = run_diffusion(cfg)
    order_peaks = [
        float(np.max(np.abs(series)))
        for lab, series in trace.channels.items()
        if lab in trace.undesired
    ]
    assert max(order_peaks) > 0.01


def test_undesired_channels_are_the_non_longitudinal_ones():
    cfg = DiffusionConfig(SpinSystem(2), PAIR, (0.0, 1.0))
    trace = run_diffusion(cfg)
    assert set(trace.undesired) == {"2I1zI2z", "I1+I2-", "I1-I2+"}
    narrowed = DiffusionConfig(SpinSystem(2), PAIR, (0.0, 1.0), track=("I1z",))
    assert run_diffusion(narrowed).undesired == ()


def test_blockwise_engine_matches_full_engine():
    cfg = DiffusionConfig(SpinSystem(4), CHAIN4, linear_times(0.0, 2.5, 11))
    full = run_diffusion(cfg)
    block = run_blockwise(cfg)
    assert block.engine == "blockwise"
    gap = channel_discrepancy(full, block)
    assert gap.shape == (11,)
    assert float(gap.max()) <= 1e-10
    assert np.allclose(full.conserved, block.conserved, atol=1e-10)


def test_blockwise_reports_block_sizes():
    cfg = DiffusionConfig(SpinSystem(4), CHAIN4, (0.0, 1.0))
    trace = run_blockwise(cfg)
    assert trace.block_sizes == {k: math.comb(4, k) ** 2 for k in range(5)}
    assert sum(trace.block_sizes.values()) == math.comb(8, 4)


def test_purge_zeroes_only_the_unwanted_bins():
    cfg = DiffusionConfig(SpinSystem(4), CHAIN4, (0.0, 1.2))
    raw = run_diffusion(cfg).profiles[-1]
    cleaned = purge(raw)
    assert cleaned.longitudinal == raw.longitudinal
    assert cleaned.identity == raw.identity
    assert set(cleaned.spin_orders) == set(raw.spin_orders)
    assert all(v == 0.0 for v in cleaned.spin_orders.values())
    assert all(v == 0j for v in cleaned.zqc.values())
    assert purge(cleaned) == cleaned


def test_purge_never_grows_the_norm():
    system = SpinSystem(4)
    cfg = DiffusionConfig(system, CHAIN4, linear_times(0.0, 2.0, 5))
    for profile in run_diffusion(cfg).profiles:
        kept = reconstruct_profile(system, purge(profile))
        full = reconstruct_profile(system, profile)
        assert kept.norm() <= full.norm() + 1e-12


def test_purged_run_reports_clean_channels():
    cfg = DiffusionConfig(SpinSystem(4), CHAIN4, linear_times(0.0, 2.0, 5), purge=True)
    trace = run_diffusion(cfg)
    for lab in trace.undesired:
        assert not trace.channels[lab].any()
    # longitudinal channels still move
    assert abs(trace.channels["I1z"][-1] - 1.0) > 1e-3


def test_purged_run_profiles_equal_purged_profiles():
    raw = DiffusionConfig(SpinSystem(4), CHAIN4, linear_times(0.0, 2.0, 5))
    purged = DiffusionConfig(SpinSystem(4), CHAIN4, raw.times, purge=True)
    for run in (run_diffusion, run_blockwise):
        assert run(purged).profiles == tuple(purge(p) for p in run(raw).profiles)


def test_channel_discrepancy_validates_inputs():
    cfg_a = DiffusionConfig(SpinSystem(2), PAIR, (0.0, 1.0))
    cfg_b = DiffusionConfig(SpinSystem(2), PAIR, (0.0, 2.0))
    cfg_c = DiffusionConfig(SpinSystem(2), PAIR, (0.0, 1.0), track=("I1z",))
    trace_a = run_diffusion(cfg_a)
    with pytest.raises(ConfigurationError):
        channel_discrepancy(trace_a, run_diffusion(cfg_b))
    with pytest.raises(ConfigurationError):
        channel_discrepancy(trace_a, run_diffusion(cfg_c))


def test_track_subset_limits_channels():
    cfg = DiffusionConfig(SpinSystem(2), PAIR, (0.0, 0.7), track=("I2z", "I1+I2-"))
    trace = run_diffusion(cfg)
    assert set(trace.channels) == {"I2z", "I1+I2-"}
    assert trace.undesired == ("I1+I2-",)
    # coherence channels report magnitudes
    assert trace.channels["I1+I2-"][1] == pytest.approx(0.5 * np.sin(0.7))


def _scrambled_couplings(n):
    """A reversed nearest-neighbour chain plus non-adjacent pairs."""
    rng = np.random.default_rng(10 + n)
    pairs = [(k + 1, k) for k in range(1, n)]
    if n >= 3:
        pairs.append((1, n))
    if n >= 4:
        pairs.append((n, 2))
    return tuple((k, l, float(rng.uniform(0.2, 1.0))) for k, l in pairs)


def _spec(model, n):
    if model == "offsets":
        offsets = tuple((k, 0.4 * k - 1.1) for k in range(1, n + 1))
        return HamiltonianSpec("offsets", offsets=offsets)
    return HamiltonianSpec(model, couplings=_scrambled_couplings(n))


def _assert_engines_agree(cfg):
    full = run_diffusion(cfg)
    block = run_blockwise(cfg)
    assert list(block.channels) == list(full.channels) == list(cfg.tracked_labels())
    assert block.undesired == full.undesired
    assert float(channel_discrepancy(full, block).max(initial=0.0)) <= 1e-10
    assert np.max(np.abs(full.conserved - block.conserved)) <= 1e-10
    assert all(p.residual == 0.0 for p in block.profiles)
    assert all(p.residual <= 1e-10 for p in full.profiles)
    # channels hold coherence magnitudes; the profiles keep the phases
    for f, b in zip(full.profiles, block.profiles):
        for field in ("longitudinal", "spin_orders", "zqc"):
            fa, ba = getattr(f, field), getattr(b, field)
            assert list(fa) == list(ba)
            gap = np.abs(np.array(list(fa.values())) - np.array(list(ba.values())))
            assert float(gap.max(initial=0.0)) <= 1e-10


ENGINE_CASES = [(1, "offsets")] + [
    (n, model)
    for n in range(2, 7)
    for model in ("flipflop", "dipolar_secular", "isotropic_j", "offsets")
]


@pytest.mark.parametrize("purge_bins", [False, True])
@pytest.mark.parametrize("n, model", ENGINE_CASES)
def test_engines_agree_across_sizes_and_models(n, model, purge_bins):
    cfg = DiffusionConfig(
        SpinSystem(n), _spec(model, n), linear_times(0.0, 3.0, 7), purge=purge_bins
    )
    _assert_engines_agree(cfg)


def test_engines_agree_on_a_track_subset():
    n = 5
    track = ("I5z", "2I1zI3z", "a1I2+a3I4-b5", "I1z", "I1-I2+a3a4a5")
    cfg = DiffusionConfig(
        SpinSystem(n), _spec("dipolar_secular", n), linear_times(0.0, 2.0, 5),
        initial="2I2zI4z", track=track,
    )
    _assert_engines_agree(cfg)
    assert run_blockwise(cfg).undesired == ("2I1zI3z", "a1I2+a3I4-b5", "I1-I2+a3a4a5")


@pytest.mark.parametrize("n", [5, 6])
def test_engines_agree_on_a_degenerate_spectrum(n):
    # equal couplings on a uniform flip-flop chain: many repeated eigenvalues
    chain = tuple((k, k + 1, 1.0) for k in range(1, n))
    uniform = HamiltonianSpec("flipflop", couplings=chain)
    for initial in ("I1z", "2I1zI2z"):
        cfg = DiffusionConfig(SpinSystem(n), uniform, linear_times(0.0, 5.0, 9), initial=initial)
        _assert_engines_agree(cfg)
        # and against a scipy exponential that shares no code with either engine
        _assert_matches_scipy(cfg, oracles.hamiltonian(n, "flipflop", chain))


@pytest.mark.parametrize("model", ["flipflop", "dipolar_secular", "isotropic_j", "offsets"])
def test_block_run_forms_no_dense_generator(monkeypatch, model):
    n = 6
    cfg = DiffusionConfig(SpinSystem(n), _spec(model, n), linear_times(0.0, 2.0, 5))

    def refuse(*args, **kwargs):
        raise AssertionError("the block engine formed a dense operator or check")

    for module, name in [
        (diffusion, "build_hamiltonian"),
        (dynamics, "build_hamiltonian"),
        (dynamics, "is_member"),
        (subspaces, "is_member"),
        (dynamics, "_block_eigh_cached"),
        (dynamics, "_adopt"),
        (Operator, "__init__"),
    ]:
        monkeypatch.setattr(module, name, refuse)
    trace = run_blockwise(cfg)
    monkeypatch.undo()
    assert float(channel_discrepancy(run_diffusion(cfg), trace).max()) <= 1e-10


def _custom_chain(n, flip_symmetric):
    """A custom zero-quantum chain of exchange terms with an imaginary part.

    ``I_kx I_ly - I_ky I_lx`` and an offset ``I_1z`` change sign under the
    global spin flip; the former times ``I_mz`` does not.
    """
    terms = {} if flip_symmetric else {"I1z": 0.2}
    for k in range(n - 1):
        twist = ("z",) if flip_symmetric else ()
        for factors, c in (
            (("x", "x"), 0.6), (("y", "y"), 0.6),
            (("x", "y") + twist, 0.35), (("y", "x") + twist, -0.35),
        ):
            fs = ["e"] * n
            for i, f in enumerate(factors):
                fs[(k + i) % n] = f
            terms[BaseOperatorSpec(CARTESIAN, tuple(fs)).label] = c * (k + 1) / n
    return HamiltonianSpec("custom", custom=OperatorExpansion(CARTESIAN, terms, 0.0))


def _eigh_calls(monkeypatch, cfg):
    """``run_blockwise(cfg)`` and the ``(shape, dtype)`` of every matrix it diagonalized."""
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        calls.append((a.shape, a.dtype))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    trace = run_blockwise(cfg)
    monkeypatch.undo()
    return trace, calls


def _reduced_shapes(n):
    """Blocks ``k < n / 2``, then the middle block's two flip sectors for even ``n``."""
    dims = [math.comb(n, k) for k in range((n + 1) // 2)]
    if n % 2 == 0:
        dims += [math.comb(n, n // 2) // 2] * 2
    return [(d, d) for d in dims]


def _assert_eigh_path(monkeypatch, cfg, shapes, dtype):
    """The block run diagonalizes ``shapes`` in order, in ``dtype`` beyond 1 x 1."""
    n = cfg.system.n
    trace, calls = _eigh_calls(monkeypatch, cfg)
    assert [shape for shape, _ in calls] == shapes
    # exactly real pieces go to real eigh; a 1 x 1 block of a Hermitian
    # matrix is always real
    assert all(t == np.dtype(dtype) for shape, t in calls if shape[0] > 1)
    assert trace.block_sizes == {k: math.comb(n, k) ** 2 for k in range(n + 1)}
    assert float(channel_discrepancy(run_diffusion(cfg), trace).max()) <= 1e-10


@pytest.mark.parametrize("custom", [False, True])
@pytest.mark.parametrize("n", [1, 6])
def test_block_run_diagonalizes_each_block_once(monkeypatch, n, custom):
    # a named chain: blocks k > n / 2 are flip images of blocks k < n / 2
    # and are never diagonalized, and the middle block is diagonalized as
    # its two flip sectors; a complex custom model that the flip does not
    # preserve keeps one whole spectrum per block
    if custom:
        spec = _custom_chain(n, flip_symmetric=False)
        shapes, dtype = [(d, d) for d in (math.comb(n, k) for k in range(n + 1))], complex
    else:
        spec = _spec("dipolar_secular", n)
        shapes = {1: [(1, 1)], 6: [(1, 1), (6, 6), (15, 15), (10, 10), (10, 10)]}[n]
        dtype = float
    cfg = DiffusionConfig(SpinSystem(n), spec, linear_times(0.0, 2.0, 5))
    _assert_eigh_path(monkeypatch, cfg, shapes, dtype)


@pytest.mark.parametrize(
    "model, shapes, dtype",
    [
        ("dipolar_secular", [(1, 1), (5, 5), (10, 10)], float),
        ("flip-symmetric custom", [(1, 1), (5, 5), (10, 10)], complex),
        ("offsets", [(1, 1), (5, 5), (10, 10), (10, 10), (5, 5), (1, 1)], float),
    ],
)
def test_block_run_path_follows_the_exact_flip_tests(monkeypatch, model, shapes, dtype):
    # odd n has no middle block; the flip test reads the entries, not the
    # model name, so a complex custom model the flip preserves is mirrored
    # too, while the flip reverses every offset
    n = 5
    spec = _custom_chain(n, flip_symmetric=True) if model.endswith("custom") else _spec(model, n)
    cfg = DiffusionConfig(SpinSystem(n), spec, linear_times(0.0, 2.0, 5))
    _assert_eigh_path(monkeypatch, cfg, shapes, dtype)


def _dense_initial(n, label):
    return {
        "I1z": oracles.single_spin(n, 1, "z"),
        "2I1zI2z": 2.0 * oracles.single_spin(n, 1, "z") @ oracles.single_spin(n, 2, "z"),
    }[label]


def _assert_matches_scipy(cfg, h):
    """Every profile of the block run rebuilds ``exp(-iht) q exp(iht)`` within 1e-10."""
    n = cfg.system.n
    start = _dense_initial(n, cfg.initial)
    for t, profile in zip(cfg.times, run_blockwise(cfg).profiles):
        evolved = reconstruct_profile(cfg.system, profile).entries
        assert np.max(np.abs(evolved - oracles.evolve(h, start, t))) <= 1e-10


@pytest.mark.parametrize("initial", ["I1z", "2I1zI2z"])
@pytest.mark.parametrize(
    "n, model",
    [(n, m) for n in (2, 5, 6, 7, 8) for m in ("flipflop", "dipolar_secular", "isotropic_j")],
)
def test_flip_reduced_runs_match_the_dense_engine_and_scipy(monkeypatch, n, model, initial):
    # odd m = 1 and even m = 2 z factors, odd and even n: every named model
    # takes the reduced path and agrees with both independent routes
    spec = _spec(model, n)
    cfg = DiffusionConfig(SpinSystem(n), spec, linear_times(0.0, 3.0, 4), initial=initial)
    _, calls = _eigh_calls(monkeypatch, cfg)
    assert [shape for shape, _ in calls] == _reduced_shapes(n)
    _assert_engines_agree(cfg)
    _assert_matches_scipy(cfg, oracles.hamiltonian(n, model, spec.couplings))


@pytest.mark.parametrize("initial", ["I1z", "2I1zI2z"])
def test_flip_symmetric_complex_custom_runs_match_the_dense_engine(initial):
    # complex flip sectors take complex products; the block at k = 1 is
    # mirrored onto k = n - 1 with its imaginary parts
    n = 6
    cfg = DiffusionConfig(
        SpinSystem(n), _custom_chain(n, flip_symmetric=True),
        linear_times(0.0, 3.0, 5), initial=initial,
    )
    _assert_engines_agree(cfg)
    _assert_matches_scipy(cfg, build_hamiltonian(cfg.system, cfg.hamiltonian).entries)


def test_engines_agree_on_a_custom_zero_quantum_hamiltonian():
    n = 4
    terms = {
        ("x", "x", "e", "e"): 0.6,
        ("y", "y", "e", "e"): 0.6,
        ("e", "x", "e", "y"): 0.35,
        ("e", "y", "e", "x"): -0.35,
        ("e", "e", "z", "e"): -0.8,
        ("z", "e", "z", "e"): 0.25,
        ("x", "x", "z", "e"): 0.2,
        ("y", "y", "z", "e"): 0.2,
    }
    expansion = OperatorExpansion(
        CARTESIAN,
        {BaseOperatorSpec(CARTESIAN, fs).label: c for fs, c in terms.items()},
        0.0,
    )
    spec = HamiltonianSpec("custom", custom=expansion)
    for initial in ("I1z", "2I2zI4z"):
        cfg = DiffusionConfig(
            SpinSystem(n), spec, linear_times(0.0, 3.0, 7), initial=initial
        )
        _assert_engines_agree(cfg)


def test_engines_reject_a_generator_outside_zero_quantum():
    field = OperatorExpansion(CARTESIAN, {"I1x": 1.0}, 0.0)
    transverse = HamiltonianSpec("custom", custom=field)
    cfg = DiffusionConfig(SpinSystem(2), transverse, (0.0, 1.0))
    with pytest.raises(ToleranceError):
        run_blockwise(cfg)
    with pytest.raises(ToleranceError):
        run_diffusion(cfg)


def _counted_profiles(monkeypatch):
    """Record the grid time of every ``diffusion._profile`` call."""
    calls = []
    build = diffusion._profile

    def counted(n, t, *rest):
        calls.append(t)
        return build(n, t, *rest)

    monkeypatch.setattr(diffusion, "_profile", counted)
    return calls


@pytest.mark.parametrize("run", [run_diffusion, run_blockwise])
def test_profiles_are_built_on_first_read(monkeypatch, run):
    calls = _counted_profiles(monkeypatch)
    cfg = DiffusionConfig(SpinSystem(4), CHAIN4, linear_times(0.0, 2.0, 5))
    trace = run(cfg)
    assert calls == []
    profiles = trace.profiles
    assert calls == list(cfg.times)
    assert trace.profiles is profiles
    assert calls == list(cfg.times)


@pytest.mark.parametrize("run", [run_diffusion, run_blockwise])
def test_label_views_are_built_on_first_read(run):
    cfg = DiffusionConfig(SpinSystem(4), CHAIN4, linear_times(0.0, 2.0, 5))
    trace = run(cfg)
    for view in ("channels", "undesired"):
        assert view not in trace.__dict__
        first = getattr(trace, view)
        assert trace.__dict__[view] is first
        assert getattr(trace, view) is first


def test_tracked_block_run_never_builds_the_label_universe(monkeypatch):
    n = 6
    track = ("I2z", "4I1zI3zI6z", "I1+I2-a3a4a5a6", "I1z", "b1I2-a3I4+b5a6")
    cfg = DiffusionConfig(
        SpinSystem(n), _spec("dipolar_secular", n), linear_times(0.0, 2.0, 5), track=track
    )
    reference = run_diffusion(cfg)

    def refuse(n):
        raise AssertionError("the label universe was built")

    for module in (diffusion, dynamics):
        monkeypatch.setattr(module, "zq_offdiagonal_cells", refuse)
    trace = run_blockwise(
        DiffusionConfig(
            SpinSystem(n), _spec("dipolar_secular", n), linear_times(0.0, 2.0, 5),
            track=track,
        )
    )
    assert list(trace.channels) == list(track)
    assert trace.undesired == ("4I1zI3zI6z", "I1+I2-a3a4a5a6", "b1I2-a3I4+b5a6")
    assert float(channel_discrepancy(reference, trace).max()) <= 1e-10
    assert np.max(np.abs(trace.conserved - reference.conserved)) <= 1e-10


@pytest.mark.parametrize("purge_bins", [False, True])
@pytest.mark.parametrize("engine", ["full", "blockwise"])
def test_lazy_profiles_equal_eagerly_binned_profiles(engine, purge_bins):
    n = 4
    system = SpinSystem(n)
    cfg = DiffusionConfig(system, CHAIN4, linear_times(0.0, 2.0, 5), purge=purge_bins)
    h = build_hamiltonian(system, CHAIN4)
    q0 = build_operator(system, BaseOperatorSpec.from_label(cfg.initial, n))
    if engine == "full":
        trace = run_diffusion(cfg)
        cells = [_dense_cells(h, q0, t) for t in cfg.times]
    else:
        trace = run_blockwise(cfg)
        blocks = dynamics._hamiltonian_blocks(system, CHAIN4)
        cells = list(_blockwise_cells(blocks, np.diag(q0.entries).real, cfg.times))
    eager = []
    for t, (diag, zqc, residual) in zip(cfg.times, cells):
        profile = _profile(n, t, _walsh_bin(n, diag, zqc, residual), zqc, residual)
        eager.append(purge(profile) if purge_bins else profile)

    units = zq_offdiagonal_cells(n)[2]
    assert trace.coefficients.shape == (5, 2**n)
    assert trace.coherences.shape == (5, len(units))
    assert trace.residuals.shape == (5,)
    for arr in (trace.coefficients, trace.coherences, trace.residuals):
        assert not arr.flags.writeable
    assert trace.profiles == tuple(eager)
    if engine == "blockwise":
        assert not trace.residuals.any()


def test_dense_engine_residuals_are_the_out_of_pattern_weight():
    n = 5
    system = SpinSystem(n)
    spec = _spec("dipolar_secular", n)
    cfg = DiffusionConfig(system, spec, linear_times(0.0, 3.0, 7))
    trace = run_diffusion(cfg)
    h = build_hamiltonian(system, spec)
    q0 = build_operator(system, BaseOperatorSpec.from_label(cfg.initial, n))
    outside = ~oracles.pattern_mask("ZeroQuantum", n)
    for t, residual in zip(cfg.times, trace.residuals.tolist()):
        evolved = conjugate(zq_propagator(h, t), q0).entries
        assert abs(residual - np.linalg.norm(evolved[outside])) <= 1e-15


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_initial_diagonal_is_the_dense_base_operator_diagonal(n):
    system = SpinSystem(n)
    for factors in itertools.product("ez", repeat=n):
        if "z" not in factors:
            continue
        label = BaseOperatorSpec(CARTESIAN, factors).label
        cfg = DiffusionConfig(system, _spec("flipflop", n), (0.0, 1.0), initial=label)
        diagonal = diffusion._initial_diagonal(cfg)
        assert diagonal.shape == (2**n,)
        assert np.array_equal(diagonal, np.diag(oracles.cartesian_base(factors))), label


def test_block_run_builds_no_kronecker_product(monkeypatch):
    n = 6
    cfg = DiffusionConfig(
        SpinSystem(n), _spec("dipolar_secular", n), linear_times(0.0, 2.0, 5),
        initial="2I2zI5z",
    )

    def refuse(*args):
        raise AssertionError("a dense operator was built with np.kron")

    monkeypatch.setattr(np, "kron", refuse)
    trace = run_blockwise(cfg)
    monkeypatch.undo()
    assert float(channel_discrepancy(run_diffusion(cfg), trace).max()) <= 1e-10
