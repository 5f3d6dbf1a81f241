"""Transfer-run tests: config validation, engines, purging, discrepancy."""

import importlib
import itertools
import json
import math
import tracemalloc

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
    SubspaceTag,
    ToleranceError,
    build_hamiltonian,
    build_operator,
    channel_discrepancy,
    conjugate,
    is_member,
    linear_times,
    purge,
    reconstruct_profile,
    run_blockwise,
    run_diffusion,
    zq_offdiagonal_cells,
    zq_propagator,
)
from mqspace.dynamics import _blockwise_cells, _profile, _walsh_bin

diffusion = importlib.import_module("mqspace.diffusion")
dynamics = importlib.import_module("mqspace.dynamics")
operators = importlib.import_module("mqspace.operators")
subspaces = importlib.import_module("mqspace.subspaces")

CHAIN4 = HamiltonianSpec(
    "dipolar_secular", couplings=((1, 2, 1.0), (2, 3, 0.7), (3, 4, 0.5))
)
PAIR = HamiltonianSpec("flipflop", couplings=((1, 2, 1.0),))
CHAIN3 = HamiltonianSpec("dipolar_secular", couplings=((1, 2, 1.0), (2, 3, 0.7)))


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
    # one track names different cells of 2 and 3 spins: I1z is a different
    # column of each trace's coefficients
    chain3 = HamiltonianSpec("flipflop", couplings=((1, 2, 1.0), (2, 3, 0.7)))
    trace_c = run_diffusion(cfg_c)
    trace_d = run_diffusion(DiffusionConfig(SpinSystem(3), chain3, (0.0, 1.0), track=("I1z",)))
    for x, y in ((trace_c, trace_d), (trace_d, trace_c)):
        with pytest.raises(ConfigurationError, match="different spin counts"):
            channel_discrepancy(x, y)


def _per_label_discrepancy(a, b):
    """Max over the labels of ``|a - b|``, one label at a time."""
    gaps = [np.abs(a.channels[lab] - b.channels[lab]) for lab in a.channels]
    return np.stack(gaps).max(axis=0)


@pytest.mark.parametrize(
    "track, other, points",
    [
        ("all", "all", 5),
        (("I2z", "I1+I2-a3", "4I1zI2zI3z"), ("I2z", "I1+I2-a3", "4I1zI2zI3z"), 5),
        (("I2z", "I1+I2-a3", "4I1zI2zI3z"), ("4I1zI2zI3z", "I2z", "I1+I2-a3"), 5),
        # 3,500 times of n = 3's 19 labels: more than 2^16 channel values
        ("all", "all", 3500),
    ],
)
def test_channel_discrepancy_equals_the_per_label_maximum(track, other, points):
    system = SpinSystem(3)
    times = linear_times(0.0, 2.0, points)
    a = run_diffusion(DiffusionConfig(system, CHAIN3, times, track=track))
    b = run_blockwise(DiffusionConfig(system, CHAIN3, times, track=other))
    gap = channel_discrepancy(a, b)
    # the stored cells are compared where they are: neither trace builds
    # its channel table or its channels
    for trace in (a, b):
        assert not {"_channel_table", "channels"} & set(vars(trace))
    assert gap.tobytes() == _per_label_discrepancy(a, b).tobytes()
    assert gap.any()  # the engines differ in roundoff, so the test compares nonzeros
    assert channel_discrepancy(b, a).tobytes() == _per_label_discrepancy(b, a).tobytes()


def test_a_track_spelling_every_label_takes_the_subset_route():
    # such a tuple is read label by label: its table holds both rows of each
    # conjugate pair, and its channels and gaps are those of track="all"
    n = 3
    every = diffusion._every_channel_label(n)
    times = linear_times(0.0, 2.0, 5)
    a = run_diffusion(DiffusionConfig(SpinSystem(n), CHAIN3, times))
    b = run_blockwise(DiffusionConfig(SpinSystem(n), CHAIN3, times, track=every))
    c = run_blockwise(DiffusionConfig(SpinSystem(n), CHAIN3, times, track=every[::-1]))
    assert a._channel_table[1].shape[0] < len(every) == b._channel_table[1].shape[0]
    block = run_blockwise(DiffusionConfig(SpinSystem(n), CHAIN3, times))
    assert {lab: s.tobytes() for lab, s in b.channels.items()} == {
        lab: s.tobytes() for lab, s in block.channels.items()
    }
    for x, y in ((a, b), (b, a), (a, c), (c, b)):
        assert channel_discrepancy(x, y).tobytes() == _per_label_discrepancy(x, y).tobytes()


@pytest.mark.parametrize("track", ["all", ("I1-I2+", "I1z", "I1+I2-")])
def test_channels_and_conserved_are_read_only(track):
    trace = run_diffusion(DiffusionConfig(SpinSystem(2), PAIR, (0.0, 0.7, 1.4), track=track))
    before = {lab: s.copy() for lab, s in trace.channels.items()}
    conserved = trace.conserved.copy()
    for lab in ("I1+I2-", "I1z"):
        with pytest.raises(ValueError):
            trace.channels[lab][1] = 99.0
    with pytest.raises(ValueError):
        trace.conserved[1] = 99.0
    with pytest.raises(ValueError):
        trace._channel_table[1][0, 0] = 99.0
    assert {lab: s.tobytes() for lab, s in trace.channels.items()} == {
        lab: s.tobytes() for lab, s in before.items()
    }
    assert trace.conserved.tobytes() == conserved.tobytes()


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
        (dynamics, "build_hamiltonian"),
        (dynamics, "_evolved_cells"),
        (subspaces, "is_member"),
        (dynamics.BlockSpectra, "__init__"),
        (dynamics, "_adopt"),
        (Operator, "__init__"),
    ]:
        monkeypatch.setattr(module, name, refuse)
    trace = run_blockwise(cfg)
    monkeypatch.undo()
    assert float(channel_discrepancy(run_diffusion(cfg), trace).max()) <= 1e-10


@pytest.mark.parametrize("model", ["flipflop", "dipolar_secular", "isotropic_j", "offsets"])
def test_dense_run_forms_no_dense_generator(monkeypatch, model):
    # the dense engine evolves the block spectra and the start's diagonal as
    # plain arrays: no dense Hamiltonian, no Operator, no BlockSpectra value
    n = 6
    cfg = DiffusionConfig(SpinSystem(n), _spec(model, n), linear_times(0.0, 2.0, 5))

    def refuse(*args, **kwargs):
        raise AssertionError("the dense engine formed a dense generator or an Operator")

    for module, name in [
        (dynamics, "build_hamiltonian"),
        (dynamics.BlockSpectra, "__init__"),
        (dynamics, "_adopt"),
        (dynamics, "conjugate"),
        (dynamics, "zq_propagator"),
        (Operator, "__init__"),
    ]:
        monkeypatch.setattr(module, name, refuse)
    trace = run_diffusion(cfg)
    monkeypatch.undo()
    assert float(channel_discrepancy(trace, run_blockwise(cfg)).max()) <= 1e-10


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("model", ["flipflop", "dipolar_secular", "isotropic_j", "offsets"])
def test_dense_run_cells_equal_the_public_conjugation(model, n):
    # bit for bit, as the README and amplitude_profile claim: the dense
    # generator's conjugation, and amplitude_profile on the block spectra
    system = SpinSystem(n)
    spec = _spec(model, n)
    h = build_hamiltonian(system, spec)
    z = dynamics.BlockSpectra.from_spec(system, spec)
    rows, cols, _ = zq_offdiagonal_cells(n)
    stored_rows, stored_cols = subspaces._zq_stored_cells(n)
    (long_idx, _), (order_idx, _) = dynamics._diagonal_groups(n)
    for initial in ("I1z", "2I1zI2z")[: min(n, 2)]:
        cfg = DiffusionConfig(system, spec, linear_times(0.0, 3.0, 5), initial=initial)
        trace = run_diffusion(cfg)
        q0 = build_operator(system, BaseOperatorSpec.from_label(initial, n))
        for i, t in enumerate(cfg.times):
            evolved = conjugate(zq_propagator(h, t), q0)
            diag, zqc = np.diag(evolved.entries), evolved.entries[rows, cols]
            upper = evolved.entries[stored_rows, stored_cols]
            residual = is_member(evolved, SubspaceTag.ZERO_QUANTUM).residual
            assert trace.upper_coherences[i].tobytes() == upper.tobytes()
            assert trace.coherences[i].tobytes() == zqc.tobytes()
            assert trace.residuals[i] == residual
            binned = _walsh_bin(n, diag, upper, residual)
            assert trace.coefficients[i].tobytes() == binned.tobytes()
            profile = dynamics.amplitude_profile(z, q0, t)
            binned[0] = profile.identity
            binned[long_idx] = list(profile.longitudinal.values())
            binned[order_idx] = list(profile.spin_orders.values())
            assert trace.coefficients[i].tobytes() == binned.tobytes()
            profiled = np.array(list(profile.zqc.values()), dtype=complex)
            assert trace.coherences[i].tobytes() == profiled.tobytes()
            assert trace.residuals[i] == profile.residual


def test_dense_engine_measures_weight_planted_outside_the_pattern():
    # the residual is measured on each product, not assumed zero: an entry
    # planted outside the zero-quantum pattern of the scaled propagator w,
    # which the engine never writes there, reaches every later product
    n = 4
    cfg = DiffusionConfig(SpinSystem(n), _spec("dipolar_secular", n), linear_times(0.0, 2.0, 4))
    blocks = dynamics._hamiltonian_blocks(cfg.system, cfg.hamiltonian)
    q = diffusion._initial_diagonal(cfg)
    cells = diffusion._dense_cells(dynamics._block_spectra(blocks), q, cfg.times)
    assert next(cells)[2] == 0.0
    w, c = (cells.gi_frame.f_locals[name] for name in ("w", "c"))
    w[0, 1] = 0.25  # state 0 lies in block 0, state 1 in block 1
    outside = ~oracles.pattern_mask("ZeroQuantum", n)
    residuals = [residual for _, _, residual in cells]
    assert len(residuals) == 3 and min(residuals) > 0.0
    # the last product, rebuilt from the arrays the engine left behind
    assert residuals[-1] == pytest.approx(np.linalg.norm((w @ c.T)[outside]), rel=1e-12)


def test_dense_engine_allocates_no_full_size_array_per_time_point():
    # w, c and r are allocated once per run; between two rows only
    # block-sized temporaries and the row's own cells come and go
    n = 7
    cfg = DiffusionConfig(SpinSystem(n), _spec("dipolar_secular", n), linear_times(0.0, 2.0, 6))
    rows = diffusion._engine_rows(cfg, "full")
    tracemalloc.start()
    try:
        next(rows)
        for _ in cfg.times[1:]:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            next(rows)
            peak = tracemalloc.get_traced_memory()[1] - base
            assert peak < 16 * 4**n, peak
    finally:
        tracemalloc.stop()


# holding the propagator, its scaled copy, its conjugate, the product and
# the previous point's product (through a view of its diagonal) at once
# peaked at 92.79 MiB here, 5.8 dense arrays of 16 MiB; three at a time
# peaked at 60.81 MiB, and three kept for the whole run peak at 58.69 MiB
def test_dense_run_peak_stays_below_four_and_a_half_dense_arrays():
    n = 10
    spec = HamiltonianSpec(
        "dipolar_secular", couplings=tuple((k, k + 1, 1.0 / k) for k in range(1, n))
    )
    cfg = DiffusionConfig(SpinSystem(n), spec, linear_times(0.0, 2.0, 3), track=("I1z",))
    run_diffusion(cfg)  # cached tables are built outside the traced run
    tracemalloc.start()
    try:
        run_diffusion(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4.5 * 16 * 4**n, peak / 2**20


@pytest.mark.parametrize(
    "model, n, initial, kinds",
    [
        # every offset changes sign under the flip: each block is whole
        ("offsets", 4, "I1z", [(None, 1)] * 5),
        # odd n: block n - k is written from block k's group
        ("dipolar_secular", 5, "I1z", [(None, 2)] * 3),
        # even n: the middle block is split, its sign (-1)^m for m z factors
        ("dipolar_secular", 6, "2I1zI2z", [(None, 2)] * 3 + [(1, 1)]),
        ("dipolar_secular", 6, "I1z", [(None, 2)] * 3 + [(-1, 1)]),
    ],
    ids=["whole", "mirrored", "split+1", "split-1"],
)
def test_evolved_groups_equal_the_dense_evolution(model, n, initial, kinds):
    system = SpinSystem(n)
    cfg = DiffusionConfig(system, _spec(model, n), (0.0, 0.7, 2.3), initial=initial)
    blocks = dynamics._hamiltonian_blocks(system, cfg.hamiltonian)
    q = diffusion._initial_diagonal(cfg)
    plan = dynamics._evolution_plan(blocks, q)
    assert [(split, len(targets)) for split, _, _, targets in plan] == kinds
    rows, cols = subspaces._zq_stored_cells(n)
    spectra = dynamics._block_spectra(blocks)
    for t in cfg.times:
        u = dynamics._assembled_propagator(system.dim, spectra, t)
        dense = (u * q) @ u.conj().T
        for split, products, (i, j), targets in plan:
            r = dynamics._evolved_block(split, products, t)
            assert [mirrored for *_, mirrored in targets] == [False, True][: len(targets)]
            for idx, run, sign, mirrored in targets:
                # a mirrored block reads the evolved block reversed on both axes
                src = r[::-1, ::-1] if mirrored else r
                assert np.max(np.abs(sign * src - dense[np.ix_(idx, idx)])) <= 1e-12
                # the run names the block's upper cells, row-major
                assert np.array_equal(rows[run], idx[i]) and np.all(idx[i] < idx[j])
                assert np.array_equal(cols[run], idx[j])


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
def test_profiles_build_no_coherence_copy(run):
    # each time's cells are rebuilt on their own from the stored upper
    # cells, with the bits the whole (T, cells) copy holds
    cfg = DiffusionConfig(SpinSystem(4), CHAIN4, linear_times(0.0, 2.0, 5))
    trace = run(cfg)
    profiles = trace.profiles
    assert "coherences" not in vars(trace)
    for profile, row in zip(profiles, trace.coherences):
        assert np.array(list(profile.zqc.values())).tobytes() == row.tobytes()


@pytest.mark.parametrize("run", [run_diffusion, run_blockwise])
def test_every_label_view_reads_one_cached_label_tuple(run):
    n = 4
    cfg = DiffusionConfig(SpinSystem(n), CHAIN4, linear_times(0.0, 2.0, 3))
    labels = diffusion._every_channel_label(n)
    assert cfg.tracked_labels() is labels
    assert sorted(labels[:n]) == ["I1z", "I2z", "I3z", "I4z"]
    assert labels[2**n - 1:] == zq_offdiagonal_cells(n)[2]
    assert len(labels) == math.comb(2 * n, n) - 1
    trace = run(cfg)
    assert list(trace.channels) == list(labels)
    assert trace.undesired == labels[n:]


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


def test_tracked_dense_run_never_builds_the_label_universe(monkeypatch):
    # the dense engine gathers its cells through the stored-cell table, which
    # is built from the block index lists alone
    n = 6
    track = ("I2z", "4I1zI3zI6z", "I1+I2-a3a4a5a6", "I1z", "b1I2-a3I4+b5a6")
    cfg = DiffusionConfig(
        SpinSystem(n), _spec("dipolar_secular", n), linear_times(0.0, 2.0, 5), track=track
    )
    reference = run_blockwise(cfg)

    def refuse(n):
        raise AssertionError("the label universe was built")

    for module in (diffusion, dynamics, subspaces):
        monkeypatch.setattr(module, "zq_offdiagonal_cells", refuse)
    subspaces._zq_stored_cells.cache_clear()
    subspaces._zq_cell_pairs.cache_clear()
    trace = run_diffusion(cfg)
    assert list(trace.channels) == list(track)
    assert trace.undesired == ("4I1zI3zI6z", "I1+I2-a3a4a5a6", "b1I2-a3I4+b5a6")
    assert float(channel_discrepancy(reference, trace).max()) <= 1e-10


@pytest.mark.parametrize("engine", ["full", "blockwise", "both"])
def test_tracked_subset_builds_no_table_of_every_channel_label(monkeypatch, capsys, engine):
    # a subset track is told apart from every label by its length alone, so
    # no table of all binomial(2n, n) - 1 labels is built or cached for it
    from mqspace.cli import main

    n = 6
    track = ("I2z", "4I1zI3zI6z", "I1+I2-a3a4a5a6", "I1z", "b1I2-a3I4+b5a6")
    spec = _spec("dipolar_secular", n)
    cfg = DiffusionConfig(SpinSystem(n), spec, linear_times(0.0, 2.0, 5), track=track)

    def refuse(n):
        raise AssertionError("the table of every channel label was built")

    monkeypatch.setattr(diffusion, "_every_channel_label", refuse)
    for module in (diffusion, dynamics, subspaces):
        monkeypatch.setattr(module, "zq_offdiagonal_cells", refuse)
    subspaces._zq_stored_cells.cache_clear()
    subspaces._zq_cell_pairs.cache_clear()
    channels = run_blockwise(cfg).channels
    assert list(channels) == list(track)
    argv = ["evolve", "--n", str(n), "--model", "dipolar_secular", "--times", "0:2:5",
            "--track", ",".join(track), "--engine", engine]
    argv += [x for k, l, j in spec.couplings for x in ("--coupling", f"{k},{l},{j!r}")]
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc["channels"]) == list(track)
    if engine == "blockwise":
        assert doc["channels"] == {lab: values.tolist() for lab, values in channels.items()}


@pytest.mark.parametrize("engine", ["full", "blockwise", "both"])
def test_track_without_coherence_labels_builds_no_cell_pair_table(monkeypatch, capsys, engine):
    # every longitudinal and spin-order label: the channels are columns of the
    # coefficients, so the table placing each coherence cell is never built
    from mqspace.cli import main

    n = 6
    (_, longitudinal), (_, orders) = dynamics._diagonal_groups(n)
    track = longitudinal + orders
    spec = _spec("dipolar_secular", n)
    cfg = DiffusionConfig(SpinSystem(n), spec, linear_times(0.0, 2.0, 5), track=track)
    reference = run_diffusion(cfg)

    def refuse(n):
        raise AssertionError("the cell pair table was built")

    subspaces._zq_cell_pairs.cache_clear()
    for module in (diffusion, subspaces):
        monkeypatch.setattr(module, "_zq_cell_pairs", refuse)
    trace = run_blockwise(cfg)
    channels = trace.channels
    assert list(channels) == list(track)
    assert float(channel_discrepancy(reference, trace).max()) <= 1e-10
    argv = ["evolve", "--n", str(n), "--model", "dipolar_secular", "--times", "0:2:5",
            "--track", ",".join(track), "--engine", engine]
    argv += [x for k, l, j in spec.couplings for x in ("--coupling", f"{k},{l},{j!r}")]
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc["channels"]) == list(track)
    if engine == "blockwise":
        assert doc["channels"] == {lab: values.tolist() for lab, values in channels.items()}


def test_discrepancy_of_two_all_traces_builds_no_label_table(monkeypatch):
    # equal tracks are not compared label by label
    cfg = DiffusionConfig(SpinSystem(4), CHAIN4, linear_times(0.0, 2.0, 5))
    a, b = run_diffusion(cfg), run_blockwise(cfg)

    def refuse(n):
        raise AssertionError("a label table was built")

    monkeypatch.setattr(diffusion, "_every_channel_label", refuse)
    for module in (diffusion, dynamics, subspaces):
        monkeypatch.setattr(module, "zq_offdiagonal_cells", refuse)
    gaps = [channel_discrepancy(a, b), channel_discrepancy(b, a)]
    monkeypatch.undo()
    assert gaps[0].tobytes() == _per_label_discrepancy(a, b).tobytes()
    assert gaps[1].tobytes() == _per_label_discrepancy(b, a).tobytes()


@pytest.mark.parametrize("purge_bins", [False, True])
@pytest.mark.parametrize("engine", ["full", "blockwise"])
def test_lazy_profiles_equal_eagerly_binned_profiles(engine, purge_bins):
    n = 4
    system = SpinSystem(n)
    cfg = DiffusionConfig(system, CHAIN4, linear_times(0.0, 2.0, 5), purge=purge_bins)
    h = build_hamiltonian(system, CHAIN4)
    q0 = build_operator(system, BaseOperatorSpec.from_label(cfg.initial, n))
    rows, cols, _ = zq_offdiagonal_cells(n)
    stored_rows, stored_cols = subspaces._zq_stored_cells(n)
    if engine == "full":
        trace = run_diffusion(cfg)
        evolved = [conjugate(zq_propagator(h, t), q0) for t in cfg.times]
        cells = [
            (
                np.diag(qc.entries),
                qc.entries[stored_rows, stored_cols],
                qc.entries[rows, cols],
                is_member(qc, SubspaceTag.ZERO_QUANTUM).residual,
            )
            for qc in evolved
        ]
    else:
        trace = run_blockwise(cfg)
        blocks = dynamics._hamiltonian_blocks(system, CHAIN4)
        cells = [
            (diag, upper, _every_cell(n, upper), residual)
            for diag, upper, residual in _blockwise_cells(
                blocks, np.diag(q0.entries).real, cfg.times
            )
        ]
    eager = []
    for t, (diag, upper, zqc, residual) in zip(cfg.times, cells):
        profile = _profile(n, t, _walsh_bin(n, diag, upper, residual), zqc, residual)
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


def _counted_expansions(monkeypatch):
    """Record the spin count of every ``diffusion._full_coherences`` call."""
    calls = []
    expand = diffusion._full_coherences

    def counted(n, upper):
        calls.append(n)
        return expand(n, upper)

    monkeypatch.setattr(diffusion, "_full_coherences", counted)
    return calls


def _every_cell(n, upper):
    """Every off-diagonal cell, in label order, of the Hermitian operator whose
    cells ``(i, j)`` with ``i < j`` are ``upper``, read off a dense matrix."""
    stored_rows, stored_cols = subspaces._zq_stored_cells(n)
    rows, cols, _ = zq_offdiagonal_cells(n)
    dense = np.zeros((2**n, 2**n), dtype=complex)
    dense[stored_rows, stored_cols] = upper
    dense[stored_cols, stored_rows] = np.conj(upper)
    return dense[rows, cols]


def _yielded_cells(cfg, engine):
    """``(upper, every)`` per time: the ``(T, cells / 2)`` cells an engine
    yields to ``_assemble``, and the ``(T, cells)`` off-diagonal cells of the
    operators it evolved.

    The dense engine's cells are read off the whole Hermitian fold of each
    product it bins; the block engine's are its upper cells and their
    conjugates.
    """
    n = cfg.system.n
    blocks = dynamics._hamiltonian_blocks(cfg.system, cfg.hamiltonian)
    q = diffusion._initial_diagonal(cfg)
    if engine == "full":
        rows, cols, _ = zq_offdiagonal_cells(n)
        spectra = dynamics._block_spectra(blocks)
        every = []
        folded_cells = diffusion._folded_cells

        def read_every_cell(r, pattern):
            every.append(operators._hermitian_part(r.copy())[rows, cols])
            return folded_cells(r, pattern)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(diffusion, "_folded_cells", read_every_cell)
            upper = [zqc for _, zqc, _ in diffusion._dense_cells(spectra, q, cfg.times)]
    else:
        upper = [zqc for _, zqc, _ in _blockwise_cells(blocks, q, cfg.times)]
        every = [_every_cell(n, u) for u in upper]
    return tuple(np.array(a).reshape(len(cfg.times), -1) for a in (upper, every))


def _full_channel_table(trace, cells):
    """One row per tracked label, every coherence cell read from ``cells``."""
    n = trace._n
    if trace.track == "all":
        (long_idx, _), (order_idx, _) = dynamics._diagonal_groups(n)
        diagonal = trace.coefficients[:, np.concatenate([long_idx, order_idx])]
        return np.concatenate([diagonal.T, np.abs(cells).T])
    return np.array([
        trace.coefficients[:, i] if diagonal else np.abs(cells[:, i])
        for diagonal, i in (dynamics._label_cell(lab, n) for lab in trace.track)
    ])


def _conjugate_pair(n):
    """The labels of the first off-diagonal cell and of its transpose."""
    rows, cols, labels = zq_offdiagonal_cells(n)
    (transpose,) = np.flatnonzero((rows == cols[0]) & (cols == rows[0]))
    return labels[0], labels[transpose]


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("model", ["flipflop", "dipolar_secular", "isotropic_j", "offsets"])
def test_stored_half_reads_like_every_yielded_cell(monkeypatch, model, n):
    calls = _counted_expansions(monkeypatch)
    pair = _conjugate_pair(n) if n > 1 else ()
    last = zq_offdiagonal_cells(n)[2][-1:]
    # at n = 2 the last cell is the pair's second one
    subset = tuple(dict.fromkeys(("I1z", "2I1zI2z")[: min(n, 2)] + pair + last))
    for track in ("all", subset):
        cfg = DiffusionConfig(
            SpinSystem(n), _spec(model, n), linear_times(0.0, 3.0, 5), track=track
        )
        traces, cells, tables = {}, {}, {}
        for engine, run in (("full", run_diffusion), ("blockwise", run_blockwise)):
            trace = traces[engine] = run(cfg)
            upper, cells[engine] = _yielded_cells(cfg, engine)
            # the trace stores the cells in the order the engine yields them
            assert trace.upper_coherences.tobytes() == upper.tobytes()
            tables[engine] = _full_channel_table(trace, cells[engine])
            assert list(trace.channels) == list(cfg.tracked_labels())
            for lab, want in zip(cfg.tracked_labels(), tables[engine]):
                assert trace.channels[lab].tobytes() == want.tobytes(), lab
            if track == "all" and pair:
                # both labels of a conjugate pair read one stored row
                assert trace.channels[pair[0]] is trace.channels[pair[1]]
        discrepancy = channel_discrepancy(traces["full"], traces["blockwise"])
        want = np.abs(tables["full"] - tables["blockwise"]).max(axis=0)
        assert discrepancy.tobytes() == want.tobytes()
        assert calls == []

        dense, block = traces["full"].coherences, traces["blockwise"].coherences
        assert dense.tobytes() == cells["full"].tobytes()
        # np.conj writes -0.0 where the rule writes 0.0
        assert np.array_equal(block, cells["blockwise"])
        assert not dense.flags.writeable and not block.flags.writeable
        assert traces["full"].coherences is dense
        assert calls == [n, n]
        calls.clear()


@pytest.mark.parametrize("run", [run_diffusion, run_blockwise])
def test_single_spin_trace_holds_no_coherence_cell(run):
    cfg = DiffusionConfig(SpinSystem(1), _spec("offsets", 1), linear_times(0.0, 1.0, 4))
    trace = run(cfg)
    assert trace.upper_coherences.shape == trace.coherences.shape == (4, 0)
    assert list(trace.channels) == ["I1z"]


def test_block_run_builds_its_pair_table_without_labels(monkeypatch):
    n = 7
    cfg = DiffusionConfig(SpinSystem(n), _spec("dipolar_secular", n), linear_times(0.0, 2.0, 5))
    reference = run_diffusion(cfg)

    def refuse(n):
        raise AssertionError("the label universe was built")

    for module in (diffusion, dynamics, subspaces):
        monkeypatch.setattr(module, "zq_offdiagonal_cells", refuse)
    subspaces._zq_stored_cells.cache_clear()
    subspaces._zq_cell_pairs.cache_clear()
    cells = run_blockwise(cfg).coherences
    monkeypatch.undo()
    assert np.max(np.abs(cells - reference.coherences)) <= 1e-10


def _custom_spec(n):
    """A custom zero-quantum generator: z offsets and complex flip-flop pairs."""
    terms = {}
    for k in range(n):
        terms[("e",) * k + ("z",) + ("e",) * (n - k - 1)] = 0.3 * k - 0.5
    for k in range(n - 1):
        c = 0.25 + 0.1 * k
        for a, b, coeff in (("x", "x", 0.6), ("y", "y", 0.6), ("x", "y", c), ("y", "x", -c)):
            factors = ["e"] * n
            factors[k], factors[k + 1] = a, b
            terms[tuple(factors)] = coeff
    expansion = OperatorExpansion(
        CARTESIAN, {BaseOperatorSpec(CARTESIAN, fs).label: c for fs, c in terms.items()}, 0.0
    )
    return HamiltonianSpec("custom", custom=expansion)


STREAM_CASES = [(1, "offsets"), (1, "custom")] + [
    (n, model)
    for n in range(2, 7)
    for model in ("dipolar_secular", "flipflop", "isotropic_j", "offsets", "custom")
]


@pytest.mark.parametrize("subset", [False, True], ids=["all", "subset"])
@pytest.mark.parametrize("purge_bins", [False, True])
@pytest.mark.parametrize("n, model", STREAM_CASES)
def test_streamed_channels_equal_the_trace_route_bytewise(n, model, purge_bins, subset):
    # the channel table, its row map and the conserved sum binned one time
    # at a time, with no trace, are the trace's own bytes; so is the
    # --engine both discrepancy taken one block-engine time at a time
    every = diffusion._every_channel_label(n)
    track = "all"
    if subset:  # three labels, out of channel order: coherence, longitudinal, spin order
        track = (every[-1], every[0], every[n]) if n > 1 else every
    spec = _custom_spec(n) if model == "custom" else _spec(model, n)
    cfg = DiffusionConfig(
        SpinSystem(n), spec, linear_times(0.0, 3.0, 6), purge=purge_bins, track=track
    )
    traces = {"full": run_diffusion(cfg), "blockwise": run_blockwise(cfg)}
    tables = {}
    labels = cfg.tracked_labels()
    for engine, trace in traces.items():
        table, rows, conserved = tables[engine] = diffusion._stream_table(
            n, cfg.track, diffusion._engine_rows(cfg, engine), len(cfg.times)
        )
        want_labels, want_table, want_rows = trace._channel_table
        assert labels == want_labels == cfg.tracked_labels()
        assert table.shape == want_table.shape
        assert table.tobytes() == want_table.tobytes(), engine
        assert rows.tobytes() == want_rows.tobytes()
        assert conserved.tobytes() == trace.conserved.tobytes(), engine
    gap = diffusion._stream_gap(
        n, cfg.track, tables["full"][0].T, diffusion._engine_rows(cfg, "blockwise")
    )
    assert gap.tobytes() == channel_discrepancy(traces["full"], traces["blockwise"]).tobytes()
