"""One rule per kind of outside value: reals, complex numbers and indices.

Every library entry point that takes a real number routes it through
``operators._real``, every expansion or coherence amplitude through
``operators._complex`` and every index through ``operators._integer``, so a
malformed value is a ``ConfigurationError`` wherever it arrives, never a
``TypeError``, ``ValueError``, ``KeyError``, ``IndexError`` or
``OverflowError`` from deeper down; numpy scalars pass with the results
of the equal Python numbers.
"""

import math

import numpy as np
import pytest

from mqspace import (
    CARTESIAN,
    AmplitudeProfile,
    ConfigurationError,
    DiffusionConfig,
    Encoding,
    HamiltonianSpec,
    OperatorExpansion,
    SpinSystem,
    SubspaceTag,
    amplitude_profile,
    blockwise_conjugate,
    build_hamiltonian,
    cascade,
    coherence_order_of_element,
    decompose_zq,
    expm_hermitian,
    is_member,
    linear_times,
    parity_partition,
    random_operator,
    reconstruct,
    reconstruct_profile,
    spin_operator,
    stage_reduce,
    verify_closure,
    zq_propagator,
)
from mqspace.operators import _complex, _real

HUGE = pytest.param(10**400, id="10**400")  # a JSON integer no float can hold
PAIR = HamiltonianSpec("flipflop", couplings=((1, 2, 1.0),))


@pytest.mark.parametrize(
    "value", [0, 3, 0.25, -1.5, np.int64(7), np.float32(0.5), np.float64(2.0)]
)
def test_real_returns_the_equal_float(value):
    out = _real(value, "x")
    assert type(out) is float
    assert out == float(value)


@pytest.mark.parametrize(
    "value, message",
    [
        (True, "x must be a real number, got True"),
        (np.bool_(False), "x must be a real number, got np.False_"),
        ("0.5", "x must be a real number, got '0.5'"),
        (None, "x must be a real number, got None"),
        (1j, "x must be a real number, got 1j"),
        pytest.param(10**400, "x is too large for a float", id="10**400"),
        pytest.param(-(10**400), "x is too large for a float", id="-10**400"),
        (math.nan, "x must be finite, got nan"),
        (-math.inf, "x must be finite, got -inf"),
        (np.float32("inf"), "x must be finite, got inf"),
    ],
)
def test_real_refuses_what_is_not_a_finite_real(value, message):
    with pytest.raises(ConfigurationError) as exc:
        _real(value, "x")
    assert str(exc.value) == message


def test_real_applies_its_minimum():
    assert _real(0, "x", 0) == 0.0
    with pytest.raises(ConfigurationError, match=r"^x must be at least 0, got -0.5$"):
        _real(-0.5, "x", 0)


@pytest.mark.parametrize("bad", ["a", None, True, "0.5", HUGE])
def test_config_times_refuse_malformed_entries(bad):
    with pytest.raises(ConfigurationError):
        DiffusionConfig(SpinSystem(2), PAIR, times=(0.0, bad))
    with pytest.raises(ConfigurationError):
        DiffusionConfig(SpinSystem(2), PAIR, times=bad)


def test_config_times_refuse_negative_entries():
    with pytest.raises(ConfigurationError, match="time must be at least 0"):
        DiffusionConfig(SpinSystem(2), PAIR, times=(1.0, -1.0))


def test_config_times_take_numpy_scalars_as_floats():
    cfg = DiffusionConfig(SpinSystem(2), PAIR, times=(np.int64(0), np.float32(0.5), 2))
    assert cfg.times == (0.0, 0.5, 2.0)
    assert all(type(t) is float for t in cfg.times)


@pytest.mark.parametrize("bad", ["0", None, True])
def test_linear_times_refuses_malformed_ends(bad):
    with pytest.raises(ConfigurationError, match="time grid start"):
        linear_times(bad, 2.0, 3)
    with pytest.raises(ConfigurationError, match="time grid end"):
        linear_times(0.0, bad, 3)


def test_linear_times_takes_numpy_scalar_ends():
    assert linear_times(np.int64(0), np.float32(2.0), 5) == linear_times(0, 2.0, 5)
    # an end float32 cannot hold exactly: numpy builds the grid from the
    # float32 value, as it did before the ends were checked
    assert linear_times(np.float32(0.1), 1.0, 5) == (
        0.10000000149011612, 0.32499998807907104, 0.550000011920929, 0.7749999761581421, 1.0
    )


@pytest.mark.parametrize("bad", [True, "0.5", HUGE])
def test_hamiltonian_terms_refuse_malformed_values(bad):
    with pytest.raises(ConfigurationError, match="malformed hamiltonian terms: coupling"):
        HamiltonianSpec("flipflop", couplings=((1, 2, bad),))
    with pytest.raises(ConfigurationError, match="malformed hamiltonian terms: offset"):
        HamiltonianSpec("offsets", offsets=((1, bad),))


def test_hamiltonian_terms_take_numpy_scalars():
    system = SpinSystem(3)
    plain = HamiltonianSpec("dipolar_secular", couplings=((1, 2, 0.5), (2, 3, 2)))
    numpy = HamiltonianSpec(
        "dipolar_secular",
        couplings=((np.int64(1), 2, np.float32(0.5)), (2, np.int32(3), np.int64(2))),
    )
    assert numpy == plain
    assert (
        build_hamiltonian(system, numpy).entries.tobytes()
        == build_hamiltonian(system, plain).entries.tobytes()
    )


@pytest.mark.parametrize("bad", [0.9, True, "a"])
def test_encoding_refuses_entries_that_are_not_integers(bad):
    with pytest.raises(ConfigurationError, match="permutation entry must be an integer"):
        Encoding((bad, 1))


def test_encoding_takes_numpy_integers():
    enc = Encoding((np.int64(2), np.int32(0), 1))
    assert enc == Encoding((2, 0, 1))
    assert all(type(p) is int for p in enc.permutation)


@pytest.mark.parametrize("bad", [-1, "dim", 0.9, True])
def test_stage_reduce_refuses_cell_indices_that_are_not_indices(bad):
    system = SpinSystem(2)
    h = random_operator(system, np.random.default_rng(0), hermitian=True)
    if bad == "dim":
        bad = system.dim
    with pytest.raises(ConfigurationError, match="target cell index"):
        stage_reduce(h, [(0, 1), (2, bad)])


def test_stage_reduce_refuses_a_partition_of_scalars():
    system = SpinSystem(2)
    h = random_operator(system, np.random.default_rng(0), hermitian=True)
    with pytest.raises(ConfigurationError, match="list of index cells"):
        stage_reduce(h, [0, 1, 2, 3])


def test_stage_reduce_takes_numpy_integer_cells():
    system = SpinSystem(3)
    h = random_operator(system, np.random.default_rng(1), hermitian=True)
    cells = parity_partition(system)
    plain = stage_reduce(h, cells)
    numpy = stage_reduce(h, [np.array(c, dtype=np.int64) for c in cells])
    assert numpy.unitary.entries.tobytes() == plain.unitary.entries.tobytes()
    assert numpy.reduced.entries.tobytes() == plain.reduced.entries.tobytes()


@pytest.mark.parametrize("bad", [1.5, True, "1"])
def test_spin_and_element_indices_refuse_what_is_not_an_integer(bad):
    system = SpinSystem(2)
    with pytest.raises(ConfigurationError, match="spin index must be an integer"):
        spin_operator(system, bad, "z")
    with pytest.raises(ConfigurationError, match="row index must be an integer"):
        coherence_order_of_element(system, bad, 0)
    with pytest.raises(ConfigurationError, match="column index must be an integer"):
        coherence_order_of_element(system, 0, bad)


def test_spin_and_element_indices_take_numpy_integers():
    system = SpinSystem(3)
    assert (
        spin_operator(system, np.int64(2), "x").entries.tobytes()
        == spin_operator(system, 2, "x").entries.tobytes()
    )
    assert coherence_order_of_element(system, np.int64(1), np.int32(6)) == 1


def _time_kernels():
    """Each public kernel that takes a time, on a flip-flop pair, as ``t -> array``."""
    system = SpinSystem(2)
    h = build_hamiltonian(system, PAIR)
    q = spin_operator(system, 1, "z")
    block = dict(decompose_zq(q))[1]

    def bins(t):
        p = amplitude_profile(h, q, t)
        values = [p.identity, *p.longitudinal.values(), *p.spin_orders.values()]
        return np.array([*values, *p.zqc.values(), p.residual], dtype=complex)

    return {
        "zq_propagator": lambda t: zq_propagator(h, t).entries,
        "expm_hermitian": lambda t: expm_hermitian(h, t).entries,
        "blockwise_conjugate": lambda t: blockwise_conjugate(h, block, 1, t).entries,
        "amplitude_profile": bins,
    }


TIME_KERNELS = ("zq_propagator", "expm_hermitian", "blockwise_conjugate", "amplitude_profile")


@pytest.mark.parametrize("kernel", TIME_KERNELS)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, "a", True, HUGE])
def test_public_kernels_refuse_malformed_times(kernel, bad):
    with pytest.raises(ConfigurationError, match="^time "):
        _time_kernels()[kernel](bad)


@pytest.mark.parametrize("kernel", TIME_KERNELS)
def test_public_kernels_take_numpy_scalar_times(kernel):
    run = _time_kernels()[kernel]
    for number, scalar in [(0.7, np.float64(0.7)), (2, np.int64(2)), (0.5, np.float32(0.5))]:
        assert run(scalar).tobytes() == run(number).tobytes()


def _tolerance_entries():
    """Each public entry point taking ``tol``, on a flip-flop pair, as ``tol -> result``."""
    system = SpinSystem(2)
    h = build_hamiltonian(system, PAIR)
    return {
        "is_member": lambda tol: is_member(h, SubspaceTag.ZERO_QUANTUM, tol),
        "verify_closure": lambda tol: verify_closure(
            SubspaceTag.ZERO_QUANTUM, system, trials=2, tol=tol
        ),
        "stage_reduce": lambda tol: stage_reduce(h, parity_partition(system), tol=tol),
        "cascade": lambda tol: cascade(h, tol),
    }


@pytest.mark.parametrize("entry", ["is_member", "verify_closure", "stage_reduce", "cascade"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, "a", True, HUGE])
def test_tolerances_refuse_what_is_not_a_finite_real(entry, bad):
    # a NaN tol would call an exact zero-quantum member a non-member
    with pytest.raises(ConfigurationError, match="^tol "):
        _tolerance_entries()[entry](bad)


# a sweep keeps a negative tol, which fails every check on purpose
@pytest.mark.parametrize("entry", ["is_member", "stage_reduce", "cascade"])
@pytest.mark.parametrize("bad", [-1, -1e-300])
def test_membership_decisions_refuse_negative_tolerances(entry, bad):
    with pytest.raises(ConfigurationError, match="^tol must be at least 0"):
        _tolerance_entries()[entry](bad)


def test_tolerances_take_zero_and_numpy_scalars():
    member = _tolerance_entries()["is_member"]
    # the flip-flop Hamiltonian is exactly zero-quantum: residual 0.0
    for tol in (0, np.int64(0), np.float64(1e-12), np.float32(1e-12)):
        assert member(tol).member and member(tol).residual == 0.0


# malformed amplitudes and how each message ends, for a complex and a real value
MALFORMED_NUMBERS = [
    (None, "must be a number, got None", "must be a real number, got None"),
    (True, "must be a number, got True", "must be a real number, got True"),
    ("1", "must be a number, got '1'", "must be a real number, got '1'"),
    ("a", "must be a number, got 'a'", "must be a real number, got 'a'"),
    ([1, 2], "must be a number, got [1, 2]", "must be a real number, got [1, 2]"),
    (math.inf, "must be finite, got inf", "must be finite, got inf"),
    (math.nan, "must be finite, got nan", "must be finite, got nan"),
    (complex(1, math.inf), "must be finite, got (1+infj)", "must be a real number, got (1+infj)"),
]


@pytest.mark.parametrize(
    "value", [0, -2, 0.25, 1 - 2j, np.int64(7), np.float32(0.5), np.complex64(1j)]
)
def test_complex_returns_the_equal_complex(value):
    out = _complex(value, "x")
    assert type(out) is complex
    assert out == complex(value)


@pytest.mark.parametrize("value, message, _", MALFORMED_NUMBERS)
def test_reconstruct_refuses_malformed_coefficients(value, message, _):
    expansion = OperatorExpansion(CARTESIAN, {"I1x": 1.0, "I1z": value}, 0.0)
    with pytest.raises(ConfigurationError) as exc:
        reconstruct(SpinSystem(2), expansion)
    assert str(exc.value) == f"coefficient of I1z {message}"


def test_custom_hamiltonian_refuses_a_nan_coefficient():
    spec = HamiltonianSpec(
        "custom", custom=OperatorExpansion(CARTESIAN, {"I1z": math.nan}, 0.0)
    )
    with pytest.raises(ConfigurationError, match="^coefficient of I1z must be finite"):
        build_hamiltonian(SpinSystem(2), spec)


def _profile(identity=0.0, longitudinal=0.5, zqc=0.25j):
    return AmplitudeProfile(
        0.0, identity, {"I1z": longitudinal}, {"2I1zI2z": 0.0}, {"I1+I2-": zqc}, 0.0
    )


@pytest.mark.parametrize("value, complex_message, real_message", MALFORMED_NUMBERS)
@pytest.mark.parametrize(
    "field, what",
    [
        ("identity", "identity amplitude"),
        ("longitudinal", "amplitude of I1z"),
        ("zqc", "amplitude of I1+I2-"),
    ],
)
def test_reconstruct_profile_refuses_malformed_amplitudes(
    field, what, value, complex_message, real_message
):
    message = complex_message if field == "zqc" else real_message
    with pytest.raises(ConfigurationError) as exc:
        reconstruct_profile(SpinSystem(2), _profile(**{field: value}))
    assert str(exc.value) == f"{what} {message}"


@pytest.mark.parametrize("value", [0.5 + 1j, np.complex128(0.5 + 1j)])
def test_reconstruct_profile_refuses_a_complex_longitudinal_amplitude(value):
    # a numpy complex would be cast into the real bins, its imaginary part dropped
    with pytest.raises(ConfigurationError) as exc:
        reconstruct_profile(SpinSystem(2), _profile(longitudinal=value))
    assert str(exc.value) == f"amplitude of I1z must be a real number, got {value!r}"


def test_reconstruct_profile_takes_numpy_scalars():
    plain = reconstruct_profile(SpinSystem(2), _profile(0, 0.5, 0.25j))
    numpy = reconstruct_profile(
        SpinSystem(2), _profile(np.int64(0), np.float32(0.5), np.complex128(0.25j))
    )
    assert numpy.entries.tobytes() == plain.entries.tobytes()
