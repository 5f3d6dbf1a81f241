"""One rule per kind of outside value: reals, integers and indices.

Every library entry point that takes a real number routes it through
``operators._real`` and every index through ``operators._integer``, so a
malformed value is a ``ConfigurationError`` wherever it arrives, never a
``TypeError``, ``ValueError``, ``KeyError``, ``IndexError`` or
``OverflowError`` from deeper down; numpy scalars pass with the results
of the equal Python numbers.
"""

import math

import numpy as np
import pytest

from mqspace import (
    ConfigurationError,
    DiffusionConfig,
    Encoding,
    HamiltonianSpec,
    SpinSystem,
    build_hamiltonian,
    coherence_order_of_element,
    linear_times,
    parity_partition,
    random_operator,
    spin_operator,
    stage_reduce,
)
from mqspace.operators import _real

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
