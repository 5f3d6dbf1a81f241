#!/usr/bin/env python3
"""Tour of the two product bases on a two-spin system.

Prints every base operator label next to its coherence-order footprint,
then expands the exchange coupling term in the Cartesian basis to show
how the two descriptions line up.
"""

import numpy as np

from mqspace import (
    CARTESIAN,
    SHIFT,
    SpinSystem,
    build_operator,
    enumerate_basis,
    expand,
    order_components,
    spin_operator,
)

system = SpinSystem(2)

print("Cartesian basis, n = 2")
for spec in enumerate_basis(system, CARTESIAN):
    q = build_operator(system, spec)
    orders = sorted(order_components(q))
    print(f"  {spec.label:10s} orders {orders}")

print()
print("Shift basis, n = 2 (each label names one matrix unit)")
for spec in enumerate_basis(system, SHIFT):
    print(f"  {spec.label:10s} order {spec.shift_order:+d}")

# the exchange term I1+I2- + I1-I2+ is real and equals 2I1xI2x + 2I1yI2y:
# two Cartesian products of amplitude 1 each, squared weight 2 in all
plus_minus = spin_operator(system, 1, "+") @ spin_operator(system, 2, "-")
exchange = plus_minus + plus_minus.adjoint()
expansion = expand(exchange, CARTESIAN)

print()
print("Cartesian amplitudes of I1+I2- + I1-I2+")
for label, amp in sorted(expansion.coefficients.items()):
    print(f"  {label:10s} {amp.real:+.3f}")
print(f"  residual {expansion.residual:.1e}")
amplitudes = expansion.coefficients
assert np.isclose(amplitudes["2I1xI2x"], 1.0) and np.isclose(amplitudes["2I1yI2y"], 1.0)
assert np.isclose(sum(abs(a) ** 2 for a in amplitudes.values()), 2.0)
