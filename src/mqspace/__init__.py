"""Operator-algebra toolkit for registers of coupled spin-1/2 particles.

The package models the full operator space of an n-spin register as
dense matrices, classifies operators by the magnetization difference
their elements connect, and exploits the resulting nested subspace
structure: diagonal operators sit inside the order-0 subspace, which
sits inside the even-order subspace, which spans everything with odd
orders added. Order-0 dynamics block-diagonalizes over magnetization
sectors, so propagators and evolutions can run block by block at a
fraction of the full-space cost. A three-stage cascade of unitaries
pushes any Hermitian operator down that chain, a pair of basis
encodings with an exactly synthesized permutation connects conventional
and magnetization-sorted state orders, and a transfer harness tracks
longitudinal, spin-order and coherence amplitudes over time.
"""

from .errors import ConfigurationError, InvariantError, ToleranceError
from .operators import (
    CARTESIAN,
    SHIFT,
    BaseOperatorSpec,
    Operator,
    OperatorExpansion,
    SpinSystem,
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
    reconstruct,
    spin_operator,
    total_z,
)
from .subspaces import (
    ClosureReport,
    Membership,
    SelectiveBlock,
    SubspaceTag,
    block_dimension,
    decompose_zq,
    is_member,
    project,
    selective_blocks,
    subspace_dims,
    support_mask,
    verify_closure,
    zq_offdiagonal_cells,
)
from .dynamics import (
    HAMILTONIAN_MODELS,
    AmplitudeProfile,
    BlockSpectra,
    HamiltonianSpec,
    amplitude_profile,
    blockwise_conjugate,
    build_hamiltonian,
    conjugate,
    expm_hermitian,
    reconstruct_profile,
    zq_propagator,
)
from .cascade import (
    CascadeResult,
    cascade,
    parity_partition,
    popcount_partition,
    singleton_partition,
)
from .encodings import (
    Encoding,
    iz_sorted_encoding,
    permutation_matrix,
    reencode,
    synthesize_permutation,
)
from .diffusion import (
    DiffusionConfig,
    DiffusionTrace,
    channel_discrepancy,
    linear_times,
    purge,
    run_blockwise,
    run_diffusion,
)
from .properties import (
    PropertyReport,
    verify_extreme_states,
    verify_order_preservation,
)

__version__ = "0.1.0"

__all__ = [
    "ClosureReport",
    "HAMILTONIAN_MODELS",
    "parity_partition",
    "popcount_partition",
    "reconstruct",
    "singleton_partition",
    "support_mask",
    "zq_offdiagonal_cells",
    "__version__",
    "ConfigurationError",
    "ToleranceError",
    "InvariantError",
    "CARTESIAN",
    "SHIFT",
    "SpinSystem",
    "Operator",
    "BaseOperatorSpec",
    "OperatorExpansion",
    "build_operator",
    "enumerate_basis",
    "expand",
    "order_components",
    "coherence_order_of_element",
    "hs_inner",
    "commutator",
    "spin_operator",
    "total_z",
    "identity_operator",
    "random_operator",
    "max_spins",
    "SubspaceTag",
    "Membership",
    "SelectiveBlock",
    "subspace_dims",
    "block_dimension",
    "is_member",
    "project",
    "selective_blocks",
    "decompose_zq",
    "verify_closure",
    "HamiltonianSpec",
    "build_hamiltonian",
    "BlockSpectra",
    "expm_hermitian",
    "zq_propagator",
    "conjugate",
    "blockwise_conjugate",
    "AmplitudeProfile",
    "amplitude_profile",
    "reconstruct_profile",
    "CascadeResult",
    "cascade",
    "Encoding",
    "iz_sorted_encoding",
    "permutation_matrix",
    "synthesize_permutation",
    "reencode",
    "DiffusionConfig",
    "DiffusionTrace",
    "linear_times",
    "purge",
    "run_diffusion",
    "run_blockwise",
    "channel_discrepancy",
    "PropertyReport",
    "verify_order_preservation",
    "verify_extreme_states",
]
