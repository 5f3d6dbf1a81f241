"""Independent brute-force reference implementations for the tests.

Everything here is written against raw numpy/scipy with explicit loops
and Kronecker products, deliberately avoiding the package's own code
paths, so the tests compare two independently derived answers.
"""

import json

import numpy as np
from scipy.linalg import expm

SINGLE = {
    "e": np.eye(2, dtype=complex),
    "x": np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex),
    "y": np.array([[0.0, -0.5j], [0.5j, 0.0]], dtype=complex),
    "z": np.array([[0.5, 0.0], [0.0, -0.5]], dtype=complex),
    "a": np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex),
    "b": np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex),
    "+": np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex),
    "-": np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex),
}

# flipflop two-spin run at J = 1, t = 0.7, starting from the first
# spin's longitudinal operator
FLIPFLOP_T = 0.7
FLIPFLOP_CHANNEL_1 = np.cos(0.35) ** 2  # 0.8824210936422443
FLIPFLOP_CHANNEL_2 = np.sin(0.35) ** 2  # 0.11757890635775578
FLIPFLOP_COHERENCE = 0.5j * np.sin(0.7)  # element (1, 2) of the evolved state

# sorting the n = 3 computational basis by ascending down-spin count
IZ_SORTED_N3 = [0, 1, 2, 4, 3, 5, 6, 7]

# expansion of the two-spin flip-flop raising-lowering product in the
# Cartesian product basis
FLIPFLOP_UNIT_EXPANSION = {
    "2I1xI2x": 0.5,
    "2I1yI2y": 0.5,
    "2I1xI2y": -0.5j,
    "2I1yI2x": 0.5j,
}

N12_BLOCK_RATIO = 2704156 / 16777216  # sum of squared binomials over 4**12


def kron_chain(mats):
    out = np.array([[1.0 + 0.0j]])
    for m in mats:
        out = np.kron(out, m)
    return out


def single_spin(n, k, factor):
    """Spin k (1-based) carrying ``factor``, identity elsewhere."""
    return kron_chain([SINGLE[factor if j == k else "e"] for j in range(1, n + 1)])


def cartesian_base(factors):
    """Product base operator with the 2**(q-1) prefactor convention."""
    q = sum(1 for f in factors if f != "e")
    return 2.0 ** (q - 1) * kron_chain([SINGLE[f] for f in factors])


def shift_base(factors):
    return kron_chain([SINGLE[f] for f in factors])


def popcount(i):
    return bin(i).count("1")


def element_order(row, col):
    return popcount(col) - popcount(row)


def pattern_mask(tag, n):
    """Support pattern per subspace name, built entry by entry."""
    dim = 2**n
    mask = np.zeros((dim, dim), dtype=bool)
    for r in range(dim):
        for c in range(dim):
            if tag == "LOMSO":
                mask[r, c] = r == c
            elif tag == "ZeroQuantum":
                mask[r, c] = popcount(r) == popcount(c)
            elif tag == "EvenMQ":
                mask[r, c] = popcount(r) % 2 == popcount(c) % 2
            elif tag == "Full":
                mask[r, c] = True
            else:
                raise ValueError(tag)
    return mask


def order_leaks_dense(zm, n, units=None, chunk=16):
    """Out-of-order weight of Z E, E Z and [Z, E] for every shift unit E.

    Each unit is built as a dense 2**n x 2**n matrix and the products are
    batched full matmuls, ``chunk`` units at a time, so memory stays near
    ``chunk * 4**n`` entries per product while time grows as 16**n.
    Entry [r, c] of each returned (2**n, 2**n) array is the Frobenius
    norm of the product's elements whose order differs from that of the
    unit with its 1 at (r, c). Given ``units``, a list of (r, c) pairs,
    only those are formed and each returned array is flat, one entry per
    pair.
    """
    dim = 2**n
    orders = np.array(
        [[element_order(r, c) for c in range(dim)] for r in range(dim)]
    )
    cells = [(r, c) for r in range(dim) for c in range(dim)] if units is None else units
    out = np.empty((3, len(cells)))
    for start in range(0, len(cells), chunk):
        batch = cells[start:start + chunk]
        r, c = (np.array(v) for v in zip(*batch))
        stack = np.zeros((len(batch), dim, dim), dtype=complex)
        stack[np.arange(len(batch)), r, c] = 1.0
        off = orders[None, :, :] != orders[r, c][:, None, None]
        left = np.matmul(zm[None, :, :], stack)
        right = np.matmul(stack, zm[None, :, :])
        for k, prod in enumerate((left, right, left - right)):
            leaked = np.where(off, prod, 0.0).reshape(len(batch), -1)
            out[k, start:start + len(batch)] = np.linalg.norm(leaked, axis=1)
    if units is None:
        return tuple(o.reshape(dim, dim) for o in out)
    return tuple(out)


def order_leaks_by_row(zm, n):
    """Out-of-order weight of Z E_rc, E_rc Z and [Z, E_rc], one row r at a time.

    The support-product sweep with one unit row per pass and the
    out-of-order elements selected by ``np.where`` and summed: column c
    of Z E_rc holds Z[:, r], row r of E_rc Z holds Z[c, :], and the
    commutator is the column minus the row with the shared element
    (r, c) counted in the column. Every pass holds O(4**n) entries.
    """
    dim = 2**n
    pc = np.array([popcount(i) for i in range(dim)])
    orders = (pc[None, :] - pc[:, None]).astype(np.int8)
    orders_t = np.ascontiguousarray(orders.T)

    def squared(entries):
        return entries.real ** 2 + entries.imag ** 2

    row_comm = -zm
    np.fill_diagonal(row_comm, 0.0)
    rows_sq = squared(np.stack([zm, row_comm]))
    diagonal = np.diagonal(zm)
    cols_sq = np.empty((2, dim, dim))
    leaks = np.empty((3, dim, dim))
    for r in range(dim):
        unit_orders = orders[r]
        col_off = orders_t != unit_orders[:, None]
        row_off = unit_orders[None, :] != unit_orders[:, None]
        cols_sq[:] = rows_sq[0, :, r]
        cols_sq[1, :, r] = squared(zm[r, r] - diagonal)
        col_leak = np.where(col_off, cols_sq, 0.0).sum(axis=2)
        row_leak = np.where(row_off, rows_sq, 0.0).sum(axis=2)
        leaks[0, r] = col_leak[0]
        leaks[1, r] = row_leak[0]
        leaks[2, r] = col_leak[1] + row_leak[1]
    return tuple(np.sqrt(leaks))


def gaussian_entries(rng, dim, hermitian=False):
    """A dense Gaussian draw: all real parts row by row, then all imaginary parts."""
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    if hermitian:
        a = 0.5 * (a + a.conj().T)
    return a


def closure_sweep_operators(tag, n, trials, seed, tol):
    """The closure sweep built from ``Operator`` arithmetic, one object per step.

    Each trial draws a, b and the Hermitian pair ha, hb as projected
    ``Operator`` values, then two weights, and measures ``a @ b``,
    ``a @ b - b @ a`` and ``w0 * ha + w1 * hb`` against the pattern
    mask built entry by entry. Returns the ``ClosureReport`` that the
    library's sweep must reproduce.
    """
    from mqspace import ClosureReport, Operator, SpinSystem, identity_operator

    system = SpinSystem(n)
    mask = pattern_mask(tag.value, n)
    rng = np.random.default_rng(seed)
    report = ClosureReport(tag, n, trials, tol)

    def measure(q):
        residual = float(np.linalg.norm(np.where(mask, 0.0, q.entries)))
        return residual, residual <= tol * q.norm()

    report.identity_member = measure(identity_operator(system))[1]
    if not report.identity_member:
        report.violations.append("identity operator failed membership")

    def member(hermitian=False):
        raw = Operator(system, gaussian_entries(rng, 2**n, hermitian), hermitian or None)
        return Operator(system, np.where(mask, raw.entries, 0.0), raw.hermitian_hint)

    for trial in range(trials):
        a = member()
        b = member()
        ha = member(hermitian=True)
        hb = member(hermitian=True)
        w = rng.standard_normal(2)
        for name, q in (
            ("product", a @ b),
            ("commutator", a @ b - b @ a),
            ("hermitian combination", w[0] * ha + w[1] * hb),
        ):
            residual, ok = measure(q)
            report.checks += 1
            report.max_residual = max(report.max_residual, residual)
            if not ok:
                report.violations.append(
                    f"trial {trial}: {name} left the subspace (residual {residual:.3e})"
                )
    return report


def direct_rotation_polar_dense(v, local_cells, assigned_cols):
    """Polar factor and smallest singular value of the whole sum.

    Builds the m x m direct-rotation sum ``sum_c P_c V_c V_c^H`` of one
    constraint block (cell projector times assigned eigenprojector) and
    takes one SVD of it.
    """
    m = v.shape[0]
    direct = np.zeros((m, m), dtype=complex)
    for rows, cols in zip(local_cells, assigned_cols):
        vc = v[:, cols]
        direct[rows, :] = vc[rows, :] @ vc.conj().T
    uu, sigma, vvh = np.linalg.svd(direct)
    return uu @ vvh, float(sigma[-1])


def cascade_by_stages(h):
    """The cascade as three independent dense stages, each with its own ``eigh``.

    Each stage hands the cascade's ``_block_stage`` its dense input's
    blocks on the stage's constraint blocks and no eigenpairs, so every
    block is diagonalized afresh. The block unitary is scattered into a
    dense ``V`` and the reduced operator is the folded dense ``V h V^H``:
    entries of ``h`` outside the constraint blocks are carried through
    the product, and each residual is the dense weight of the reduced
    operator outside the stage's target cells. The spectrum check compares
    the final diagonal with an independent ``eigvalsh`` of the input.
    Returns a namespace with ``CascadeResult``'s fields.
    """
    import importlib
    from types import SimpleNamespace

    from mqspace import Operator, SubspaceTag, is_member

    stages = importlib.import_module("mqspace.cascade")
    system = h.system
    dim = system.dim
    counts = np.array([popcount(i) for i in range(dim)])
    parity = [np.flatnonzero(counts % 2 == bit) for bit in (0, 1)]
    blocks = [np.flatnonzero(counts == k) for k in range(system.n + 1)]
    singles = [np.array([i]) for i in range(dim)]

    def stage(a, constraint, cells):
        reduction, _ = stages._block_stage(
            dim, [(idx, a[np.ix_(idx, idx)]) for idx in constraint], cells
        )
        v = np.zeros((dim, dim), dtype=complex)
        for idx, u in reduction.unitary:
            v[np.ix_(idx, idx)] = u
        r = v @ a @ v.conj().T
        r = 0.5 * (r + r.conj().T)
        cell_of = np.empty(dim, dtype=int)
        for c, cell in enumerate(cells):
            cell_of[cell] = c
        off_target = np.where(cell_of[:, None] == cell_of[None, :], 0.0, r)
        return SimpleNamespace(
            unitary=Operator(system, v),
            reduced=Operator(system, r, True),
            residual=float(np.linalg.norm(off_target)),
            fallback_used=reduction.fallback_used,
            smallest_sigma=reduction.smallest_sigma,
        )

    s1 = stage(h.entries, [np.arange(dim)], parity)
    s2 = stage(s1.reduced.entries, parity, blocks)
    s3 = stage(s2.reduced.entries, blocks, singles)
    eigenvalues = np.sort(np.linalg.eigvalsh(h.entries))
    diagonal = np.sort(np.real(np.diag(s3.reduced.entries)))
    return SimpleNamespace(
        v1=s1.unitary,
        v2=s2.unitary,
        v3=s3.unitary,
        h1=s1.reduced,
        h2=s2.reduced,
        h3=s3.reduced,
        residuals={"even_mq": s1.residual, "zero_quantum": s2.residual, "lomso": s3.residual},
        stage_classes={
            "v2_even_mq": is_member(s2.unitary, SubspaceTag.EVEN_MQ),
            "v3_zero_quantum": is_member(s3.unitary, SubspaceTag.ZERO_QUANTUM),
        },
        fallbacks=(s1.fallback_used, s2.fallback_used, s3.fallback_used),
        smallest_sigmas=(s1.smallest_sigma, s2.smallest_sigma, s3.smallest_sigma),
        spectrum_error=float(np.max(np.abs(eigenvalues - diagonal))),
    )


def align_cluster_full(cols, local_cells):
    """Degenerate-cluster alignment with every SVD's full left factor.

    The same cell-by-cell rotation as the cascade's cluster alignment,
    written with ``np.linalg.svd``'s default ``full_matrices=True``.
    """
    remaining = cols
    finished = []
    for rows in local_cells:
        if remaining.shape[1] == 0:
            break
        _, s, vh = np.linalg.svd(remaining[rows, :], full_matrices=True)
        remaining = remaining @ vh.conj().T
        keep = int(np.sum(s**2 >= 0.5))
        if keep:
            finished.append(remaining[:, :keep])
            remaining = remaining[:, keep:]
    if remaining.shape[1]:
        finished.append(remaining)
    return np.hstack(finished) if finished else cols


def axis_mapping_loop(v, local_cells, assigned_cols):
    """Eigenvector-to-axis map, one outer product per (row, column) pair."""
    m = v.shape[0]
    u_block = np.zeros((m, m), dtype=complex)
    for rows, cols in zip(local_cells, assigned_cols):
        for row, col in zip(np.sort(rows), sorted(cols)):
            u_block += np.outer(np.eye(m)[row], v[:, col].conj())
    return u_block


def walsh(n):
    dim = 2**n
    w = np.zeros((dim, dim))
    for s in range(dim):
        for i in range(dim):
            w[s, i] = (-1.0) ** popcount(s & i)
    return w


def evolve(h, q, t):
    u = expm(-1j * t * h)
    return u @ q @ u.conj().T


def flipflop_pair(n, k, l):
    """Raising-lowering exchange coupling between spins k and l (1-based)."""
    return single_spin(n, k, "+") @ single_spin(n, l, "-") + single_spin(
        n, k, "-"
    ) @ single_spin(n, l, "+")


def hamiltonian(n, model, couplings=(), offsets=()):
    dim = 2**n
    h = np.zeros((dim, dim), dtype=complex)
    for k, l, j in couplings:
        if model == "flipflop":
            h += j * flipflop_pair(n, k, l) / 2.0
        elif model == "dipolar_secular":
            zz = single_spin(n, k, "z") @ single_spin(n, l, "z")
            h += j * (2.0 * zz - flipflop_pair(n, k, l) / 2.0)
        elif model == "isotropic_j":
            zz = single_spin(n, k, "z") @ single_spin(n, l, "z")
            h += j * (zz + flipflop_pair(n, k, l) / 2.0)
        else:
            raise ValueError(model)
    for k, w in offsets:
        h += w * single_spin(n, k, "z")
    return h


# (zz, flip) weight of one coupling, as in hamiltonian() above
PAIR_WEIGHTS = {
    "flipflop": (0.0, 0.5),
    "dipolar_secular": (2.0, -0.5),
    "isotropic_j": (1.0, 0.5),
}


def hamiltonian_flat(n, model, couplings=(), offsets=()):
    """Named-model Hamiltonian written entry by entry into a flat view.

    z terms are sign diagonals, and a flip-flop pair sets entry
    ``s * dim + (s ^ pair)`` of every state ``s`` whose two coupled bits
    differ. Models with no pair term (``offsets``) ignore ``couplings``.
    """
    dim = 2**n
    states = np.arange(dim)
    diag = np.zeros(dim)
    h = np.zeros((dim, dim), dtype=complex)
    flat = h.reshape(-1)
    for k, w in offsets:
        diag += w * (0.5 - ((states >> (n - k)) & 1))
    for k, l, j in couplings:
        zz_weight, flip_weight = PAIR_WEIGHTS[model]
        pair = (1 << (n - k)) | (1 << (n - l))
        differ = np.bitwise_count(states & pair) == 1
        if zz_weight:
            diag += (j * zz_weight) * np.where(differ, -0.25, 0.25)
        s = states[differ]
        flat[s * dim + (s ^ pair)] = j * flip_weight
    flat[:: dim + 1] = diag
    return h


def fmt_double(x):
    """A double at 17 significant digits, as the CLI documents it."""
    return format(float(x), ".17g")


def json_text(value, indent=0):
    """The CLI's JSON layout, written one value at a time.

    Reference for the vectorized writer: nested containers are indented
    two spaces per level, flat lists stay on one line, floats use
    :func:`fmt_double` and complex numbers become ``[re, im]``.
    """
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = ",\n".join(
            f"{pad}  {json.dumps(str(k))}: {json_text(v, indent + 1)}"
            for k, v in value.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        seq = list(value)
        if not seq:
            return "[]"
        if all(not isinstance(v, (dict, list, tuple)) for v in seq):
            return "[" + ", ".join(json_text(v) for v in seq) + "]"
        inner = ",\n".join(f"{pad}  {json_text(v, indent + 1)}" for v in seq)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return fmt_double(value)
    if isinstance(value, (complex, np.complexfloating)):
        return "[" + fmt_double(value.real) + ", " + fmt_double(value.imag) + "]"
    if isinstance(value, str):
        return json.dumps(value)
    raise TypeError(f"cannot serialize {type(value).__name__} to JSON")


def evolve_csv(times, channels, discrepancy=None):
    """The ``evolve`` CSV table, written one cell at a time."""
    header = ["t"] + list(channels)
    if discrepancy is not None:
        header.append("max_channel_discrepancy")
    lines = [",".join(header)]
    for i, t in enumerate(times):
        row = [fmt_double(t)] + [fmt_double(series[i]) for series in channels.values()]
        if discrepancy is not None:
            row.append(fmt_double(discrepancy[i]))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"
