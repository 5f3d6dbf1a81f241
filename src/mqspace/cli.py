"""Command-line front end.

Subcommands expose the library over text streams: ``basis`` enumerates
base operators, ``dims`` prints dimension tables, ``evolve`` runs
magnetization-transfer experiments, ``cascade`` block-diagonalizes a
Hermitian operator in three stages, ``perm`` reports the
magnetization-sorted encoding and ``verify`` runs the property suites.

Every subcommand accepts inline flags or a JSON config file; on
conflict the config file wins and a warning goes to the error stream.
:func:`main` resolves the spin count and the output format, and each
handler its own inputs, before any computation, so a malformed input
costs no run. A handler returns its document's pieces and exit code,
and :func:`main` writes them.

Floating point values are rendered with 17 significant digits in both
CSV and JSON so output round-trips doubles exactly; identical inputs
produce byte-identical output. Arrays of them are formatted by
:mod:`~mqspace.doubles` a chunk of values at a time, exactly as ``%.17g``
formats each. A document is generated as string pieces, encoded into an
anonymous temporary file (in ``TMPDIR``, where :mod:`tempfile` puts it)
and copied to the ``--out`` file or standard output only after the last
piece, so a serialization error leaves no partial output and no document
text is held in memory. JSON is written a chunk at a time, one piece per
chunk; equal float series are formatted once, and a later one is
written again from its chunk's text or, when an earlier chunk holds it,
copied back from the temporary file, found without keeping a copy of any
series' bytes.
``evolve`` builds no trace. Its engines' binned times go through the
two loops that serve a trace too: :func:`~mqspace.diffusion._stream_table`
fills the run's read-only channel table one time at a time, and under
``--engine both`` :func:`~mqspace.diffusion._stream_gap` compares each
block-engine time with its column as it arrives, as
:func:`~mqspace.diffusion.channel_discrepancy` compares two traces. The
document holds that table and is formatted after both engines are done.
Exit codes: 0 success, 2 configuration or parse error (malformed config
values, an unwritable ``--out`` file and an unwritable temporary
directory included), 3 numerical tolerance failure, 4 invariant breach.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import sys
import tempfile
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from .errors import ConfigurationError, InvariantError, ToleranceError
from .operators import (
    CARTESIAN,
    SHIFT,
    BaseOperatorSpec,
    SpinSystem,
    _integer,
    _real,
    enumerate_basis,
    random_operator,
)
from .subspaces import (
    MEMBERSHIP_TOL,
    SubspaceTag,
    _closure_sweeps,
    block_dimension,
    subspace_dims,
)
from .dynamics import HAMILTONIAN_MODELS, HamiltonianSpec, build_hamiltonian
from .diffusion import (
    DiffusionConfig,
    _block_sizes,
    _engine_rows,
    _label_series,
    _stream_gap,
    _stream_table,
    _undesired,
    linear_times,
)
from .cascade import cascade
from .doubles import ROW_BYTES, SEP_COLUMN, format_rows, rows_text
from .encodings import iz_sorted_encoding, synthesize_permutation
from .properties import verify_extreme_states, verify_order_preservation

__all__ = ["main", "run"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_INVARIANT = 4

GENERATOR_EMIT_MAX_N = 6

_COMMON_KEYS = {"n", "format", "out"}
_CONFIG_KEYS = {
    "basis": _COMMON_KEYS | {"kind"},
    "dims": _COMMON_KEYS,
    "evolve": _COMMON_KEYS
    | {"hamiltonian", "initial", "times", "purge", "track", "engine"},
    "cascade": _COMMON_KEYS | {"seed", "hamiltonian"},
    "perm": _COMMON_KEYS | {"generators"},
    "verify": _COMMON_KEYS | {"seed", "trials", "combos", "tolerances"},
}
_HAMILTONIAN_KEYS = {"model", "couplings", "offsets"}
_TOLERANCE_KEYS = {"membership"}


_DOUBLE = "%.17g"  # 17 significant digits, enough to reproduce any double exactly

_CHUNK = 2048  # values per kernel call: its temporaries stay near 300 kB
_TEXT_CHARS = 16  # characters of other text that a chunk counts as one value
_LIST_ITEMS = 256  # items of a flat list joined at a time


def _fmt(x: float) -> str:
    """One double in the output's number format."""
    return _DOUBLE % float(x)


def _series_texts(series: list[np.ndarray]) -> list[str]:
    """The JSON text of each 1-D float64 array without its opening bracket,
    ``v, v, ...]``, formatted ``_CHUNK`` values per kernel call."""
    sizes = [s.size for s in series]
    values = np.concatenate(series)
    # each series' last value ends in "]" and a line break, which splits them
    ends = np.cumsum([s for s in sizes if s]) - 1
    text = []
    for j in range(0, values.size, _CHUNK):
        rows = format_rows(values[j : j + _CHUNK], ", ")
        last = ends[(ends >= j) & (ends < j + _CHUNK)] - j
        rows[last, SEP_COLUMN : SEP_COLUMN + 2] = np.frombuffer(b"]\n", np.uint8)
        text.append(rows_text(rows))
    texts = iter("".join(text).split("\n"))
    return [next(texts) if size else "]" for size in sizes]


class _Copy:
    """A document piece that repeats the ``length`` characters written from ``offset``.

    ``len`` of it is ``length``, the characters it stands for.
    """

    __slots__ = ("offset", "length")

    def __init__(self, offset: int, length: int):
        self.offset, self.length = offset, length

    def __len__(self) -> int:
        return self.length


def _json_pieces(value: Any) -> Iterator[str | _Copy]:
    """The JSON document of ``value`` as pieces, generated in order.

    Nested containers are indented two spaces per level, flat lists (no
    dict, list, tuple or array items) stay on one line and complex numbers
    become ``[re, im]``. The document is written a chunk at a time: the
    1-D float64 arrays, series, of a chunk of about ``_CHUNK`` values are
    formatted together by :mod:`~mqspace.doubles`, and the chunk is one
    text. Each series
    is formatted once per document: a later one with the same bytes is
    written again from the chunk's texts, or, when an earlier chunk wrote
    it, is a :class:`_Copy` of that text, which :func:`_emit` copies back
    from the spool; the writer keeps each series' place in the document
    but no text of an earlier chunk. The document ends with a newline.
    """
    # hash of a series' bytes -> the first series with it and the offset and
    # length of its text, or, while its chunk is open, its index in `fresh`
    formatted: dict[int, tuple] = {}
    parts: list[str | int] = []  # the open chunk: text, or an index in `fresh`
    fresh: list[tuple[np.ndarray, int | None]] = []  # its new series and their keys
    # the open chunk's size in values, other text counting one per _TEXT_CHARS
    # characters; and the characters yielded before it
    size = offset = 0
    for piece in _json_write(value, 0):
        if isinstance(piece, str):
            parts.append(piece)
            size += len(piece) // _TEXT_CHARS
        else:
            data = piece.tobytes()
            key = hash(data)
            first = formatted.get(key)
            if first is None or first[0].tobytes() != data:
                # a series whose hash an unequal one took first is formatted again
                parts.append(len(fresh))
                fresh.append((piece, None if first else key))
                if first is None:
                    formatted[key] = (piece, len(fresh) - 1)
            elif len(first) == 2:
                parts.append(first[1])
            else:
                text = _chunk_text(parts, fresh, formatted, offset)
                if text:
                    yield text
                offset += len(text) + first[2]
                parts, fresh, size = [], [], 0
                yield _Copy(*first[1:])
                continue
            size += piece.size
        if size >= _CHUNK:
            text = _chunk_text(parts, fresh, formatted, offset)
            yield text
            offset += len(text)
            parts, fresh, size = [], [], 0
    parts.append("\n")
    yield _chunk_text(parts, fresh, formatted, offset)


def _chunk_text(parts: list, fresh: list, formatted: dict, offset: int) -> str:
    """The text of a chunk of :func:`_json_pieces` written at ``offset``.

    Each new series that ``formatted`` registers gets the offset and
    length of its text's first place.
    """
    if not fresh:
        return "".join(parts)
    texts = _series_texts([series for series, _ in fresh])
    out = []
    for part in parts:
        if not isinstance(part, str):
            series, key = fresh[part]
            text = texts[part]
            if key is not None and len(formatted[key]) == 2:
                formatted[key] = (series, offset, len(text) + 1)
            out.append("[")
            offset += 1
            part = text
        out.append(part)
        offset += len(part)
    return "".join(out)


def _json_write(value: Any, indent: int) -> Iterator[str | np.ndarray]:
    """Generate the pieces of ``value`` at nesting level ``indent``.

    A 1-D float64 array, a series, is yielded as itself, for
    :func:`_json_pieces` to write. A plain recursive generator, not a
    closure, so a finished document leaves no reference cycle holding its
    arrays.
    """
    if _is_series(value):
        yield value
    elif isinstance(value, dict) and value:
        pad = "  " * indent
        lead = "{\n"
        for k, v in value.items():
            yield f"{lead}{pad}  {_json_string(str(k))}: "
            # a series, the common value, is handed on without a generator of its own
            if _is_series(v):
                yield v
            else:
                yield from _json_write(v, indent + 1)
            lead = ",\n"
        yield f"\n{pad}}}"
    elif isinstance(value, (list, tuple)) and value:
        if all(not isinstance(v, (dict, list, tuple, np.ndarray)) for v in value):
            # a long list is joined _LIST_ITEMS items at a time
            lead = "["
            for i in range(0, len(value), _LIST_ITEMS):
                yield lead + ", ".join(map(_json_leaf, value[i : i + _LIST_ITEMS]))
                lead = ", "
            yield "]"
            return
        pad = "  " * indent
        lead, sep, end = f"[\n{pad}  ", f",\n{pad}  ", f"\n{pad}]"
        for v in value:
            yield lead
            yield from _json_write(v, indent + 1)
            lead = sep
        yield end
    else:
        yield _json_leaf(value)


def _is_series(value: Any) -> bool:
    """Whether ``value`` is a 1-D float64 array, which a JSON document writes as a series."""
    return isinstance(value, np.ndarray) and value.ndim == 1 and value.dtype == np.float64


def _json_leaf(value: Any) -> str:
    """The JSON text of a value written as one piece: a scalar or an empty container."""
    if isinstance(value, str):
        return _json_string(value)
    if isinstance(value, dict):
        return "{}"
    if isinstance(value, (list, tuple)):
        return "[]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _fmt(value)
    if isinstance(value, (complex, np.complexfloating)):
        return "[" + _fmt(value.real) + ", " + _fmt(value.imag) + "]"
    raise InvariantError(f"cannot serialize {type(value).__name__} to JSON")


def _json_string(text: str) -> str:
    """``json.dumps(text)``: printable ASCII without ``"`` or ``\\`` needs no escape."""
    if text.isascii() and text.isprintable() and '"' not in text and "\\" not in text:
        return f'"{text}"'
    return json.dumps(text)


def _csv_pieces(header: list[str], rows: Iterable[list[str]]) -> Iterator[str]:
    """The CSV table as string pieces: the header, then one line per row."""
    yield ",".join(header)
    yield "\n"
    for row in rows:
        yield ",".join(row)
        yield "\n"


def _emit(pieces: Iterable[str | _Copy], out: str | None) -> None:
    """Write a document to ``out``, or standard output, once its last piece exists.

    The pieces go, UTF-8 encoded, to an anonymous binary temporary file,
    which is copied out after the last one: a failed run writes nothing,
    and no document text is held in memory. A :class:`_Copy` is read back
    from that file's bytes with ``os.pread``, which leaves the file
    position alone; the spool is flushed first only when the copied range
    is not yet in the file. Its offset counts characters, which are bytes
    here since a JSON document is ASCII (:func:`_json_string` escapes the
    rest). The spool is copied to ``out`` as it is and decoded for
    standard output.
    """
    with contextlib.ExitStack() as stack:
        try:
            spool = stack.enter_context(tempfile.TemporaryFile("w+b"))
            fd = spool.fileno()
            written = flushed = 0  # bytes written, and those already in the file
            for piece in pieces:
                if isinstance(piece, str):
                    piece = piece.encode()
                else:
                    if piece.offset + piece.length > flushed:
                        spool.flush()
                        flushed = written
                    piece = os.pread(fd, piece.length, piece.offset)
                spool.write(piece)
                written += len(piece)
        except OSError as exc:
            target = "" if out is None else f" {out!r}"
            raise ConfigurationError(
                f"cannot write output{target}: spool file in "
                f"{tempfile.gettempdir()!r}: {exc.strerror or exc}"
            ) from exc
        spool.seek(0)
        if out is None:
            shutil.copyfileobj(io.TextIOWrapper(spool, encoding="utf-8"), sys.stdout)
            return
        try:
            with open(out, "wb") as fh:
                shutil.copyfileobj(spool, fh)
        except OSError as exc:
            raise ConfigurationError(f"cannot write output {out!r}: {exc.strerror}") from exc


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigurationError(f"config {path!r} must hold a JSON object")
    return doc


def _check_keys(doc: dict, allowed: set[str], context: str) -> None:
    unknown = sorted(set(doc) - allowed)
    if unknown:
        raise ConfigurationError(
            f"unknown {context} keys: {', '.join(unknown)}; "
            f"allowed: {', '.join(sorted(allowed))}"
        )


def _merge(args: argparse.Namespace, command: str) -> dict:
    """Resolve flag and config values; the config file wins conflicts."""
    resolved: dict[str, Any] = {}
    for key, value in vars(args).items():
        if key in ("command", "config"):
            continue
        resolved[key] = value

    if args.config is None:
        return resolved

    doc = _load_config(args.config)
    _check_keys(doc, _CONFIG_KEYS[command], f"{command} config")
    if "hamiltonian" in doc:
        ham = doc["hamiltonian"]
        if not isinstance(ham, dict):
            raise ConfigurationError("config key 'hamiltonian' must be an object")
        _check_keys(ham, _HAMILTONIAN_KEYS, "hamiltonian")
    if "tolerances" in doc:
        tols = doc["tolerances"]
        if not isinstance(tols, dict):
            raise ConfigurationError("config key 'tolerances' must be an object")
        _check_keys(tols, _TOLERANCE_KEYS, "tolerances")

    for key, value in doc.items():
        flag_value = resolved.get(key)
        if flag_value is not None and flag_value != value:
            sys.stderr.write(
                f"warning: config overrides --{key}={flag_value!r} with {value!r}\n"
            )
        resolved[key] = value
    return resolved


def _require_n(resolved: dict) -> SpinSystem:
    n = resolved.get("n")
    if n is None:
        raise ConfigurationError("spin count is required; pass --n or config key 'n'")
    return SpinSystem(n)


def _int_of(resolved: dict, key: str, default: int, minimum: int | None = None) -> int:
    value = resolved.get(key)
    if value is None:
        return default
    return _integer(value, key, minimum)


def _format_of(resolved: dict) -> str:
    fmt = resolved.get("format") or "json"
    if fmt not in ("csv", "json"):
        raise ConfigurationError(f"format must be csv or json, got {fmt!r}")
    return fmt


def _parse_coupling_flag(text: str) -> tuple[int, int, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise ConfigurationError(
            f"coupling {text!r} must look like k,l,J (e.g. 1,2,0.5)"
        )
    try:
        return int(parts[0]), int(parts[1]), float(parts[2])
    except ValueError as exc:
        raise ConfigurationError(f"coupling {text!r}: {exc}") from exc


def _parse_offset_flag(text: str) -> tuple[int, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigurationError(f"offset {text!r} must look like k,value")
    try:
        return int(parts[0]), float(parts[1])
    except ValueError as exc:
        raise ConfigurationError(f"offset {text!r}: {exc}") from exc


def _hamiltonian_spec(resolved: dict) -> HamiltonianSpec:
    ham = resolved.get("hamiltonian")
    if isinstance(ham, dict):
        model = ham.get("model")
        couplings = ham.get("couplings", [])
        offsets = ham.get("offsets", [])
    else:
        model = resolved.get("model")
        couplings = resolved.get("coupling") or []
        offsets = resolved.get("offset") or []
    if model is None:
        raise ConfigurationError(
            "hamiltonian model is required; pass --model or config "
            "key hamiltonian.model"
        )
    if model not in HAMILTONIAN_MODELS or model == "custom":
        usable = [m for m in HAMILTONIAN_MODELS if m != "custom"]
        raise ConfigurationError(
            f"model {model!r} is not usable here; choose one of {', '.join(usable)}"
        )
    return HamiltonianSpec(model=model, couplings=couplings, offsets=offsets)


def _parse_times(resolved: dict) -> tuple[float, ...]:
    times = resolved.get("times")
    if times is None:
        raise ConfigurationError("a time grid is required; pass --times or config")
    # linear_times raises ConfigurationError (a ValueError) itself, so it is
    # called outside the handlers that reword malformed values
    if isinstance(times, str):
        if ":" in times:
            parts = times.split(":")
            if len(parts) != 3:
                raise ConfigurationError(
                    f"times {times!r} must be t1,t2,... or start:end:points"
                )
            try:
                start, end, points = float(parts[0]), float(parts[1]), int(parts[2])
            except ValueError as exc:
                raise ConfigurationError(f"times {times!r}: {exc}") from exc
            return linear_times(start, end, points)
        try:
            return tuple(float(p) for p in times.split(","))
        except ValueError as exc:
            raise ConfigurationError(f"times {times!r}: {exc}") from exc
    # JSON values go on unconverted: linear_times and DiffusionConfig apply
    # the number rule to them
    if isinstance(times, dict):
        _check_keys(times, {"start", "end", "points"}, "times")
        try:
            start, end, points = times["start"], times["end"], times["points"]
        except KeyError as exc:
            raise ConfigurationError(f"times object misses key {exc}") from exc
        return linear_times(start, end, points)
    if isinstance(times, (list, tuple)):
        return tuple(times)
    raise ConfigurationError(f"cannot interpret times {times!r}")


def _parse_track(resolved: dict) -> Any:
    track = resolved.get("track")
    if track is None or track == "all":
        return "all"
    if isinstance(track, str):
        return tuple(p for p in track.split(",") if p)
    if isinstance(track, (list, tuple)):
        return tuple(str(p) for p in track)
    raise ConfigurationError(f"cannot interpret track {track!r}")


# ---------------------------------------------------------------- basis


def _structural_orders(spec: BaseOperatorSpec) -> list[int]:
    if spec.kind == SHIFT:
        return [spec.shift_order]
    transverse = sum(1 for f in spec.factors if f in ("x", "y"))
    if transverse == 0:
        return [0]
    return list(range(-transverse, transverse + 1, 2))


def _structural_tags(spec: BaseOperatorSpec) -> list[str]:
    orders = _structural_orders(spec)
    tags = []
    if spec.kind == CARTESIAN:
        diagonal = all(f in ("e", "z") for f in spec.factors)
    else:
        diagonal = all(f in ("a", "b") for f in spec.factors)
    if diagonal:
        tags.append(SubspaceTag.LOMSO.value)
    if orders == [0]:
        tags.append(SubspaceTag.ZERO_QUANTUM.value)
    if all(p % 2 == 0 for p in orders):
        tags.append(SubspaceTag.EVEN_MQ.value)
    tags.append(SubspaceTag.FULL.value)
    return tags


def _cmd_basis(system: SpinSystem, resolved: dict, csv: bool) -> tuple[Iterable[str], int]:
    kind = resolved.get("kind") or CARTESIAN
    if kind not in (CARTESIAN, SHIFT):
        raise ConfigurationError(f"kind must be cartesian or shift, got {kind!r}")
    records = []
    for spec in enumerate_basis(system, kind):
        records.append(
            {
                "label": spec.label,
                "kind": spec.kind,
                "orders": _structural_orders(spec),
                "tags": _structural_tags(spec),
            }
        )
    if not csv:
        return _json_pieces({"n": system.n, "kind": kind, "operators": records}), EXIT_OK
    rows = [
        [
            r["label"],
            r["kind"],
            ";".join(str(p) for p in r["orders"]),
            ";".join(r["tags"]),
        ]
        for r in records
    ]
    return _csv_pieces(["label", "kind", "orders", "tags"], rows), EXIT_OK


# ----------------------------------------------------------------- dims


def _cmd_dims(system: SpinSystem, resolved: dict, csv: bool) -> tuple[Iterable[str], int]:
    n = system.n
    dims = subspace_dims(n)
    block_dims = [block_dimension(n, k) for k in range(n + 1)]
    block_cells = [d * d for d in block_dims]
    total = sum(block_cells)
    full = 4**n
    doc = {
        "n": n,
        "subspace_dims": {tag.value: dims[tag] for tag in SubspaceTag},
        "block_dims": block_dims,
        "block_cells": block_cells,
        "block_cells_total": total,
        "full_cells": full,
        "block_cost_ratio": total / full,
    }
    if not csv:
        return _json_pieces(doc), EXIT_OK
    rows = [
        ["n", str(n)],
        *[[f"dim_{tag.value}", str(dims[tag])] for tag in SubspaceTag],
        ["block_dims", ";".join(str(d) for d in block_dims)],
        ["block_cells", ";".join(str(c) for c in block_cells)],
        ["block_cells_total", str(total)],
        ["full_cells", str(full)],
        ["block_cost_ratio", _fmt(total / full)],
    ]
    return _csv_pieces(["quantity", "value"], rows), EXIT_OK


# --------------------------------------------------------------- evolve


def _cmd_evolve(system: SpinSystem, resolved: dict, csv: bool) -> tuple[Iterable[str], int]:
    spec = _hamiltonian_spec(resolved)
    config = DiffusionConfig(
        system=system,
        hamiltonian=spec,
        times=_parse_times(resolved),
        initial=resolved.get("initial") or "I1z",
        purge=bool(resolved.get("purge") or False),
        track=_parse_track(resolved),
    )
    engine = resolved.get("engine") or "full"
    if engine not in ("full", "blockwise", "both"):
        raise ConfigurationError(
            f"engine must be full, blockwise or both, got {engine!r}"
        )

    # the written engine's rows go straight into one channel table; under
    # "both" each block-engine time is compared with its column as it
    # arrives, so no trace and no second table exist
    written = "blockwise" if engine == "blockwise" else "full"
    table, rows, conserved = _stream_table(
        system.n, config.track, _engine_rows(config, written), len(config.times)
    )
    discrepancy = None
    if engine == "both":
        discrepancy = _stream_gap(
            system.n, config.track, table.T, _engine_rows(config, "blockwise")
        )
    labels = config.tracked_labels()

    if csv:
        tails = [] if discrepancy is None else [discrepancy]
        header = ["t", *labels] + ["max_channel_discrepancy"] * len(tails)
        return _csv_pieces(header, _table_lines(config.times, table, rows, tails)), EXIT_OK
    block_sizes = _block_sizes(system.n, written)
    doc = {
        "n": system.n,
        "engine": engine,
        "initial": config.initial,
        "purge": config.purge,
        "times": np.asarray(config.times),
        "channels": _label_series(labels, table, rows),
        "conserved": conserved,
        "undesired": _undesired(system.n, config.track),
        "block_sizes": (
            None if block_sizes is None else {str(k): v for k, v in block_sizes.items()}
        ),
    }
    if discrepancy is not None:
        doc["max_channel_discrepancy"] = discrepancy
    return _json_pieces(doc), EXIT_OK


def _table_lines(
    times: Sequence[float], table: np.ndarray, rows: np.ndarray, tails: list[np.ndarray]
) -> Iterator[list[str]]:
    """Each time's CSV cells: the time, each label's row of its column of
    ``table``, then each tail's value at that time.

    A line's values are formatted ``_CHUNK`` at a time, each table row
    once though two labels may share it, and joined ``_CHUNK`` labels at a
    time.
    """
    order = np.concatenate([[0], rows + 1, table.shape[0] + 1 + np.arange(len(tails))])
    for i, t in enumerate(times):
        values = np.concatenate([[t], table[:, i], [d[i] for d in tails]])
        cells = np.empty((values.size, ROW_BYTES), np.uint8)
        for j in range(0, values.size, _CHUNK):
            cells[j : j + _CHUNK] = format_rows(values[j : j + _CHUNK], ",")
        yield [
            rows_text(cells[part])[:-1]
            for part in np.split(order, range(_CHUNK, order.size, _CHUNK))
        ]


# -------------------------------------------------------------- cascade


def _cmd_cascade(system: SpinSystem, resolved: dict, csv: bool) -> tuple[Iterable[str], int]:
    seed = _int_of(resolved, "seed", 0, minimum=0)
    # hamiltonian terms without a model are refused, never silently dropped
    has_model = isinstance(resolved.get("hamiltonian"), dict) or any(
        resolved.get(key) for key in ("model", "coupling", "offset")
    )
    if has_model:
        target = build_hamiltonian(system, _hamiltonian_spec(resolved))
        source = "hamiltonian"
    else:
        rng = np.random.default_rng(seed)
        target = random_operator(system, rng, hermitian=True)
        source = "random"
    result = cascade(target)
    doc = {
        "n": system.n,
        "source": source,
        "seed": seed,
        "residuals": dict(result.residuals),
        "stage_memberships": {
            key: bool(member) for key, member in result.stage_classes.items()
        },
        "fallbacks": list(result.fallbacks),
        "spectrum_error": result.spectrum_error,
    }
    if not csv:
        return _json_pieces(doc), EXIT_OK
    rows = [["n", str(system.n)], ["source", source]]
    rows += [[f"residual_{k}", _fmt(v)] for k, v in result.residuals.items()]
    rows += [[key, str(bool(member)).lower()] for key, member in result.stage_classes.items()]
    rows.append(["fallbacks", ";".join(str(f).lower() for f in result.fallbacks)])
    rows.append(["spectrum_error", _fmt(result.spectrum_error)])
    return _csv_pieces(["quantity", "value"], rows), EXIT_OK


# ----------------------------------------------------------------- perm


def _cmd_perm(system: SpinSystem, resolved: dict, csv: bool) -> tuple[Iterable[str], int]:
    want_generators = bool(resolved.get("generators") or False)
    if want_generators and system.n > GENERATOR_EMIT_MAX_N:
        raise ConfigurationError(
            f"generator matrices are emitted only for n <= "
            f"{GENERATOR_EMIT_MAX_N}; n={system.n} would be enormous"
        )
    if want_generators and csv:
        raise ConfigurationError("generator matrices are JSON-only output")
    enc = iz_sorted_encoding(system)
    doc: dict[str, Any] = {
        "n": system.n,
        "permutation": list(enc.permutation),
        "cycles": [list(c) for c in enc.cycles()],
    }
    if want_generators:
        generators = []
        for gen, angle in synthesize_permutation(enc, system):
            generators.append(
                {
                    "angle": angle,
                    "matrix": [[float(x) for x in row] for row in gen.entries.real],
                }
            )
        doc["generators"] = generators
    if not csv:
        return _json_pieces(doc), EXIT_OK
    rows = [[str(pos), str(idx)] for pos, idx in enumerate(enc.permutation)]
    return _csv_pieces(["position", "computational_index"], rows), EXIT_OK


# --------------------------------------------------------------- verify


def _cmd_verify(system: SpinSystem, resolved: dict, csv: bool) -> tuple[Iterable[str], int]:
    seed = _int_of(resolved, "seed", 0, minimum=0)
    trials = _int_of(resolved, "trials", 100, minimum=1)
    combos = _int_of(resolved, "combos", 50, minimum=0)
    tolerances = resolved.get("tolerances") or {}
    membership_tol = _real(
        tolerances.get("membership", MEMBERSHIP_TOL), "tolerances.membership", 0
    )

    order = verify_order_preservation(system, trials=trials, seed=seed)
    extreme = verify_extreme_states(system, combos=combos, seed=seed)
    # one sweep draws the members of all three tags
    closures = _closure_sweeps(
        (SubspaceTag.LOMSO, SubspaceTag.ZERO_QUANTUM, SubspaceTag.EVEN_MQ),
        system,
        trials,
        seed,
        membership_tol,
    )

    checks = []
    for rep in (order, extreme):
        checks.append(
            {
                "check": rep.name,
                "passed": rep.passed,
                "checks_run": rep.checks,
                "max_residuals": dict(rep.max_residuals),
                "violations": list(rep.violations),
            }
        )
    for rep in closures:
        checks.append(
            {
                "check": f"closure_{rep.tag.value}",
                "passed": rep.passed,
                "checks_run": rep.checks,
                "max_residuals": {"membership": rep.max_residual},
                "violations": list(rep.violations),
            }
        )
    all_passed = all(c["passed"] for c in checks)
    code = EXIT_OK if all_passed else EXIT_NUMERICAL
    doc = {
        "n": system.n,
        "seed": seed,
        "trials": trials,
        "combos": combos,
        "passed": all_passed,
        "checks": checks,
    }
    if not csv:
        return _json_pieces(doc), code
    rows = [
        [
            c["check"],
            str(c["passed"]).lower(),
            str(c["checks_run"]),
            _fmt(max(c["max_residuals"].values(), default=0.0)),
        ]
        for c in checks
    ]
    return _csv_pieces(["check", "passed", "checks_run", "max_residual"], rows), code


# ------------------------------------------------------------- dispatch


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mqspace",
        description="Operator-space toolkit for coupled spin-1/2 registers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--n", type=int, default=None, help="number of spins")
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--format", choices=("csv", "json"), default=None)
        p.add_argument("--out", default=None, help="output path (default stdout)")

    p = sub.add_parser("basis", help="enumerate base operators")
    common(p)
    p.add_argument("--kind", choices=(CARTESIAN, SHIFT), default=None)

    p = sub.add_parser("dims", help="subspace and block dimension tables")
    common(p)

    p = sub.add_parser("evolve", help="run a magnetization transfer experiment")
    common(p)
    p.add_argument("--model", choices=[m for m in HAMILTONIAN_MODELS if m != "custom"])
    p.add_argument(
        "--coupling",
        action="append",
        type=_parse_coupling_flag,
        metavar="k,l,J",
        help="pairwise coupling, repeatable",
    )
    p.add_argument(
        "--offset",
        action="append",
        type=_parse_offset_flag,
        metavar="k,value",
        help="longitudinal offset, repeatable",
    )
    p.add_argument("--initial", default=None, help="diagonal base operator label")
    p.add_argument("--times", default=None, help="t1,t2,... or start:end:points")
    p.add_argument("--purge", action="store_true", default=None)
    p.add_argument("--track", default=None, help="'all' or comma-joined labels")
    p.add_argument("--engine", choices=("full", "blockwise", "both"), default=None)

    p = sub.add_parser("cascade", help="three-stage block diagonalization")
    common(p)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--model", choices=[m for m in HAMILTONIAN_MODELS if m != "custom"])
    p.add_argument("--coupling", action="append", type=_parse_coupling_flag)
    p.add_argument("--offset", action="append", type=_parse_offset_flag)

    p = sub.add_parser("perm", help="magnetization-sorted encoding report")
    common(p)
    p.add_argument("--generators", action="store_true", default=None)

    p = sub.add_parser("verify", help="run the property verification suites")
    common(p)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--combos", type=int, default=None)

    return parser


_HANDLERS = {
    "basis": _cmd_basis,
    "dims": _cmd_dims,
    "evolve": _cmd_evolve,
    "cascade": _cmd_cascade,
    "perm": _cmd_perm,
    "verify": _cmd_verify,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        resolved = _merge(args, args.command)
        system = _require_n(resolved)
        csv = _format_of(resolved) == "csv"
        pieces, code = _HANDLERS[args.command](system, resolved, csv)
        _emit(pieces, resolved.get("out"))
        return code
    except ConfigurationError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONFIG
    except ToleranceError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_NUMERICAL
    except InvariantError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INVARIANT


def run() -> None:
    sys.exit(main())
