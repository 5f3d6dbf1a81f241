"""Command-line behavior: exit codes, formats, config handling."""

import gc
import importlib
import importlib.metadata
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mqspace
import oracles
from mqspace import (
    DiffusionConfig,
    HamiltonianSpec,
    SpinSystem,
    SubspaceTag,
    build_operator,
    channel_discrepancy,
    is_member,
    iz_sorted_encoding,
    linear_times,
    order_components,
    run_blockwise,
    run_diffusion,
    zq_offdiagonal_cells,
)
from mqspace.cli import EXIT_CONFIG, EXIT_INVARIANT, EXIT_NUMERICAL, EXIT_OK, main
from mqspace.doubles import format_rows, rows_text
from mqspace.errors import InvariantError
from mqspace.operators import BaseOperatorSpec

# directory holding the ``mqspace`` package under test (``src`` in a checkout)
PACKAGE_ROOT = Path(mqspace.__file__).resolve().parents[1]
MODULE_ENTRY = [sys.executable, "-m", "mqspace"]

EVOLVE_ARGS = [
    "evolve",
    "--n",
    "2",
    "--model",
    "flipflop",
    "--coupling",
    "1,2,1.0",
    "--times",
    "0:2:5",
]


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dims_json_document(capsys):
    code, out, err = run_cli(capsys, ["dims", "--n", "4"])
    assert code == EXIT_OK
    assert err == ""
    doc = json.loads(out)
    assert doc["n"] == 4
    assert doc["block_dims"] == [1, 4, 6, 4, 1]
    assert doc["subspace_dims"] == {
        "LOMSO": 16,
        "ZeroQuantum": 70,
        "EvenMQ": 128,
        "Full": 256,
    }
    assert doc["block_cells_total"] == 70
    assert doc["block_cost_ratio"] == pytest.approx(70 / 256)


def test_dims_csv_table(capsys):
    code, out, err = run_cli(capsys, ["dims", "--n", "2", "--format", "csv"])
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0] == "quantity,value"
    table = dict(line.split(",", 1) for line in lines[1:])
    assert table["dim_ZeroQuantum"] == "6"
    assert table["block_dims"] == "1;2;1"


def test_missing_spin_count_is_a_config_error(capsys):
    code, out, err = run_cli(capsys, ["dims"])
    assert code == EXIT_CONFIG
    assert out == ""
    assert err.startswith("error:")


def test_usage_error_exits_config(capsys):
    assert main([]) == EXIT_CONFIG
    assert main(["no-such-command"]) == EXIT_CONFIG
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == EXIT_OK
    capsys.readouterr()


def test_invariant_failures_exit_four(capsys, monkeypatch):
    from mqspace import cli
    from mqspace.errors import InvariantError

    def boom(system, resolved, csv):
        raise InvariantError("synthetic breach")

    monkeypatch.setitem(cli._HANDLERS, "dims", boom)
    code, out, err = run_cli(capsys, ["dims", "--n", "2"])
    assert code == EXIT_INVARIANT
    assert "synthetic breach" in err


def test_output_is_byte_identical_across_runs(capsys):
    _, first, _ = run_cli(capsys, EVOLVE_ARGS)
    _, second, _ = run_cli(capsys, EVOLVE_ARGS)
    assert first == second
    assert first.encode() == second.encode()


def test_out_flag_writes_the_same_bytes(capsys, tmp_path):
    _, direct, _ = run_cli(capsys, EVOLVE_ARGS)
    target = tmp_path / "trace.json"
    code, out, _ = run_cli(capsys, EVOLVE_ARGS + ["--out", str(target)])
    assert code == EXIT_OK
    assert out == ""
    assert target.read_text() == direct


def test_config_file_wins_with_warning(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"n": 3}))
    code, out, err = run_cli(capsys, ["dims", "--n", "2", "--config", str(cfg)])
    assert code == EXIT_OK
    assert json.loads(out)["n"] == 3
    assert "warning: config overrides --n=2 with 3" in err


def test_config_without_conflict_stays_silent(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"n": 3}))
    code, out, err = run_cli(capsys, ["dims", "--config", str(cfg)])
    assert code == EXIT_OK
    assert err == ""


def test_unknown_config_keys_are_rejected(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"n": 2, "shape": "round"}))
    code, _, err = run_cli(capsys, ["dims", "--config", str(cfg)])
    assert code == EXIT_CONFIG
    assert "shape" in err


def test_malformed_config_json_is_rejected(capsys, tmp_path):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    code, _, err = run_cli(capsys, ["dims", "--config", str(cfg)])
    assert code == EXIT_CONFIG
    assert "not valid JSON" in err


def test_evolve_accepts_full_config_document(capsys, tmp_path):
    cfg = tmp_path / "evolve.json"
    cfg.write_text(
        json.dumps(
            {
                "n": 2,
                "hamiltonian": {"model": "flipflop", "couplings": [[1, 2, 1.0]]},
                "times": {"start": 0.0, "end": 2.0, "points": 5},
                "initial": "I1z",
                "track": ["I1z", "I2z"],
                "engine": "blockwise",
            }
        )
    )
    code, out, err = run_cli(capsys, ["evolve", "--config", str(cfg)])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["engine"] == "blockwise"
    assert doc["block_sizes"] == {"0": 1, "1": 4, "2": 1}
    assert set(doc["channels"]) == {"I1z", "I2z"}
    assert doc["times"] == [0.0, 0.5, 1.0, 1.5, 2.0]


def test_evolve_csv_with_both_engines(capsys):
    code, out, _ = run_cli(
        capsys, EVOLVE_ARGS + ["--engine", "both", "--format", "csv"]
    )
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    header = lines[0].split(",")
    assert header[0] == "t"
    assert header[-1] == "max_channel_discrepancy"
    assert set(header[1:-1]) == {"I1z", "I2z", "2I1zI2z", "I1+I2-", "I1-I2+"}
    assert len(lines) == 6
    for line in lines[1:]:
        values = [float(v) for v in line.split(",")]
        assert values[-1] <= 1e-10


def test_evolve_rejects_bad_engine_and_times(capsys):
    code, _, err = run_cli(capsys, EVOLVE_ARGS[:-1] + ["0:1:3", "--engine", "warp"])
    assert code == EXIT_CONFIG
    code, _, err = run_cli(
        capsys,
        ["evolve", "--n", "2", "--model", "flipflop", "--coupling", "1,2,1.0",
         "--times", "0:1"],
    )
    assert code == EXIT_CONFIG
    assert "times" in err


def test_evolve_rejects_malformed_coupling_flag(capsys):
    code, _, _ = run_cli(
        capsys,
        ["evolve", "--n", "2", "--model", "flipflop", "--coupling", "1,2",
         "--times", "0:1:3"],
    )
    assert code == EXIT_CONFIG


@pytest.mark.parametrize(
    "terms, times",
    [
        (["--model", "flipflop", "--coupling", "1,2,nan"], "0:1:3"),
        (["--model", "dipolar_secular", "--coupling", "1,2,inf"], "0:1:3"),
        (["--model", "offsets", "--offset", "1,nan"], "0:1:3"),
        (["--model", "flipflop", "--coupling", "1,2,1.0"], "0,nan"),
        (["--model", "flipflop", "--coupling", "1,2,1.0"], "0,inf"),
        (["--model", "flipflop", "--coupling", "1,2,1.0"], "0:inf:3"),
    ],
)
def test_evolve_rejects_non_finite_inputs(capsys, tmp_path, terms, times):
    out = tmp_path / "out.json"
    code, _, err = run_cli(
        capsys, ["evolve", "--n", "2", *terms, "--times", times, "--out", str(out)]
    )
    assert code == EXIT_CONFIG
    assert "finite" in err
    assert not out.exists()


def test_evolve_config_rejects_non_finite_times(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(
        '{"n": 2, "hamiltonian": {"model": "flipflop", "couplings": [[1, 2, 1.0]]},'
        ' "times": [0.0, NaN]}'
    )
    code, out, err = run_cli(capsys, ["evolve", "--config", str(cfg)])
    assert code == EXIT_CONFIG
    assert out == ""
    assert "finite" in err


# JSON texts that are not finite JSON numbers; V marks where one goes
MALFORMED_NUMBERS = {"string": '"0.5"', "bool": "true", "401-digits": "1" + "0" * 400, "nan": "NaN"}
EVOLVE_PAIR = '{"n": 2, "hamiltonian": {"model": "flipflop", "couplings": [[1, 2, 1]]}, '
NUMBER_SLOTS = {
    "coupling": (
        "evolve",
        '{"n": 2, "hamiltonian": {"model": "flipflop", "couplings": [[1, 2, V]]}, "times": [0, 1]}',
    ),
    "offset": (
        "evolve",
        '{"n": 2, "hamiltonian": {"model": "offsets", "offsets": [[1, V]]}, "times": [0, 1]}',
    ),
    "times-entry": ("evolve", EVOLVE_PAIR + '"times": [0, V]}'),
    "times-start": ("evolve", EVOLVE_PAIR + '"times": {"start": V, "end": 2, "points": 3}}'),
    "times-end": ("evolve", EVOLVE_PAIR + '"times": {"start": 0, "end": V, "points": 3}}'),
    "membership": ("verify", '{"n": 2, "tolerances": {"membership": V}}'),
}


@pytest.mark.parametrize("number", MALFORMED_NUMBERS)
@pytest.mark.parametrize("slot", NUMBER_SLOTS)
def test_config_numbers_that_are_not_finite_json_numbers_exit_config(
    capsys, tmp_path, slot, number
):
    # run in process, so any exception other than ConfigurationError, the one
    # main turns into exit 2, would escape with its traceback and fail the test
    command, template = NUMBER_SLOTS[slot]
    cfg = tmp_path / "run.json"
    cfg.write_text(template.replace("V", MALFORMED_NUMBERS[number]))
    out = tmp_path / "out.json"
    code, stdout, err = run_cli(capsys, [command, "--config", str(cfg), "--out", str(out)])
    assert code == EXIT_CONFIG
    assert stdout == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not out.exists()


def test_evolve_explicit_time_list_flag(capsys):
    code, out, _ = run_cli(
        capsys,
        ["evolve", "--n", "2", "--model", "flipflop", "--coupling", "1,2,1.0",
         "--times", "0,0.25,1.5"],
    )
    assert code == EXIT_OK
    assert json.loads(out)["times"] == [0.0, 0.25, 1.5]


def test_evolve_rejects_a_zero_padded_initial_label(capsys):
    code, out, err = run_cli(capsys, EVOLVE_ARGS + ["--initial", "I01z"])
    assert code == EXIT_CONFIG
    assert out == ""
    assert "I01z" in err


def test_evolve_model_mix_is_rejected(capsys):
    # offsets cannot ride on a coupling model from the command line
    code, _, err = run_cli(
        capsys,
        ["evolve", "--n", "2", "--model", "flipflop", "--coupling", "1,2,1.0",
         "--offset", "1,0.5", "--times", "0:1:3"],
    )
    assert code == EXIT_CONFIG
    assert "couplings" in err


@pytest.mark.parametrize("kind", ["cartesian", "shift"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_basis_structural_claims_match_dense_reality(capsys, kind, n):
    # dual route: the listing's orders and tags are derived from factor
    # structure; rebuild every operator and measure both densely
    code, out, _ = run_cli(
        capsys, ["basis", "--n", str(n), "--kind", kind]
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["kind"] == kind
    assert len(doc["operators"]) == 4**n
    system = SpinSystem(n)
    for record in doc["operators"]:
        spec = BaseOperatorSpec.from_label(record["label"], n)
        op = build_operator(system, spec)
        dense_orders = sorted(order_components(op))
        assert sorted(record["orders"]) == dense_orders, record["label"]
        dense_tags = [
            tag.value for tag in SubspaceTag if is_member(op, tag)
        ]
        assert record["tags"] == dense_tags, record["label"]


def test_basis_csv_row_count(capsys):
    code, out, _ = run_cli(capsys, ["basis", "--n", "2", "--format", "csv"])
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0] == "label,kind,orders,tags"
    assert len(lines) == 1 + 16


def test_basis_rejects_unknown_kind(capsys, tmp_path):
    cfg = tmp_path / "b.json"
    cfg.write_text(json.dumps({"n": 2, "kind": "spherical"}))
    code, _, err = run_cli(capsys, ["basis", "--config", str(cfg)])
    assert code == EXIT_CONFIG
    assert "kind" in err


def test_perm_json_matches_library(capsys):
    code, out, _ = run_cli(capsys, ["perm", "--n", "3"])
    assert code == EXIT_OK
    doc = json.loads(out)
    enc = iz_sorted_encoding(SpinSystem(3))
    assert doc["permutation"] == list(enc.permutation)
    assert doc["cycles"] == [[3, 4]]
    assert "generators" not in doc


def test_perm_generators_emitted_for_small_systems(capsys):
    code, out, _ = run_cli(capsys, ["perm", "--n", "3", "--generators"])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert len(doc["generators"]) == 1
    gen = doc["generators"][0]
    assert gen["angle"] == pytest.approx(np.pi)
    matrix = np.array(gen["matrix"])
    assert matrix.shape == (8, 8)
    assert matrix[3, 3] == pytest.approx(0.5)
    assert matrix[3, 4] == pytest.approx(-0.5)


def test_perm_generators_refused_for_large_systems(capsys):
    code, _, err = run_cli(capsys, ["perm", "--n", "7", "--generators"])
    assert code == EXIT_CONFIG
    assert "n <= 6" in err


def test_perm_generators_are_json_only(capsys):
    code, _, err = run_cli(
        capsys, ["perm", "--n", "3", "--generators", "--format", "csv"]
    )
    assert code == EXIT_CONFIG
    assert "JSON" in err


def test_perm_csv_lists_positions(capsys):
    code, out, _ = run_cli(capsys, ["perm", "--n", "2", "--format", "csv"])
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0] == "position,computational_index"
    assert len(lines) == 5


def test_verify_passes_on_sound_defaults(capsys):
    code, out, _ = run_cli(
        capsys, ["verify", "--n", "2", "--trials", "5", "--combos", "5"]
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["passed"] is True
    names = [c["check"] for c in doc["checks"]]
    assert names == [
        "order_preservation",
        "extreme_states",
        "closure_LOMSO",
        "closure_ZeroQuantum",
        "closure_EvenMQ",
    ]
    assert all(c["passed"] for c in doc["checks"])


def test_cascade_with_an_overflowing_operator_norm_exits_numerical(capsys):
    # couplings of 1e300 are finite, but the model's Frobenius norm is not
    argv = ["cascade", "--n", "3", "--model", "flipflop",
            "--coupling", "1,2,1e300", "--coupling", "2,3,1e300"]
    code, out, err = run_cli(capsys, argv)
    assert code == EXIT_NUMERICAL
    assert out == ""
    assert err.startswith("error: ") and "overflows" in err


def test_verify_reports_numerical_failure(capsys, monkeypatch):
    # members drawn with no support pattern: each closure product leaves its
    # subspace, which the run reports as a numerical failure
    subspaces = importlib.import_module("mqspace.subspaces")
    monkeypatch.setattr(subspaces, "_zero_outside", lambda draws, outside: None)
    code, out, _ = run_cli(capsys, ["verify", "--n", "2", "--trials", "2", "--combos", "2"])
    assert code == EXIT_NUMERICAL
    doc = json.loads(out)
    assert doc["passed"] is False
    failing = {c["check"] for c in doc["checks"] if not c["passed"]}
    assert failing == {"closure_LOMSO", "closure_ZeroQuantum", "closure_EvenMQ"}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_verify_closure_entries_match_the_operator_level_reference(capsys, n):
    # the three closure checks share one sweep's draws; each entry must
    # still be the report of its own Operator-level sweep
    trials, seed = 3, n - 1
    code, out, _ = run_cli(
        capsys, ["verify", "--n", str(n), "--trials", str(trials), "--combos", "2",
                 "--seed", str(seed)]
    )
    assert code == EXIT_OK
    got = json.loads(out)["checks"][2:]
    want = []
    for tag in (SubspaceTag.LOMSO, SubspaceTag.ZERO_QUANTUM, SubspaceTag.EVEN_MQ):
        rep = oracles.closure_sweep_operators(tag, n, trials, seed, 1e-10)
        want.append(
            {
                "check": f"closure_{tag.value}",
                "passed": rep.passed,
                "checks_run": rep.checks,
                "max_residuals": {"membership": rep.max_residual},
                "violations": rep.violations,
            }
        )
    assert got == want
    for entry, item in zip(got, want):
        # %.17g writes an exact zero as the integer 0
        residual = float(entry["max_residuals"]["membership"])
        assert residual.hex() == item["max_residuals"]["membership"].hex()


def test_verify_csv_summary(capsys):
    code, out, _ = run_cli(
        capsys, ["verify", "--n", "2", "--trials", "3", "--combos", "3",
                 "--format", "csv"]
    )
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0] == "check,passed,checks_run,max_residual"
    assert len(lines) == 6
    assert all(",true," in line for line in lines[1:])


def test_verify_six_spins_runs_every_sweep(capsys):
    code, out, _ = run_cli(
        capsys, ["verify", "--n", "6", "--trials", "2", "--combos", "2"]
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["passed"] is True
    zq_cells = math.comb(12, 6) - 2**6
    assert [c["checks_run"] for c in doc["checks"]] == [
        3 * 2 * 4**6,
        2 * zq_cells + 2 * 2,
        6,
        6,
        6,
    ]


def test_cascade_subcommand_random_and_model(capsys):
    code, out, _ = run_cli(capsys, ["cascade", "--n", "3", "--seed", "5"])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["source"] == "random"
    assert doc["spectrum_error"] <= 1e-8
    assert doc["stage_memberships"] == {
        "v2_even_mq": True,
        "v3_zero_quantum": True,
    }
    code, out, _ = run_cli(
        capsys,
        ["cascade", "--n", "3", "--model", "isotropic_j",
         "--coupling", "1,2,1.0", "--coupling", "2,3,0.5"],
    )
    assert code == EXIT_OK
    assert json.loads(out)["source"] == "hamiltonian"


def _child_env():
    """Environment whose ``mqspace`` is the copy these tests imported."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE_ROOT), env.get("PYTHONPATH")])
    )
    return env


def _declared_console_script():
    """The ``mqspace`` console-script entry point an installer would write."""
    try:
        importlib.metadata.distribution("mqspace")
    except importlib.metadata.PackageNotFoundError:
        tomllib = pytest.importorskip("tomllib")
        pyproject = PACKAGE_ROOT.parent / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
        return importlib.metadata.EntryPoint(
            name="mqspace", value=scripts["mqspace"], group="console_scripts"
        )
    (entry,) = importlib.metadata.entry_points(
        group="console_scripts", name="mqspace"
    )
    return entry


def _run_child(command):
    return subprocess.run(
        command, capture_output=True, text=True, timeout=60, env=_child_env()
    )


def test_console_script_and_module_entry():
    entry = _declared_console_script()
    # the body of the wrapper script an installer generates for the entry
    wrapper = (
        "import sys\n"
        f"from {entry.module} import {entry.attr.split('.')[0]}\n"
        "sys.argv[0] = 'mqspace'\n"
        f"sys.exit({entry.attr}())\n"
    )
    script = [sys.executable, "-c", wrapper]

    done = _run_child([*script, "dims", "--n", "2"])
    assert done.returncode == 0
    module = _run_child([*MODULE_ENTRY, "dims", "--n", "2"])
    assert module.returncode == 0
    assert module.stdout == done.stdout

    message = "error: spin count 0 outside the supported range 1..12\n"
    done = _run_child([*script, "dims", "--n", "0"])
    assert done.returncode == EXIT_CONFIG
    assert message in done.stderr
    module = _run_child([*MODULE_ENTRY, "dims", "--n", "0"])
    assert module.returncode == EXIT_CONFIG
    assert module.stderr == done.stderr


@pytest.mark.skipif(
    shutil.which("mqspace") is None, reason="no mqspace executable on PATH"
)
def test_installed_console_script_matches_module_entry():
    exe = shutil.which("mqspace")
    assert exe is not None
    done = _run_child([exe, "dims", "--n", "2"])
    assert done.returncode == 0
    module = _run_child([*MODULE_ENTRY, "dims", "--n", "2"])
    assert module.returncode == 0
    assert module.stdout == done.stdout


@pytest.mark.parametrize(
    "doc",
    [
        {"trials": "x"},
        {"trials": 0},
        {"combos": -1},
        {"tolerances": {"membership": "x"}},
        {"tolerances": {"membership": None}},
        {"tolerances": {"membership": float("nan")}},
        {"tolerances": {"membership": -1}},
    ],
    ids=[
        "trials-text", "trials-zero", "combos-negative",
        "tol-text", "tol-null", "tol-nan", "tol-negative",
    ],
)
def test_verify_config_values_of_the_wrong_kind_exit_config(capsys, tmp_path, doc):
    cfg = tmp_path / "v.json"
    cfg.write_text(json.dumps({"n": 2, **doc}))
    code, out, err = run_cli(capsys, ["verify", "--config", str(cfg)])
    assert code == EXIT_CONFIG
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("flag, value", [("--trials", "0"), ("--combos", "-1")])
def test_verify_flags_out_of_range_exit_config(capsys, flag, value):
    code, out, err = run_cli(capsys, ["verify", "--n", "2", flag, value])
    assert code == EXIT_CONFIG
    assert out == ""
    assert flag[2:] in err


@pytest.mark.parametrize("n", [True, 2.5], ids=["bool", "float"])
def test_config_spin_count_of_the_wrong_kind_exits_config(capsys, tmp_path, n):
    cfg = tmp_path / "d.json"
    cfg.write_text(json.dumps({"n": n}))
    code, out, err = run_cli(capsys, ["dims", "--config", str(cfg)])
    assert code == EXIT_CONFIG
    assert out == ""
    assert err == f"error: spin count must be an integer, got {n!r}\n"


def test_evolve_config_rejects_non_integer_points(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(
        json.dumps(
            {
                "n": 2,
                "hamiltonian": {"model": "flipflop", "couplings": [[1, 2, 1.0]]},
                "times": {"start": 0, "end": 1, "points": "x"},
            }
        )
    )
    code, out, err = run_cli(capsys, ["evolve", "--config", str(cfg)])
    assert code == EXIT_CONFIG
    assert out == ""
    assert "times" in err


@pytest.mark.parametrize(
    "hamiltonian, times, message",
    [
        (
            {"model": "flipflop", "couplings": [[1, 2.9, 1.0]]},
            {"start": 0, "end": 1, "points": 3},
            "spin index must be an integer, got 2.9",
        ),
        (
            {"model": "offsets", "offsets": [[True, 1.0]]},
            {"start": 0, "end": 1, "points": 3},
            "spin index must be an integer, got True",
        ),
        (
            {"model": "flipflop", "couplings": [[1, 2]]},
            {"start": 0, "end": 1, "points": 3},
            "malformed hamiltonian terms",
        ),
        (
            {"model": "flipflop", "couplings": [[1, 2, 1.0]]},
            {"start": 0, "end": 1, "points": 2.7},
            "number of grid times must be an integer, got 2.7",
        ),
    ],
)
def test_evolve_config_refuses_truncated_numbers(capsys, tmp_path, hamiltonian, times, message):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"n": 2, "hamiltonian": hamiltonian, "times": times}))
    code, out, err = run_cli(capsys, ["evolve", "--config", str(cfg)])
    assert code == EXIT_CONFIG
    assert out == ""
    assert message in err


@pytest.mark.parametrize(
    "coupling, times", [("1,2.9,1", "0:1:3"), ("1,2,1", "0:1:2.7")]
)
def test_evolve_flags_refuse_truncated_numbers(capsys, coupling, times):
    code, out, err = run_cli(
        capsys,
        ["evolve", "--n", "2", "--model", "flipflop", "--coupling", coupling,
         "--times", times],
    )
    assert code == EXIT_CONFIG
    assert out == ""


def test_evolve_numbers_round_trip_at_17_digits(capsys):
    couplings = ((1, 2, 1.0), (2, 3, 0.7))
    config = DiffusionConfig(
        SpinSystem(3),
        HamiltonianSpec("dipolar_secular", couplings=couplings),
        linear_times(0.0, 2.0, 7),
    )
    channels = run_blockwise(config).channels
    times = [format(t, ".17g") for t in config.times]
    argv = ["evolve", "--n", "3", "--model", "dipolar_secular", "--times", "0:2:7",
            "--engine", "blockwise"]
    argv += [x for k, l, j in couplings for x in ("--coupling", f"{k},{l},{j}")]

    code, out, _ = run_cli(capsys, argv)
    assert code == EXIT_OK
    # keep every number's text as written
    doc = json.loads(out, parse_float=str, parse_int=str)
    assert doc["times"] == times
    assert list(doc["channels"]) == list(channels)
    for lab, values in doc["channels"].items():
        assert [float(v) for v in values] == channels[lab].tolist(), lab

    code, out, _ = run_cli(capsys, argv + ["--format", "csv"])
    assert code == EXIT_OK
    header, *rows = [line.split(",") for line in out.strip().split("\n")]
    assert header == ["t", *channels]
    assert [row[0] for row in rows] == times
    for j, lab in enumerate(header[1:], start=1):
        assert [float(row[j]) for row in rows] == channels[lab].tolist(), lab


def _reference_evolve(n, engine, purge_bins, track):
    """The ``evolve`` output of the per-value writers in ``oracles``."""
    if n == 1:
        spec = HamiltonianSpec("offsets", offsets=((1, 0.3),))
    else:
        spec = HamiltonianSpec(
            "dipolar_secular",
            couplings=tuple((k, k + 1, 0.3 + 0.1 * k) for k in range(1, n)),
        )
    config = DiffusionConfig(
        SpinSystem(n), spec, linear_times(0.0, 2.0, 9), purge=purge_bins,
        track=track or "all",
    )
    discrepancy = None
    if engine == "blockwise":
        trace = run_blockwise(config)
    else:
        trace = run_diffusion(config)
        discrepancy = channel_discrepancy(trace, run_blockwise(config))
    labels = config.tracked_labels()
    channels = {lab: list(trace.channels[lab]) for lab in labels}
    doc = {
        "n": n,
        "engine": engine,
        "initial": config.initial,
        "purge": config.purge,
        "times": list(trace.times),
        "channels": channels,
        "conserved": list(trace.conserved),
        "undesired": list(trace.undesired),
        "block_sizes": (
            None
            if trace.block_sizes is None
            else {str(k): v for k, v in sorted(trace.block_sizes.items())}
        ),
    }
    if discrepancy is not None:
        doc["max_channel_discrepancy"] = list(discrepancy)
    argv = ["evolve", "--n", str(n), "--times", "0:2:9", "--engine", engine]
    if n == 1:
        argv += ["--model", "offsets", "--offset", "1,0.3"]
    else:
        argv += ["--model", "dipolar_secular"]
        argv += [x for k, l, j in spec.couplings for x in ("--coupling", f"{k},{l},{j!r}")]
    if purge_bins:
        argv.append("--purge")
    if track:
        argv += ["--track", ",".join(track)]
    return argv, {
        "json": oracles.json_text(doc) + "\n",
        "csv": oracles.evolve_csv(trace.times, channels, discrepancy),
    }


EVOLVE_WRITER_CASES = [
    (n, "both", purge_bins, None) for n in range(1, 7) for purge_bins in (False, True)
] + [
    (3, "both", False, ("I3z", "2I1zI2z", "I1+I2-b3")),
    (5, "both", True, ("I1-I2+a3a4a5", "I5z")),
    (4, "blockwise", False, None),
]


def _mismatch(mine, reference):
    """``None`` when equal, else the first differing offset with context.

    Keeps a failing comparison of megabyte strings from a slow full diff.
    """
    if mine == reference:
        return None
    i = next((k for k, (a, b) in enumerate(zip(mine, reference)) if a != b),
             min(len(mine), len(reference)))
    return i, mine[max(i - 40, 0):i + 40], reference[max(i - 40, 0):i + 40]


@pytest.mark.parametrize("n, engine, purge_bins, track", EVOLVE_WRITER_CASES)
def test_evolve_writers_match_per_value_reference(capsys, n, engine, purge_bins, track):
    argv, expected = _reference_evolve(n, engine, purge_bins, track)
    for fmt in ("json", "csv"):
        code, out, err = run_cli(capsys, argv + ["--format", fmt])
        assert code == EXIT_OK, err
        assert _mismatch(out, expected[fmt]) is None, fmt


EDGE_DOUBLES = [
    math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324,
    1.7976931348623157e308, 2.2250738585072014e-308, 0.1, 1 / 3, 1e16, 1e17, -2.5,
]


def _resolved(pieces):
    """The document's pieces, each copy replaced by the piece written at its offset."""
    from mqspace.cli import _Copy

    out, at, offset = [], {}, 0
    for piece in pieces:
        if isinstance(piece, _Copy):
            piece, length = at[piece.offset], piece.length
            assert len(piece) == length
        at[offset] = piece
        out.append(piece)
        offset += len(piece)
    return out


def _json_text(value):
    """The JSON text of ``value`` without the document's final newline."""
    from mqspace.cli import _json_pieces

    text = "".join(_resolved(_json_pieces(value)))
    assert text.endswith("\n")
    return text[:-1]


def _kernel_join(values, sep):
    """``sep.join`` of the number kernel's texts of ``values``, one call."""
    values = np.asarray(values, dtype=np.float64)
    if not values.size:
        return ""
    return rows_text(format_rows(values, sep))[: -len(sep)]


def test_number_writers_match_per_value_reference():
    from mqspace.cli import _fmt

    rng = np.random.default_rng(5)
    bits = rng.integers(0, 2**64 - 1, size=5000, dtype=np.uint64, endpoint=True)
    values = np.concatenate([EDGE_DOUBLES, bits.view(np.float64)])
    mixed = [np.float64(v) if i % 2 else float(v) for i, v in enumerate(values)]
    reference = [oracles.fmt_double(v) for v in mixed]
    assert [_fmt(v) for v in mixed] == reference
    assert _mismatch(_json_text(values), oracles.json_text(mixed)) is None
    assert _mismatch(_json_text(mixed), oracles.json_text(mixed)) is None
    assert _mismatch(_kernel_join(values, ","), ",".join(reference)) is None
    assert _mismatch(_kernel_join(values, ", "), ", ".join(reference)) is None
    for arr in (np.array([]), np.array([-0.0]), np.array([math.nan])):
        assert _json_text(arr) == oracles.json_text(arr.tolist())
        assert _kernel_join(arr, ",") == ",".join(map(oracles.fmt_double, arr))
    nested = {"a": values[:20], "b": [values[:3], {"c": values[3:4]}], "d": np.array([])}
    listed = {"a": mixed[:20], "b": [mixed[:3], {"c": mixed[3:4]}], "d": []}
    assert _json_text(nested) == oracles.json_text(listed)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(width=64), min_size=1, max_size=40))
def test_number_kernel_matches_the_percent_format_on_any_double(values):
    # st.floats draws subnormals, both infinities, NaN and -0.0 too
    assert _kernel_join(values, ",") == ",".join(map(oracles.fmt_double, values))


def _ulps_around(centres, count):
    """``centres`` and their ``count`` nearest doubles on each side."""
    out, below, above = [centres], centres, centres
    for _ in range(count):
        below, above = np.nextafter(below, -np.inf), np.nextafter(above, np.inf)
        out += [below, above]
    return np.concatenate(out)


def _dyadic_ties():
    """Doubles ``m / 2**k`` whose exact decimal expansion has 18 significant
    digits, the last a 5, so that 17 digits are an exact tie: ``2**-25`` is
    ``2.98023223876953125e-08``."""
    ties = [m / 2**k for k in range(1, 80) for m in range(1, 2**12, 2)
            if len(str(m * 5**k)) == 18]
    return np.array(ties)


_POWERS = np.array([float(f"1e{k}") for k in range(-310, 309)])
KERNEL_SETS = {
    # log10 misses the exponent next to a power of ten, both ways
    "powers_of_ten": lambda rng: _ulps_around(np.concatenate([_POWERS, -_POWERS]), 8),
    # the scaled value meets 1e16 or 1e17: a carry to the next exponent
    "digit_boundaries": lambda rng: _ulps_around(np.array([1e16, 1e17, 1e-5, 1e-4, 1e21]), 64),
    "dyadic_ties": lambda rng: _dyadic_ties(),
    "dyadic": lambda rng: np.ldexp(rng.integers(1, 2**20, 200_000).astype(float),
                                   rng.integers(-80, 40, 200_000)),
    "random_bits": lambda rng: rng.integers(0, 2**64, 2**20, dtype=np.uint64).view(np.float64),
}


@pytest.mark.parametrize("name", sorted(KERNEL_SETS))
def test_number_kernel_matches_the_percent_format_exhaustively(name):
    values = KERNEL_SETS[name](np.random.default_rng(2024))
    if name == "dyadic_ties":
        assert values.size > 1000
    texts = []
    for i in range(0, values.size, 2**16):
        texts += _kernel_join(values[i : i + 2**16], ",").split(",")
    wrong = [(v, t) for v, t in zip(values.tolist(), texts) if t != oracles.fmt_double(v)]
    assert len(texts) == values.size
    assert not wrong, wrong[:5]


def test_json_strings_match_the_reference_escapes():
    # plain printable ASCII is written as it is; everything else goes
    # through json.dumps, byte for byte
    labels = [
        "I1z", "2I1zI2z", "a1I2+a3I4-b5", "", " ~", 'say "hi"', "back\\slash",
        "tab\there", "nul\x00", "bell\x07", "del\x7f", "esc\x1b[0m", "line\nbreak",
        "caf\u00e9", "\u2207\u00b2", "\U0001f600", "\ud800", "/slash/",
    ]
    doc = {lab: [lab, {lab: lab}] for lab in labels}
    assert _json_text(doc) == oracles.json_text(doc)
    for lab in labels:
        assert _json_text(lab) == json.dumps(lab)


def _counting_kernel(monkeypatch):
    """Record the values of every call of the number kernel ``cli.format_rows``."""
    from mqspace import cli

    calls = []
    kernel = cli.format_rows

    def counting(values, sep):
        calls.append(values.copy())
        return kernel(values, sep)

    monkeypatch.setattr(cli, "format_rows", counting)
    return calls


def _same_values(calls, arrays):
    """Whether the kernel calls formatted exactly the values of ``arrays``, bit for bit."""
    def bits(parts):
        return np.sort(np.concatenate([np.asarray(p, np.float64) for p in parts]).view(np.uint64))

    return np.array_equal(bits(calls or [[]]), bits(arrays or [[]]))


@pytest.mark.parametrize("n", [3, 4])
def test_evolve_json_formats_each_distinct_series_once(capsys, monkeypatch, n):
    couplings = tuple((k, k + 1, 0.3 + 0.1 * k) for k in range(1, n))
    config = DiffusionConfig(
        SpinSystem(n),
        HamiltonianSpec("dipolar_secular", couplings=couplings),
        linear_times(0.0, 2.0, 9),
    )
    trace = run_blockwise(config)
    series = {a.tobytes() for a in trace.channels.values()}
    # a Hermitian evolved operator has equal magnitudes in cells (i, j) and
    # (j, i), and the spin flip F maps cell (i, j) onto (F i, F j) with the
    # same magnitude, so each mirror image of a coherence channel shares its
    # series
    rows, cols, units = zq_offdiagonal_cells(n)
    label_of = dict(zip(zip(rows.tolist(), cols.tolist()), units))
    flip = 2**n - 1
    for (r, c), lab in label_of.items():
        for image in ((c, r), (r ^ flip, c ^ flip)):
            assert trace.channels[label_of[image]].tobytes() == trace.channels[lab].tobytes()
    assert len(series) < len(trace.channels)
    others = {np.asarray(trace.times).tobytes(), trace.conserved.tobytes()} - series

    calls = _counting_kernel(monkeypatch)
    argv = ["evolve", "--n", str(n), "--model", "dipolar_secular", "--times", "0:2:9",
            "--engine", "blockwise", "--track", "all"]
    argv += [x for k, l, j in couplings for x in ("--coupling", f"{k},{l},{j!r}")]
    code, out, err = run_cli(capsys, argv)
    assert code == EXIT_OK, err
    distinct = [np.frombuffer(b) for b in series | others]
    assert _same_values(calls, distinct)
    doc = json.loads(out)
    assert len(doc["channels"]) == len(trace.channels)
    for lab, values in doc["channels"].items():
        assert values == trace.channels[lab].tolist(), lab


def test_json_document_with_shared_and_edge_arrays_matches_reference(monkeypatch):
    from mqspace.cli import _json_pieces

    payload = np.array([0x7FF8000000000001, 0x7FF8000000000002, 0xFFF8000000000000],
                       dtype=np.uint64).view(np.float64)
    shared = np.array([0.1, 1 / 3, -2.5])
    doc = {
        "first": shared,
        "again": shared.copy(),
        "zeros": np.array([0.0, 0.0]),
        "negative_zeros": np.array([-0.0, 0.0]),
        "nans": [payload[:1], {"other": payload[1:2], "negative": payload[2:]}],
        "empty": np.array([]),
        "empty_again": np.array([]),
        "nested": [[shared, {"deep": [shared[::-1], []]}], [], {}],
        "arrays": [np.array([0.0, 0.0]), shared[::-1].copy()],
        "complex": [1 + 2j, np.complex128(-0.0 - 1e-300j)],
        "scalars": [np.float64(0.5), np.int64(-3), True, None, "x"],
    }

    def listed(value):
        if isinstance(value, np.ndarray):
            return value.tolist()
        if isinstance(value, dict):
            return {k: listed(v) for k, v in value.items()}
        if isinstance(value, list):
            return [listed(v) for v in value]
        return value

    calls = _counting_kernel(monkeypatch)
    text = "".join(_resolved(_json_pieces(doc)))
    assert text == oracles.json_text(listed(doc)) + "\n"
    # equal bytes share one text; -0.0 against 0.0 and different NaN
    # payloads are different bytes, so each is formatted on its own
    arrays = [shared, doc["zeros"], doc["negative_zeros"], *payload.reshape(3, 1),
              doc["empty"], shared[::-1]]
    assert len({a.tobytes() for a in arrays}) == 8
    assert _same_values(calls, [np.frombuffer(b) for b in {a.tobytes() for a in arrays}])
    assert text.count("[0.10000000000000001, 0.33333333333333331, -2.5]") == 3


def test_evolve_json_is_written_a_chunk_at_a_time(monkeypatch, tmp_path):
    # a full-track document at n = 6 has 923 channel labels; the writer hands
    # over one text per chunk, cut short where a copy of an earlier chunk's
    # series follows, and that copy: no piece per label
    from mqspace import cli

    taken = []
    emit = cli._emit

    def recording(pieces, out):
        taken.extend(pieces)
        return emit(taken, out)

    monkeypatch.setattr(cli, "_emit", recording)
    calls = _counting_kernel(monkeypatch)
    target = tmp_path / "doc.json"
    argv = ["evolve", "--n", "6", "--model", "dipolar_secular", "--times", "0:2:33",
            "--engine", "blockwise", "--track", "all", "--out", str(target)]
    argv += [x for k in range(1, 6) for x in ("--coupling", f"{k},{k + 1},{0.3 + 0.1 * k!r}")]
    assert main(argv) == EXIT_OK
    doc = json.loads(target.read_text())
    assert len(doc["channels"]) == 923
    copies = sum(isinstance(piece, cli._Copy) for piece in taken)
    texts = len(taken) - copies
    # a chunk is cut once it holds _CHUNK values, text counting one a _TEXT_CHARS characters
    values = sum(c.size for c in calls)
    chars = sum(len(piece) for piece in taken if isinstance(piece, str))
    assert texts <= copies + (values + chars // cli._TEXT_CHARS) // cli._CHUNK + 1
    assert len(taken) < 1.5 * len(doc["channels"])


def test_json_pieces_free_their_arrays_without_the_cyclic_collector():
    # the writer leaves no reference cycle: once the caller drops the
    # pieces and the document, its series are freed with the collector off
    from mqspace.cli import _json_pieces

    series = np.array([0.25, -1.5, 3.0])
    ref = weakref.ref(series)
    gc.disable()
    try:
        doc = {"channels": {"I1z": series, "I2z": series.copy()}, "list": [series]}
        pieces = _json_pieces(doc)
        assert "".join(_resolved(pieces)).count("[0.25, -1.5, 3]") == 3
        del pieces, doc, series
        assert ref() is None
    finally:
        gc.enable()


def test_json_pieces_drop_each_text_after_its_last_use():
    # 2,000 distinct series, each written under two labels in a row: a text
    # is about 2 kB, 4 MB for all of them, but the writer keeps none once
    # it is handed on; the second label's piece is a copy of the first's
    from mqspace.cli import _json_pieces

    rng = np.random.default_rng(3)
    doc = {f"{i}{side}": s for i, s in enumerate(rng.random((2000, 100))) for side in "ab"}
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        written = sum(len(piece) for piece in _json_pieces(doc))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert written > 7 * 2**20
    assert peak < 2**20, peak / 2**20


def test_json_series_repeated_in_reverse_are_copied_back_from_the_spool(tmp_path):
    # 2,000 distinct series, each written twice, the second pass in reverse
    # order: every text is about 2 kB, 4 MB for all of them, and keeping
    # each until its last use would hold all of them at the turn; each later
    # use is copied back from the spool instead
    from mqspace.cli import _emit, _json_pieces

    rng = np.random.default_rng(4)
    series = rng.random((2000, 100))
    doc = {f"{i}a": s for i, s in enumerate(series)}
    doc |= {f"{i}b": series[i] for i in reversed(range(len(series)))}
    reference = oracles.json_text({k: v.tolist() for k, v in doc.items()}) + "\n"
    target = tmp_path / "doc.json"
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        _emit(_json_pieces(doc), str(target))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(reference) > 7 * 2**20
    assert target.read_bytes() == reference.encode()
    assert peak < 2**20, peak / 2**20


def test_json_copies_flush_the_spool_only_for_text_not_yet_in_the_file(tmp_path, monkeypatch):
    # a copy of text still buffered in the spool needs a flush before it is
    # read back; a copy of text an earlier flush already wrote needs none
    from mqspace import cli

    make = tempfile.TemporaryFile
    taken, flushes = [], []  # the pieces read so far; len(taken) at each flush

    class Spool(io.BufferedRandom):
        def flush(self):
            flushes.append(len(taken))
            super().flush()

    def spool(mode):
        assert mode == "w+b"
        return Spool(make(mode, buffering=0))

    rng = np.random.default_rng(5)
    one, two = rng.random(3), rng.random(3)
    doc = {"a": one, "b": one.copy(), "c": two, "d": two.copy(), "e": one.copy()}
    # one series a chunk: a repeat is a copy of an earlier chunk's text
    monkeypatch.setattr(cli, "_CHUNK", 3)

    def pieces():
        for piece in cli._json_pieces(doc):
            taken.append(piece)
            yield piece

    monkeypatch.setattr(cli.tempfile, "TemporaryFile", spool)
    target = tmp_path / "doc.json"
    cli._emit(pieces(), str(target))
    reference = oracles.json_text({k: v.tolist() for k, v in doc.items()}) + "\n"
    assert target.read_bytes() == reference.encode()
    copies = [i + 1 for i, piece in enumerate(taken) if isinstance(piece, cli._Copy)]
    assert len(copies) == 3
    # "b" and "d" copy buffered text, "e" copies "a", flushed for "b"
    assert [f for f in flushes if f < len(taken)] == copies[:2]


@pytest.mark.parametrize("engine", ["full", "blockwise", "both"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_evolve_formats_after_every_cell_generator_is_closed(capsys, monkeypatch, engine, fmt):
    # each engine's cell generator is freed once its cells are binned: the
    # dense one before the block engine's is made, and both before the
    # first series is formatted
    from mqspace import cli

    made = []  # a weak reference to each cell generator the run makes
    alive_at_make = []

    def recording(config, which, cells=cli._engine_rows):
        alive_at_make.append([ref() is not None for ref in made])
        generator = cells(config, which)
        made.append(weakref.ref(generator))
        return generator

    monkeypatch.setattr(cli, "_engine_rows", recording)
    kernel = cli.format_rows
    alive = []  # the generators alive at each formatting call

    def checking(values, sep):
        alive.append(sum(ref() is not None for ref in made))
        return kernel(values, sep)

    monkeypatch.setattr(cli, "format_rows", checking)
    gc.disable()  # a generator must be freed by its last reference going
    try:
        code, out, err = run_cli(capsys, EVOLVE_ARGS + ["--engine", engine, "--format", fmt])
    finally:
        gc.enable()
    assert code == EXIT_OK, err
    assert alive_at_make == ([[], [False]] if engine == "both" else [[]])
    assert alive and not any(alive)


@pytest.mark.parametrize("engine", ["full", "blockwise", "both"])
def test_evolve_fills_and_compares_through_the_module_bindings(capsys, monkeypatch, engine):
    # a wrapper on these names of mqspace.cli sees every table fill and
    # every comparison that evolve makes
    from mqspace import cli

    calls = {"_stream_table": 0, "_stream_gap": 0}
    for name in calls:
        def counting(*args, _name=name, _wrapped=getattr(cli, name)):
            calls[_name] += 1
            return _wrapped(*args)

        monkeypatch.setattr(cli, name, counting)
    code, out, err = run_cli(capsys, EVOLVE_ARGS + ["--engine", engine])
    assert code == EXIT_OK, err
    assert calls == {"_stream_table": 1, "_stream_gap": int(engine == "both")}


@pytest.mark.parametrize("engine", ["full", "blockwise", "both"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_evolve_builds_no_trace(capsys, monkeypatch, engine, fmt):
    def refuse(self, *args, **kwargs):
        raise AssertionError("a trace was built")

    monkeypatch.setattr(mqspace.DiffusionTrace, "__init__", refuse)
    with pytest.raises(AssertionError, match="a trace was built"):
        pair = HamiltonianSpec("flipflop", couplings=((1, 2, 1.0),))
        run_diffusion(DiffusionConfig(SpinSystem(2), pair, (0.0, 1.0)))
    argv = ["evolve", "--n", "4", "--model", "dipolar_secular", "--times", "0:2:5",
            "--coupling", "1,2,1.0", "--coupling", "2,3,0.7", "--coupling", "3,4,0.5",
            "--engine", engine, "--format", fmt]
    code, out, err = run_cli(capsys, argv)
    assert code == EXIT_OK, err
    assert out


# A run holds its channel table and one time's working arrays, and no
# trace. Its peak is the dense engine's last time points, with the table
# filled: 65 times x (127 + 1,652) rows x 8 B = 0.88 MiB of table, and the
# three 128 x 128 complex arrays, 0.75 MiB, that _dense_cells keeps for
# its run. JSON's 3,431 label views and its series offsets come once
# both engines are done, below that. That reads 1.85 MiB in JSON and in
# CSV; the bounds add 0.25 MiB. The document text goes to a spool
# file and counts for nothing here. Binning into a whole trace first, and
# keeping each shared series' text until its last use, the peaks read 3.85
# and 3.55 MiB.
@pytest.mark.parametrize("fmt, bound_mib", [("json", 2.1), ("csv", 2.1)])
def test_evolve_peak_memory_stays_within_the_channel_table_and_one_time(tmp_path, fmt, bound_mib):
    n = 7
    terms = [("--coupling", f"{k},{k + 1},{0.3 + 0.1 * k!r}") for k in range(1, n)]
    couplings = [x for term in terms for x in term]
    argv = ["evolve", "--n", str(n), "--model", "dipolar_secular", *couplings,
            "--times", "0:4:65", "--engine", "both", "--format", fmt,
            "--out", str(tmp_path / f"trace.{fmt}")]
    assert main(argv) == EXIT_OK  # the cached tables are built outside the traced run
    tracemalloc.start()
    try:
        assert main(argv) == EXIT_OK
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= bound_mib * 2**20, peak / 2**20


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("spool_dir", ["missing", "a_file"])
def test_unwritable_spool_directory_exits_config(capsys, monkeypatch, tmp_path, fmt, spool_dir):
    import tempfile

    where = tmp_path / spool_dir
    if spool_dir == "a_file":
        where.write_text("")
    monkeypatch.setattr(tempfile, "tempdir", str(where))
    target = tmp_path / "trace.out"
    for out in ([], ["--out", str(target)]):
        code, stdout, err = run_cli(capsys, EVOLVE_ARGS + ["--format", fmt] + out)
        assert code == EXIT_CONFIG
        assert stdout == ""
        assert err.startswith("error: cannot write output")
        assert repr(str(where)) in err
        assert err.count("\n") == 1
        assert "Traceback" not in err
        assert not target.exists()


SUBCOMMAND_ARGS = {
    "basis": ["basis", "--n", "2"],
    "dims": ["dims", "--n", "3"],
    "evolve": EVOLVE_ARGS + ["--engine", "both"],
    "cascade": ["cascade", "--n", "3", "--seed", "1"],
    "perm": ["perm", "--n", "3"],
    "verify": ["verify", "--n", "2", "--trials", "3", "--combos", "3"],
}


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("command", sorted(SUBCOMMAND_ARGS))
def test_stdout_and_out_file_hold_the_same_bytes(capsysbinary, tmp_path, command, fmt):
    argv = SUBCOMMAND_ARGS[command] + ["--format", fmt]
    assert main(argv) == EXIT_OK
    stdout = capsysbinary.readouterr().out
    target = tmp_path / f"{command}.{fmt}"
    assert main(argv + ["--out", str(target)]) == EXIT_OK
    assert capsysbinary.readouterr().out == b""
    assert stdout and stdout.endswith(b"\n")
    assert target.read_bytes() == stdout


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_serialization_error_leaves_no_output(capsys, monkeypatch, tmp_path, fmt):
    from mqspace import cli

    # one series a chunk, so the failure comes after two chunks were written
    monkeypatch.setattr(cli, "_CHUNK", 5)
    calls = _counting_kernel(monkeypatch)
    counting = cli.format_rows

    def failing(values, sep):
        if len(calls) == 3:
            raise InvariantError("synthetic serializer failure")
        return counting(values, sep)

    monkeypatch.setattr(cli, "format_rows", failing)
    target = tmp_path / "trace.out"
    for out in ([], ["--out", str(target)]):
        calls.clear()
        code, stdout, err = run_cli(capsys, EVOLVE_ARGS + ["--format", fmt] + out)
        assert code == EXIT_INVARIANT
        assert "synthetic serializer failure" in err
        assert len(calls) == 3
        assert stdout == ""
        assert not target.exists()


@pytest.mark.parametrize(
    "times", [{"start": 0, "end": 1, "points": 1}, "0:1:1"], ids=["object", "string"]
)
def test_short_time_grid_reports_the_point_minimum(capsys, tmp_path, times):
    cfg = tmp_path / "run.json"
    cfg.write_text(
        json.dumps(
            {
                "n": 2,
                "hamiltonian": {"model": "flipflop", "couplings": [[1, 2, 1.0]]},
                "times": times,
            }
        )
    )
    code, out, err = run_cli(capsys, ["evolve", "--config", str(cfg)])
    assert code == EXIT_CONFIG
    assert out == ""
    assert err == "error: a time grid needs at least 2 points, got 1\n"
    assert "malformed" not in err


def _refuse(*args, **kwargs):
    raise AssertionError("a computation started")


def test_bad_format_is_reported_before_any_run(capsys, monkeypatch, tmp_path):
    from mqspace import cli

    monkeypatch.setattr(cli, "_engine_rows", _refuse)
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"format": "xml"}))
    for argv in (EVOLVE_ARGS, ["evolve", "--n", "2"]):
        # the second input also lacks a model and a time grid
        code, out, err = run_cli(capsys, argv + ["--config", str(cfg)])
        assert code == EXIT_CONFIG
        assert out == ""
        assert err == "error: format must be csv or json, got 'xml'\n"


@pytest.mark.parametrize("via_config", [False, True], ids=["flag", "config"])
@pytest.mark.parametrize("command", ["cascade", "verify"])
def test_negative_seed_exits_config(capsys, tmp_path, command, via_config):
    if via_config:
        cfg = tmp_path / "seed.json"
        cfg.write_text(json.dumps({"n": 2, "seed": -1}))
        argv = [command, "--config", str(cfg)]
    else:
        argv = [command, "--n", "2", "--seed", "-1"]
    code, out, err = run_cli(capsys, argv)
    assert code == EXIT_CONFIG
    assert out == ""
    assert err == "error: seed must be at least 0, got -1\n"


@pytest.mark.parametrize("via_config", [False, True], ids=["flag", "config"])
@pytest.mark.parametrize("command", ["basis", "dims", "evolve", "perm"])
def test_seed_is_refused_where_nothing_is_drawn(capsys, tmp_path, command, via_config):
    if via_config:
        cfg = tmp_path / "seed.json"
        cfg.write_text(json.dumps({"n": 2, "seed": 7}))
        argv = [command, "--config", str(cfg)]
    else:
        argv = [command, "--n", "2", "--seed", "7"]
    code, out, err = run_cli(capsys, argv)
    assert code == EXIT_CONFIG
    assert out == ""
    if via_config:
        assert err.startswith(f"error: unknown {command} config keys: seed; allowed: ")
    else:
        assert "unrecognized arguments: --seed 7" in err


@pytest.mark.parametrize(
    "terms", [["--coupling", "1,2,1.0"], ["--offset", "1,0.5"]], ids=["coupling", "offset"]
)
def test_cascade_terms_without_a_model_exit_config(capsys, monkeypatch, terms):
    from mqspace import cli

    monkeypatch.setattr(cli, "cascade", _refuse)
    code, out, err = run_cli(capsys, ["cascade", "--n", "3", *terms])
    assert code == EXIT_CONFIG
    assert out == ""
    assert err.startswith("error: hamiltonian model is required")


def test_unwritable_out_path_exits_config(capsys, tmp_path):
    target = tmp_path / "missing" / "dims.json"
    code, out, err = run_cli(capsys, ["dims", "--n", "2", "--out", str(target)])
    assert code == EXIT_CONFIG
    assert out == ""
    assert err.startswith(f"error: cannot write output {str(target)!r}: ")
    assert err.count(str(target)) == 1
    assert err.count("\n") == 1
    assert not target.exists()


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("track", ["all", "I1z,2I1zI2z,I1+I2-a3a4,I1-I2+a3a4"])
def test_evolve_never_builds_the_full_coherence_layout(monkeypatch, tmp_path, fmt, track):
    diffusion = importlib.import_module("mqspace.diffusion")
    calls = []
    monkeypatch.setattr(diffusion, "_full_coherences", lambda *args: calls.append(args))
    argv = ["evolve", "--n", "4", "--model", "dipolar_secular", "--times", "0:2:5",
            "--coupling", "1,2,1.0", "--coupling", "2,3,0.7", "--coupling", "3,4,0.5",
            "--engine", "both", "--track", track, "--format", fmt,
            "--out", str(tmp_path / "out")]
    assert main(argv) == EXIT_OK
    assert calls == []
