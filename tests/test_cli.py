"""Command-line behavior: exit codes, formats, config handling."""

import importlib
import importlib.metadata
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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
    monkeypatch.setattr(
        subspaces,
        "_random_member",
        lambda rng, tag, n, hermitian=False: subspaces._gaussian_entries(rng, 1 << n, hermitian),
    )
    code, out, _ = run_cli(capsys, ["verify", "--n", "2", "--trials", "2", "--combos", "2"])
    assert code == EXIT_NUMERICAL
    doc = json.loads(out)
    assert doc["passed"] is False
    failing = {c["check"] for c in doc["checks"] if not c["passed"]}
    assert failing == {"closure_LOMSO", "closure_ZeroQuantum", "closure_EvenMQ"}


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


def _json_text(value):
    """The JSON text of ``value`` without the document's final newline."""
    from mqspace.cli import _json_pieces

    text = "".join(_json_pieces(value))
    assert text.endswith("\n")
    return text[:-1]


def test_number_writers_match_per_value_reference():
    from mqspace.cli import _fmt, _fmt_join

    rng = np.random.default_rng(5)
    bits = rng.integers(0, 2**64 - 1, size=5000, dtype=np.uint64, endpoint=True)
    values = np.concatenate([EDGE_DOUBLES, bits.view(np.float64)])
    mixed = [np.float64(v) if i % 2 else float(v) for i, v in enumerate(values)]
    reference = [oracles.fmt_double(v) for v in mixed]
    assert [_fmt(v) for v in mixed] == reference
    assert _mismatch(_json_text(values), oracles.json_text(mixed)) is None
    assert _mismatch(_json_text(mixed), oracles.json_text(mixed)) is None
    assert _mismatch(_fmt_join(mixed, ","), ",".join(reference)) is None
    assert _mismatch(_fmt_join(values.tolist(), ", "), ", ".join(reference)) is None
    for arr in (np.array([]), np.array([-0.0]), np.array([math.nan])):
        assert _json_text(arr) == oracles.json_text(arr.tolist())
        assert _fmt_join(arr.tolist(), ",") == ",".join(map(oracles.fmt_double, arr))
    nested = {"a": values[:20], "b": [values[:3], {"c": values[3:4]}], "d": np.array([])}
    listed = {"a": mixed[:20], "b": [mixed[:3], {"c": mixed[3:4]}], "d": []}
    assert _json_text(nested) == oracles.json_text(listed)


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


def _counting_fmt_join(monkeypatch):
    """Record the values of every ``cli._fmt_join`` call."""
    from mqspace import cli

    calls = []
    fmt_join = cli._fmt_join

    def counting(values, sep):
        calls.append(list(values))
        return fmt_join(values, sep)

    monkeypatch.setattr(cli, "_fmt_join", counting)
    return calls


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

    calls = _counting_fmt_join(monkeypatch)
    argv = ["evolve", "--n", str(n), "--model", "dipolar_secular", "--times", "0:2:9",
            "--engine", "blockwise", "--track", "all"]
    argv += [x for k, l, j in couplings for x in ("--coupling", f"{k},{l},{j!r}")]
    code, out, err = run_cli(capsys, argv)
    assert code == EXIT_OK, err
    assert len(calls) == len(series) + len(others)
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

    calls = _counting_fmt_join(monkeypatch)
    pieces = _json_pieces(doc)
    assert "".join(pieces) == oracles.json_text(listed(doc)) + "\n"
    # equal bytes share one text; -0.0 against 0.0 and different NaN
    # payloads are different bytes, so each is formatted on its own
    arrays = [shared, doc["zeros"], doc["negative_zeros"], *payload.reshape(3, 1),
              doc["empty"], shared[::-1]]
    assert len(calls) == len({a.tobytes() for a in arrays}) == 8
    first = pieces.index("[0.10000000000000001, 0.33333333333333331, -2.5]")
    assert sum(p is pieces[first] for p in pieces) == 3


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_serialization_error_leaves_no_output(capsys, monkeypatch, tmp_path, fmt):
    from mqspace import cli

    calls = _counting_fmt_join(monkeypatch)
    counting = cli._fmt_join

    def failing(values, sep):
        if len(calls) == 3:
            raise InvariantError("synthetic serializer failure")
        return counting(values, sep)

    monkeypatch.setattr(cli, "_fmt_join", failing)
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

    monkeypatch.setattr(cli, "run_diffusion", _refuse)
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
