"""The import boundary: `import athermal` and the pure-Python CLI commands
load no numpy; the commands that build arrays import it themselves.

Each case runs in a fresh interpreter, since this test process has numpy
loaded already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _child(code: str) -> dict:
    """Run `code` in a fresh interpreter with `src` on the path; it prints
    one JSON line, returned with "numpy": whether numpy was loaded by then."""
    script = (
        f"import json, sys\n{code}\n"
        "print(json.dumps(dict(result, numpy='numpy' in sys.modules)))"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _cli(argv: list[str]) -> dict:
    """`cli.run(argv)` in a fresh interpreter: exit code and stdout."""
    return _child(
        "import contextlib, io\n"
        "from athermal import cli\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        f"    code = cli.run({argv!r})\n"
        "result = {'code': code, 'out': out.getvalue()}"
    )


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("states")
    docs = {
        "resource": {"energies": [0.0, 0.4, 1.1, 1.7, 2.2, 2.9], "beta": 1.0,
                     "populations": [0.3, 0.05, 0.25, 0.1, 0.2, 0.1]},
        "thermalized": {"energies": [0.0, 0.4, 1.1, 1.7, 2.2, 2.9], "beta": 1.0},
        "target": {"energies": [0.0, 0.5, 1.5, 2.5], "beta": 1.0},
        "qubit": {"energies": [0.0, 1.0], "beta": 1.0, "populations": [0.8, 0.2]},
        "matrix": {"energies": [0.0, 1.0], "beta": 1.0, "density_matrix": [
            [[0.8, 0.0], [0.1, 0.05]], [[0.1, -0.05], [0.2, 0.0]]]},
    }
    paths = {}
    for name, doc in docs.items():
        paths[name] = str(root / f"{name}.json")
        Path(paths[name]).write_text(json.dumps(doc))
    paths["csv"] = str(root / "x.csv")
    return paths


@pytest.mark.parametrize("module", ["athermal", "athermal.cli"])
def test_import_loads_no_numpy(module):
    assert _child(f"import {module}\nresult = {{}}") == {"numpy": False}


def test_public_names_resolve():
    names = ["gap_set", "lp_feasible", "DensityMatrix"]
    result = _child(
        f"from athermal import {', '.join(names)}\n"
        f"result = {{'callable': all(map(callable, ({', '.join(names)},)))}}"
    )
    assert result == {"callable": True, "numpy": False}


PUBLIC_NAMES = [
    "AthermalityState", "CoolingReport", "CriticalEnergySet", "DensityMatrix",
    "EnergyGapSet", "ExtendedBeta", "FeasibilityResult", "GapInterval",
    "GibbsContext", "HeatingReport", "ProbabilityVector", "TestingBoundary",
    "alpha_at", "beta_max", "beta_min", "compute_elbows", "construct_gap_example",
    "convertible_via_monotones", "cooling_monotone", "critical_energies",
    "fa_point", "gap_membership", "gap_set", "gibbs_vector", "heating_monotone",
    "log_partition", "lp_feasible", "max_ground_overlap", "qubit_beta_bounds",
    "qubit_energy_change", "relatively_majorizes", "to_quasiclassical",
    "validate_state",
]


def test_public_surface_is_pinned():
    """A change to the public names is deliberate: it edits this list."""
    import athermal
    from athermal import ExtendedBeta

    assert sorted(athermal.__all__) == PUBLIC_NAMES
    assert all(hasattr(athermal, name) for name in PUBLIC_NAMES)
    # a tag is ExtendedBeta(+-math.inf): the class has no alias for one
    members = {name for name in vars(ExtendedBeta) if not name.startswith("_")}
    assert members == {"finite", "is_finite", "kind", "value", "to_json"}


PURE_COMMANDS = {  # name: (argv, exit code)
    "cool": (["cool", "-s", "{resource}", "-t", "{target}"], 0),
    "heat": (["heat", "-s", "{resource}", "-t", "{target}"], 0),
    "overlap": (["overlap", "-s", "{resource}", "-t", "{target}"], 0),
    "convert": (["convert", "--from", "{resource}", "--to", "{thermalized}"], 0),
    "convert-back": (["convert", "--from", "{thermalized}", "--to", "{resource}"], 3),
    "monotones": (["monotones", "-s", "{resource}", "-E", "0.5", "-E", "2"], 0),
    "critical-energies": (["critical-energies", "-s", "{resource}"], 0),
    "eset": (["eset", "-s", "{qubit}", "--beta-tilde", "1.7"], 0),
    "gap-example": (["gap-example", "--a", "0.5"], 0),
    "curve": (["curve", "--a", "2.5", "--grid", "20"], 0),
}


@pytest.mark.parametrize("command", sorted(PURE_COMMANDS))
def test_pure_command_loads_no_numpy(files, command):
    argv, code = PURE_COMMANDS[command]
    result = _cli([arg.format(**files) for arg in argv])
    assert result["code"] == code
    assert json.loads(result["out"])
    assert result["numpy"] is False


@pytest.mark.parametrize("argv, code", [
    (["oracle", "--from", "{resource}", "--to", "{thermalized}"], 0),
    (["oracle", "--from", "{thermalized}", "--to", "{resource}"], 3),
    (["monotones", "-s", "{matrix}", "-E", "1"], 0),
    (["eset", "-s", "{qubit}", "--beta-tilde", "1.7", "--grid", "100",
      "--out", "{csv}"], 0),
])
def test_array_commands_load_numpy(files, argv, code):
    result = _cli([arg.format(**files) for arg in argv])
    assert result["code"] == code
    assert json.loads(result["out"])
    assert result["numpy"] is True
    if "--out" in argv:
        rows = Path(files["csv"]).read_text().splitlines()
        assert len(rows) == 100 and all(len(row.split(",")) == 3 for row in rows)
