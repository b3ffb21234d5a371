"""A state's boundary is built once: on the first `compute_elbows` call, and
kept with the state for every later decision, monotone, bound and gap query."""

import dataclasses
import json
import os
from collections import Counter

import numpy as np
import pytest

from athermal import (
    GibbsContext,
    beta_max,
    beta_min,
    compute_elbows,
    convertible_via_monotones,
    cooling_monotone,
    critical_energies,
    gap_membership,
    gap_set,
    gibbs_vector,
    heating_monotone,
    majorization,
    max_ground_overlap,
    qubit_beta_bounds,
    relatively_majorizes,
    validate_state,
)
from athermal import cli
from athermal.cli import load_state, run

BETA = 1.0
GAPS = np.linspace(0.1, 4.0, 20).tolist()
TARGET = GibbsContext((0.0, 0.7, 1.9), 1.6)


@pytest.fixture
def builds(monkeypatch):
    """Every state `_build_elbows` is called on, kept alive so that ids stay
    distinct."""
    built = []
    build = majorization._build_elbows

    def spy(state):
        built.append(state)
        return build(state)

    monkeypatch.setattr(majorization, "_build_elbows", spy)
    return built


def _raw_pair(n):
    """Energies, a seeded population vector and its partial thermalisation."""
    rng = np.random.default_rng(n)
    energies = np.sort(rng.uniform(0.0, 3.0, n)).tolist()
    g = np.array(gibbs_vector(energies, BETA).entries)
    r = rng.dirichlet(np.ones(n))
    return energies, r.tolist(), (0.4 * r + 0.6 * g).tolist()


def _ask_everything(state, other):
    relatively_majorizes(state, other)
    convertible_via_monotones(state, other, BETA)
    critical_energies(state, BETA)
    for E in GAPS:
        cooling_monotone(state, BETA, E)
        heating_monotone(state, BETA, E)
    qubit_beta_bounds(state, 1.3, BETA)
    beta_max(state, TARGET)
    beta_min(state, TARGET)
    max_ground_overlap(state, TARGET)
    for E in GAPS[::5]:
        gap_membership(state, BETA, 1.7, E)
    gap_set(state, BETA, 1.7)
    gap_set(state, BETA, 0.4)


@pytest.mark.parametrize("n", [3, 2048])
def test_one_build_per_state(builds, n):
    energies, r, t = _raw_pair(n)
    g = gibbs_vector(energies, BETA).entries
    source, target = validate_state(r, g), validate_state(t, g)
    _ask_everything(source, target)
    _ask_everything(target, source)
    assert Counter(map(id, builds)) == {id(source): 1, id(target): 1}
    assert compute_elbows(source) is compute_elbows(source)


@pytest.mark.parametrize("n", [3, 2048])
def test_kept_boundary_leaves_the_state_as_it_was(builds, n):
    energies, r, _ = _raw_pair(n)
    g = gibbs_vector(energies, BETA).entries
    state, twin = validate_state(r, g), validate_state(r, g)
    boundary = compute_elbows(state)
    assert state == twin and hash(state) == hash(twin) and repr(state) == repr(twin)
    copy = dataclasses.replace(state)
    assert copy == state
    assert compute_elbows(copy) is not boundary
    assert compute_elbows(copy).elbows == boundary.elbows
    assert builds == [state, copy]


@pytest.mark.parametrize("n", [3, 2048])
def test_convert_builds_each_boundary_once(builds, tmp_path, capsys, n):
    # Both runs on the same two files, in one process, build one boundary per
    # file between them: the second run reads the states kept by the first.
    energies, r, t = _raw_pair(n)
    paths = {}
    for name, pops in (("source", r), ("target", t)):
        paths[name] = str(tmp_path / f"{name}.json")
        doc = {"energies": energies, "beta": BETA, "populations": pops}
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    out = str(tmp_path / "boundaries.svg")
    for src, tgt, code in (("source", "target", 0), ("target", "source", 3)):
        argv = ["convert", "--from", paths[src], "--to", paths[tgt], "--out", out]
        assert run(argv) == code
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["witness"]
    states = {name: load_state(path)[0] for name, path in paths.items()}
    assert Counter(map(id, builds)) == {id(states["source"]): 1, id(states["target"]): 1}


def _qubit_file(path, populations=None):
    """A qubit state file on the energies (0, 1) at beta = 1; with no
    populations, a target file. Returns its path as a string."""
    doc = {"energies": [0.0, 1.0], "beta": 1.0}
    if populations is not None:
        doc["populations"] = populations
    path.write_text(json.dumps(doc))
    return str(path)


def test_rewrite_in_place_is_read(builds, tmp_path, capsys):
    # Same size, and the old modification time put back: only the bytes show
    # the change, and the answer is the new content's.
    state = _qubit_file(tmp_path / "state.json", [0.9, 0.1])
    target = _qubit_file(tmp_path / "target.json")
    assert run(["cool", "-s", state, "-t", target]) == 0
    before = capsys.readouterr().out
    old = os.stat(state)
    _qubit_file(tmp_path / "state.json", [0.8, 0.2])
    os.utime(state, ns=(old.st_atime_ns, old.st_mtime_ns))
    new = os.stat(state)
    assert (new.st_size, new.st_mtime_ns) == (old.st_size, old.st_mtime_ns)
    fresh = _qubit_file(tmp_path / "fresh.json", [0.8, 0.2])
    outs = []
    for path in (state, fresh):
        assert run(["cool", "-s", path, "-t", target]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] != before
    assert len(builds) == 3


def test_failed_load_is_not_kept(tmp_path, capsys):
    # an invalid state fails alike on every call, and loads once mended in place
    state = _qubit_file(tmp_path / "state.json", [0.9, -0.1])
    argv = ["cool", "-s", state, "-t", _qubit_file(tmp_path / "target.json")]
    failures = []
    for _ in range(2):
        failures.append((run(argv), *capsys.readouterr()))
    assert failures[0] == failures[1] and failures[0][:2] == (2, "")
    _qubit_file(tmp_path / "state.json", [0.9, 0.1])
    assert run(argv) == 0
    assert json.loads(capsys.readouterr().out)["beta_max"] > 1.0


def test_least_recent_file_is_built_again(builds, tmp_path):
    paths = [
        _qubit_file(tmp_path / f"s{i}.json", [0.5 + i / 1000.0, 0.5 - i / 1000.0])
        for i in range(cli._load.cache_info().maxsize + 1)
    ]
    states = [load_state(path)[0] for path in paths]
    for state in states:
        compute_elbows(state)
    assert builds == states
    assert load_state(paths[-1])[0] is states[-1]
    again = load_state(paths[0])[0]
    assert again is not states[0] and again == states[0]
    compute_elbows(again)
    assert builds == [*states, again]


def _workload_files(tmp_path):
    """One state file of each shape the CLI workload reads, by name: a 6-level
    resource and its partial thermalisation, a 4-level target, a 4-level
    density matrix and a qubit."""
    rng = np.random.default_rng(7)
    beta = 1.3
    energies = rng.uniform(0.0, 3.0, 6).tolist()
    g = np.array(gibbs_vector(energies, beta).entries)
    r = rng.dirichlet(np.ones(6))
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    docs = {
        "resource": {"energies": energies, "beta": beta, "populations": r.tolist()},
        "thermalized": {"energies": energies, "beta": beta,
                        "populations": (0.4 * r + 0.6 * g).tolist()},
        "target": {"energies": rng.uniform(0.0, 3.0, 4).tolist(), "beta": beta},
        "matrix": {"energies": [0.0, 0.4, 1.1, 2.0], "beta": 0.8,
                   "density_matrix": [[[z.real, z.imag] for z in row] for row in rho]},
        "qubit": {"energies": [0.0, 1.2], "beta": 0.9, "populations": [0.8, 0.2]},
    }
    paths = {}
    for name, doc in docs.items():
        paths[name] = str(tmp_path / f"{name}.json")
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    return paths


def test_workload_invocations_same_on_miss_and_hit(tmp_path, capsys):
    p = _workload_files(tmp_path)
    commands = [
        ["cool", "-s", p["resource"], "-t", p["target"]],
        ["heat", "-s", p["resource"], "-t", p["target"]],
        ["overlap", "-s", p["resource"], "-t", p["target"]],
        ["convert", "--from", p["resource"], "--to", p["thermalized"]],
        ["convert", "--from", p["thermalized"], "--to", p["resource"]],
        ["monotones", "-s", p["matrix"], "-E", "0.7", "-E", "2.5"],
        ["critical-energies", "-s", p["resource"]],
        ["eset", "-s", p["qubit"], "--beta-tilde", "2.1", "--grid", "2000"],
        ["gap-example", "--a", "0.5"],
        ["oracle", "--from", p["resource"], "--to", p["thermalized"]],
        ["oracle", "--from", p["thermalized"], "--to", p["resource"]],
        ["curve", "--a", "3.0", "--grid", "100"],
    ]
    passes = []
    for _ in range(2):
        results = []
        for argv in commands:
            code = run(argv)
            results.append((code, *capsys.readouterr()))
        passes.append(results)
    assert passes[0] == passes[1]
    assert [code for code, _, _ in passes[0]] == [0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 3, 0]
