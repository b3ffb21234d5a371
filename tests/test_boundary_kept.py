"""A state's boundary is built once: on the first `compute_elbows` call, and
kept with the state for every later decision, monotone, bound and gap query."""

import dataclasses
import json
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
from athermal.cli import run

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
    energies, r, t = _raw_pair(n)
    paths = {}
    for name, pops in (("source", r), ("target", t)):
        paths[name] = str(tmp_path / f"{name}.json")
        doc = {"energies": energies, "beta": BETA, "populations": pops}
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    out = str(tmp_path / "boundaries.svg")
    for src, tgt, code in (("source", "target", 0), ("target", "source", 3)):
        builds.clear()
        argv = ["convert", "--from", paths[src], "--to", paths[tgt], "--out", out]
        assert run(argv) == code
        assert len(builds) == 2 and builds[0] is not builds[1]
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["witness"]
