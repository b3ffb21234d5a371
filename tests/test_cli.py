import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from athermal import convertible_via_monotones, cooling_monotone, heating_monotone
from athermal import cli, core, esets, majorization, monotones, tempbounds, thermo
from athermal.cli import load_state, run

LN4 = math.log(4.0)


@pytest.fixture
def resource_file(tmp_path):
    path = tmp_path / "resource.json"
    path.write_text(
        json.dumps(
            {"energies": [0.0, LN4], "beta": 1.0, "populations": [0.9, 0.1]}
        )
    )
    return str(path)


@pytest.fixture
def target_file(tmp_path):
    path = tmp_path / "target.json"
    path.write_text(json.dumps({"energies": [0.0, LN4], "beta": 1.0}))
    return str(path)


def _run(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestStateFiles:
    def test_missing_file_exits_2(self, capsys, target_file):
        code, _, err = _run(capsys, ["cool", "-s", "no_such.json", "-t", target_file])
        assert code == 2
        assert json.loads(err)["error"]["code"]

    def test_both_population_kinds_rejected(self, capsys, tmp_path, target_file):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {
                    "energies": [0.0, 1.0],
                    "beta": 1.0,
                    "populations": [0.5, 0.5],
                    "density_matrix": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]],
                }
            )
        )
        code, _, err = _run(capsys, ["cool", "-s", str(bad), "-t", target_file])
        assert code == 2

    def test_unsorted_energies_reordered(self, capsys, tmp_path, target_file):
        swapped = tmp_path / "swapped.json"
        swapped.write_text(
            json.dumps(
                {"energies": [LN4, 0.0], "beta": 1.0, "populations": [0.1, 0.9]}
            )
        )
        code, out, _ = _run(capsys, ["cool", "-s", str(swapped), "-t", target_file])
        assert code == 0
        assert json.loads(out)["beta_max"] == pytest.approx(math.log(9.0) / LN4)

    def test_density_matrix_input(self, capsys, tmp_path, target_file):
        dm = tmp_path / "dm.json"
        dm.write_text(
            json.dumps(
                {
                    "energies": [0.0, LN4],
                    "beta": 1.0,
                    "density_matrix": [
                        [[0.9, 0.0], [0.1, 0.05]],
                        [[0.1, -0.05], [0.1, 0.0]],
                    ],
                }
            )
        )
        code, out, _ = _run(capsys, ["cool", "-s", str(dm), "-t", target_file])
        assert code == 0
        # coherences are pinched away; same verdict as the diagonal state
        assert json.loads(out)["beta_max"] == pytest.approx(math.log(9.0) / LN4)

    def test_density_matrix_builds_gibbs_once(
        self, capsys, monkeypatch, tmp_path, target_file
    ):
        """A density-matrix file builds its Gibbs vector once, in
        `to_quasiclassical`, and reads as the file of its diagonal."""
        diagonal, dm = tmp_path / "diagonal.json", tmp_path / "dm.json"
        doc, pops = {"energies": [0.0, 0.5, LN4], "beta": 1.0}, [0.6, 0.3, 0.1]
        diagonal.write_text(json.dumps({**doc, "populations": pops}))
        rho = [[[pops[i] if i == j else 0.05, 0.0] for j in range(3)] for i in range(3)]
        dm.write_text(json.dumps({**doc, "density_matrix": rho}))
        _, expected, _ = _run(capsys, ["cool", "-s", str(diagonal), "-t", target_file])
        calls, real = [], thermo.gibbs_vector

        def spy(energies, beta):
            calls.append(beta)
            return real(energies, beta)

        monkeypatch.setattr(cli, "gibbs_vector", spy)
        monkeypatch.setattr(thermo, "gibbs_vector", spy)
        code, out, _ = _run(capsys, ["cool", "-s", str(dm), "-t", target_file])
        assert code == 0 and out == expected
        assert len(calls) == 1

    def test_density_matrix_unsorted_energies(self, capsys, tmp_path, target_file):
        """A density matrix is listed in the order of its file's energies:
        read with energies out of order, and with coherences, it is the
        populations file of its diagonal permuted into sorted order."""
        sorted_pops, dm = tmp_path / "sorted.json", tmp_path / "dm.json"
        sorted_pops.write_text(
            json.dumps(
                {"energies": [0.0, 0.5, LN4], "beta": 1.0, "populations": [0.6, 0.3, 0.1]}
            )
        )
        rho = [
            [[0.1, 0.0], [0.05, 0.02], [0.02, 0.0]],
            [[0.05, -0.02], [0.6, 0.0], [0.05, 0.0]],
            [[0.02, 0.0], [0.05, 0.0], [0.3, 0.0]],
        ]
        dm.write_text(
            json.dumps({"energies": [LN4, 0.0, 0.5], "beta": 1.0, "density_matrix": rho})
        )
        _, expected, _ = _run(capsys, ["cool", "-s", str(sorted_pops), "-t", target_file])
        code, out, _ = _run(capsys, ["cool", "-s", str(dm), "-t", target_file])
        assert code == 0 and out == expected

    def test_density_matrix_twins_print_alike(self, capsys, tmp_path):
        """A populations file and the density_matrix file of its diagonal, in
        the file's unsorted energies and with a coherence in every other
        one, load through one rule and print the same bytes. Seeded twins of
        2-8 levels: 16 as drawn, then 8 whose Gibbs vector changes when
        `validate_state` renormalises it."""
        rng = np.random.default_rng(3)
        twins, changing = [], 0
        while len(twins) < 24:
            n = int(rng.integers(2, 9))
            levels = rng.uniform(0.0, 3.0, size=int(rng.integers(1, n + 1)))
            doc = {"energies": rng.choice(levels, size=n).tolist(),
                   "beta": float(rng.uniform(0.2, 3.0))}
            g = thermo.gibbs_vector(sorted(doc["energies"]), doc["beta"]).entries
            renormalised = core.ProbabilityVector(g).entries != g
            if len(twins) >= 16 and not renormalised:
                continue
            changing += renormalised
            twins.append((doc, rng.dirichlet(np.ones(n)).tolist()))
        assert changing >= 8
        for i, (doc, pops) in enumerate(twins):
            n = len(pops)
            rho = [[[pops[a] if a == b else 0.0, 0.0] for b in range(n)] for a in range(n)]
            if i % 2:  # a coherence that keeps rho positive
                c = 0.5 * math.sqrt(pops[0] * pops[-1])
                rho[0][-1], rho[-1][0] = [0.6 * c, 0.8 * c], [0.6 * c, -0.8 * c]
            paths = {}
            for name, extra in (
                ("pop", {"populations": pops}),
                ("dm", {"density_matrix": rho}),
                ("other", {"populations": rng.dirichlet(np.ones(n)).tolist()}),
                ("target", {"beta": 1.5 * doc["beta"]}),
            ):
                paths[name] = tmp_path / f"{name}{i}.json"
                paths[name].write_text(json.dumps({**doc, **extra}))
            target, other = str(paths["target"]), str(paths["other"])
            outputs = {}
            for name in ("pop", "dm"):
                path = str(paths[name])
                outputs[name] = [
                    _run(capsys, argv)[:2]
                    for argv in (
                        ["cool", "-s", path, "-t", target],
                        ["heat", "-s", path, "-t", target],
                        ["overlap", "-s", path, "-t", target],
                        ["monotones", "-s", path, "-E", "0.7", "-E", "2.0"],
                        ["critical-energies", "-s", path],
                        ["eset", "-s", path, "--beta-tilde", str(0.5 * doc["beta"])],
                        ["convert", "--from", path, "--to", other],
                    )
                ]
            assert outputs["dm"] == outputs["pop"], i

    def test_density_matrix_negative_within_psd_tol(self, capsys, tmp_path):
        dm = tmp_path / "dm.json"
        dm.write_text(
            json.dumps(
                {
                    "energies": [0.0, LN4],
                    "beta": 1.0,
                    "density_matrix": [
                        [[1.0 + 1e-11, 0.0], [0.0, 0.0]],
                        [[0.0, 0.0], [-1e-11, 0.0]],
                    ],
                }
            )
        )
        code, out, _ = _run(capsys, ["monotones", "-s", str(dm), "-E", "2.0"])
        assert code == 0
        # the pure ground state: past gap ln 4 its cooling bound is infinite
        assert json.loads(out)["entries"][0]["cooling"] == "+inf"

    def test_free_state_when_no_populations(self, capsys, target_file):
        code, out, _ = _run(capsys, ["cool", "-s", target_file, "-t", target_file])
        assert code == 0
        assert json.loads(out)["beta_max"] == 1.0


def _input_error(code, err):
    """Exit 2 with a single JSON error object on stderr, no traceback."""
    assert code == 2
    doc = json.loads(err)
    assert set(doc) == {"error"}
    return doc["error"]


class TestInputErrors:
    def _state(self, tmp_path, doc):
        path = tmp_path / "state.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_non_numeric_beta(self, capsys, tmp_path, target_file):
        bad = self._state(tmp_path, {"energies": [0.0, 1.0], "beta": "abc"})
        code, _, err = _run(capsys, ["cool", "-s", bad, "-t", target_file])
        assert "beta" in _input_error(code, err)["message"]

    def test_energies_not_a_list(self, capsys, tmp_path, target_file):
        bad = self._state(tmp_path, {"energies": 1.0, "beta": 1.0})
        code, _, err = _run(capsys, ["heat", "-s", bad, "-t", target_file])
        _input_error(code, err)

    def test_non_hermitian_density_matrix(self, capsys, tmp_path, target_file):
        bad = self._state(
            tmp_path,
            {
                "energies": [0.0, LN4],
                "beta": 1.0,
                "density_matrix": [
                    [[0.5, 0.0], [0.4, 0.0]],
                    [[0.1, 0.0], [0.5, 0.0]],
                ],
            },
        )
        code, _, err = _run(capsys, ["cool", "-s", bad, "-t", target_file])
        assert _input_error(code, err)["code"] == "InvalidDensityMatrix"

    def test_density_matrix_trace_is_a_plain_float(self, capsys, tmp_path, target_file):
        bad = self._state(
            tmp_path,
            {
                "energies": [0.0, LN4],
                "beta": 1.0,
                "density_matrix": [
                    [[1.0, 0.0], [0.0, 0.0]],
                    [[0.0, 0.0], [0.5, 0.0]],
                ],
            },
        )
        code, _, err = _run(capsys, ["cool", "-s", bad, "-t", target_file])
        error = _input_error(code, err)
        assert error["code"] == "InvalidDensityMatrix"
        assert "trace 1.5 " in error["message"]
        assert "np.float64" not in err

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_density_matrix_non_finite_literal(
        self, capsys, tmp_path, target_file, literal
    ):
        # Python's json reads these literals; the matrix must not accept them
        bad = tmp_path / "state.json"
        bad.write_text(
            '{"energies": [0.0, 0.0], "beta": 1.0, "density_matrix": '
            f'[[[0.5, 0.0], [{literal}, 0.0]], [[{literal}, 0.0], [0.5, 0.0]]]}}'
        )
        code, out, err = _run(capsys, ["cool", "-s", str(bad), "-t", target_file])
        assert _input_error(code, err)["code"] == "InvalidDensityMatrix"
        assert out == ""

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_energy_literal(self, capsys, tmp_path, target_file, literal):
        # Python's json reads these literals; the energies must not accept them
        bad = tmp_path / "state.json"
        bad.write_text(
            f'{{"energies": [0.0, {literal}], "beta": 1.0, "populations": [0.5, 0.5]}}'
        )
        code, out, err = _run(capsys, ["cool", "-s", str(bad), "-t", target_file])
        assert "non-finite energy" in _input_error(code, err)["message"]
        assert len(err.splitlines()) == 1
        assert out == ""

    def test_density_matrix_of_wrong_size(self, capsys, tmp_path, target_file):
        bad = self._state(
            tmp_path,
            {
                "energies": [0.0, 1.0, 2.0],
                "beta": 1.0,
                "density_matrix": [
                    [[0.5, 0.0], [0.0, 0.0]],
                    [[0.0, 0.0], [0.5, 0.0]],
                ],
            },
        )
        code, _, err = _run(capsys, ["cool", "-s", bad, "-t", target_file])
        assert _input_error(code, err)["code"] == "DimensionMismatch"

    @pytest.mark.parametrize("command", ["convert", "oracle"])
    def test_pair_beta_mismatch(self, capsys, tmp_path, command):
        paths = []
        for beta in (1.0, 2.0):
            paths.append(tmp_path / f"beta{beta}.json")
            paths[-1].write_text(json.dumps(
                {"energies": [0.0, LN4], "beta": beta, "populations": [0.9, 0.1]}
            ))
        code, out, err = _run(
            capsys, [command, "--from", str(paths[0]), "--to", str(paths[1])]
        )
        assert out == ""
        assert "background beta differs" in _input_error(code, err)["message"]

    def test_eset_grid_too_coarse(self, capsys, resource_file):
        code, _, err = _run(
            capsys,
            ["eset", "-s", resource_file, "--beta-tilde", "2.0", "--grid", "50"],
        )
        assert _input_error(code, err)["code"] == "InvalidGrid"

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_eset_non_finite_beta_tilde(self, capsys, resource_file, value):
        code, out, err = _run(
            capsys, ["eset", "-s", resource_file, f"--beta-tilde={value}"]
        )
        assert _input_error(code, err)["code"] == "NonFiniteBeta"
        assert out == ""

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_curve_non_finite_ratio(self, capsys, value):
        code, out, err = _run(capsys, ["curve", "--a", value])
        assert _input_error(code, err)["code"] == "NonFiniteBeta"
        assert out == ""

    @pytest.mark.parametrize(
        "command, gap",
        [pytest.param("monotones", gap, id=gap) for gap in ("5e-324", "1e-310")]
        + [pytest.param(c, gap, id=f"{c}-{gap}")
           for c in ("cool", "heat") for gap in ("5e-324", "1e-310")],
    )
    def test_monotones_subnormal_gap(self, capsys, tmp_path, resource_file, command, gap):
        # a 2-level target takes the qubit's closed form, which overflows alike
        if command == "monotones":
            argv = ["monotones", "-s", resource_file, "-E", gap]
        else:
            target = tmp_path / "tiny.json"
            target.write_text(json.dumps({"energies": [0.0, float(gap)], "beta": 1.0}))
            argv = [command, "-s", resource_file, "-t", str(target)]
        code, out, err = _run(capsys, argv)
        assert _input_error(code, err)["code"] == "GapTooSmall"
        assert out == ""

    @pytest.mark.parametrize("entry", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_population_code(self, capsys, tmp_path, target_file, entry):
        path = tmp_path / "nan.json"
        path.write_text(
            f'{{"energies": [0.0, 1.0], "beta": 1.0, "populations": [{entry}, 1.0]}}'
        )
        code, out, err = _run(capsys, ["cool", "-s", str(path), "-t", target_file])
        assert _input_error(code, err)["code"] == "NonFiniteEntry"
        assert out == ""

    @pytest.mark.parametrize("n", [2, 120])  # the scalar and the array validation
    @pytest.mark.parametrize(
        "command, args",
        [
            ("cool", ["-s", "{bad}", "-t", "{target}"]),
            ("heat", ["-s", "{bad}", "-t", "{target}"]),
            ("overlap", ["-s", "{bad}", "-t", "{target}"]),
            ("monotones", ["-s", "{bad}", "-E", "1"]),
            ("critical-energies", ["-s", "{bad}"]),
            ("eset", ["-s", "{bad}", "--beta-tilde", "2"]),
            ("convert", ["--from", "{bad}", "--to", "{bad}"]),
            ("oracle", ["--from", "{bad}", "--to", "{bad}"]),
        ],
    )
    def test_overflowing_population_total(
        self, capsys, tmp_path, target_file, n, command, args
    ):
        # Finite populations whose sum overflows a float: off by inf.
        bad = tmp_path / "overflow.json"
        bad.write_text(
            json.dumps({"energies": [float(i) for i in range(n)], "beta": 1.0,
                        "populations": [1e308] * n})
        )
        argv = [command] + [a.format(bad=bad, target=target_file) for a in args]
        code, out, err = _run(capsys, argv)
        error = _input_error(code, err)
        assert error["code"] == "NormalizationOutOfTolerance"
        assert error["message"] == "entries sum to inf, off by more than 1e-09"
        assert out == ""

    def test_eset_grid_above_cap(self, capsys, resource_file):
        code, out, err = _run(
            capsys,
            ["eset", "-s", resource_file, "--beta-tilde", "2.0", "--grid", "100000000"],
        )
        assert _input_error(code, err)["code"] == "InvalidGrid"
        assert out == ""

    def test_curve_grid_above_cap(self, capsys):
        code, out, err = _run(capsys, ["curve", "--a", "2.0", "--grid", str(2**62)])
        assert _input_error(code, err)["code"] == "InvalidGrid"
        assert out == ""

    def test_curve_empty_grid(self, capsys):
        code, out, err = _run(capsys, ["curve", "--a", "nan", "--grid", "0"])
        assert _input_error(code, err)["code"] == "InvalidGrid"
        assert out == ""

    def test_usage_error_is_json(self, capsys, resource_file):
        # --e-max is an option, so --beta-tilde has no value
        code, _, err = _run(
            capsys, ["eset", "-s", resource_file, "--beta-tilde", "--e-max", "3"]
        )
        error = _input_error(code, err)
        assert error == {
            "code": "UsageError",
            "message": "athermal eset: argument --beta-tilde: expected one argument",
        }

    @pytest.mark.parametrize(
        "argv",
        [
            ["eset", "-s", "{R}", "--beta-tilde", "-1e-05"],
            ["eset", "-s", "{R}", "--beta-tilde", "-1e300"],
            ["eset", "-s", "{R}", "--beta-tilde", "-inf"],
            ["eset", "-s", "{R}", "--beta-tilde", "-nan"],
            ["curve", "--a", "-2e0", "--grid", "4"],
            ["oracle", "--from", "{R}", "--to", "{R}", "--tol", "-1E-3"],
            ["monotones", "-s", "{R}", "-E", "-1.5e0"],
        ],
    )
    def test_negative_value_in_any_float_notation(self, capsys, resource_file, argv):
        # argparse's own test of a negative number takes -1 and -.5 but not
        # -1e-05 or -inf; given as --option=value they always parsed
        argv = [a.replace("{R}", resource_file) for a in argv]
        spaced = _run(capsys, argv)
        joined = _run(capsys, [*argv[:-2], f"{argv[-2]}={argv[-1]}"])
        assert spaced == joined
        if spaced[0] != 0:
            assert _input_error(spaced[0], spaced[2])["code"] != "UsageError"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["cool", "-s", "{R}", "-t", "{R}", "-x"], "unrecognized arguments: -x"),
            (["cool", "-s", "{R}", "-t"], "argument --target/-t: expected one argument"),
            (["curve", "--a", "-2e0", "-"], "unrecognized arguments: -"),
            (["curve", "--a", "--", "2"], "argument --a: expected one argument"),
            (["eset", "-s", "{R}", "--beta-tilde", "-1e-05x"],
             "argument --beta-tilde: expected one argument"),
        ],
    )
    def test_usage_messages_of_other_argv(self, capsys, resource_file, argv, message):
        # a parse error is reported by the subcommand's parser, an extra
        # argument by the top-level one
        prog = "athermal" if message.startswith("unrec") else f"athermal {argv[0]}"
        message = f"{prog}: {message}"
        argv = [a.replace("{R}", resource_file) for a in argv]
        code, out, err = _run(capsys, argv)
        assert _input_error(code, err) == {"code": "UsageError", "message": message}
        assert out == ""

    @pytest.mark.parametrize("a", ["1e-300", "1e300"])
    def test_gap_example_extreme_ratio(self, capsys, a):
        code, _, err = _run(capsys, ["gap-example", "--a", a])
        assert code == 4
        assert json.loads(err)["error"]["code"] == "BisectionError"

    @pytest.mark.parametrize(
        "content",
        [b"\xff\xfe\x00\x81", b"[" * 200_000, b'{"beta": ' + b"1" * 5000 + b"}"],
        ids=["not-utf8", "nested-too-deep", "int-too-long"],
    )
    def test_unreadable_state_file(self, capsys, tmp_path, target_file, content):
        bad = tmp_path / "state.json"
        bad.write_bytes(content)
        code, out, err = _run(capsys, ["cool", "-s", str(bad), "-t", target_file])
        error = _input_error(code, err)
        assert error["code"] == "AthermalError"
        assert error["message"].startswith(f"cannot read {bad}")
        assert out == ""

    @pytest.mark.parametrize(
        "doc",
        [
            {"energies": ["0", 1.0], "beta": 1.0},
            {"energies": [0.0, 1.0], "beta": True},
            {"energies": [0.0, 1.0], "beta": 1.0, "populations": ["0.9", 0.1]},
            {"energies": [0.0, 1.0], "beta": 1.0, "populations": [False, True]},
            {"energies": [0.0, 1.0], "beta": 1.0,
             "density_matrix": [[["0.5", 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]},
            {"energies": [0.0, 1.0], "beta": 1.0,
             "density_matrix": [[[0.5, False], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]},
            {"energies": [0.0, 1.0], "beta": 1.0, "populations": [10**400, 0.0]},
            {"energies": ["0", str(LN4)], "beta": True, "populations": ["0.9", 0.1]},
        ],
        ids=["string-energy", "bool-beta", "string-population", "bool-population",
             "string-matrix-entry", "bool-matrix-entry", "int-beyond-float",
             "strings-and-true"],
    )
    def test_non_numbers_rejected(self, capsys, tmp_path, target_file, doc):
        bad = self._state(tmp_path, doc)
        code, out, err = _run(capsys, ["cool", "-s", bad, "-t", target_file])
        assert "must" in _input_error(code, err)["message"]
        assert out == ""

    @pytest.mark.parametrize("tol", ["0", "nan", "inf"])
    def test_oracle_non_positive_tol(self, capsys, resource_file, tol):
        code, _, err = _run(
            capsys,
            ["oracle", "--from", resource_file, "--to", resource_file,
             "--tol", tol],
        )
        assert _input_error(code, err)["code"] == "NonPositiveTolerance"


class TestFarLevels:
    @pytest.mark.parametrize("energies", [[0.0, 5000.0], [0.0, 2500.0, 5000.0]])
    @pytest.mark.parametrize("beta", [1e-3, 1e-2, 1.0])
    @pytest.mark.parametrize("command", ["cool", "heat"])
    def test_no_traceback(self, capsys, tmp_path, resource_file, energies, beta,
                          command):
        target = tmp_path / "far.json"
        target.write_text(json.dumps({"energies": energies, "beta": beta}))
        code, out, err = _run(capsys, [command, "-s", resource_file, "-t", str(target)])
        assert code in (0, 4)
        if code == 0:
            assert len(json.loads(out)["per_condition"]) == len(energies) - 1
        else:
            assert set(json.loads(err)) == {"error"}

    # The top level's Gibbs mass, about 1e-310, is subnormal, and so is the
    # resource's first elbow ordinate y1: x1/y1 overflows.
    SUBNORMAL_GIBBS = {
        "energies": [0.6931471805599453, 0.6931471805599453, 713.8013788281542],
        "beta": 1.0,
        "populations": [0.3333333333333333] * 3,
    }

    @pytest.mark.parametrize(
        "energies, expected",
        [([0, 720], 0.0101341053065284226), ([0, 360, 720], None)],
    )
    def test_subnormal_gibbs_resource_heats(self, capsys, tmp_path, energies, expected):
        state, target = tmp_path / "state.json", tmp_path / "target.json"
        state.write_text(json.dumps(self.SUBNORMAL_GIBBS))
        target.write_text(json.dumps({"energies": energies, "beta": 1.0}))
        code, out, err = _run(capsys, ["heat", "-s", str(state), "-t", str(target)])
        assert (code, err) == (0, "")
        doc = json.loads(out, parse_constant=_reject_constant)
        assert isinstance(doc["beta_min"], float) and 0.0 < doc["beta_min"] < 1.0
        assert all(0.0 <= row["alpha"] <= 1.0 for row in doc["per_condition"])
        if expected is not None:
            assert doc["beta_min"] == pytest.approx(expected, rel=1e-13, abs=0.0)

    def test_subnormal_gibbs_resource_monotones(self, capsys, tmp_path):
        state = tmp_path / "state.json"
        state.write_text(json.dumps(self.SUBNORMAL_GIBBS))
        code, out, err = _run(capsys, ["monotones", "-s", str(state), "-E", "720"])
        assert (code, err) == (0, "")
        (entry,) = json.loads(out, parse_constant=_reject_constant)["entries"]
        assert entry["heating"] == pytest.approx(1.0 - 0.0101341053065284226, rel=1e-13)

    # A target whose first elbow ordinate, 2.5e-311, is subnormal too: its
    # odds (1 - y1)/y1 overflow. From SUBNORMAL_GIBBS, whose slope x1/y1
    # overflows, the source reaches 1/12 there, short of the target's 1/4.
    SUBNORMAL_TARGET = {
        "energies": [715.187673189274, 0.6931471805599453, 0.6931471805599453],
        "beta": 1.0,
        "populations": [0.25, 0.375, 0.375],
    }

    def test_subnormal_segment_convert(self, capsys, tmp_path):
        source, target = tmp_path / "source.json", tmp_path / "target.json"
        source.write_text(json.dumps(self.SUBNORMAL_GIBBS))
        target.write_text(json.dumps(self.SUBNORMAL_TARGET))
        argv = ["convert", "--from", str(source), "--to", str(target)]
        code, out, err = _run(capsys, argv)
        assert (code, err) == (3, "")
        doc = json.loads(out, parse_constant=_reject_constant)
        witness = doc.pop("witness")
        assert doc == {"convertible": False}
        assert (witness["k"], witness["kind"]) == (1, "heating")
        assert witness["E"] == pytest.approx(715.1876731892742, rel=1e-15)
        assert witness["lhs"] == pytest.approx(0.9966471803658117, rel=1e-13)
        assert witness["rhs"] == pytest.approx(0.998463882516642, rel=1e-13)
        assert witness["lhs"] < witness["rhs"]

    def test_subnormal_segment_critical_energy(self, capsys, tmp_path):
        target = tmp_path / "target.json"
        target.write_text(json.dumps(self.SUBNORMAL_TARGET))
        code, out, err = _run(capsys, ["critical-energies", "-s", str(target)])
        assert (code, err) == (0, "")
        doc = json.loads(out, parse_constant=_reject_constant)
        (entry,) = doc["entries"]
        assert (entry["k"], entry["kind"]) == (1, "heating")
        assert entry["E"] == pytest.approx(715.1876731892742, rel=1e-15)

    @pytest.mark.parametrize(
        "command, key, value", [("cool", "beta_max", "+inf"), ("heat", "beta_min", 1.0)]
    )
    def test_gap_overflows_to_inf(self, capsys, tmp_path, resource_file, command, key,
                                  value):
        # The gap 2e308 rounds to inf: the target's excited mass is 0 at beta,
        # so cooling is unbounded and heating keeps beta.
        target = tmp_path / "inf.json"
        target.write_text(json.dumps({"energies": [-1e308, 1e308], "beta": 1.0}))
        code, out, err = _run(capsys, [command, "-s", resource_file, "-t", str(target)])
        assert (code, err) == (0, "")
        assert json.loads(out)[key] == value


class TestSubcommands:
    def test_main_exits_with_the_run_code(self, capsys, monkeypatch, resource_file, target_file):
        # the console script's entry point: argv from sys.argv, code by SystemExit
        argv = ["athermal", "cool", "-s", resource_file, "-t", target_file]
        monkeypatch.setattr(sys, "argv", argv)
        with pytest.raises(SystemExit) as exc:
            cli.main()
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 1
        assert json.loads(out)["beta_max"] == pytest.approx(math.log(9.0) / LN4, rel=1e-12)

    def test_monotones_at_tiny_gap(self, capsys, resource_file):
        code, out, _ = _run(capsys, ["monotones", "-s", resource_file, "-E", "1e-300"])
        assert code == 0
        (entry,) = json.loads(out)["entries"]
        assert entry["cooling"] == pytest.approx(math.log(9.0 / 7.0) / 1e-300)

    def test_monotones_at_far_gap(self, capsys, resource_file):
        code, out, _ = _run(capsys, ["monotones", "-s", resource_file, "-E", "800"])
        assert code == 0
        (entry,) = json.loads(out)["entries"]
        assert 0.0 < entry["heating"] < 1e-3

    def test_cool_hand_value(self, capsys, resource_file, target_file):
        code, out, _ = _run(capsys, ["cool", "-s", resource_file, "-t", target_file])
        assert code == 0
        doc = json.loads(out)
        assert doc["beta_max"] == pytest.approx(math.log(9.0) / LN4, rel=1e-12)
        assert doc["per_condition"][0]["alpha"] == pytest.approx(0.9)

    def test_heat_hand_value(self, capsys, resource_file, target_file):
        code, out, _ = _run(capsys, ["heat", "-s", resource_file, "-t", target_file])
        assert code == 0
        doc = json.loads(out)
        assert doc["beta_min"] == pytest.approx(math.log(0.775 / 0.225) / LN4)

    def test_cool_infinite_tag(self, capsys, tmp_path, target_file):
        pure = tmp_path / "pure.json"
        pure.write_text(
            json.dumps(
                {"energies": [0.0, LN4], "beta": 1.0, "populations": [1.0, 0.0]}
            )
        )
        code, out, _ = _run(capsys, ["cool", "-s", str(pure), "-t", target_file])
        assert code == 0
        assert json.loads(out)["beta_max"] == "+inf"

    def test_overlap(self, capsys, resource_file, target_file):
        code, out, _ = _run(
            capsys, ["overlap", "-s", resource_file, "-t", target_file]
        )
        assert code == 0
        assert json.loads(out)["o_max"] == pytest.approx(0.9)

    def test_overlap_reads_ground_degeneracy_from_target(self, capsys, tmp_path):
        state = tmp_path / "state.json"
        state.write_text(json.dumps(
            {"energies": [0, 0, 1], "beta": 1.0, "populations": [0.6, 0.3, 0.1]}))
        target = tmp_path / "target.json"
        target.write_text(json.dumps({"energies": [0, 0, 1], "beta": 1.0}))
        code, out, err = _run(capsys, ["overlap", "-s", str(state), "-t", str(target)])
        assert code == 0, err
        doc = json.loads(out)
        assert doc["ground_degeneracy"] == 2
        resource, _ = load_state(str(state))
        assert doc["o_max"] == tempbounds.max_ground_overlap(
            resource, core.GibbsContext((0.0, 0.0, 1.0), 1.0), 2)
        # the option is gone: the count is the target's, never restated
        code, out, err = _run(capsys, ["overlap", "-s", str(state), "-t", str(target),
                                       "--ground-degeneracy", "2"])
        assert _input_error(code, err)["code"] == "UsageError"
        assert out == ""

    def test_convert_feasible_exit_0(self, capsys, resource_file, target_file):
        code, out, _ = _run(
            capsys, ["convert", "--from", resource_file, "--to", target_file]
        )
        assert code == 0
        assert json.loads(out)["convertible"] is True

    def test_convert_infeasible_exit_3_with_witness(
        self, capsys, resource_file, target_file
    ):
        code, out, _ = _run(
            capsys, ["convert", "--from", target_file, "--to", resource_file]
        )
        assert code == 3
        doc = json.loads(out)
        assert doc["convertible"] is False
        assert doc["witness"]["kind"] in ("cooling", "heating")
        assert doc["witness"]["lhs"] < doc["witness"]["rhs"]

    def test_convert_witness_at_degenerate_elbow(self, capsys, tmp_path):
        # The target's only interior elbow has ordinate 1/2, so it has no
        # critical gap: the witness is a perturbed gap of about 4e-9/beta.
        energies = [0.0, math.log(2.0), math.log(2.0)]
        paths = {}
        for name, pops in (("free", [0.5, 0.25, 0.25]), ("hot", [0.75, 0.125, 0.125])):
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(
                json.dumps({"energies": energies, "beta": 1.0, "populations": pops})
            )
        code, out, _ = _run(
            capsys, ["convert", "--from", str(paths["free"]), "--to", str(paths["hot"])]
        )
        assert code == 3
        witness = json.loads(out)["witness"]
        assert witness is not None
        assert witness["k"] == 1
        assert witness["E"] == pytest.approx(4e-9, rel=1e-6)
        assert witness["lhs"] < witness["rhs"]

    def test_convert_misses_elbow_at_half(self, capsys, tmp_path):
        # The source's elbows at ordinates 1/2 -+ 1e-9 pass the target at
        # 1/2 -+ 1e-9 but miss its elbow at 1/2 itself by 5e-10: not
        # convertible, with a heating witness beside that elbow.
        d = 1e-9
        paths = {}
        for name, g, pops in (
            ("from", (0.5 - d, 2 * d, 0.5 - d), [0.75 - 1.5 * d, 2 * d, 0.25 - 0.5 * d]),
            ("to", (0.5, 0.25, 0.25), [0.75, 0.125, 0.125]),
        ):
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(json.dumps({
                "energies": [-math.log(x) for x in g], "beta": 1.0, "populations": pops,
            }))
        code, out, _ = _run(
            capsys, ["convert", "--from", str(paths["from"]), "--to", str(paths["to"])]
        )
        assert code == 3
        witness = json.loads(out)["witness"]
        assert (witness["k"], witness["kind"]) == (1, "heating")
        assert witness["E"] == pytest.approx(2e-9, rel=1e-6)
        assert witness["lhs"] < witness["rhs"]

    def test_convert_witness_is_failed_check(self, capsys, tmp_path):
        """Seeded pairs, dim 2-8, some targets on uniform g (elbows at
        ordinate 1/2), some masses down to 1e-15: every False verdict names
        the first failed check, the monotones there give lhs < rhs, and
        `convert` prints exactly that witness."""
        rng = np.random.default_rng(7)
        false_verdicts = perturbed = 0
        for i in range(240):
            paths = []
            beta = float(rng.uniform(0.5, 2.0))
            for side in ("from", "to"):
                dim = int(rng.integers(2, 9))
                uniform = side == "to" and i % 4 == 0
                energies = np.zeros(dim) if uniform else rng.uniform(0.0, 3.0, dim)
                if i % 3 == 0:  # every level but one carries a tiny mass
                    small = rng.dirichlet(np.ones(dim - 1)) * 10.0 ** rng.uniform(-15, -1)
                    pops = np.append(small, 1.0 - small.sum())
                else:
                    pops = rng.dirichlet(np.ones(dim))
                paths.append(tmp_path / f"{side}{i}.json")
                paths[-1].write_text(json.dumps({
                    "energies": energies.tolist(), "beta": beta,
                    "populations": rng.permutation(pops).tolist(),
                }))
            (source, _), (target, _) = (load_state(str(p)) for p in paths)
            failed = monotones._failed_check(source, target, beta)
            assert (failed is None) is convertible_via_monotones(source, target, beta)
            code, out, _ = _run(
                capsys, ["convert", "--from", str(paths[0]), "--to", str(paths[1])]
            )
            assert code == (0 if failed is None else 3)
            if failed is None:
                continue
            false_verdicts += 1
            k, E, kind = failed
            perturbed += E < 1e-8  # a gap beside an elbow at 1/2
            mono = cooling_monotone if kind == "cooling" else heating_monotone
            lhs, rhs = mono(source, beta, E), mono(target, beta, E)
            assert lhs < rhs
            assert json.loads(out)["witness"] == {
                "E": E, "k": k, "kind": kind,
                "lhs": "+inf" if lhs == math.inf else lhs,
                "rhs": "+inf" if rhs == math.inf else rhs,
            }
        assert false_verdicts > 100 and perturbed > 0

    def test_monotones_lists_each_gap(self, capsys, resource_file):
        code, out, _ = _run(
            capsys, ["monotones", "-s", resource_file, "-E", "1.0", "-E", "2.0"]
        )
        assert code == 0
        doc = json.loads(out)
        assert [e["E"] for e in doc["entries"]] == [1.0, 2.0]
        assert all(e["cooling"] >= 0.0 for e in doc["entries"])

    def test_critical_energies(self, capsys, resource_file):
        code, out, _ = _run(capsys, ["critical-energies", "-s", resource_file])
        assert code == 0
        doc = json.loads(out)
        assert doc["entries"][0]["kind"] == "cooling"
        assert doc["entries"][0]["E"] == pytest.approx(LN4)

    def test_critical_energies_overflowing_gap_is_strict_json(self, capsys, tmp_path):
        # logit(y) / beta overflows at beta = 1e-320: each E is infinite,
        # and printed as "+inf" like every other infinity, not as Infinity
        state = tmp_path / "state.json"
        state.write_text(
            json.dumps(
                {"energies": [0, 1, 2], "beta": 1e-320, "populations": [0.7, 0.2, 0.1]}
            )
        )
        code, out, _ = _run(capsys, ["critical-energies", "-s", str(state)])
        assert code == 0

        def reject(name):
            raise ValueError(f"not JSON: {name}")

        doc = json.loads(out, parse_constant=reject)
        assert [e["E"] for e in doc["entries"]] == ["+inf", "+inf"]

    def test_convert_witness_at_overflowing_gap(self, capsys, tmp_path):
        # the failed check's gap logit(y) / beta overflows at beta = 1e-320:
        # the witness names it "+inf", and no monotone is taken at it
        paths = []
        for name, pops in (("from", [0.5, 0.3, 0.2]), ("to", [0.9, 0.05, 0.05])):
            path = tmp_path / f"{name}.json"
            path.write_text(
                json.dumps({"energies": [0, 1, 2], "beta": 1e-320, "populations": pops})
            )
            paths.append(str(path))
        code, out, err = _run(capsys, ["convert", "--from", paths[0], "--to", paths[1]])
        assert (code, err) == (3, "")

        def reject(name):
            raise ValueError(f"not JSON: {name}")

        doc = json.loads(out, parse_constant=reject)
        assert doc == {
            "convertible": False, "witness": {"E": "+inf", "k": 1, "kind": "heating"},
        }

    def test_eset_two_interval_pattern(self, capsys, tmp_path):
        state = tmp_path / "witness.json"
        state.write_text(
            json.dumps(
                {
                    "energies": [0.0, math.log(0.045 / 0.955)],
                    "beta": 1.0,
                    "populations": [0.2, 0.8],
                }
            )
        )
        code, out, _ = _run(
            capsys,
            ["eset", "-s", str(state), "--beta-tilde", "0.5", "--e-max", "10"],
        )
        assert code == 0
        doc = json.loads(out)
        assert len(doc["intervals"]) == 2

    def test_eset_finds_a_gap_narrower_than_a_grid_cell(self, capsys, tmp_path):
        state = tmp_path / "narrow.json"
        state.write_text(
            json.dumps(
                {
                    "energies": [0.0, 0.0],
                    "beta": 1.0,
                    "populations": [0.9961089494163424, 0.0038910505836575876],
                }
            )
        )
        code, out, _ = _run(capsys, ["eset", "-s", str(state), "--beta-tilde", "1.5"])
        assert code == 0
        (lo1, hi1), (lo2, hi2) = json.loads(out)["intervals"]
        assert lo1 == 0.0 and hi1 == pytest.approx(9.7119822143, abs=1e-9)
        assert lo2 == pytest.approx(22.7735055533, abs=1e-9)
        assert hi2 == pytest.approx(-math.log(1e-10))

    @pytest.mark.parametrize("numpy_from", [core._NUMPY_MIN_DIM, 1])
    def test_eset_elbows_sharing_an_ordinate(self, capsys, tmp_path, monkeypatch, numpy_from):
        # levels 0 and 1 swapped, level 2 thermal at E = 50: its Gibbs mass is
        # below an ulp of the prefix sum, so its elbow would repeat the ordinate
        # before it; from numpy_from = 1 levels up the boundary is arrays
        for module in (core, majorization):
            monkeypatch.setattr(module, "_NUMPY_MIN_DIM", numpy_from)
        g = np.exp(-np.array([0.0, 1.0, 50.0]))
        g /= g.sum()
        state = tmp_path / "swapped.json"
        state.write_text(
            json.dumps(
                {
                    "energies": [0.0, 1.0, 50.0],
                    "beta": 1.0,
                    "populations": [g[1], g[0], g[2]],
                }
            )
        )
        code, out, _ = _run(capsys, ["eset", "-s", str(state), "--beta-tilde", "0.5"])
        assert code == 0
        ((lo, hi),) = json.loads(out)["intervals"]
        assert lo == 0.0 and hi == pytest.approx(2.3557131812, abs=1e-9)

    def test_gap_example_round_trip(self, capsys, tmp_path):
        out_path = tmp_path / "constructed.json"
        code, out, _ = _run(
            capsys, ["gap-example", "--a", "0.5", "--out", str(out_path)]
        )
        assert code == 0
        emitted = json.loads(out)
        assert emitted == json.loads(out_path.read_text())
        code2, out2, _ = _run(
            capsys,
            ["eset", "-s", str(out_path), "--beta-tilde", "0.5", "--grid", "20000"],
        )
        assert code2 == 0
        assert len(json.loads(out2)["intervals"]) >= 2

    @pytest.mark.parametrize("a", ["1.0000000001", "0.9999999999"])
    def test_gap_example_near_one_ends(self, capsys, tmp_path, a):
        # In a child process with a timeout: at these ratios the witness
        # construction's root solver once ran without end.
        out_path = tmp_path / "witness.json"
        src = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run(
            [sys.executable, "-m", "athermal.cli", "gap-example", "--a", a,
             "--out", str(out_path)],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == json.loads(out_path.read_text())
        code, out, _ = _run(capsys, ["eset", "-s", str(out_path), "--beta-tilde", a])
        assert code == 0
        assert len(json.loads(out)["intervals"]) == 2

    def test_oracle_exit_codes(self, capsys, resource_file, target_file):
        code, out, _ = _run(
            capsys, ["oracle", "--from", resource_file, "--to", target_file]
        )
        assert code == 0
        assert json.loads(out)["feasible"] is True
        code, out, _ = _run(
            capsys, ["oracle", "--from", target_file, "--to", resource_file]
        )
        assert code == 3
        assert json.loads(out)["feasible"] is False

    def test_curve_points(self, capsys):
        code, out, _ = _run(capsys, ["curve", "--a", "2.0", "--grid", "4"])
        assert code == 0
        doc = json.loads(out)
        assert doc["points"][-1] == [1.0, 0.5, 0.5]
        assert len(doc["points"]) == 4


class TestOutputContracts:
    def test_deterministic_output(self, capsys, resource_file, target_file):
        _, out1, _ = _run(capsys, ["cool", "-s", resource_file, "-t", target_file])
        _, out2, _ = _run(capsys, ["cool", "-s", resource_file, "-t", target_file])
        assert out1 == out2

    def test_parser_built_once(self, capsys, resource_file, target_file):
        cli._build_parser.cache_clear()
        _run(capsys, ["cool", "-s", resource_file, "-t", target_file])
        _run(capsys, ["critical-energies", "-s", resource_file])
        assert cli._build_parser.cache_info().misses == 1

    def test_cool_calls_module_beta_max(
        self, capsys, monkeypatch, resource_file, target_file
    ):
        """The solver is looked up at call time, so a rebinding of
        `cli.beta_max` (as a tracer does) is what `cool` calls."""
        argv = ["cool", "-s", resource_file, "-t", target_file]
        _, expected, _ = _run(capsys, argv)
        calls = []

        def spy(resource, target):
            calls.append(target)
            return tempbounds.beta_max(resource, target)

        monkeypatch.setattr(cli, "beta_max", spy)
        code, out, _ = _run(capsys, argv)
        assert code == 0 and out == expected
        assert len(calls) == 1

    def test_usage_error_leaves_parser_usable(self, capsys, resource_file, target_file):
        argv = ["cool", "-s", resource_file, "-t", target_file]
        _, expected, _ = _run(capsys, argv)
        code, out, err = _run(capsys, ["cool", "-s", resource_file, "--bogus"])
        assert _input_error(code, err)["code"] == "UsageError" and out == ""
        assert _run(capsys, argv) == (0, expected, "")

    def test_infinite_tags_byte_for_byte(self, capsys, tmp_path):
        resource = tmp_path / "resource.json"
        resource.write_text(json.dumps(
            {"energies": [0.0, math.log(9.0)], "beta": 1.0, "populations": [0.0, 1.0]}
        ))
        target = tmp_path / "target.json"
        target.write_text(json.dumps({"energies": [0.0, 1.0], "beta": 1.0}))
        for argv, expected in (
            (["cool"], '{"beta": 1.0, "beta_max": "+inf", "per_condition": '
                       '[{"alpha": 1.0, "beta": "+inf", "k": 1}]}\n'),
            (["heat"], '{"beta": 1.0, "beta_min": "-inf", "per_condition": '
                       '[{"alpha": 1.0, "beta": "-inf", "k": 1}]}\n'),
        ):
            code, out, _ = _run(capsys, argv + ["-s", str(resource), "-t", str(target)])
            assert (code, out) == (0, expected)
        code, out, _ = _run(capsys, ["monotones", "-s", str(resource), "-E", "1"])
        assert (code, out) == (0, '{"beta": 1.0, "entries": '
                                  '[{"E": 1.0, "cooling": "+inf", "heating": "+inf"}]}\n')

    def test_eset_grid_default_is_the_library_default(self):
        args = cli._build_parser().parse_args(["eset", "-s", "x", "--beta-tilde", "1"])
        assert args.grid == esets.DEFAULT_N_GRID

    def test_keys_sorted(self, capsys, resource_file, target_file):
        _, out, _ = _run(capsys, ["cool", "-s", resource_file, "-t", target_file])
        keys = list(json.loads(out).keys())
        assert keys == sorted(keys)

    def test_svg_side_file(self, capsys, tmp_path, resource_file, target_file):
        svg = tmp_path / "plot.svg"
        code, _, _ = _run(
            capsys,
            [
                "cool", "-s", resource_file, "-t", target_file,
                "--out", str(svg), "--format", "svg",
            ],
        )
        assert code == 0
        text = svg.read_text()
        assert text.startswith("<svg")
        assert 'viewBox="0 0 600 600"' in text
        assert "polyline" in text

    def test_csv_side_file_polyline_points(self, capsys, tmp_path):
        # 2-elbow state -> 4-point polyline
        state = tmp_path / "three.json"
        state.write_text(
            json.dumps(
                {
                    "energies": [0.0, math.log(1.5), math.log(2.5)],
                    "beta": 1.0,
                    "populations": [0.7, 0.2, 0.1],
                }
            )
        )
        csv = tmp_path / "plot.csv"
        code, _, _ = _run(
            capsys,
            [
                "cool", "-s", str(state), "-t", str(state),
                "--out", str(csv), "--format", "csv",
            ],
        )
        assert code == 0
        rows = csv.read_text().strip().splitlines()
        assert all(row.startswith("resource,") for row in rows)
        assert len(rows) == 4

    def test_eset_csv_rows(self, capsys, tmp_path, resource_file):
        csv = tmp_path / "scan.csv"
        code, out, _ = _run(
            capsys,
            [
                "eset", "-s", resource_file, "--beta-tilde", "2.0",
                "--e-max", "5", "--grid", "500",
                "--out", str(csv), "--format", "csv",
            ],
        )
        assert code == 0
        rows = [row.split(",") for row in csv.read_text().strip().splitlines()]
        assert len(rows) == 500
        energies = [float(E) for E, _, _ in rows]
        assert energies == sorted(set(energies))
        intervals = json.loads(out)["intervals"]
        for E, member in zip(energies, (m for _, _, m in rows)):
            # the first interval may end at e_max, which the last row
            # reproduces up to rounding
            inside = any(lo <= E <= hi * (1.0 + 1e-15) for lo, hi in intervals)
            assert member == str(int(inside))
        assert {m for _, _, m in rows} == {"0", "1"}

    def test_eset_csv_same_temperature(self, capsys, tmp_path, resource_file):
        """At beta~ = beta the curve is the diagonal x = y: every row is a
        member, at clearance alpha(y) - y, which is 0 only for a free state."""
        free = tmp_path / "free.json"
        free.write_text(
            json.dumps({"energies": [0.0, 0.0], "beta": 1.0, "populations": [0.5, 0.5]})
        )
        scans = {}
        for name, path in (("resource", resource_file), ("free", str(free))):
            csv = tmp_path / f"{name}.csv"
            code, _, _ = _run(
                capsys,
                [
                    "eset", "-s", path, "--beta-tilde", "1.0", "--grid", "100",
                    "--out", str(csv), "--format", "csv",
                ],
            )
            assert code == 0
            rows = csv.read_text().strip().splitlines()
            assert len(rows) == 100
            assert all(row.endswith(",1") for row in rows)
            state, ctx = load_state(path)
            boundary = majorization.compute_elbows(state)
            _, w_min, step = esets._grid_span(ctx.beta, None, 100)
            ws = (w_min + step * np.arange(100))[::-1]  # ascending in E
            ys = ws / (1.0 + ws)
            clearance = np.interp(ys, boundary.ys, boundary.xs) - ys
            assert [float(row.split(",")[1]) for row in rows] == clearance.tolist()
            scans[name] = rows
        assert all(row.endswith(",0,1") for row in scans["free"])
        assert not any(row.endswith(",0,1") for row in scans["resource"])


# The side-file formats each subcommand writes, its default first.
_SIDE_FORMATS = {
    "cool": ("svg", "csv"),
    "heat": ("svg", "csv"),
    "overlap": ("svg", "csv"),
    "convert": ("svg", "csv"),
    "oracle": ("svg", "csv"),
    "monotones": ("svg", "csv"),
    "critical-energies": (),
    "eset": ("csv", "svg"),
    "gap-example": ("json", "csv", "svg"),
    "curve": ("csv",),
}


def _side_argv(command, resource, target):
    return {
        "cool": ["cool", "-s", resource, "-t", target],
        "heat": ["heat", "-s", resource, "-t", target],
        "overlap": ["overlap", "-s", resource, "-t", target],
        "convert": ["convert", "--from", resource, "--to", target],
        "oracle": ["oracle", "--from", resource, "--to", target],
        "monotones": ["monotones", "-s", resource, "-E", "1.0"],
        "critical-energies": ["critical-energies", "-s", resource],
        "eset": ["eset", "-s", resource, "--beta-tilde", "2.0", "--grid", "100"],
        "gap-example": ["gap-example", "--a", "0.5"],
        "curve": ["curve", "--a", "2.0", "--grid", "4"],
    }[command]


class TestSideFiles:
    @pytest.mark.parametrize("fmt", [None, "json", "csv", "svg", "png"])
    @pytest.mark.parametrize("command", list(_SIDE_FORMATS))
    def test_out_writes_or_exits_2(
        self, capsys, tmp_path, resource_file, target_file, command, fmt
    ):
        """--out writes a non-empty file in every format the subcommand
        offers (the first when --format is absent); any other format, or
        --out on a subcommand without side files, is a usage error."""
        side = tmp_path / "side"
        argv = _side_argv(command, resource_file, target_file) + ["--out", str(side)]
        if fmt is not None:
            argv += ["--format", fmt]
        code, _, err = _run(capsys, argv)
        formats = _SIDE_FORMATS[command]
        if formats and (fmt is None or fmt in formats):
            assert code == 0, err
            assert side.stat().st_size > 0
        else:
            assert _input_error(code, err)["code"] == "UsageError"
            assert not side.exists()

    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    @pytest.mark.parametrize(
        "command, fmt",
        [(c, f) for c, formats in _SIDE_FORMATS.items() for f in formats],
    )
    def test_unwritable_out_exits_2(
        self, capsys, tmp_path, resource_file, target_file, command, fmt, where
    ):
        """A side file that cannot be written is an input error: one JSON
        error, nothing on stdout, and no file left behind."""
        side_dir = tmp_path / "sides"
        if where == "directory":
            side_dir.mkdir()
            side = side_dir
        else:
            side = side_dir / "side"
        argv = _side_argv(command, resource_file, target_file)
        before = sorted(tmp_path.rglob("*"))
        code, out, err = _run(capsys, argv + ["--out", str(side), "--format", fmt])
        error = _input_error(code, err)
        assert error["code"] == "AthermalError"
        assert error["message"].startswith(f"cannot write {side}: ")
        assert out == ""
        assert sorted(tmp_path.rglob("*")) == before


def _reject_constant(token):
    raise ValueError(f"non-JSON token {token} on stdout")


# Pools for the fuzz test. Grids above esets.MAX_GRID are refused before
# anything is allocated, so huge ones are safe to draw.
_FUZZ_FLOATS = [
    "1", "0.5", "2", "3.7", "0", "-1", "nan", "inf", "-inf", "1e-300",
    "1e300", "-1e300", "1e-5", "800", "5e-324", "abc", "", "--", "1,5",
]
_FUZZ_INTS = [
    "0", "-3", "1", "2", "4", "50", "100", "150", "1000000000", str(2**62),
    "1.5", "abc",
]
_FUZZ_STATES = [
    {"energies": [0.0, LN4], "beta": 1.0, "populations": [0.9, 0.1]},
    {"energies": [0.0, 1.0, 2.5], "beta": 0.7, "populations": [0.2, 0.5, 0.3]},
    {"energies": [0.0, LN4], "beta": 1.0},
    {"energies": [0.0, 0.0], "beta": 1.0, "populations": [0.5, 0.5]},
    {"energies": [0.0, 5000.0], "beta": 1.0, "populations": [0.3, 0.7]},
    {"energies": [0.0, 1e-300], "beta": 1e300, "populations": [0.6, 0.4]},
    {"energies": [0.0, 1.0], "beta": 1e-300, "populations": [1.0, 0.0]},
    {"energies": [0.0, 1.0], "beta": "nan", "populations": [0.5, 0.5]},
    {"energies": [0.0, 1.0], "beta": -1.0, "populations": [0.5, 0.5]},
    {"energies": [0.0, 1.0], "beta": 1.0, "populations": [0.7, 0.7]},
    {"energies": [0.0, 1.0], "beta": 1.0, "populations": [-0.5, 1.5]},
    {"energies": [0.0, 1.0], "beta": 1.0, "populations": [0.5]},
    {"energies": [0.0, 1.0], "beta": 1.0, "populations": ["x", 0.5]},
    {"energies": [0.0, "inf"], "beta": 1.0, "populations": [0.5, 0.5]},
    {"energies": [], "beta": 1.0},
    {"energies": [0.0], "beta": 1.0, "populations": [1.0]},
    {"energies": {"a": 1}, "beta": 1.0},
    {"beta": 1.0},
    {"energies": [0.0, 1.0], "beta": 1.0, "density_matrix": [[1, 2], [3, 4]]},
    {"energies": [0.0, 1.0], "beta": 1.0, "density_matrix": "rho"},
    [0.0, 1.0],
    "not json at all {",
]
_FUZZ_COMMANDS = {
    "cool": [("-s", "state"), ("-t", "state")],
    "heat": [("-s", "state"), ("-t", "state")],
    "overlap": [("-s", "state"), ("-t", "state")],
    "convert": [("--from", "state"), ("--to", "state")],
    "oracle": [("--from", "state"), ("--to", "state"), ("--tol", "float")],
    "monotones": [("-s", "state"), ("-E", "float"), ("-E", "float")],
    "critical-energies": [("-s", "state")],
    "eset": [("-s", "state"), ("--beta-tilde", "float"), ("--e-max", "float"),
             ("--grid", "int")],
    "gap-example": [("--a", "float")],
    "curve": [("--a", "float"), ("--grid", "int")],
}


class TestFuzz:
    def test_random_malformed_invocations(self, capsys, tmp_path):
        """Every invocation ends in a documented exit code: one JSON error on
        stderr and nothing on stdout when it fails, strict JSON (no
        NaN/Infinity) on stdout and nothing on stderr when not."""
        states = []
        for i, doc in enumerate(_FUZZ_STATES):
            path = tmp_path / f"state{i}.json"
            path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
            states.append(str(path))
        states.append(str(tmp_path / "missing.json"))
        pools = {"state": states, "float": _FUZZ_FLOATS, "int": _FUZZ_INTS}
        # a writable side file, one in a missing directory, and a directory
        sides = [tmp_path / "side", tmp_path / "no_such_dir" / "side", tmp_path]
        rng = random.Random(1)
        for _ in range(600):
            command = rng.choice([*_FUZZ_COMMANDS, "no-such-command"])
            argv = [command]
            for flag, kind in _FUZZ_COMMANDS.get(command, []):
                if rng.random() < 0.9:
                    argv += [flag, rng.choice(pools[kind])]
            if rng.random() < 0.2:
                argv += ["--out", str(rng.choice(sides)),
                         "--format", rng.choice(["json", "csv", "svg", "png"])]
            if rng.random() < 0.05:
                argv.append(rng.choice(["--bogus", "extra", "-x"]))
            code, out, err = _run(capsys, argv)
            assert code in (0, 2, 3, 4), argv
            if code in (0, 3):
                json.loads(out, parse_constant=_reject_constant)
                assert err == "", argv
            else:
                assert set(json.loads(err)) == {"error"}, argv
                assert out == "", argv

    def test_help_exits_0(self, capsys):
        code, out, _ = _run(capsys, ["eset", "--help"])
        assert code == 0
        assert "--beta-tilde" in out
