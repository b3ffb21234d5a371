"""File-driven command line frontend.

One subcommand per computation: cool, heat, overlap, convert, monotones,
critical-energies, eset, gap-example, oracle, curve. Each handler writes
its side file, if --out is given (boundary plots as CSV / SVG; scans as
CSV), and returns its exit code and document; `run` is the one writer of
stdout and stderr. A result goes to stdout as a single JSON document (sorted
keys; infinities as "+inf"/"-inf"), an error to stderr as
{"error": {"code", "message"}}, and nothing else is printed. State files are
read on every call; the 128 latest (path, bytes) pairs keep their validated state.

Exit codes: 0 ok, 2 invalid input, 3 infeasible request, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import math
import sys
from typing import Sequence

from .core import AthermalityState, ExtendedBeta, GibbsContext, validate_state
from .errors import AthermalError, BisectionError, DimensionMismatch, InvalidGrid
from .esets import (
    DEFAULT_N_GRID,
    MAX_GRID,
    _scan,
    construct_gap_example,
    fa_point,
    gap_set,
)
from .majorization import compute_elbows
from .monotones import (
    _failed_check,
    cooling_monotone,
    critical_energies,
    heating_monotone,
)
from .oracle import DEFAULT_TOL, lp_feasible
from .tempbounds import beta_max, beta_min, max_ground_overlap
from .thermo import DensityMatrix, gibbs_vector, to_quasiclassical

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INFEASIBLE = 3
EXIT_NUMERIC = 4


class UsageError(AthermalError):
    """A command line that argparse rejects."""


def _dumps(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True) + "\n"


def _read(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise AthermalError(f"cannot read {path}: {exc}") from exc


def _number(path: str, key: str, value) -> float:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:  # an integer beyond the float range
            pass
    raise AthermalError(f"{path}: {key!r} must hold numbers, got {value!r}")


def _numbers(path: str, key: str, value) -> list[float]:
    if not isinstance(value, list):
        raise AthermalError(f"{path}: {key!r} must be a list, got {value!r}")
    return [_number(path, key, x) for x in value]


def load_target(path: str) -> GibbsContext:
    """Read a target file: only its energies and beta are used, so its Gibbs
    vector need not be full rank."""
    return _load(path, _read(path), "target")


def load_state(path: str) -> tuple[AthermalityState, GibbsContext]:
    """Read a state file: energies + beta, plus populations xor a matrix."""
    return _load(path, _read(path), "state")


@functools.lru_cache
def _load(path: str, data: bytes, kind: str):  # load_target or load_state on bytes
    try:  # decoded as open(path, encoding="utf-8") does, with universal newlines
        doc = json.load(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # not UTF-8 or JSON; too deep
        raise AthermalError(f"cannot read {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise AthermalError(f"{path}: expected a JSON object")
    if "energies" not in doc or "beta" not in doc:
        raise AthermalError(f"{path}: 'energies' and 'beta' are required")
    ctx = GibbsContext(
        tuple(_numbers(path, "energies", doc["energies"])),
        _number(path, "beta", doc["beta"]),
    )
    if kind == "target":
        return ctx
    has_pop = "populations" in doc
    has_dm = "density_matrix" in doc
    if has_pop and has_dm:
        raise AthermalError(f"{path}: give populations or density_matrix, not both")
    if has_dm:
        import numpy as np

        raw = doc["density_matrix"]
        num = functools.partial(_number, path, "density_matrix")
        try:
            m = np.array(
                [[complex(num(re), num(im)) for re, im in row] for row in raw],
                dtype=complex,
            )
        except (TypeError, ValueError) as exc:
            raise AthermalError(
                f"{path}: density_matrix must be nested [re, im] pairs"
            ) from exc
        if m.shape != (ctx.dim, ctx.dim):
            raise DimensionMismatch(
                f"{path}: density_matrix has shape {m.shape}, expected "
                f"{ctx.dim}x{ctx.dim}"
            )
        perm = list(ctx.permutation)
        rho = DensityMatrix(m[np.ix_(perm, perm)])
        return to_quasiclassical(rho, ctx), ctx
    if has_pop:
        populations = ctx.apply_permutation(
            _numbers(path, "populations", doc["populations"])
        )
    g = gibbs_vector(ctx.energies, ctx.beta).entries
    return validate_state(populations if has_pop else g, g), ctx  # or the free state


def render_boundary(
    states: Sequence[AthermalityState], fmt: str, labels: Sequence[str]
) -> bytes:
    """Boundary polylines of the states, one per label: CSV for "csv", else SVG."""
    boundaries = [compute_elbows(s) for s in states]
    if fmt == "csv":
        rows = []
        for label, b in zip(labels, boundaries):
            rows.extend(f"{label},{x:.17g},{y:.17g}\n" for x, y in b.elbows)
        return "".join(rows).encode()

    def px(x: float, y: float) -> str:
        return f"{x * 600.0:.2f},{(1.0 - y) * 600.0:.2f}"

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b"]
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 600 600">\n',
        '<rect width="600" height="600" fill="white"/>\n',
        f'<line x1="0" y1="600" x2="600" y2="0" stroke="#999" '
        f'stroke-dasharray="6,4" stroke-width="1"/>\n',
    ]
    for i, b in enumerate(boundaries):
        pts = " ".join(px(x, y) for x, y in b.elbows)
        color = colors[i % len(colors)]
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="2"/>\n'
        )
    parts.append("</svg>\n")
    return "".join(parts).encode()


def _write_out(path: str, data: bytes) -> None:
    try:
        with open(path, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        raise AthermalError(f"cannot write {path}: {exc}") from exc


def _side_file(args, states, labels) -> None:
    if args.out:
        _write_out(args.out, render_boundary(states, args.format, labels))


def _cmd_temperature(args) -> tuple[int, dict]:
    resource, _ = load_state(args.state)
    target = load_target(args.target)
    # Looked up per call, so a rebinding of the module name is what runs.
    solve = beta_max if args.key == "beta_max" else beta_min
    report = solve(resource, target)
    _side_file(args, [resource], ["resource"])
    return EXIT_OK, {
        "beta": target.beta,
        args.key: getattr(report, args.key).to_json(),
        "per_condition": [
            {"k": k, "beta": b.to_json(), "alpha": a}
            for k, b, a in report.per_condition
        ],
    }


def _cmd_overlap(args) -> tuple[int, dict]:
    resource, _ = load_state(args.state)
    target = load_target(args.target)
    value = max_ground_overlap(resource, target)
    _side_file(args, [resource], ["resource"])
    return EXIT_OK, {"ground_degeneracy": target.ground_degeneracy(), "o_max": value}


def _load_pair(args) -> tuple[AthermalityState, AthermalityState, float]:
    """The --from and --to states of `convert` and `oracle`, which must share
    their background beta."""
    source, src_ctx = load_state(getattr(args, "from"))
    target, tgt_ctx = load_state(args.to)
    if src_ctx.beta != tgt_ctx.beta:
        raise AthermalError(
            f"background beta differs: {src_ctx.beta} vs {tgt_ctx.beta}"
        )
    return source, target, tgt_ctx.beta


def _cmd_convert(args) -> tuple[int, dict]:
    source, target, beta = _load_pair(args)
    failed = _failed_check(source, target, beta)
    doc = {"convertible": failed is None}
    if failed is not None:
        k, E_k, kind = failed
        witness = {"E": ExtendedBeta(E_k).to_json(), "k": k, "kind": kind}
        # E = logit(y) / beta overflows to inf at a beta near the subnormals:
        # a gap with no float value has no monotone to compare
        if math.isfinite(E_k):
            mono = cooling_monotone if kind == "cooling" else heating_monotone
            witness["lhs"] = ExtendedBeta(mono(source, beta, E_k)).to_json()
            witness["rhs"] = ExtendedBeta(mono(target, beta, E_k)).to_json()
        doc["witness"] = witness
    _side_file(args, [source, target], ["from", "to"])
    return (EXIT_OK if failed is None else EXIT_INFEASIBLE), doc


def _cmd_monotones(args) -> tuple[int, dict]:
    state, ctx = load_state(args.state)
    entries = []
    for E in args.gap:
        cooling = ExtendedBeta(cooling_monotone(state, ctx.beta, E))
        heating = ExtendedBeta(heating_monotone(state, ctx.beta, E))
        entries.append(
            {"E": E, "cooling": cooling.to_json(), "heating": heating.to_json()}
        )
    _side_file(args, [state], ["state"])
    return EXIT_OK, {"beta": ctx.beta, "entries": entries}


def _cmd_critical_energies(args) -> tuple[int, dict]:
    state, ctx = load_state(args.state)
    crit = critical_energies(state, ctx.beta)
    return EXIT_OK, {
        "beta": ctx.beta,
        "degenerate": list(crit.degenerate_flags),
        # E = logit(y) / beta overflows to inf at a beta near the subnormals
        "entries": [
            {"E": ExtendedBeta(E).to_json(), "k": k, "kind": kind}
            for k, E, kind in crit.entries
        ],
    }


def _cmd_eset(args) -> tuple[int, dict]:
    state, ctx = load_state(args.state)
    result = gap_set(state, ctx.beta, args.beta_tilde, args.e_max, args.grid)
    if args.out and args.format == "csv":
        rows = zip(*_scan(state, ctx.beta, args.beta_tilde, args.e_max, args.grid))
        csv = "".join(f"{E:.17g},{c:.17g},{int(m)}\n" for E, c, m in rows)
        _write_out(args.out, csv.encode())
    else:
        _side_file(args, [state], ["resource"])
    return EXIT_OK, {
        "beta": ctx.beta,
        "beta_tilde": args.beta_tilde,
        "intervals": [[iv.lo, iv.hi] for iv in result.intervals],
        "closed": [[iv.lo_closed, iv.hi_closed] for iv in result.intervals],
        "resolution": result.resolution,
    }


def _cmd_gap_example(args) -> tuple[int, dict]:
    state = construct_gap_example(args.a)
    g1, g2 = state.g.entries
    doc = {
        "energies": [0.0, math.log(g1 / g2)],
        "beta": 1.0,
        "populations": list(state.r.entries),
    }
    if args.out and args.format == "json":
        _write_out(args.out, _dumps(doc).encode())
    else:
        _side_file(args, [state], ["constructed"])
    return EXIT_OK, doc


def _cmd_oracle(args) -> tuple[int, dict]:
    source, target, _ = _load_pair(args)
    result = lp_feasible(source.r, source.g, target.r, target.g, args.tol)
    _side_file(args, [source, target], ["from", "to"])
    doc = {"feasible": result.feasible, "max_violation": result.max_violation}
    return (EXIT_OK if result.feasible else EXIT_INFEASIBLE), doc


def _cmd_curve(args) -> tuple[int, dict]:
    n = args.grid
    if not 1 <= n <= MAX_GRID:
        raise InvalidGrid(f"--grid must be in [1, {MAX_GRID}], got {n}")
    points = []
    for i in range(1, n + 1):
        w = i / n
        x, y = fa_point(args.a, w)
        points.append([w, x, y])
    if args.out:
        rows = "".join(f"{w:.17g},{x:.17g},{y:.17g}\n" for w, x, y in points)
        _write_out(args.out, rows.encode())
    return EXIT_OK, {"a": args.a, "points": points}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error is an input error, in JSON
        raise UsageError(f"{self.prog}: {message}")

    def _parse_optional(self, arg_string):
        # argparse takes -1e-05 and -inf for options; what float() reads (a sign,
        # then a digit, a point, inf or nan) is a value, and no option reads so
        if arg_string[1:2].isdigit() or arg_string[1:2] in ".iInN":
            with contextlib.suppress(ValueError):
                float(arg_string)
                return None
        return super()._parse_optional(arg_string)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="athermal",
        description="Cooling, heating, and convertibility of athermality states",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, *formats):
        p.add_argument("--out", help="side file path")
        p.add_argument(
            "--format", choices=formats, default=formats[0],
            help="side file format",
        )

    for name, key, extreme in (
        ("cool", "beta_max", "maximal"),
        ("heat", "beta_min", "minimal"),
    ):
        p = sub.add_parser(name, help=f"{extreme} inverse temperature reachable")
        p.add_argument("--state", "-s", required=True)
        p.add_argument("--target", "-t", required=True)
        add_common(p, "svg", "csv")
        p.set_defaults(func=_cmd_temperature, key=key)

    p = sub.add_parser("overlap", help="maximal ground-state overlap")
    p.add_argument("--state", "-s", required=True)
    p.add_argument("--target", "-t", required=True)
    add_common(p, "svg", "csv")
    p.set_defaults(func=_cmd_overlap)

    p = sub.add_parser("convert", help="decide state convertibility")
    p.add_argument("--from", required=True)
    p.add_argument("--to", required=True)
    add_common(p, "svg", "csv")
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("monotones", help="cooling/heating monotones at gaps")
    p.add_argument("--state", "-s", required=True)
    p.add_argument("--gap", "-E", type=float, action="append", required=True)
    add_common(p, "svg", "csv")
    p.set_defaults(func=_cmd_monotones)

    p = sub.add_parser("critical-energies", help="finite sufficient gap set")
    p.add_argument("--state", "-s", required=True)
    p.set_defaults(func=_cmd_critical_energies)

    p = sub.add_parser("eset", help="feasible energy-gap intervals")
    p.add_argument("--state", "-s", required=True)
    p.add_argument("--beta-tilde", type=float, required=True)
    p.add_argument("--e-max", type=float, default=None)
    p.add_argument("--grid", type=int, default=DEFAULT_N_GRID)
    add_common(p, "csv", "svg")
    p.set_defaults(func=_cmd_eset)

    p = sub.add_parser("gap-example", help="construct a non-interval example")
    p.add_argument("--a", type=float, required=True)
    add_common(p, "json", "csv", "svg")
    p.set_defaults(func=_cmd_gap_example)

    p = sub.add_parser("oracle", help="LP feasibility of the conversion")
    p.add_argument("--from", required=True)
    p.add_argument("--to", required=True)
    p.add_argument(
        "--tol",
        type=float,
        default=DEFAULT_TOL,
        help="absolute bound on the phase-1 optimum (the sum of the artificials) "
        "and on the returned vertex's largest residual; feasible needs both "
        "(default %(default)s)",
    )
    add_common(p, "svg", "csv")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("curve", help="sample the target-elbow curve")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--grid", type=int, default=100)
    add_common(p, "csv")
    p.set_defaults(func=_cmd_curve)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    """Parse argv, dispatch to its handler and write what it returns."""
    try:
        args = _build_parser().parse_args(argv)
        code, doc = args.func(args)
    except SystemExit as exc:  # --help, printed by argparse
        return EXIT_INPUT if exc.code else EXIT_OK
    except (AthermalError, BisectionError) as exc:
        code = EXIT_NUMERIC if isinstance(exc, BisectionError) else EXIT_INPUT
        error = {"code": type(exc).__name__, "message": str(exc)}
        sys.stderr.write(_dumps({"error": error}))
        return code
    sys.stdout.write(_dumps(doc))
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
