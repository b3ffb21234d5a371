"""File-driven command line frontend.

One subcommand per computation: cool, heat, overlap, convert, monotones,
critical-energies, eset, gap-example, oracle, curve. Results go to stdout
as a single JSON document (sorted keys; infinities as "+inf"/"-inf"); side
files (CSV / SVG boundary plots) are written only when --out is given.

Exit codes: 0 ok, 2 invalid input, 3 infeasible request, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Sequence

import numpy as np

from .core import AthermalityState, ExtendedBeta, GibbsContext, validate_state
from .errors import AthermalError, BisectionError
from .esets import _feasible, _phi, construct_gap_example, fa_point, gap_set
from .majorization import compute_elbows
from .monotones import (
    convertible_via_monotones,
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


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise AthermalError(f"cannot read {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise AthermalError(f"{path}: expected a JSON object")
    return doc


def load_state(path: str) -> tuple[AthermalityState, GibbsContext]:
    """Read a state file: energies + beta, plus populations xor a matrix."""
    doc = _load_json(path)
    if "energies" not in doc or "beta" not in doc:
        raise AthermalError(f"{path}: 'energies' and 'beta' are required")
    ctx = GibbsContext(tuple(float(h) for h in doc["energies"]), float(doc["beta"]))
    has_pop = "populations" in doc
    has_dm = "density_matrix" in doc
    if has_pop and has_dm:
        raise AthermalError(f"{path}: give populations or density_matrix, not both")
    g = gibbs_vector(ctx.energies, ctx.beta)
    if has_pop:
        populations = ctx.apply_permutation([float(x) for x in doc["populations"]])
        return validate_state(populations, g.entries), ctx
    if has_dm:
        raw = doc["density_matrix"]
        try:
            m = np.array(
                [[complex(re, im) for re, im in row] for row in raw], dtype=complex
            )
        except (TypeError, ValueError) as exc:
            raise AthermalError(
                f"{path}: density_matrix must be nested [re, im] pairs"
            ) from exc
        perm = list(ctx.permutation)
        rho = DensityMatrix(m[np.ix_(perm, perm)])
        return to_quasiclassical(rho, ctx), ctx
    return validate_state(g.entries, g.entries), ctx  # free Gibbs state


def _eb_json(value: ExtendedBeta | float):
    if isinstance(value, ExtendedBeta):
        return value.to_json()
    if value == math.inf:
        return "+inf"
    if value == -math.inf:
        return "-inf"
    return value


def render_boundary(
    states: Sequence[AthermalityState], fmt: str, labels: Sequence[str] | None = None
) -> bytes:
    """Boundary polylines of one or more states, as SVG or CSV."""
    if not states:
        raise AthermalError("at least one state required")
    if labels is None:
        labels = [f"state{i}" for i in range(len(states))]
    boundaries = [compute_elbows(s) for s in states]
    if fmt == "csv":
        rows = []
        for label, b in zip(labels, boundaries):
            rows.extend(f"{label},{x:.17g},{y:.17g}\n" for x, y in b.elbows)
        return "".join(rows).encode()
    if fmt != "svg":
        raise AthermalError(f"unsupported boundary format {fmt!r}")

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
    with open(path, "wb") as fh:
        fh.write(data)


def _emit(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc, sort_keys=True) + "\n")


def _side_file(args, states, labels=None, csv_override: bytes | None = None) -> None:
    if not getattr(args, "out", None):
        return
    fmt = args.format
    if fmt == "json":
        return
    if fmt == "csv" and csv_override is not None:
        _write_out(args.out, csv_override)
        return
    _write_out(args.out, render_boundary(states, fmt, labels))


def _cmd_cool(args) -> int:
    resource, _ = load_state(args.state)
    _, target = load_state(args.target)
    report = beta_max(resource, target)
    _emit(
        {
            "beta": target.beta,
            "beta_max": _eb_json(report.beta_max),
            "per_condition": [
                {"k": k, "beta": _eb_json(b), "alpha": a}
                for k, b, a in report.per_condition
            ],
        }
    )
    _side_file(args, [resource], ["resource"])
    return EXIT_OK


def _cmd_heat(args) -> int:
    resource, _ = load_state(args.state)
    _, target = load_state(args.target)
    report = beta_min(resource, target)
    _emit(
        {
            "beta": target.beta,
            "beta_min": _eb_json(report.beta_min),
            "per_condition": [
                {"k": k, "beta": _eb_json(b), "alpha": a}
                for k, b, a in report.per_condition
            ],
        }
    )
    _side_file(args, [resource], ["resource"])
    return EXIT_OK


def _cmd_overlap(args) -> int:
    resource, _ = load_state(args.state)
    _, target = load_state(args.target)
    value = max_ground_overlap(resource, target, args.ground_degeneracy)
    _emit({"ground_degeneracy": args.ground_degeneracy, "o_max": value})
    _side_file(args, [resource], ["resource"])
    return EXIT_OK


def _first_witness(source, target, beta):
    crit = critical_energies(target, beta)
    for k, E_k, kind in crit.entries:
        mono = cooling_monotone if kind == "cooling" else heating_monotone
        lhs = mono(source, beta, E_k)
        rhs = mono(target, beta, E_k)
        if lhs < rhs:
            return {"E": E_k, "k": k, "kind": kind, "lhs": _eb_json(lhs), "rhs": _eb_json(rhs)}
    return None


def _cmd_convert(args) -> int:
    source, src_ctx = load_state(getattr(args, "from"))
    target, tgt_ctx = load_state(args.to)
    if src_ctx.beta != tgt_ctx.beta:
        raise AthermalError(
            f"background beta differs: {src_ctx.beta} vs {tgt_ctx.beta}"
        )
    verdict = convertible_via_monotones(source, target, tgt_ctx.beta)
    doc = {"convertible": verdict}
    if not verdict:
        doc["witness"] = _first_witness(source, target, tgt_ctx.beta)
    _emit(doc)
    _side_file(args, [source, target], ["from", "to"])
    return EXIT_OK if verdict else EXIT_INFEASIBLE


def _cmd_monotones(args) -> int:
    state, ctx = load_state(args.state)
    entries = []
    for E in args.gap:
        entries.append(
            {
                "E": E,
                "cooling": _eb_json(cooling_monotone(state, ctx.beta, E)),
                "heating": _eb_json(heating_monotone(state, ctx.beta, E)),
            }
        )
    _emit({"beta": ctx.beta, "entries": entries})
    _side_file(args, [state], ["state"])
    return EXIT_OK


def _cmd_critical_energies(args) -> int:
    state, ctx = load_state(args.state)
    crit = critical_energies(state, ctx.beta)
    _emit(
        {
            "beta": ctx.beta,
            "degenerate": list(crit.degenerate_flags),
            "entries": [
                {"E": E, "k": k, "kind": kind} for k, E, kind in crit.entries
            ],
        }
    )
    return EXIT_OK


def _cmd_eset(args) -> int:
    state, ctx = load_state(args.state)
    result = gap_set(state, ctx.beta, args.beta_tilde, args.e_max, args.grid)
    _emit(
        {
            "beta": ctx.beta,
            "beta_tilde": args.beta_tilde,
            "intervals": [[iv.lo, iv.hi] for iv in result.intervals],
            "closed": [[iv.lo_closed, iv.hi_closed] for iv in result.intervals],
            "resolution": result.resolution,
        }
    )
    if getattr(args, "out", None) and args.format == "csv":
        boundary = compute_elbows(state)
        a = args.beta_tilde / ctx.beta
        e_max = args.e_max if args.e_max else -math.log(1e-10) / ctx.beta
        rows = []
        for E in np.linspace(e_max / args.grid, e_max, args.grid):
            if a == 1.0:
                phi, member = 0.0, True
            else:
                phi = _phi(boundary, a, math.exp(-ctx.beta * E))
                member = _feasible(phi)
            rows.append(f"{E:.17g},{phi:.17g},{int(member)}\n")
        _write_out(args.out, "".join(rows).encode())
    else:
        _side_file(args, [state], ["resource"])
    return EXIT_OK


def _cmd_gap_example(args) -> int:
    state = construct_gap_example(args.a)
    g1, g2 = state.g.entries
    doc = {
        "energies": [0.0, math.log(g1 / g2)],
        "beta": 1.0,
        "populations": list(state.r.entries),
    }
    _emit(doc)
    if getattr(args, "out", None):
        if args.format == "json":
            _write_out(args.out, (json.dumps(doc, sort_keys=True) + "\n").encode())
        else:
            _side_file(args, [state], ["constructed"])
    return EXIT_OK


def _cmd_oracle(args) -> int:
    source, _ = load_state(getattr(args, "from"))
    target, _ = load_state(args.to)
    result = lp_feasible(source.r, source.g, target.r, target.g, args.tol)
    _emit({"feasible": result.feasible, "max_violation": result.max_violation})
    _side_file(args, [source, target], ["from", "to"])
    return EXIT_OK if result.feasible else EXIT_INFEASIBLE


def _cmd_curve(args) -> int:
    n = args.grid
    points = []
    for i in range(1, n + 1):
        w = i / n
        x, y = fa_point(args.a, w)
        points.append([w, x, y])
    _emit({"a": args.a, "points": points})
    if getattr(args, "out", None) and args.format == "csv":
        rows = "".join(f"{w:.17g},{x:.17g},{y:.17g}\n" for w, x, y in points)
        _write_out(args.out, rows.encode())
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="athermal",
        description="Cooling, heating, and convertibility of athermality states",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--out", help="side file path")
        p.add_argument(
            "--format", choices=["json", "csv", "svg"], default="json",
            help="side file format",
        )

    p = sub.add_parser("cool", help="maximal inverse temperature reachable")
    p.add_argument("--state", "-s", required=True)
    p.add_argument("--target", "-t", required=True)
    add_common(p)
    p.set_defaults(func=_cmd_cool)

    p = sub.add_parser("heat", help="minimal inverse temperature reachable")
    p.add_argument("--state", "-s", required=True)
    p.add_argument("--target", "-t", required=True)
    add_common(p)
    p.set_defaults(func=_cmd_heat)

    p = sub.add_parser("overlap", help="maximal ground-state overlap")
    p.add_argument("--state", "-s", required=True)
    p.add_argument("--target", "-t", required=True)
    p.add_argument("--ground-degeneracy", type=int, default=1)
    add_common(p)
    p.set_defaults(func=_cmd_overlap)

    p = sub.add_parser("convert", help="decide state convertibility")
    p.add_argument("--from", required=True)
    p.add_argument("--to", required=True)
    add_common(p)
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("monotones", help="cooling/heating monotones at gaps")
    p.add_argument("--state", "-s", required=True)
    p.add_argument("--gap", "-E", type=float, action="append", required=True)
    add_common(p)
    p.set_defaults(func=_cmd_monotones)

    p = sub.add_parser("critical-energies", help="finite sufficient gap set")
    p.add_argument("--state", "-s", required=True)
    add_common(p)
    p.set_defaults(func=_cmd_critical_energies)

    p = sub.add_parser("eset", help="feasible energy-gap intervals")
    p.add_argument("--state", "-s", required=True)
    p.add_argument("--beta-tilde", type=float, required=True)
    p.add_argument("--e-max", type=float, default=None)
    p.add_argument("--grid", type=int, default=10_000)
    add_common(p)
    p.set_defaults(func=_cmd_eset)

    p = sub.add_parser("gap-example", help="construct a non-interval example")
    p.add_argument("--a", type=float, required=True)
    add_common(p)
    p.set_defaults(func=_cmd_gap_example)

    p = sub.add_parser("oracle", help="LP feasibility of the conversion")
    p.add_argument("--from", required=True)
    p.add_argument("--to", required=True)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    add_common(p)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("curve", help="sample the target-elbow curve")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--grid", type=int, default=100)
    add_common(p)
    p.set_defaults(func=_cmd_curve)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code else EXIT_OK
    try:
        return args.func(args)
    except AthermalError as exc:
        _error(type(exc).__name__, str(exc))
        return EXIT_INPUT
    except BisectionError as exc:
        _error("BisectionError", str(exc))
        return EXIT_NUMERIC


def _error(code: str, message: str) -> None:
    sys.stderr.write(
        json.dumps({"error": {"code": code, "message": message}}, sort_keys=True)
        + "\n"
    )


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
