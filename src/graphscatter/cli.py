"""Command-line front end.

Commands: spectrum | verify | orbits | zeta | ihara | stark | trace | classical.
Every command takes --graph PATH (required) and --out PATH; --generalized
(weighted operators) goes with spectrum, verify, zeta, trace and classical,
--seed INT with verify and stark, and --format json|csv with trace.
Complex numbers are written "re" or "re,im" on the command line and encoded
as {"re": x, "im": y} in JSON.  JSON floats are Python's shortest
round-trip repr and the trace CSV writes %.17g, so reports read back
exactly; a fixed seed makes every randomized sweep byte-reproducible.

Exit codes: 0 success, 1 validation or parse error, 2 numeric-check
failure, 3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import io
import json
import math
import sys

import numpy as np

from . import __version__
from .classical import (
    classical_secular,
    mixing_gap,
    multiset_defect,
    no_backscatter_map,
    no_backscatter_spectrum_from_laplacian,
    transition_matrix,
)
from .errors import (
    CatalogSizeError,
    GraphScatterError,
    VerificationError,
)
from .graph import Graph, cycle_rank, directed_bonds, load_graph
from .laplacian import build_laplacian, laplacian_spectrum
from .linalg import eig_general
from .orbits import DEFAULT_MAX_ORBITS, enumerate_orbits
from .scattering import secular_function, secular_zero_scan
from .trace import DEFAULT_EPSILON, density_summary, trace_formula_report, write_density_csv
from .verify import all_passed, first_failure, run_identity_suite
from .zeta import (
    ihara_zeta_det,
    ihara_zeta_product,
    nonbacktracking_counts_from_determinant,
    spectral_zeta_det,
    spectral_zeta_product,
    stark_zeta,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2
EXIT_RESOURCE = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so exit codes stay ours."""

    def error(self, message):
        raise UsageError(message)


def encode(obj):
    """JSON-encode numpy scalars and arrays as Python values and complex as {re, im}."""
    if isinstance(obj, dict):
        return {k: encode(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [encode(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return {"re": float(obj.real), "im": float(obj.imag)}
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [encode(v) for v in obj.tolist()]
    return obj


def parse_complex(text: str) -> complex:
    """Parse "re" or "re,im", both parts finite."""
    parts = text.split(",")
    if len(parts) > 2:
        raise UsageError(f"complex number must be 're' or 're,im', got {text!r}")
    z = complex(float(parts[0]), float(parts[1]) if len(parts) == 2 else 0.0)
    if not cmath.isfinite(z):
        raise UsageError(f"complex number must be finite, got {text!r}")
    return z


def parse_grid(text: str) -> np.ndarray:
    """Parse "min:max:steps" into an inclusive linspace."""
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"grid must be 'min:max:steps', got {text!r}")
    lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise UsageError(f"grid bounds must be finite, got {text!r}")
    if n < 2 or not hi > lo:
        raise UsageError("grid needs max > min and at least 2 steps")
    return np.linspace(lo, hi, n)


def _write_output(text: str, out_path):
    if out_path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit_json(payload: dict, out_path):
    _write_output(json.dumps(encode(payload), indent=2, sort_keys=True), out_path)


def _kind(args) -> str:
    if args.generalized:
        return "generalized"
    return "standard"


# -- commands -----------------------------------------------------------------


def cmd_spectrum(g: Graph, args) -> int:
    kind = _kind(args)
    lap = build_laplacian(g, kind)
    eigs = laplacian_spectrum(lap).eigenvalues
    payload = {
        "command": "spectrum",
        "kind": kind,
        "num_vertices": g.num_vertices,
        "num_edges": g.num_edges,
        "connected": g.is_connected,
        "eigenvalues": eigs,
    }
    if not g.is_connected:
        payload["warning"] = "graph is disconnected: zero eigenvalue is degenerate"
    if args.scan:
        zeros = secular_zero_scan(g, kind)
        scanned = []
        for z in zeros:
            scanned.extend([z.lam] * z.multiplicity)
        payload["secular_zeros"] = [
            {"lam": z.lam, "multiplicity": z.multiplicity, "singular_value": z.singular_value}
            for z in zeros
        ]
        if len(scanned) == len(eigs):
            payload["max_pairwise_deviation"] = float(
                np.max(np.abs(np.sort(np.array(scanned)) - eigs))
            )
        else:
            payload["max_pairwise_deviation"] = None
            payload["warning"] = "zero scan found a different count than the spectrum"
    _emit_json(payload, args.out)
    return EXIT_OK


def cmd_verify(g: Graph, args) -> int:
    kind = _kind(args)
    results = run_identity_suite(
        g, seed=args.seed, kind=kind, corrupt_sigma=args.inject_fault == "sigma"
    )
    payload = {
        "command": "verify",
        "kind": kind,
        "seed": args.seed,
        "checks": [
            {
                "name": r.name,
                "passed": r.passed,
                "measure": r.measure,
                "tolerance": r.tolerance,
                "detail": encode(r.detail),
            }
            for r in results
        ],
        "all_passed": all_passed(results),
    }
    _emit_json(payload, args.out)
    if not payload["all_passed"]:
        failing = first_failure(results)
        sys.stderr.write(f"verify: check failed: {failing.name}\n")
        return EXIT_NUMERIC
    return EXIT_OK


def cmd_orbits(g: Graph, args) -> int:
    space = directed_bonds(g)
    catalog = enumerate_orbits(
        space, args.max_len, no_backtrack=args.no_backtrack, max_orbits=args.max_orbits
    )
    counts = catalog.counts_table()
    payload = {
        "command": "orbits",
        "max_length": args.max_len,
        "no_backtrack_only": args.no_backtrack,
        "total_orbits": catalog.total(),
        "counts": {str(n): {"primitive": p, "no_backtrack": c} for n, (p, c) in counts.items()},
    }
    if args.list:
        buf = io.StringIO()
        catalog.export_jsonl(buf)
        _write_output(buf.getvalue(), args.out)
    else:
        _emit_json(payload, args.out)
    return EXIT_OK


def cmd_zeta(g: Graph, args) -> int:
    kind = _kind(args)
    lam = parse_complex(args.lam)
    payload = {
        "command": "zeta",
        "kind": kind,
        "lambda": lam,
        "det_form": spectral_zeta_det(g, lam, kind),
        "secular_value": secular_function(g, lam, kind),
    }
    if args.truncation:
        catalog = enumerate_orbits(directed_bonds(g), args.truncation)
        ev = spectral_zeta_product(catalog, g, lam, args.truncation, kind)
        payload["product"] = {
            "value": ev.value,
            "det_reference": ev.det_value,
            "truncation": ev.truncation_length,
            "convergence_gap": ev.convergence_gap,
            "relative_error": ev.relative_error,
            "euler_value": ev.euler_value,
            "euler_relative_error": ev.euler_relative_error,
            "warning": ev.warning,
        }
    _emit_json(payload, args.out)
    return EXIT_OK


def cmd_ihara(g: Graph, args) -> int:
    u = parse_complex(args.u)
    payload = {
        "command": "ihara",
        "u": u,
        "det_form": ihara_zeta_det(g, u),
        "cycle_rank": cycle_rank(g),
    }
    if args.truncation:
        catalog = enumerate_orbits(
            directed_bonds(g), args.truncation, no_backtrack=True
        )
        ev = ihara_zeta_product(catalog, u, args.truncation)
        payload["product"] = {
            "value": ev.value,
            "truncation": ev.truncation_length,
            "relative_error": ev.relative_error,
        }
        payload["counts_no_backtrack"] = {
            str(n): catalog.count_no_backtrack(n) for n in range(2, args.truncation + 1)
        }
    if args.counts_from_det:
        payload["counts_from_determinant"] = {
            "counts": nonbacktracking_counts_from_determinant(g, args.counts_from_det),
        }
    _emit_json(payload, args.out)
    return EXIT_OK


def cmd_stark(g: Graph, args) -> int:
    space = directed_bonds(g)
    rng = np.random.default_rng(args.seed)
    n = space.num_bonds
    eta = rng.uniform(0.0, args.scale, (n, n)).astype(complex)
    ev = stark_zeta(space, eta, truncation=args.truncation)
    payload = {
        "command": "stark",
        "seed": args.seed,
        "eta_scale": args.scale,
        "truncation": ev.truncation_length,
        "det_form": ev.det_value,
        "product": ev.value,
        "relative_error": ev.relative_error,
        "warning": ev.warning,
    }
    _emit_json(payload, args.out)
    return EXIT_OK


def cmd_trace(g: Graph, args) -> int:
    kind = _kind(args)
    grid = parse_grid(args.grid) if args.grid else None
    if grid is None:
        eigs = laplacian_spectrum(build_laplacian(g, kind)).eigenvalues
        grid = np.linspace(float(eigs[0]) - 1.0, float(eigs[-1]) + 1.0, 101)
    report = trace_formula_report(
        g, grid, epsilon=args.epsilon, max_length=args.max_len,
        max_repetition=args.max_rep, kind=kind,
    )
    if args.format == "csv":
        buf = io.StringIO()
        write_density_csv(report, buf)
        _write_output(buf.getvalue(), args.out)
    else:
        payload = {
            "command": "trace",
            "kind": kind,
            "summary": density_summary(report),
            "grid": report.lambda_grid,
            "exact": report.exact_density,
            "weyl": report.weyl_term,
            "orbit": report.orbit_term,
            "residual": report.residual,
        }
        _emit_json(payload, args.out)
    return EXIT_OK


def cmd_classical(g: Graph, args) -> int:
    kind = _kind(args)
    if args.sharp:
        if kind != "standard":
            raise UsageError("--sharp takes the standard kind only; drop --generalized")
        cmap = no_backscatter_map(g)
        formula = no_backscatter_spectrum_from_laplacian(g)
        direct = eig_general(cmap.matrix).eigenvalues
        extra = {
            "spectrum_formula_defect": multiset_defect(direct, formula),
            "lambda": complex(cmap.lam),
        }
    else:
        lam = parse_complex(args.lam) if args.lam else 0.0
        if isinstance(lam, complex) and lam.imag:
            raise UsageError("classical map needs a real lambda (or --sharp)")
        cmap = transition_matrix(g, float(np.real(lam)), kind)
        extra = {"lambda": float(np.real(lam))}
    rep = mixing_gap(cmap)
    payload = {
        "command": "classical",
        "sharp": bool(args.sharp),
        "bistochastic_defect": cmap.bistochastic_defect,
        "gap": rep.gap,
        "second_modulus": rep.second_modulus,
        "non_mixing": rep.non_mixing,
        "spectrum": [
            {"re": v.real, "im": v.imag, "modulus": abs(v)} for v in rep.eigenvalues
        ],
        **extra,
    }
    if args.mu is not None:
        mu = parse_complex(args.mu)
        payload["secular_at_mu"] = classical_secular(cmap, mu)
        payload["mu"] = mu
    _emit_json(payload, args.out)
    return EXIT_OK


# -- parser ---------------------------------------------------------------------


def make_parser() -> _Parser:
    parser = _Parser(prog="graphscatter", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--graph", required=True, help="graph file (JSON or edge list)")
        p.add_argument("--out", help="output path (default stdout)")

    def generalized(p):
        p.add_argument("--generalized", action="store_true",
                       help="use the weighted (generalized) operators")

    p = sub.add_parser("spectrum", help="Laplacian eigenvalues, optional secular zero scan")
    common(p)
    generalized(p)
    p.add_argument("--scan", action="store_true", help="also scan secular-function zeros")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("verify", help="run the full identity suite")
    common(p)
    generalized(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--inject-fault", choices=("sigma",), default=None,
                   help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("orbits", help="enumerate primitive periodic orbits")
    common(p)
    p.add_argument("--max-len", type=int, required=True)
    p.add_argument("--no-backtrack", action="store_true")
    p.add_argument("--max-orbits", type=int, default=DEFAULT_MAX_ORBITS)
    p.add_argument("--list", action="store_true", help="emit one JSON orbit per line")
    p.set_defaults(func=cmd_orbits)

    p = sub.add_parser("zeta", help="spectral zeta: determinant form and orbit product")
    common(p)
    generalized(p)
    p.add_argument("--lambda", dest="lam", required=True, help="'re' or 're,im'")
    p.add_argument("--truncation", type=int, default=0)
    p.set_defaults(func=cmd_zeta)

    p = sub.add_parser("ihara", help="Ihara zeta: determinant form and orbit product")
    common(p)
    p.add_argument("--u", required=True, help="'re' or 're,im'")
    p.add_argument("--truncation", type=int, default=0)
    p.add_argument("--counts-from-det", type=int, default=0, metavar="N",
                   help="exact |C(n)| for n <= N from the determinant's Bass form")
    p.set_defaults(func=cmd_ihara)

    p = sub.add_parser("stark", help="edge zeta with random weights")
    common(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scale", type=float, default=0.1, help="eta entries ~ U[0, scale]")
    p.add_argument("--truncation", type=int, default=15)
    p.set_defaults(func=cmd_stark)

    p = sub.add_parser("trace", help="trace-formula report (CSV or JSON)")
    common(p)
    generalized(p)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)
    p.add_argument("--grid", help="'min:max:steps'")
    p.add_argument("--max-len", type=int, default=10)
    p.add_argument("--max-rep", type=int, default=4)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("classical", help="Markov dynamics of the bond map")
    common(p)
    generalized(p)
    p.add_argument("--lambda", dest="lam", help="real spectral parameter")
    p.add_argument("--sharp", action="store_true",
                   help="use the no-backscatter map of a regular graph")
    p.add_argument("--mu", help="also evaluate det(I - mu M)")
    p.set_defaults(func=cmd_classical)

    return parser


_shared_parser = functools.cache(make_parser)  # parse_args keeps no state between calls


def main(argv=None) -> int:
    parser = _shared_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(load_graph(args.graph), args)
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except CatalogSizeError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_RESOURCE
    except VerificationError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_NUMERIC
    except (GraphScatterError, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
