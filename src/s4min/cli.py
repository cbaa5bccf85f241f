"""Batch front end: analyze, deform, monodromy, and verify commands.

Each command loads a surface (named catalog entry or sampled manifest),
runs one slice of the pipeline, and writes machine-readable reports into
an output directory.  Reports are deterministic: identical configurations
produce byte-identical files, so runs can be diffed.

Exit codes: 0 success, 1 verification failure, 2 bad input or
configuration, 3 numerical integrity failure (non-flat connection,
path-dependent transport, a CIRCLE verdict without the congruence the
paper's compact-surface theorem demands).
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import ExitStack
from pathlib import Path

import numpy as np

from .adapted import AdaptedFrameError, hopf_coefficient, hopf_differential, superminimality_test
from .catalog import (
    CatalogError,
    catalog_names,
    load_catalog,
    perturb_immersion,
    read_manifest,
    write_manifest,
)
from .family import (
    PATH_DEPENDENCE_TOL,
    FamilyError,
    IntegrabilityBroken,
    assemble_maurer_cartan,
    congruence_test,
    connection_data,
    deformed_immersion,
    flatness_residual,
    frame_reconstruction_residual,
    integrate_frame,
)
from .monodromy import MonodromyError, dichotomy_report, scan_profile
from .surface import ImmersionField, SurfaceError, shape_report
from .topology import TopologyError, euler_numbers, laplace_identity_residual, topology_report
from .grid import GridError

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_INTEGRITY = 3

# residual below which a Procrustes fit counts as a congruence
CONGRUENCE_TOL = 1e-3


class CliError(Exception):
    """Carries an exit code and a machine-readable error code."""

    def __init__(self, exit_code: int, code: str, message: str):
        super().__init__(message)
        self.exit_code = exit_code
        self.code = code


# ---------------------------------------------------------------------------
# serialization helpers


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


# CSV output: a header line, then comma-separated %.17g cells, one row per
# line.  Rows are formatted by one ``%`` over a multi-row template: one
# formatting call per row cost more than the whole geometry of ``analyze``.
_NUM = "%.17g"
# u-rows formatted per block: the whole-grid template of an n=512 chart
# would raise the peak RSS of ``analyze`` by about 30 MB
_FIELD_BLOCK_ROWS = 32


def _csv_template(prefixes, ncols: int) -> str:
    """One CSV row per prefix, each ending in ``ncols`` ``%.17g`` cells."""
    cells = ",".join([_NUM] * ncols) + "\n"
    return "".join(prefix + cells for prefix in prefixes)


def _csv_open(path: Path, header: str):
    f = open(path, "w", encoding="ascii", newline="")
    f.write(header + "\n")
    return f


def _write_field_csvs(out: Path, patch, fields: dict) -> None:
    """Write ``<name>.csv`` per field: ``u,v,value`` rows, u-major, v fastest."""
    us = [_NUM % u + "," for u in patch.u_coords().tolist()]
    vs = [_NUM % v + "," for v in patch.v_coords().tolist()]
    with ExitStack() as stack:
        files = [(stack.enter_context(_csv_open(out / f"{name}.csv", "u,v,value")),
                  np.asarray(values, dtype=float).reshape(patch.nu, patch.nv))
                 for name, values in fields.items()]
        for start in range(0, patch.nu, _FIELD_BLOCK_ROWS):
            stop = start + _FIELD_BLOCK_ROWS
            template = _csv_template((u + v for u in us[start:stop] for v in vs), 1)
            for f, values in files:
                f.write(template % tuple(values[start:stop].ravel().tolist()))


def _write_table_csv(path: Path, header: str, columns) -> None:
    """Write equal-length columns as one CSV row per index."""
    table = np.column_stack(columns)
    with _csv_open(path, header) as f:
        f.write(_csv_template([""] * table.shape[0], table.shape[1])
                % tuple(table.ravel().tolist()))


def _span(values: np.ndarray) -> dict:
    return {"min": float(values.min()), "max": float(values.max())}


# ---------------------------------------------------------------------------
# surface loading


def _check_resolution(n: int) -> int:
    if n < 32 or n > 1024 or (n & (n - 1)) != 0:
        raise CliError(
            EXIT_CONFIG, "E_CONFIG",
            f"resolution must be a power of two between 32 and 1024, got {n}",
        )
    return n


def _load_surface(args) -> tuple[ImmersionField, dict]:
    if args.catalog is not None:
        if args.catalog not in catalog_names():
            raise CliError(
                EXIT_CONFIG, "E_SOURCE",
                f"unknown catalog surface {args.catalog!r}; "
                f"available: {', '.join(catalog_names())}",
            )
        n = _check_resolution(args.n)
        imm = load_catalog(args.catalog, n).immersion
        meta = {"source": f"catalog:{args.catalog}", "n": n}
    else:
        path = Path(args.manifest)
        if not path.is_file():
            raise CliError(EXIT_CONFIG, "E_SOURCE", f"manifest not found: {path}")
        try:
            imm, drift = read_manifest(path)
        except CatalogError as exc:
            raise CliError(EXIT_CONFIG, "E_SOURCE", str(exc)) from exc
        meta = {
            "source": f"manifest:{path.name}",
            "n": [imm.patch.nu, imm.patch.nv],
            "norm_drift": drift,
        }
    if args.jets == "fd" and imm.jet_source != "fd":
        imm = ImmersionField(imm.patch, imm.position).with_jets()
    elif args.jets == "analytic" and imm.jet_source != "analytic":
        raise CliError(
            EXIT_CONFIG, "E_CONFIG",
            "analytic jets requested but the source provides none",
        )
    if args.perturb is not None:
        if not (math.isfinite(args.perturb) and args.perturb > 0):
            raise CliError(EXIT_CONFIG, "E_CONFIG",
                           f"perturbation amplitude must be positive and finite, "
                           f"got {args.perturb}")
        if args.seed < 0:
            raise CliError(EXIT_CONFIG, "E_CONFIG",
                           f"perturbation seed must be non-negative, got {args.seed}")
        imm = perturb_immersion(imm, args.perturb, args.seed)
        meta["perturbation"] = {"amplitude": args.perturb, "seed": args.seed}
    meta["jet_source"] = imm.jet_source
    return imm, meta


def _out_dir(args) -> Path:
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CliError(EXIT_CONFIG, "E_CONFIG",
                       f"cannot create output directory {out}: {exc.strerror}") from exc
    return out


# ---------------------------------------------------------------------------
# analyze


def cmd_analyze(args) -> int:
    imm, meta = _load_surface(args)
    out = _out_dir(args)
    imm, e1, e2, metric, nf, rep = shape_report(imm)
    sup = superminimality_test(rep)
    hopf_abs = np.abs(hopf_coefficient(rep))
    try:
        holo_max = float(hopf_differential(rep, metric).max())
    except AdaptedFrameError:
        holo_max = None

    fields = {
        "K": rep.K,
        "K_N": rep.K_N,
        "kappa": rep.kappa,
        "mu": rep.mu,
        "a_plus": rep.a_plus,
        "a_minus": rep.a_minus,
        "hopf_abs": hopf_abs,
    }
    _write_field_csvs(out, rep.patch, fields)

    report = {
        "command": "analyze",
        "source": meta,
        "grid": {
            "nu": rep.patch.nu, "nv": rep.patch.nv,
            "periodic_u": rep.patch.periodic_u, "periodic_v": rep.patch.periodic_v,
        },
        "invariants": {name: _span(values) for name, values in fields.items()},
        "minimality_max": float(rep.minimality.max()),
        "norm_B2": _span(rep.norm_B2),
        "hopf_holomorphy_max": holo_max,
        "superminimality": {
            "verdict": sup.verdict,
            "reason": sup.reason,
            "circle_point_count": sup.circle_point_count,
        },
        "field_files": sorted(f"{name}.csv" for name in fields),
    }
    _write_json(out / "report.json", report)
    print(f"analyze: wrote report.json and {len(fields)} field files to {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# deform


def cmd_deform(args) -> int:
    if not math.isfinite(args.theta):
        raise CliError(EXIT_CONFIG, "E_CONFIG",
                       f"deformation angle must be finite, got {args.theta}")
    imm, meta = _load_surface(args)
    out = _out_dir(args)
    imm, e1, e2, metric, nf, rep = shape_report(imm)
    conn = connection_data(imm, e1, e2, nf, rep)
    del imm, e1, e2, metric, nf, rep  # conn.frames[..., 0, :] is the position
    mc = assemble_maurer_cartan(conn, args.theta)
    # the flatness temporaries and the integrated frames are never held together
    flatness = float(flatness_residual(mc).max())
    dp = integrate_frame(mc, conn.frames[0, 0])
    ext = dp.extended_patch
    replay = conn.frames[..., 0, :][np.ix_(np.arange(ext.nu) % conn.patch.nu,
                                          np.arange(ext.nv) % conn.patch.nv)]
    del conn, mc
    deformed = deformed_immersion(dp)
    write_manifest(deformed, out / "deformed")

    fit = congruence_test(replay, deformed.position)
    report = {
        "command": "deform",
        "source": meta,
        "theta": args.theta,
        "flatness_residual": flatness,
        "path_dependence": dp.path_dependence,
        "deformed_manifest": "deformed/manifest.json",
        "congruence": {
            "residual": fit.residual,
            "congruent": bool(fit.residual < CONGRUENCE_TOL),
            "determinant": fit.determinant,
            "rank": fit.rank,
            "restricted": fit.restricted,
        },
    }
    _write_json(out / "report.json", report)
    verdict = "congruent" if fit.residual < CONGRUENCE_TOL else "noncongruent"
    print(f"deform: theta={args.theta:.10g} -> {verdict} (residual {fit.residual:.3e})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# monodromy


def cmd_monodromy(args) -> int:
    if args.scan < 64:
        raise CliError(
            EXIT_CONFIG, "E_SCAN_TOO_COARSE",
            f"scan needs at least 64 angle samples, got {args.scan}",
        )
    # peak RSS grows by about 1 KB per angle (Clifford n=32 peaks at 122 MB
    # with 65,536 angles), so an unbounded scan can exhaust memory
    if args.scan > 65536:
        raise CliError(
            EXIT_CONFIG, "E_CONFIG",
            f"scan takes at most 65536 angle samples, got {args.scan}",
        )
    if args.tol_close is not None and not (math.isfinite(args.tol_close)
                                           and args.tol_close > 0):
        raise CliError(
            EXIT_CONFIG, "E_CONFIG",
            f"closing tolerance must be positive and finite, got {args.tol_close}",
        )
    imm, meta = _load_surface(args)
    out = _out_dir(args)
    imm, e1, e2, metric, nf, rep = shape_report(imm)
    conn = connection_data(imm, e1, e2, nf, rep)
    del imm, e1, e2, nf  # conn.frames holds their only further use
    profile = scan_profile(conn, n_theta=args.scan, tol_close=args.tol_close)
    # a compact surface with nontrivial normal bundle has only finitely
    # many noncongruent members, so a CIRCLE verdict needs congruent ones
    chi_n = euler_numbers(rep, metric)[1] if rep.patch.closed else None
    if profile.verdict == "CIRCLE" and chi_n is not None and abs(chi_n.rounded) >= 1:
        cmax = float(profile.congruence_residuals.max())
        if cmax >= CONGRUENCE_TOL:
            raise CliError(
                EXIT_INTEGRITY, "E_CONTRADICTION",
                f"CIRCLE verdict with normal Euler number chi_N = {chi_n.value:.6g} "
                f"but congruence_max {cmax:.3e} >= {CONGRUENCE_TOL:.1e}: a compact "
                "surface with nontrivial normal bundle has only finitely many "
                "noncongruent members; no verdict issued")

    comm = profile.commutator_defect
    if comm is None:
        comm = np.full(profile.thetas.shape, np.nan)
    _write_table_csv(out / "profile.csv", "theta,d,comm_defect",
                     [profile.thetas, profile.d, comm])

    doc = dichotomy_report(profile)
    doc["command"] = "monodromy"
    doc["source"] = meta
    doc["profile_file"] = "profile.csv"
    doc["chi_normal"] = None if chi_n is None else chi_n.value
    _write_json(out / "roots.json", doc)
    roots = ", ".join(f"{r:.8f}" for r in doc["roots"]) if doc["roots"] else "none"
    print(f"monodromy: verdict {doc['verdict']}, roots: {roots}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def _item(tag, value, tolerance, skipped=False, reason="", diagnostic=False):
    ok = True
    if not skipped and not diagnostic:
        ok = bool(value <= tolerance)
    return {
        "tag": tag,
        "value": None if value is None else float(value),
        "tolerance": None if tolerance is None else float(tolerance),
        "passed": ok,
        "skipped": bool(skipped),
        "diagnostic": bool(diagnostic),
        "reason": reason,
    }


def cmd_verify(args) -> int:
    imm, meta = _load_surface(args)
    out = _out_dir(args)
    imm, e1, e2, metric, nf, rep = shape_report(imm)
    patch = rep.patch
    h = max(patch.hu, patch.hv)
    tol_h2 = 5.0 * h * h
    items = []

    drift = float(np.abs(np.linalg.norm(imm.position, axis=2) - 1.0).max())
    items.append(_item("unit_norm_drift", drift, 1e-9))
    items.append(_item("minimality_max", float(rep.minimality.max()), 1e-5))

    hopf_abs = np.abs(hopf_coefficient(rep))
    product_gap = float(np.abs(4.0 * hopf_abs - rep.a_plus * rep.a_minus).max())
    items.append(_item("ellipse_radius_product", product_gap, 1e-9))

    try:
        holo = float(hopf_differential(rep, metric).max())
        items.append(_item("hopf_holomorphy", holo, tol_h2))
    except AdaptedFrameError as exc:
        items.append(_item("hopf_holomorphy", None, None, skipped=True, reason=str(exc)))

    for branch, tag in (("+", "laplace_log_plus"), ("-", "laplace_log_minus")):
        residual = laplace_identity_residual(rep, metric, branch)
        if residual is None:
            items.append(_item(tag, None, None, skipped=True,
                               reason="radius field vanishes identically"))
        else:
            items.append(_item(tag, residual, tol_h2))

    conn = connection_data(imm, e1, e2, nf, rep)
    del imm, e1, e2, nf  # conn.frames holds their only further use
    mc0 = assemble_maurer_cartan(conn, 0.0)
    flat0 = float(flatness_residual(mc0).max())
    items.append(_item("flatness_theta0", flat0, max(1e-9, tol_h2)))
    items.append(_item("reconstruction_theta0",
                       frame_reconstruction_residual(conn, mc0), max(1e-9, tol_h2)))
    dp = integrate_frame(mc0, conn.frames[0, 0], tol_path=math.inf)
    items.append(_item("frame_path_dependence", dp.path_dependence, PATH_DEPENDENCE_TOL))

    try:
        topo = topology_report(rep, metric)
    except (TopologyError, GridError, AdaptedFrameError) as exc:
        reason = f"global invariants unavailable: {exc}"
        for tag in ("euler_chi_surface", "euler_chi_normal",
                    "zero_balance_plus", "zero_balance_minus"):
            items.append(_item(tag, None, None, skipped=True, reason=reason))
        ricci_entry = _item("ricci_3sphere_residual", None, None,
                            skipped=True, reason=reason, diagnostic=True)
        superminimality = None
    else:
        items.append(_item("euler_chi_surface", topo.chi_M.gap, 0.02))
        items.append(_item("euler_chi_normal", topo.chi_Nf.gap, 0.02))
        if topo.balance.skipped:
            for tag in ("zero_balance_plus", "zero_balance_minus"):
                items.append(_item(tag, None, None, skipped=True,
                                   reason=f"skipped: {topo.balance.reason}"))
        else:
            items.append(_item("zero_balance_plus", topo.balance.residual_plus, 0.05))
            items.append(_item("zero_balance_minus", topo.balance.residual_minus, 0.05))
        if topo.ricci.skipped:
            ricci_entry = _item("ricci_3sphere_residual", None, None, skipped=True,
                                reason=topo.ricci.reason, diagnostic=True)
        else:
            ricci_entry = _item(
                "ricci_3sphere_residual", topo.ricci.residual, None, diagnostic=True,
                reason="diagnostic: vanishes only for surfaces of a great 3-sphere",
            )
        superminimality = topo.superminimality
    items.append(ricci_entry)

    failures = [it["tag"] for it in items
                if not it["passed"] and not it["skipped"] and not it["diagnostic"]]
    report = {
        "command": "verify",
        "source": meta,
        "grid": {"nu": patch.nu, "nv": patch.nv},
        "superminimality": superminimality,
        "items": items,
        "failures": failures,
        "passed": not failures,
    }
    _write_json(out / "report.json", report)

    for it in items:
        if it["skipped"]:
            status = "SKIP"
        elif it["diagnostic"]:
            status = "INFO"
        else:
            status = "PASS" if it["passed"] else "FAIL"
        val = "-" if it["value"] is None else f"{it['value']:.3e}"
        tol = "-" if it["tolerance"] is None else f"{it['tolerance']:.3e}"
        note = f"  ({it['reason']})" if it["reason"] else ""
        print(f"{status} {it['tag']}: value={val} tolerance={tol}{note}")
    print(f"verify: {'all checks passed' if not failures else 'FAILED: ' + ', '.join(failures)}")
    return EXIT_OK if not failures else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def _add_common(sp) -> None:
    src = sp.add_mutually_exclusive_group(required=True)
    src.add_argument("--catalog", help="named catalog surface")
    src.add_argument("--manifest", help="path to a sampled-immersion manifest")
    sp.add_argument("--n", type=int, default=256,
                    help="catalog resolution (power of two, 32..1024)")
    sp.add_argument("--jets", choices=("analytic", "fd"),
                    help="jet source override")
    sp.add_argument("--perturb", type=float,
                    help="normal perturbation amplitude (falsification runs)")
    sp.add_argument("--seed", type=int, default=0,
                    help="random seed for --perturb")
    sp.add_argument("--out", required=True, help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="s4min",
        description="Minimal-surface invariants, deformation families, and "
                    "monodromy on parameter grids over the 4-sphere.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("analyze", help="pointwise invariant fields and verdicts")
    _add_common(sp)
    sp.set_defaults(func=cmd_analyze)

    sp = sub.add_parser("deform", help="integrate one member of the deformation family")
    _add_common(sp)
    sp.add_argument("--theta", type=float, required=True, help="deformation angle")
    sp.set_defaults(func=cmd_deform)

    sp = sub.add_parser("monodromy", help="closing-set scan over the family angle")
    _add_common(sp)
    sp.add_argument("--scan", type=int, default=256, help="number of angle samples")
    sp.add_argument("--tol-close", type=float, default=None,
                    help="identity-distance closing tolerance")
    sp.set_defaults(func=cmd_monodromy)

    sp = sub.add_parser("verify", help="run the full identity suite with tolerances")
    _add_common(sp)
    sp.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(json.dumps({"error": {"code": exc.code, "message": str(exc)}},
                         sort_keys=True))
        return exc.exit_code
    except (CatalogError, MonodromyError, GridError, SurfaceError, TopologyError,
            FamilyError, AdaptedFrameError) as exc:
        print(json.dumps({"error": {"code": "E_SOURCE", "message": str(exc)}},
                         sort_keys=True))
        return EXIT_CONFIG
    except IntegrabilityBroken as exc:
        print(json.dumps({"error": {"code": "E_INTEGRABILITY", "message": str(exc)}},
                         sort_keys=True))
        return EXIT_INTEGRITY


if __name__ == "__main__":
    sys.exit(main())
