"""Batch front end: analyze, deform, monodromy, and verify commands.

Each command loads a surface (named catalog entry or sampled manifest),
runs one slice of the pipeline, and writes machine-readable reports into
an output directory.  Reports are deterministic: identical configurations
produce byte-identical files, so runs can be diffed.

Exit codes: 0 success, 1 verification failure, 2 bad input or
configuration, 3 numerical integrity failure (non-flat connection, a
member whose metric is not the source's, a CIRCLE verdict without the
congruence the paper's compact-surface theorem demands).
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from contextlib import ExitStack
from pathlib import Path

import numpy as np

from .adapted import hopf_coefficient, hopf_differential, superminimality_test
from .catalog import catalog_names, load_catalog, perturb_immersion, read_manifest, write_manifest
from .family import (
    PATH_DEPENDENCE_TOL,
    IntegrabilityBroken,
    MaurerCartanField,
    assemble_maurer_cartan,
    coframe,
    congruence_residual,
    connection_data,
    deformation_invariant_deviation,
    deformed_immersion,
    flatness_residual,
    frame_source_deviation,
    integrate_frame,
)
from .grid import InputError
from .monodromy import dichotomy_report, scan_profile
from .surface import (
    ImmersionField,
    normal_frame,
    second_fundamental_entries,
    shape_invariants,
    tangent_frame,
)
from .topology import euler_numbers, topology_report

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_INTEGRITY = 3

# r(theta) of family.congruence_residual below which a member counts as congruent
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


# CSV output: a header line, then comma-separated cells, one row per line.
# Every cell holds the bytes of Python's ``'%.17g' % x``, which round-trip
# every float64.  Formatting a million cells one at a time took longer than
# the whole geometry of ``analyze``, so ``_format_cells`` formats a whole
# array in numpy and certifies each cell, falling back to ``%.17g`` for the
# few it cannot certify.  Cells are NUL-padded rows of bytes; the writers
# lay cells, commas and newlines out in one array and drop the NULs.
#
# The 17 significant digits are those of the correctly rounded decimal
# (Gay 1990): D = round_half_even(|x| 10^(16-X)) in [10^16, 10^17), where X
# is the decimal exponent.  The product is taken as a double-double: Dekker's
# exact split product of |x| with the high part of 10^(16-X), plus |x| times
# its low part, which leaves an error below 1e-14 in the fraction of
# |x| 10^(16-X).  Cells whose fraction lies within _TIE_MARGIN of 1/2 (exact
# ties among them), non-finite cells and |x| outside the table's range go to
# ``%.17g``.  %g then writes 10^(-4) <= |x| < 10^17 in fixed notation and
# the rest as d.ddde+XX, without trailing zeros.

# "-d.dddddddddddddddde-ddd", the longest cell
_CELL_WIDTH = 24
# the double-double powers of ten cover |x| in [1e-270, 1e270), where
# neither the split nor the table entries overflow or underflow
_CERTIFIED_EXP = 270
_TIE_MARGIN = 1e-7
# u-rows formatted per block: the cells, masks and the padded rows of a
# whole n=512 chart would raise the peak RSS of ``analyze``
_FIELD_BLOCK_ROWS = 32


@functools.cache
def _cell_tables():
    """Built on first use: 10^(16-X) as (hi, hi split in two, lo) for every
    certified exponent X, and the four ASCII digits of 0..9999 as one
    little-endian uint32, first with and then without trailing zeros."""
    exps = range(-_CERTIFIED_EXP - 1, _CERTIFIED_EXP + 2)
    hi = np.empty(len(exps))
    lo = np.empty(len(exps))
    for i, e in enumerate(exps):
        # 10^(16-e) = num/den; int / int is correctly rounded
        num, den = (10 ** (16 - e), 1) if e <= 16 else (1, 10 ** (e - 16))
        hi[i] = num / den
        h_num, h_den = hi[i].as_integer_ratio()
        lo[i] = (num * h_den - h_num * den) / (den * h_den)
    hi_head, hi_tail = _split(hi)
    g = np.arange(10000)
    digits = np.stack([g // 1000, g // 100 % 10, g // 10 % 10, g % 10], axis=1)
    trailing = np.cumprod(digits[:, ::-1] == 0, axis=1)[:, ::-1].astype(bool)
    quads = np.concatenate([digits + 48, np.where(trailing, 0, digits + 48)])
    return exps[0], hi, hi_head, hi_tail, lo, quads.astype(np.uint8).view("<u4").ravel()


def _split(a: np.ndarray) -> tuple:
    """Dekker's split of doubles into two halves of 26 significant bits."""
    c = a * 134217729.0  # 2^27 + 1
    head = c - (c - a)
    return head, a - head


def _significand(a: np.ndarray, exp: np.ndarray) -> tuple:
    """y = |x| 10^(16-exp) rounded half up to an integer, the fraction of y
    and y - 10^16."""
    e0, hi, hi_head, hi_tail, lo, _ = _cell_tables()
    i = exp - e0
    h, hh, ht = hi.take(i), hi_head.take(i), hi_tail.take(i)
    ah, at = _split(a)
    p = a * h  # p + err is a * h exactly
    err = ((ah * hh - p) + ah * ht + at * hh) + at * ht
    t = err + a * lo.take(i)
    whole = np.floor(t)
    frac = t - whole
    # p >= 2^53 is an integer whenever exp is right
    return p.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5), frac, (p - 1e16) + t


def _format_cells(values) -> np.ndarray:
    """``'%.17g' % x`` for every x of ``values``, flattened: one row of
    _CELL_WIDTH ASCII bytes per cell, NUL-padded (NULs may sit anywhere)."""
    x = np.asarray(values, dtype=float).ravel()
    out = np.zeros((x.size, _CELL_WIDTH), np.uint8)
    out[:, 0] = np.signbit(x) * np.uint8(ord("-"))
    a = np.abs(x)
    fast = (a >= 10.0 ** -_CERTIFIED_EXP) & (a < 10.0 ** _CERTIFIED_EXP)
    if fast.all():
        idx = None
    else:
        out[a == 0, 1] = ord("0")
        idx = np.flatnonzero(fast)
        a = a[idx]
    quads = _cell_tables()[-1]

    # floor(log10) can miss the exponent by one next to a power of ten, and
    # then y = |x| 10^(16-exp) falls below 10^16 or rounds above 10^17: those
    # cells are redone.  y less than _TIE_MARGIN below 10^16 rounds to 10^16
    # in either exponent, and y rounded to 10^17 carries to the next one.
    exp = np.floor(np.log10(a)).astype(np.int64)
    D, frac, above = _significand(a, exp)
    redo = np.flatnonzero((above < -_TIE_MARGIN) | (D > 10 ** 17))
    while redo.size:
        exp[redo] += np.where(D[redo] > 10 ** 17, 1, -1)
        D[redo], frac[redo], above[redo] = _significand(a[redo], exp[redo])
        redo = redo[(above[redo] < -_TIE_MARGIN) | (D[redo] > 10 ** 17)]
    carry = D == 10 ** 17
    D[carry] = 10 ** 16
    exp += carry
    unsure = np.abs(frac - 0.5) < _TIE_MARGIN

    # the 17 digits as 20 bytes: 3 pad bytes, d0, then four groups of four;
    # a group takes the table without trailing zeros when all later groups
    # are zero, so the digits end at the last nonzero one
    high = D // 10 ** 8
    low = D - high * 10 ** 8
    head = high // 10 ** 4
    d0 = head // 10 ** 4
    words = np.empty((a.size, 5), "<u4")
    words[:, 0] = (d0 + ord("0")) << 24
    groups = (head - d0 * 10 ** 4, high - head * 10 ** 4, low // 10 ** 4, low % 10 ** 4)
    tail = np.ones(a.size, bool)
    for j in (3, 2, 1, 0):
        words[:, 1 + j] = quads.take(groups[j] + tail * 10 ** 4)
        tail &= groups[j] == 0
    digits = words.view(np.uint8)[:, 3:]

    # lay out each group of cells of one format: exponent form, or fixed
    # with exponent -4..16
    form = np.where((exp >= -4) & (exp < 17), exp + 5, 0)
    res = out[:, 1:] if idx is None else np.zeros((a.size, _CELL_WIDTH - 1), np.uint8)
    for f, count in enumerate(np.bincount(form, minlength=22)):
        if count == 0:
            continue
        sel = slice(None) if count == a.size else np.flatnonzero(form == f)
        blk = res if count == a.size else np.empty((count, _CELL_WIDTH - 1), np.uint8)
        d = digits[sel]
        e = exp[sel] if f == 0 else f - 5
        if f == 0:
            blk[:, 0] = d[:, 0]
            blk[:, 1] = (d[:, 1] != 0) * np.uint8(ord("."))
            blk[:, 2:18] = d[:, 1:]
            blk[:, 18] = ord("e")
            blk[:, 19] = np.where(e < 0, ord("-"), ord("+"))
            blk[:, 20:] = quads.take(np.abs(e)).view(np.uint8).reshape(-1, 4)[:, 1:]
            blk[:, 20] *= np.abs(e) >= 100
        elif e >= 0:
            blk[:, :e + 1] = d[:, :e + 1] | ord("0")  # integer digits keep their zeros
            blk[:, e + 1] = (d[:, e + 1] != 0) * np.uint8(ord(".")) if e < 16 else 0
            blk[:, e + 2:18] = d[:, e + 1:]
            blk[:, 18:] = 0
        else:
            blk[:, :1 - e] = ord("0")
            blk[:, 1] = ord(".")
            blk[:, 1 - e:18 - e] = d
            blk[:, 18 - e:] = 0
        if count < a.size:
            res[sel] = blk

    if idx is None:
        back = np.flatnonzero(unsure)
    else:
        out[idx, 1:] = res
        back = np.concatenate([np.flatnonzero(~fast & (x != 0)), idx[unsure]])
    if back.size:
        cells = ["%.17g" % v for v in x[back].tolist()]
        out[back] = np.array(cells, dtype=f"S{_CELL_WIDTH}").view(np.uint8).reshape(back.size, -1)
    return out


def _csv_open(path: Path, header: str):
    f = open(path, "wb")
    f.write(header.encode("ascii") + b"\n")
    return f


def _write_rows(f, rows: np.ndarray) -> None:
    """Write NUL-padded rows of bytes without their NULs."""
    f.write(rows[rows != 0].tobytes())


def _write_field_csvs(out: Path, patch, fields: dict) -> None:
    """Write ``<name>.csv`` per field: ``u,v,value`` rows, u-major, v fastest."""
    us, vs = (cells[:, cells.any(axis=0)]  # columns that are NUL in every row go
              for cells in (_format_cells(patch.u_coords()), _format_cells(patch.v_coords())))
    wu, wv = us.shape[1], vs.shape[1]
    with ExitStack() as stack:
        files = [(stack.enter_context(_csv_open(out / f"{name}.csv", "u,v,value")),
                  np.asarray(values, dtype=float).reshape(patch.nu, patch.nv))
                 for name, values in fields.items()]
        for start in range(0, patch.nu, _FIELD_BLOCK_ROWS):
            block = us[start:start + _FIELD_BLOCK_ROWS]
            rows = np.empty((len(block), patch.nv, wu + wv + 3 + _CELL_WIDTH), np.uint8)
            rows[:, :, :wu] = block[:, None]
            rows[:, :, wu] = ord(",")
            rows[:, :, wu + 1:wu + 1 + wv] = vs
            rows[:, :, wu + 1 + wv] = ord(",")
            rows[:, :, -1] = ord("\n")
            for f, values in files:
                cells = _format_cells(values[start:start + len(block)])
                rows[:, :, wu + wv + 2:-1] = cells.reshape(len(block), patch.nv, -1)
                _write_rows(f, rows)


def _write_table_csv(path: Path, header: str, columns) -> None:
    """Write equal-length columns as one CSV row per index."""
    table = np.column_stack(columns)
    rows = np.empty(table.shape + (_CELL_WIDTH + 1,), np.uint8)
    rows[..., :-1] = _format_cells(table).reshape(rows.shape[0], rows.shape[1], -1)
    rows[..., -1] = ord(",")
    rows[:, -1, -1] = ord("\n")
    with _csv_open(path, header) as f:
        _write_rows(f, rows)


def _span(values: np.ndarray) -> dict:
    return {"min": float(values.min()), "max": float(values.max())}


# ---------------------------------------------------------------------------
# surface loading


def _check_resolution(n: int) -> int:
    if n < 32 or n > 1024 or (n & (n - 1)) != 0:
        raise CliError(EXIT_CONFIG, "E_CONFIG",
                       f"resolution must be a power of two between 32 and 1024, got {n}")
    return n


def _load_surface(args) -> tuple[ImmersionField, dict]:
    # every check that needs no surface runs before one is built: a catalog
    # at n=1024 takes about a second and 360 MB.  A command's own checks
    # run before this, as its first stage.
    if args.catalog is not None:
        if args.catalog not in catalog_names():
            raise CliError(EXIT_CONFIG, "E_SOURCE", f"unknown catalog surface {args.catalog!r}; "
                           f"available: {', '.join(catalog_names())}")
        n = _check_resolution(args.n)
    else:
        path = Path(args.manifest)
        if not path.is_file():
            raise CliError(EXIT_CONFIG, "E_SOURCE", f"manifest not found: {path}")
    if args.perturb is not None:
        if not (math.isfinite(args.perturb) and args.perturb > 0):
            raise CliError(EXIT_CONFIG, "E_CONFIG",
                           f"perturbation amplitude must be positive and finite, "
                           f"got {args.perturb}")
        if args.seed < 0:
            raise CliError(EXIT_CONFIG, "E_CONFIG",
                           f"perturbation seed must be non-negative, got {args.seed}")

    if args.catalog is not None:
        imm = load_catalog(args.catalog, n).immersion
        meta = {"source": f"catalog:{args.catalog}", "n": n}
    else:
        imm, drift = read_manifest(path)
        meta = {
            "source": f"manifest:{path.name}",
            "n": [imm.patch.nu, imm.patch.nv],
            "norm_drift": drift,
        }
    if args.jets == "fd" and imm.jet_source != "fd":
        imm = imm.with_fd_jets()
    elif args.jets == "analytic" and imm.jet_source != "analytic":
        raise CliError(EXIT_CONFIG, "E_CONFIG",
                       "analytic jets requested but the source provides none")
    if args.perturb is not None:
        # the perturbed field comes without jets: the source's go, and the
        # new position is differenced
        imm = perturb_immersion(imm, args.perturb, args.seed)
        meta["perturbation"] = {"amplitude": args.perturb, "seed": args.seed}
    meta["jet_source"] = imm.jet_source
    return imm.with_jets(), meta


def _out_dir(args) -> Path:
    """The output directory, made just before a command's first write: a
    run refused before then leaves none behind."""
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CliError(EXIT_CONFIG, "E_CONFIG",
                       f"cannot create output directory {out}: {exc.strerror}") from exc
    return out


# each command's own argument checks, its first stage


def _check_theta(args):
    # the family turns by 2 theta, so an angle whose double overflows is
    # refused with the non-finite ones
    if not math.isfinite(2.0 * args.theta):
        raise CliError(EXIT_CONFIG, "E_CONFIG",
                       f"deformation angle must be finite and so must twice it, "
                       f"got {args.theta}")
    return args


def _check_scan(args):
    if args.scan < 64:
        raise CliError(EXIT_CONFIG, "E_SCAN_TOO_COARSE",
                       f"scan needs at least 64 angle samples, got {args.scan}")
    # peak RSS grows by about 1 KB per angle (Clifford n=32 peaks at 122 MB
    # with 65,536 angles), so an unbounded scan can exhaust memory
    if args.scan > 65536:
        raise CliError(EXIT_CONFIG, "E_CONFIG",
                       f"scan takes at most 65536 angle samples, got {args.scan}")
    return args


# least n at which verify of each catalog surface passes, with analytic and
# with finite-difference jets: frame_source_deviation converges at order 4
# and first falls below PATH_DEPENDENCE_TOL there (clifford 9.7e-6 and
# 1.7e-5, geodesic-sphere 3.4e-5 and 3.4e-5, veronese 6.9e-5 and 6.9e-5;
# at half the floor 1.5e-4, 5.5e-4 and 1.1e-3 with analytic jets)
VERIFY_FLOOR = {"clifford": 64, "geodesic-sphere": 64, "veronese": 128}


def _check_floor(args):
    # an unknown name is left to the load; a bad resolution is refused as the load would
    floor = VERIFY_FLOOR.get(args.catalog, 0)
    if floor and _check_resolution(args.n) < floor:
        raise CliError(EXIT_CONFIG, "E_CONFIG", f"verify of catalog:{args.catalog} needs "
                       f"n >= {floor}, got {args.n}: below it the exact surface fails its checks")
    return args


# ---------------------------------------------------------------------------
# the commands' outputs


def _holomorphy_max(rep, metric, hopf, sup) -> tuple[float | None, str]:
    """Max of hopf_differential, or None and why it is undefined on this chart."""
    try:
        return float(hopf_differential(rep, metric, hopf, sup).max()), ""
    except InputError as exc:
        return None, str(exc)


def _analyze_output(args, meta, metric, rep) -> int:
    sup = superminimality_test(rep)
    hopf = hopf_coefficient(rep)
    hopf_abs = np.abs(hopf)
    holo_max = _holomorphy_max(rep, metric, hopf, sup)[0]
    del hopf

    fields = {name: getattr(rep, name)
              for name in ("K", "K_N", "kappa", "mu", "a_plus", "a_minus")}
    fields["hopf_abs"] = hopf_abs
    out = _out_dir(args)
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


def _deform_output(args, meta, residual, flatness, deviation, member) -> int:
    if deviation > PATH_DEPENDENCE_TOL:
        raise CliError(
            EXIT_INTEGRITY, "E_INTEGRABILITY",
            f"the member's metric deviates from the source's by {deviation:.3e} "
            f"> {PATH_DEPENDENCE_TOL:.1e} (flatness residual {flatness:.3e}): the "
            "input is not minimal to working accuracy or the grid is too coarse")
    out = _out_dir(args)
    write_manifest(member, out / "deformed")

    congruent = residual < CONGRUENCE_TOL
    report = {
        "command": "deform",
        "source": meta,
        "theta": args.theta,
        "flatness_residual": flatness,
        "invariant_deviation": deviation,
        "deformed_manifest": "deformed/manifest.json",
        "congruence": {"residual": residual, "congruent": congruent},
    }
    _write_json(out / "report.json", report)
    verdict = "congruent" if congruent else "noncongruent"
    print(f"deform: theta={args.theta:.10g} -> {verdict} (residual {residual:.3e})")
    return EXIT_OK


def _monodromy_output(args, meta, chi_n, profile) -> int:
    # a compact surface with nontrivial normal bundle has only finitely
    # many noncongruent members, so a CIRCLE verdict needs congruent ones
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
    out = _out_dir(args)
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


def _item(tag, value, tolerance, reason="", diagnostic=False):
    """One verify check.  A check that did not run has value None: it is
    skipped, carries no tolerance and does not fail."""
    skipped = value is None
    return {
        "tag": tag,
        "value": None if skipped else float(value),
        "tolerance": None if skipped or tolerance is None else float(tolerance),
        "passed": skipped or diagnostic or bool(value <= tolerance),
        "skipped": skipped,
        "diagnostic": diagnostic,
        "reason": reason,
    }


def _shape_identities(patch, norm_drift, metric, rep) -> tuple:
    """verify's items on the shape fields, taken before the connection is
    built so that those fields can go, with what vanishes (decided once
    for every check), the topology report of the global items and the
    O(h^2) tolerance."""
    h = max(patch.hu, patch.hv)
    tol_h2 = 5.0 * h * h
    items = [_item("unit_norm_drift", norm_drift, 1e-9),
             _item("minimality_max", float(rep.minimality.max()), 1e-5)]
    sup = superminimality_test(rep)
    hopf = hopf_coefficient(rep)
    product_gap = float(np.abs(4.0 * np.abs(hopf) - rep.a_plus * rep.a_minus).max())
    items.append(_item("ellipse_radius_product", product_gap, 1e-9))
    holo, reason = _holomorphy_max(rep, metric, hopf, sup)
    items.append(_item("hopf_holomorphy", holo, tol_h2, reason))
    del hopf
    topo = topology_report(rep, metric, sup)
    for tag, residual in (("laplace_log_plus", topo.laplace_plus),
                          ("laplace_log_minus", topo.laplace_minus)):
        items.append(_item(tag, residual, tol_h2,
                           "radius field vanishes identically" if residual is None else ""))
    return items, sup, topo, tol_h2


def _verify_output(args, meta, patch, items, sup, topo, tol_h2, flatness, deviation) -> int:
    items.append(_item("flatness_theta0", flatness, max(1e-9, tol_h2)))
    items.append(_item("frame_source_deviation", deviation, PATH_DEPENDENCE_TOL))
    if topo.unavailable is not None:
        reason = f"global invariants unavailable: {topo.unavailable}"
        for tag in ("euler_chi_surface", "euler_chi_normal",
                    "zero_balance_plus", "zero_balance_minus"):
            items.append(_item(tag, None, None, reason))
    else:
        items.append(_item("euler_chi_surface", topo.chi_M.gap, 0.02))
        items.append(_item("euler_chi_normal", topo.chi_Nf.gap, 0.02))
        balance = topo.balance
        reason = "" if balance.residual_plus is not None else f"skipped: {balance.reason}"
        items.append(_item("zero_balance_plus", balance.residual_plus, 0.05, reason))
        items.append(_item("zero_balance_minus", balance.residual_minus, 0.05, reason))
        reason = ("diagnostic: vanishes only for surfaces of a great 3-sphere"
                  if topo.ricci is not None else "1 - K vanishes on the whole chart")
    items.append(_item("ricci_3sphere_residual", topo.ricci, None, reason, diagnostic=True))

    failures = [it["tag"] for it in items if not it["passed"]]
    # the verdict is reported on every chart, the open ones included
    report = {
        "command": "verify",
        "source": meta,
        "grid": {"nu": patch.nu, "nv": patch.nv},
        "superminimality": sup.verdict,
        "items": items,
        "failures": failures,
        "passed": not failures,
    }
    out = _out_dir(args)
    _write_json(out / "report.json", report)
    for it in items:
        status = ("SKIP" if it["skipped"] else "INFO" if it["diagnostic"]
                  else "PASS" if it["passed"] else "FAIL")
        val = "-" if it["value"] is None else f"{it['value']:.3e}"
        tol = "-" if it["tolerance"] is None else f"{it['tolerance']:.3e}"
        note = f"  ({it['reason']})" if it["reason"] else ""
        print(f"{status} {it['tag']}: value={val} tolerance={tol}{note}")
    print(f"verify: {'all checks passed' if not failures else 'FAILED: ' + ', '.join(failures)}")
    return EXIT_OK if not failures else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------
# the stage runner

# stage -> ("the fields it reads -> the fields it writes", what it runs), called
# with the fields it reads and returning the one it writes, or a tuple of
# several.  This module's own functions are named directly.  A library
# function is called from a lambda, which looks its name up here as the
# stage runs: rebinding cli.<name> is how the tests and the benchmark's
# tracer watch it.
STAGES = {
    "check_theta": ("args -> args", _check_theta),
    "check_scan": ("args -> args", _check_scan),
    "check_floor": ("args -> args", _check_floor),
    "load": ("args -> imm meta", _load_surface),
    # the immersion goes; its position and jets live on, each to its last reader
    "tangent": ("imm -> patch position jet1 jet2 norm_drift e1 e2 metric", lambda imm: (
        imm.patch, imm.position, imm.jet1, imm.jet2, imm.norm_drift, *tangent_frame(imm))),
    # the connection's one reading of the first jets: they go before the normal frame
    "coframe": ("jet1 e1 e2 -> w", lambda *a: coframe(*a)),
    "normal": ("patch position e1 e2 -> nf", lambda *a: normal_frame(*a)),
    # the second jets go before the invariants are made
    "shape": ("jet2 metric nf -> H3 H4 minimality", lambda *a: second_fundamental_entries(*a)),
    "invariants": ("patch H3 H4 minimality -> rep", lambda *a: shape_invariants(*a)),
    "identities": ("patch norm_drift metric rep -> items sup topo tol_h2", _shape_identities),
    "euler": ("patch metric rep -> chi_n",
              lambda patch, metric, rep: euler_numbers(rep, metric)[1] if patch.closed else None),
    "connection": ("patch position w e1 e2 nf H3 H4 -> conn", lambda p, f, w, e1, e2, nf, H3, H4:
                   connection_data(p, f, w, e1, e2, nf.e3, nf.e4, H3, H4)),
    "congruence": ("args conn -> residual",
                   lambda args, conn: float(congruence_residual(conn, args.theta))),
    "omega": ("args conn -> mc origin", lambda args, conn: (
        assemble_maurer_cartan(conn, args.theta), conn.origin)),
    # the connection's buffer is laid out as Omega_0: no copy is made
    "omega_0": ("conn -> mc origin", lambda conn: (
        MaurerCartanField(conn.patch, conn.forms), conn.origin)),
    # at theta = 0 the sweep must give back the source frame
    "source": ("mc origin position e1 e2 nf -> deviation", lambda mc, origin, f, e1, e2, nf:
               frame_source_deviation(mc, origin, (f, e1, e2, nf.e3, nf.e4))),
    "flatness": ("mc -> flatness", lambda mc: float(flatness_residual(mc).max())),
    "member": ("mc origin -> member", lambda mc, o: deformed_immersion(integrate_frame(mc, o))),
    "member_metric": ("patch position member -> deviation",
                      lambda *a: deformation_invariant_deviation(*a)),
    "scan": ("args conn -> profile", lambda args, conn: scan_profile(conn, n_theta=args.scan)),
    "analyze_output": ("args meta metric rep ->", _analyze_output),
    "deform_output": ("args meta residual flatness deviation member ->", _deform_output),
    "monodromy_output": ("args meta chi_n profile ->", _monodromy_output),
    "verify_output": ("args meta patch items sup topo tol_h2 flatness deviation ->",
                      _verify_output),
}

_SHAPE = ("load", "tangent", "coframe", "normal", "shape")
COMMANDS = {
    "analyze": ("load", "tangent", "normal", "shape", "invariants", "analyze_output"),
    # the flatness temporaries and the member are never held together
    "deform": ("check_theta",) + _SHAPE + ("connection", "congruence", "omega", "flatness",
                                           "member", "member_metric", "deform_output"),
    "monodromy": ("check_scan",) + _SHAPE + ("invariants", "euler", "connection", "scan",
                                             "monodromy_output"),
    # the frame fields go before the flatness temporaries are made
    "verify": ("check_floor",) + _SHAPE + ("invariants", "identities", "connection", "omega_0",
                                           "source", "flatness", "verify_output"),
}


def stage_fields(name: str) -> tuple[list, list]:
    """The fields a stage reads and the fields it writes."""
    reads, writes = STAGES[name][0].split("->")
    return reads.split(), writes.split()


def last_readers(command: str) -> dict:
    """Field -> the index of the last of the command's stages that reads it."""
    return {k: i for i, name in enumerate(COMMANDS[command]) for k in stage_fields(name)[0]}


def _run(args) -> int:
    """Run the command's stages in order and drop each field after the
    last stage that reads it; a field that no later stage reads goes as
    soon as it is written."""
    last = last_readers(args.command)
    fields = {"args": args}
    for i, name in enumerate(COMMANDS[args.command]):
        reads, writes = stage_fields(name)
        out = STAGES[name][1](*[fields[k] for k in reads])
        if not writes:
            return out
        fields.update(zip(writes, out if len(writes) > 1 else (out,)))
        del out
        for k in [k for k in fields if last.get(k, i) <= i]:
            del fields[k]


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
    _add_common(sub.add_parser("analyze", help="pointwise invariant fields and verdicts"))
    sp = sub.add_parser("deform", help="integrate one member of the deformation family")
    _add_common(sp)
    sp.add_argument("--theta", type=float, required=True, help="deformation angle")
    sp = sub.add_parser("monodromy", help="closing-set scan over the family angle")
    _add_common(sp)
    sp.add_argument("--scan", type=int, default=256, help="number of angle samples")
    _add_common(sub.add_parser("verify", help="run the full identity suite with tolerances"))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except CliError as exc:
        error, status = {"code": exc.code, "message": str(exc)}, exc.exit_code
    except InputError as exc:
        error, status = {"code": "E_SOURCE", "message": str(exc)}, EXIT_CONFIG
    except IntegrabilityBroken as exc:
        error, status = {"code": "E_INTEGRABILITY", "message": str(exc)}, EXIT_INTEGRITY
    print(json.dumps({"error": error}, sort_keys=True))
    return status


if __name__ == "__main__":
    sys.exit(main())
