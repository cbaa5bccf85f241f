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
    assemble_maurer_cartan,
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
    second_fundamental_form,
    shape_report,
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
        raise CliError(
            EXIT_CONFIG, "E_CONFIG",
            f"resolution must be a power of two between 32 and 1024, got {n}",
        )
    return n


def _load_surface(args, floors: dict | None = None) -> tuple[ImmersionField, dict]:
    # every check that needs no surface runs before one is built: a catalog
    # at n=1024 takes about a second and 360 MB.  floors maps a catalog name
    # to the least n the command accepts for it.
    if args.catalog is not None:
        if args.catalog not in catalog_names():
            raise CliError(
                EXIT_CONFIG, "E_SOURCE",
                f"unknown catalog surface {args.catalog!r}; "
                f"available: {', '.join(catalog_names())}",
            )
        n = _check_resolution(args.n)
        floor = (floors or {}).get(args.catalog, 0)
        if n < floor:
            raise CliError(
                EXIT_CONFIG, "E_CONFIG",
                f"{args.command} of catalog:{args.catalog} needs n >= {floor}, "
                f"got {n}: below it the exact surface fails its checks",
            )
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
        raise CliError(
            EXIT_CONFIG, "E_CONFIG",
            "analytic jets requested but the source provides none",
        )
    if args.perturb is not None:
        # the perturbed field comes without jets, so the source's go before
        # shape_report differences the new position
        imm = perturb_immersion(imm, args.perturb, args.seed)
        meta["perturbation"] = {"amplitude": args.perturb, "seed": args.seed}
    meta["jet_source"] = imm.jet_source
    return imm, meta


def _connection_inputs(imm, e1, e2, nf, rep) -> tuple:
    """The arguments of connection_data, which are all it reads: a caller
    that holds only these lets the second jets, the metric and the other
    shape fields go before the connection is built."""
    return (imm.patch, imm.position, imm.jet1, e1, e2, nf.e3, nf.e4, rep.H3, rep.H4)


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


# ---------------------------------------------------------------------------
# analyze


def _holomorphy_max(rep, metric, hopf, sup) -> tuple[float | None, str]:
    """Max of hopf_differential, or None and why it is undefined on this chart."""
    try:
        return float(hopf_differential(rep, metric, hopf, sup).max()), ""
    except InputError as exc:
        return None, str(exc)


def cmd_analyze(args) -> int:
    imm, meta = _load_surface(args)
    # the shape stage step by step, each field dropped after its last
    # reader: past it only the metric and the report are read
    imm = imm.with_jets()
    e1, e2, metric = tangent_frame(imm)
    patch, position, jet2 = imm.patch, imm.position, imm.jet2
    del imm  # the first jets
    nf = normal_frame(patch, position, e1, e2)
    del position, e1, e2
    rep = second_fundamental_form(jet2, metric, nf)
    del jet2, nf
    sup = superminimality_test(rep)
    hopf = hopf_coefficient(rep)
    hopf_abs = np.abs(hopf)
    holo_max = _holomorphy_max(rep, metric, hopf, sup)[0]
    del hopf

    fields = {
        "K": rep.K,
        "K_N": rep.K_N,
        "kappa": rep.kappa,
        "mu": rep.mu,
        "a_plus": rep.a_plus,
        "a_minus": rep.a_minus,
        "hopf_abs": hopf_abs,
    }
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


# ---------------------------------------------------------------------------
# deform


def cmd_deform(args) -> int:
    # the family turns by 2 theta, so an angle whose double overflows is
    # refused with the non-finite ones
    if not math.isfinite(2.0 * args.theta):
        raise CliError(EXIT_CONFIG, "E_CONFIG",
                       f"deformation angle must be finite and so must twice it, "
                       f"got {args.theta}")
    imm, meta = _load_surface(args)
    imm, e1, e2, metric, nf, rep = shape_report(imm)
    inputs = _connection_inputs(imm, e1, e2, nf, rep)
    del imm, e1, e2, metric, nf, rep
    conn = connection_data(*inputs)
    patch, position = inputs[:2]  # the member is checked against them; the rest go now
    del inputs
    residual = float(congruence_residual(conn, args.theta))
    mc = assemble_maurer_cartan(conn, args.theta)
    seed = conn.origin
    del conn
    # the flatness temporaries and the member are never held together
    flatness = float(flatness_residual(mc).max())
    deformed = deformed_immersion(integrate_frame(mc, seed))
    del mc
    deviation = deformation_invariant_deviation(patch, position, deformed)
    del position
    if deviation > PATH_DEPENDENCE_TOL:
        raise CliError(
            EXIT_INTEGRITY, "E_INTEGRABILITY",
            f"the member's metric deviates from the source's by {deviation:.3e} "
            f"> {PATH_DEPENDENCE_TOL:.1e} (flatness residual {flatness:.3e}): the "
            "input is not minimal to working accuracy or the grid is too coarse")
    out = _out_dir(args)
    write_manifest(deformed, out / "deformed")

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
    imm, meta = _load_surface(args)
    imm, e1, e2, metric, nf, rep = shape_report(imm)
    chi_n = euler_numbers(rep, metric)[1] if rep.patch.closed else None
    inputs = _connection_inputs(imm, e1, e2, nf, rep)
    del imm, e1, e2, metric, nf, rep
    conn = connection_data(*inputs)
    del inputs  # the scan reads only the connection
    profile = scan_profile(conn, n_theta=args.scan)
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


# ---------------------------------------------------------------------------
# verify


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


# least n at which verify of each catalog surface passes, with analytic and
# with finite-difference jets: frame_source_deviation converges at order 4
# and first falls below PATH_DEPENDENCE_TOL there (clifford 9.7e-6 and
# 1.7e-5, geodesic-sphere 3.4e-5 and 3.4e-5, veronese 6.9e-5 and 6.9e-5;
# at half the floor 1.5e-4, 5.5e-4 and 1.1e-3 with analytic jets)
VERIFY_FLOOR = {"clifford": 64, "geodesic-sphere": 64, "veronese": 128}


def cmd_verify(args) -> int:
    imm, meta = _load_surface(args, VERIFY_FLOOR)
    imm, e1, e2, metric, nf, rep = shape_report(imm)
    patch = rep.patch
    h = max(patch.hu, patch.hv)
    tol_h2 = 5.0 * h * h
    items = []

    items.append(_item("unit_norm_drift", imm.norm_drift, 1e-9))
    items.append(_item("minimality_max", float(rep.minimality.max()), 1e-5))

    sup = superminimality_test(rep)  # what vanishes, decided once for every check below
    hopf = hopf_coefficient(rep)
    product_gap = float(np.abs(4.0 * np.abs(hopf) - rep.a_plus * rep.a_minus).max())
    items.append(_item("ellipse_radius_product", product_gap, 1e-9))

    holo, reason = _holomorphy_max(rep, metric, hopf, sup)
    items.append(_item("hopf_holomorphy", holo, tol_h2, reason))
    del hopf

    # every identity of the shape fields is taken now, so that they can go
    # before the connection is built; the global items follow its checks
    topo = topology_report(rep, metric, sup)
    for tag, residual in (("laplace_log_plus", topo.laplace_plus),
                          ("laplace_log_minus", topo.laplace_minus)):
        items.append(_item(tag, residual, tol_h2,
                           "radius field vanishes identically" if residual is None else ""))

    inputs = _connection_inputs(imm, e1, e2, nf, rep)
    rows = (imm.position, e1, e2, nf.e3, nf.e4)
    del imm, e1, e2, metric, nf, rep
    conn = connection_data(*inputs)
    del inputs
    mc0 = assemble_maurer_cartan(conn, 0.0)
    seed = conn.origin
    del conn
    # at theta = 0 the sweep must give back the source frame; the frame
    # fields go before the flatness temporaries are made
    deviation = frame_source_deviation(mc0, seed, rows)
    del rows
    flat0 = float(flatness_residual(mc0).max())
    items.append(_item("flatness_theta0", flat0, max(1e-9, tol_h2)))
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
    report = {
        "command": "verify",
        "source": meta,
        "grid": {"nu": patch.nu, "nv": patch.nv},
        "superminimality": sup.verdict if topo.unavailable is None else None,
        "items": items,
        "failures": failures,
        "passed": not failures,
    }
    out = _out_dir(args)
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
    except InputError as exc:
        print(json.dumps({"error": {"code": "E_SOURCE", "message": str(exc)}},
                         sort_keys=True))
        return EXIT_CONFIG
    except IntegrabilityBroken as exc:
        print(json.dumps({"error": {"code": "E_INTEGRABILITY", "message": str(exc)}},
                         sort_keys=True))
        return EXIT_INTEGRITY


if __name__ == "__main__":
    sys.exit(main())
