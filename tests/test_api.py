"""Every top-level library name serves the command line or is a stated oracle;
every import is used.

The command line is the program; library code that only tests call is kept
only when it is an oracle that tests compare the program against.  This
test writes that list down and fails on any top-level name of the package
that neither ``cli.py`` nor a stated oracle reaches by name reference.
The public API, ``s4min.__all__``, is exactly the classes and functions
``cli.py`` imports plus the stated oracles.  The test also checks that
every name the benchmark's tracer (``bench/tracer.py``) hooks or reads
still exists.
"""

import ast
import importlib
from pathlib import Path

import numpy as np

import s4min
from s4min.catalog import load_catalog
from s4min.family import coframe, connection_data
from s4min.surface import shape_report

SRC = Path(s4min.__file__).parent

# test-only library code that is kept on purpose, with the reason
STATED_ORACLES = {
    "synthetic_zero_field": "zero-count oracle: radius fields with prescribed zeros",
    "zero_orders": "zero-count oracle: winding orders against the flux counts",
    "winding_number": "zero-count oracle: winding around one zero (acceptance test 6)",
    "congruence_test": "Procrustes oracle: r(theta) against the fitted member",
    "CongruenceFit": "result of the congruence_test oracle",
    "rotate_normal_frame": "gauge oracle: invariants under normal-gauge rotation",
    "flip_normal_orientation": "gauge oracle: invariants under normal orientation flip",
    "frame_orthonormality_residual": "frame oracle: orthonormality of the built frames",
    "frame_reconstruction_residual": "pointwise reference for the source check",
    "laplace_identity_residual": "one-radius reference for topology_report's Laplace residuals",
    "shape_report": "the shape stage in one call, the command line's stages unsplit",
}


def _module_index():
    """Per module: top-level definitions and the names it imports from the package."""
    defs, imports = {}, {}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue  # re-exports only; counting them would reach everything
        mod = path.stem
        defs[mod], imports[mod] = {}, {}
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[mod][node.name] = node
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name):
                            defs[mod][name.id] = node
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    imports[mod][alias.asname or alias.name] = (node.module, alias.name)
    return defs, imports


def _resolve(defs, imports, mod, name):
    while name not in defs[mod]:
        if name not in imports[mod]:
            return None
        mod, name = imports[mod][name]
    return mod, name


def _references(node):
    return [sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name)]


def unreachable_names():
    defs, imports = _module_index()
    owners = {}
    for mod, names in defs.items():
        for name in names:
            owners.setdefault(name, []).append(mod)
    for name in STATED_ORACLES:
        assert len(owners.get(name, [])) == 1, f"stated oracle {name!r} is not one top-level name"

    reached = set()
    todo = [("cli", name) for name in defs["cli"]]
    todo += [(owners[name][0], name) for name in STATED_ORACLES]
    while todo:
        key = _resolve(defs, imports, *todo.pop())
        if key is None or key in reached:
            continue
        reached.add(key)
        mod, name = key
        todo += [(mod, ref) for ref in _references(defs[mod][name])]
    return sorted(f"{mod}.{name}" for mod, names in defs.items()
                  for name in names if (mod, name) not in reached)


def test_no_test_only_library_code():
    assert unreachable_names() == []


def test_public_api_is_what_cli_imports_and_the_oracles():
    defs, imports = _module_index()
    cli_api = set()
    for name in imports["cli"]:
        mod, defined = _resolve(defs, imports, "cli", name)
        if isinstance(defs[mod][defined], (ast.FunctionDef, ast.ClassDef)):
            cli_api.add(defined)
    assert set(s4min.__all__) == cli_api | set(STATED_ORACLES)


# dataclass fields that no library code reads, kept on purpose, with the reason
STATED_FIELDS = {
    "ZeroCount.per_zero": "answers block: N(a+-) per zero (ROADMAP item 3)",
    "ZeroCount.locations": "answers block: where each zero of a+- lies (ROADMAP item 3)",
    "ZeroCount.excised_integral": "flux-count oracle: the excised Laplacian quadrature",
    "TopologyReport.count_plus": "answers block: N(a+) (ROADMAP item 3)",
    "TopologyReport.count_minus": "answers block: N(a-) (ROADMAP item 3)",
    "ZeroOrder.location": "output of the zero_orders oracle",
    "ZeroOrder.order": "output of the zero_orders oracle",
    "ZeroOrder.flagged": "output of the zero_orders oracle",
    "CatalogEntry.truth": "ground truth of the catalog surfaces",
    "CongruenceFit.isometry": "output of the congruence_test oracle",
    "CongruenceFit.residual": "output of the congruence_test oracle",
}


def _is_dataclass(node):
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def unread_fields():
    """Dataclass fields of the package never read as an attribute in it.

    A read is any ``x.name`` load, or ``getattr(x, "name", ...)``; the
    scan goes by name, so a field counts as read when any object's
    attribute of that name is read.  Reads inside the stated oracles do
    not count: an oracle that copies a field into its result is no
    reader of it.
    """
    fields, reads = [], set()
    for path in sorted(SRC.glob("*.py")):
        scanned = [node for node in ast.parse(path.read_text()).body
                   if not (isinstance(node, ast.FunctionDef) and node.name in STATED_ORACLES)]
        for node in (sub for top in scanned for sub in ast.walk(top)):
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                fields += [f"{node.name}.{item.target.id}" for item in node.body
                           if isinstance(item, ast.AnnAssign)
                           and isinstance(item.target, ast.Name)]
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.add(node.attr)
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "getattr" and len(node.args) >= 2
                  and isinstance(node.args[1], ast.Constant)):
                reads.add(node.args[1].value)
    return sorted(f for f in fields if f.split(".")[1] not in reads)


def test_no_unread_report_fields():
    assert unread_fields() == sorted(STATED_FIELDS)


def unused_imports():
    """Names a module imports at top level but never loads.

    ``__init__`` is left out: its imports are the public API.  No linter
    runs on the package, so this is the check that keeps dead imports out.
    """
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused += [f"{path.stem}.{name}" for name in
                           ((alias.asname or alias.name).split(".")[0] for alias in node.names)
                           if name not in loaded]
    return sorted(unused)


def test_no_unused_imports():
    assert unused_imports() == []


TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _tracer_assignment(name):
    """The value node of a top-level assignment in bench/tracer.py, which
    is read, not imported."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return node.value
    raise AssertionError(f"{TRACER} assigns no {name}")


def test_traced_functions_exist():
    # the benchmark's tracer rebinds these by name; a rename or removal
    # would silently drop their spans from the per-layer metrics
    layers = ast.literal_eval(_tracer_assignment("LAYERS"))
    missing = [f"{mod}.{name}" for mod, names in layers.items() for name in names
               if not callable(getattr(importlib.import_module(f"s4min.{mod}"), name, None))]
    assert missing == []


def test_connection_data_has_the_traced_forms():
    # the tracer's EXTRA records the bytes of connection_data's C0, C1 and C2
    extra = _tracer_assignment("EXTRA")
    lam = next(v for k, v in zip(extra.keys, extra.values)
               if ast.literal_eval(k) == "family.connection_data")
    read = {node.attr for node in ast.walk(lam) if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "out"}
    assert read  # C0, C1 and C2
    imm, e1, e2, _, nf, rep = shape_report(load_catalog("clifford", 16).immersion)
    conn = connection_data(imm.patch, imm.position, coframe(imm.jet1, e1, e2), e1, e2,
                           nf.e3, nf.e4, rep.H3, rep.H4)
    assert all(isinstance(getattr(conn, name, None), np.ndarray) for name in read)
