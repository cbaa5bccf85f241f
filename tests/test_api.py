"""Every top-level library name serves the command line or is a stated oracle.

The command line is the program; library code that only tests call is kept
only when it is an oracle that tests compare the program against.  This
test writes that list down and fails on any top-level name of the package
that neither ``cli.py`` nor a stated oracle reaches by name reference.
"""

import ast
from pathlib import Path

import s4min

SRC = Path(s4min.__file__).parent

# test-only library code that is kept on purpose, with the reason
STATED_ORACLES = {
    "synthetic_zero_field": "zero-count oracle: radius fields with prescribed zeros",
    "zero_orders": "zero-count oracle: winding orders against the flux counts",
    "winding_number": "zero-count oracle: winding around one zero (acceptance test 6)",
    "rectangle_loop": "homotopy oracle of generator_monodromy: contractible loops",
    "concatenate_loops": "composition oracle of generator_monodromy: M(a.b) = M(a) M(b)",
    "deformation_invariant_deviation": "isometry oracle of acceptance test 4",
    "rotate_normal_frame": "gauge oracle: invariants under normal-gauge rotation",
    "flip_normal_orientation": "gauge oracle: invariants under normal orientation flip",
    "frame_orthonormality_residual": "frame oracle: orthonormality of the built frames",
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
    "CongruenceFit.isometry": "the fitted isometry that test_family compares",
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
    attribute of that name is read.
    """
    fields, reads = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
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
