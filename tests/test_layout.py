"""Build modules hold only the build path.

Every function and method of the build modules (``embed``, ``homology``,
``reduction``, ``cuttree``, ``merge``, ``query``, ``weights`` and ``cli``)
must be named, outside its own body, somewhere the build can reach it: a surfcut module other than the reference code (``oracle``), the
side module ``hpath`` and the instance generators (``gen``), which includes
the ``verify`` command in ``cli``; or the list of names surfbench's tracer
wraps.  Code that only tests and oracles use belongs in ``oracle.py``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "surfcut"
BUILD = ("embed", "homology", "reduction", "cuttree", "merge", "query",
         "weights", "cli")
NOT_BUILD = ("oracle", "hpath", "gen")
# the side of a query's minimum cut, for the planned ``surfcut explain``
EXCEPTIONS = {("query", "cut_partition")}
FUNCTION = (ast.FunctionDef, ast.AsyncFunctionDef)


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def definitions(tree):
    """Qualified names of the module-level functions and the methods of
    module-level classes, dunder methods left out."""
    out = []
    for node in tree.body:
        if isinstance(node, FUNCTION):
            out.append(node.name)
        elif isinstance(node, ast.ClassDef):
            out += [f"{node.name}.{item.name}" for item in node.body
                    if isinstance(item, FUNCTION)
                    and not item.name.startswith("__")]
    return out


def references(tree):
    """Each name used as a ``Name`` or ``Attribute``, with the names of the
    functions whose bodies hold that use."""
    out = []

    def visit(node, inside):
        if isinstance(node, FUNCTION):
            inside = inside | {node.name}
        elif isinstance(node, ast.Name):
            out.append((node.id, inside))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, inside))
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return out


def traced_names():
    """The attribute names ``Tracer.installed()`` looks up and wraps: the
    second item of every ``(owner, attr, ...)`` tuple in its lists."""
    tree = parse(ROOT / "surfbench" / "tracer.py")
    out = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Tuple) and len(node.elts) >= 3
                and isinstance(node.elts[1], ast.Constant)
                and isinstance(node.elts[1].value, str)):
            out.add(node.elts[1].value)
    return out


def used_names():
    used = set(traced_names())
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem not in NOT_BUILD:
            used |= {name for name, inside in references(parse(path))
                     if name not in inside}
    return used


def test_tracer_list_is_read():
    assert {"tight_cycle_walk", "cut_along_curves", "gomory_hu",
            "leaves_under"} <= traced_names()


def test_every_build_module_function_is_used_by_the_build():
    used = used_names()
    unused = [f"{module}.{name}" for module in BUILD
              for name in definitions(parse(PACKAGE / f"{module}.py"))
              if name.rsplit(".", 1)[-1] not in used
              and (module, name) not in EXCEPTIONS]
    assert not unused, ("only tests or oracles call these; move them to "
                        f"oracle.py: {unused}")


def test_exceptions_are_still_defined():
    for module, name in EXCEPTIONS:
        assert name in definitions(parse(PACKAGE / f"{module}.py"))
