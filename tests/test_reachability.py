"""Every definition in ``src/`` has a product caller.

A name scan over the package source.  The roots are ``cli.main`` and the
module-level statements of every module; imports are left out, as they
call nothing.  A reached function, class or method adds every name that
its code mentions, as a bare name or an attribute.  A function or class
whose name is mentioned either way is reached in turn, a method only when
its name is mentioned as an attribute (a local variable of the same name
does not call it), until nothing new is.  A definition left over is called
only from the tests and belongs in ``tests/oracles.py``.  Dunder methods
run implicitly and are exempt: a reached class reaches its own.
"""

import ast
from pathlib import Path

import extinctlab

SRC = Path(extinctlab.__file__).resolve().parent


def _is_def(node) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _mentions(nodes) -> set[tuple[str, bool]]:
    """(name, is an attribute) of every name the code mentions."""
    names = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                names.add((sub.id, False))
            elif isinstance(sub, ast.Attribute):
                names.add((sub.attr, True))
    return names


def _definitions_and_roots():
    """{qualified name: (name, is a method, code scanned once reached)} and
    the root code."""
    defs, roots = {}, []
    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ClassDef):
                methods = [n for n in node.body if _is_def(n) and not _is_dunder(n.name)]
                own = [n for n in node.body if n not in methods]
                defs[f"{module}.{node.name}"] = (node.name, False,
                                                 node.bases + node.decorator_list + own)
                for m in methods:
                    defs[f"{module}.{node.name}.{m.name}"] = (m.name, True, [m])
            elif _is_def(node):
                defs[f"{module}.{node.name}"] = (node.name, False, [node])
            else:
                roots.append(node)
    return defs, roots


def unreached_definitions() -> list[str]:
    defs, roots = _definitions_and_roots()
    reached = {"cli.main"}
    names = _mentions(roots + defs["cli.main"][2])

    def mentioned(name, method):
        return (name, True) in names or (not method and (name, False) in names)

    while new := {q for q, (name, method, _) in defs.items()
                  if q not in reached and mentioned(name, method)}:
        reached |= new
        for q in new:
            names |= _mentions(defs[q][2])
    return sorted(set(defs) - reached)


def test_every_definition_has_a_product_caller():
    unreached = unreached_definitions()
    assert not unreached, "reached from no subcommand: " + ", ".join(unreached)
