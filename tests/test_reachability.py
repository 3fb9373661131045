"""Every definition in ``src/`` has a product caller.

A name scan over the package source.  The roots are ``cli.main`` and the
module-level statements of every module; imports are left out, as they
call nothing.  A reached function, class or method adds every name that
its code mentions, as a bare name or an attribute, and a definition whose
name is mentioned is reached in turn, until nothing new is.  A definition
left over is called only from the tests and belongs in ``tests/oracles.py``.
Dunder methods run implicitly and are exempt: a reached class reaches its
own.
"""

import ast
from pathlib import Path

import extinctlab

SRC = Path(extinctlab.__file__).resolve().parent


def _is_def(node) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _mentions(nodes) -> set[str]:
    names = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                names.add(sub.attr)
    return names


def _definitions_and_roots():
    """{qualified name: (name, code scanned once reached)} and the root code."""
    defs, roots = {}, []
    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ClassDef):
                methods = [n for n in node.body if _is_def(n) and not _is_dunder(n.name)]
                own = [n for n in node.body if n not in methods]
                defs[f"{module}.{node.name}"] = (node.name,
                                                 node.bases + node.decorator_list + own)
                for m in methods:
                    defs[f"{module}.{node.name}.{m.name}"] = (m.name, [m])
            elif _is_def(node):
                defs[f"{module}.{node.name}"] = (node.name, [node])
            else:
                roots.append(node)
    return defs, roots


def unreached_definitions() -> list[str]:
    defs, roots = _definitions_and_roots()
    reached = {"cli.main"}
    names = _mentions(roots + defs["cli.main"][1])
    while new := {q for q, (name, _) in defs.items() if q not in reached and name in names}:
        reached |= new
        for q in new:
            names |= _mentions(defs[q][1])
    return sorted(set(defs) - reached)


def test_every_definition_has_a_product_caller():
    unreached = unreached_definitions()
    assert not unreached, "reached from no subcommand: " + ", ".join(unreached)
