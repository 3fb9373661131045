"""Every definition, dataclass field and import in ``src/`` has a product use.

Definitions: a name scan over the package source.  The roots are
``cli.main`` and the module-level statements of every module; imports are
left out, as they call nothing.  A reached function, class or method adds
every name that its code mentions, as a bare name or an attribute.  A
function or class whose name is mentioned either way is reached in turn, a
method only when its name is mentioned as an attribute (a local variable of
the same name does not call it), until nothing new is.  A definition left
over is called only from the tests and belongs in ``tests/oracles.py``.
Dunder methods run implicitly and are exempt: a reached class reaches its
own.

Fields: a dataclass field is read when its name is read as an attribute
somewhere in ``src/`` other than its own class's ``__post_init__``, which
checks fields whether or not anything uses them; a method of the class is a
reader, as the definition scan reaches every method.  A field that nothing
reads is filled for no subcommand: it is emitted or it goes, and whatever a
test still checks of it is computed in ``tests/oracles.py``.  The scan goes
by name, so a field is missed when another one of its name is read.

Imports: every name that a module imports is mentioned in that module,
unless its line says ``# noqa: F401``.  No module imports scipy as it
loads, in its body, a class body or a module-level if or try.  No statement
imports scipy inside a function either: LAPACK comes from ``solver.lapack``,
the one definition that names its compiled module, which it loads from its
file at the first factorization.

Defaults: every parameter with a default is passed, by position or by
keyword, by some call in ``src/`` of a function or method of its name; a
class call counts for its ``__init__``.  A default that no call overrides
is a knob that no subcommand turns: it becomes a constant or goes.

Maps: no comprehension in ``odi`` iterates over a ``.tolist()`` call, so
every root solve's map is an array expression.

Verdicts: in ``analysis`` only the shared tail test turns a comparison into
a verdict word, apart from a named allow-list, and ``dini_integral`` has no
loop of its own.
"""

import ast
from collections import Counter
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


#: fields read only outside ``src/``, each with its reader
_READ_OUTSIDE_SRC = {
    # the acceptance and spectral tests check the eigenpair through them
    "spectral.GroundState.vector": "tests/test_acceptance.py, tests/test_spectral.py",
    "spectral.GroundState.grid": "tests/test_acceptance.py, tests/test_spectral.py",
    # the traced benchmark counts them; a run's diagnostics are to emit them
    "spectral.GroundState.iterations": "bench/tracer.py",
    "spectral.GroundState.used_fallback": "bench/tracer.py",
}


def _is_dataclass(node) -> bool:
    for d in node.decorator_list:
        d = d.func if isinstance(d, ast.Call) else d
        if isinstance(d, ast.Name) and d.id == "dataclass":
            return True
    return False


def _attribute_reads(nodes) -> Counter:
    return Counter(sub.attr for node in nodes for sub in ast.walk(node)
                   if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load))


def _fields_and_reads():
    """[(qualified name, name, attribute reads in its class's
    ``__post_init__``)] of every dataclass field, and the attribute reads of
    all of ``src/``."""
    fields, reads = [], Counter()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        reads += _attribute_reads([tree])
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                post_init = [n for n in node.body
                             if _is_def(n) and n.name == "__post_init__"]
                own = _attribute_reads(post_init)
                fields += [(f"{path.stem}.{node.name}.{n.target.id}", n.target.id, own)
                           for n in node.body if isinstance(n, ast.AnnAssign)]
    return fields, reads


def unread_fields() -> list[str]:
    fields, reads = _fields_and_reads()
    return sorted(q for q, name, own in fields
                  if reads[name] == own[name] and q not in _READ_OUTSIDE_SRC)


def test_every_field_is_read():
    unread = unread_fields()
    assert not unread, "fields no subcommand reads: " + ", ".join(unread)


def test_fields_read_outside_src_are_fields():
    fields, _ = _fields_and_reads()
    assert set(_READ_OUTSIDE_SRC) <= {q for q, _, _ in fields}


def unused_imports() -> list[str]:
    unused = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        tree = ast.parse(text)
        names = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or \
                    getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in names and "# noqa: F401" not in lines[alias.lineno - 1]:
                    unused.append(f"{path.stem}: {bound}")
    return unused


def test_every_import_is_used():
    unused = unused_imports()
    assert not unused, "imported and never mentioned: " + ", ".join(unused)


def _imports_scipy(node) -> bool:
    """Whether ``node`` is an import statement of scipy or of one of its
    modules."""
    if isinstance(node, ast.Import):
        modules = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom) and node.level == 0:
        modules = [node.module]
    else:
        return False
    return any(m.split(".")[0] == "scipy" for m in modules)


def scipy_imports(text: str) -> list[int]:
    """Line of every statement, at any depth, that imports scipy or one of
    its modules."""
    return sorted(node.lineno for node in ast.walk(ast.parse(text))
                  if _imports_scipy(node))


def load_time_scipy_imports(text: str) -> list[int]:
    """Line of every import of scipy that runs when the module loads: in
    its body, a class body or a module-level if or try, not a function."""
    lines = []
    stack = list(ast.parse(text).body)
    while stack:
        node = stack.pop()
        if _imports_scipy(node):
            lines.append(node.lineno)
        elif not _is_def(node) and not isinstance(node, ast.Lambda):
            stack.extend(ast.iter_child_nodes(node))
    return sorted(lines)


def test_load_time_scipy_imports_found():
    text = ("import scipy\nfrom scipy.linalg import eigh\n"
            "if True:\n    import scipy.linalg as la\n"
            "class A:\n    from scipy import linalg\n"
            "    def f(self):\n        from scipy.linalg import lapack\n"
            "def g():\n    import scipy.interpolate\n"
            "import numpy, scipy.special\nfrom . import scipy_like\n")
    assert load_time_scipy_imports(text) == [1, 2, 4, 6, 11]


def test_no_module_imports_scipy_as_it_loads():
    found = [f"{path.stem}:{line}" for path in sorted(SRC.glob("*.py"))
             for line in load_time_scipy_imports(path.read_text())]
    assert not found, "scipy imported at module load: " + ", ".join(found)


def test_scipy_imports_found():
    text = ("import scipy\nimport numpy, scipy.special\n"
            "def f():\n    from scipy.linalg.lapack import dpttrf\n"
            "    from scipy import interpolate as ip\n"
            "class A:\n    import scipy_like, numpy.linalg\n"
            "from scipy.optimize import brentq\nfrom .scipy import x\n"
            "from . import scipy\nfind_spec('scipy')\n"
            "if True:\n    import scipy.linalg as la\n"
            "try:\n    from scipy import linalg\nexcept ImportError:\n    pass\n"
            "class B:\n    from scipy import linalg\n")
    assert scipy_imports(text) == [1, 2, 4, 5, 8, 13, 15, 19]


def test_lapack_comes_from_the_loader_alone():
    # no statement imports scipy, so none runs as a module loads either:
    # solver.lapack loads its one compiled module, _flapack, from its file,
    # and nothing else names that module
    imports = [f"{path.stem}:{line}" for path in sorted(SRC.glob("*.py"))
               for line in scipy_imports(path.read_text())]
    assert not imports, "scipy imported: " + ", ".join(imports)
    text = (SRC / "solver.py").read_text()
    loader = next(node for node in ast.parse(text).body
                  if _is_def(node) and node.name == "lapack")
    inside = range(loader.lineno, loader.end_lineno + 1)
    named = [f"{path.stem}:{n}" for path in sorted(SRC.glob("*.py"))
             for n, line in enumerate(path.read_text().splitlines(), 1)
             if "_flapack" in line and not (path.stem == "solver" and n in inside)]
    assert not named, "_flapack named outside solver.lapack: " + ", ".join(named)


#: defaulted parameters that no ``src/`` call passes, each with its reason
_DEFAULT_ONLY = {
    # the entry point: the console script calls main() with no argv
    "cli.main.argv": "the console script and python -m",
}


def _defaulted_parameters():
    """[(qualified name, name the callers use, index among the positional
    parameters or None, parameter name)] of every parameter with a
    default.  A method's index leaves out ``self`` or ``cls``, and an
    ``__init__`` is called by its class's name."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                funcs = [(f"{node.name}.{n.name}",
                          node.name if n.name == "__init__" else n.name, n, True)
                         for n in node.body if _is_def(n)]
            elif _is_def(node):
                funcs = [(node.name, node.name, node, False)]
            else:
                continue
            for qual, called_as, fn, method in funcs:
                args = fn.args
                positional = args.posonlyargs + args.args
                if method and not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                      for d in fn.decorator_list):
                    positional = positional[1:]
                first = len(positional) - len(args.defaults)
                out += [(f"{path.stem}.{qual}.{a.arg}", called_as, i, a.arg)
                        for i, a in enumerate(positional) if i >= first]
                out += [(f"{path.stem}.{qual}.{a.arg}", called_as, None, a.arg)
                        for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return out


def _calls():
    """{called name: [(positional count, keywords)]} of every call in
    ``src/``; a ``*args`` counts as any number of positional arguments and a
    ``**kwargs`` as every keyword."""
    calls = {}
    for path in sorted(SRC.glob("*.py")):
        for sub in ast.walk(ast.parse(path.read_text())):
            if not isinstance(sub, ast.Call):
                continue
            f = sub.func
            name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
            if name == "__init__":   # super().__init__(...)
                name = None
            if name is None:
                continue
            n = (float("inf") if any(isinstance(a, ast.Starred) for a in sub.args)
                 else len(sub.args))
            keywords = {k.arg for k in sub.keywords}
            calls.setdefault(name, []).append((n, keywords))
    return calls


def default_only_parameters() -> set[str]:
    """Every defaulted parameter that no call in ``src/`` passes."""
    calls = _calls()
    return {q for q, called_as, index, name in _defaulted_parameters()
            if not any((index is not None and n > index) or name in kw or None in kw
                       for n, kw in calls.get(called_as, []))}


def test_every_default_is_overridden_somewhere():
    unset = default_only_parameters() - set(_DEFAULT_ONLY)
    assert not unset, "defaulted and never passed in src/: " + ", ".join(sorted(unset))


def test_default_only_allow_list_is_current():
    assert set(_DEFAULT_ONLY) <= default_only_parameters()


def test_odi_maps_are_array_expressions():
    """No comprehension in ``odi`` iterates over a ``.tolist()`` call: a root
    solve's map is one array expression per pass, not a Python loop over
    its points."""
    tree = ast.parse((SRC / "odi.py").read_text())
    comprehensions = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    looped = [node.lineno for node in ast.walk(tree) if isinstance(node, comprehensions)
              for gen in node.generators for sub in ast.walk(gen.iter)
              if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute)
              and sub.func.attr == "tolist"]
    assert not looped, f"odi.py comprehensions over .tolist() at lines {looped}"


_VERDICT_WORDS = {"convergent", "divergent", "inconclusive"}

#: functions of ``analysis`` that may still decide a verdict by a rule of
#: their own, each with the reason
_OWN_RULES = {
    "_two_stage_tail_fit": "the mu-log sum's fit against n, which ROADMAP item 2 revisits",
}


def verdict_rules(text: str) -> list[str]:
    """Names of the functions in ``text`` that return a verdict word from a
    comparison: the word sits in a branch of an ``if`` statement or of a
    conditional expression whose test compares."""
    found = set()
    for fn in ast.walk(ast.parse(text)):
        if not _is_def(fn):
            continue
        for node in ast.walk(fn):
            if not (isinstance(node, (ast.If, ast.IfExp))
                    and any(isinstance(sub, ast.Compare) for sub in ast.walk(node.test))):
                continue
            branches = (node.body + node.orelse if isinstance(node, ast.If)
                        else [node.body, node.orelse])
            if any(isinstance(sub, ast.Constant) and sub.value in _VERDICT_WORDS
                   for branch in branches for sub in ast.walk(branch)):
                found.add(fn.name)
    return sorted(found)


def test_verdict_rules_found():
    text = ("def band(b):\n    return 'divergent' if b <= 1 else 'inconclusive'\n"
            "def guard(t):\n    if t.size < 8:\n        return 0.0, 'convergent'\n"
            "def reads(r):\n    return r.verdict == 'convergent'\n"
            "def passes(r):\n    return r.verdict if r.ok else 'inconclusive'\n")
    assert verdict_rules(text) == ["band", "guard"]


def test_one_tail_test_decides_the_dini_routes():
    """Both Dini routes take their verdict from ``analysis._tail_test``: no
    other function of ``analysis`` turns a comparison into a verdict word,
    apart from ``_OWN_RULES``, and ``dini_integral`` integrates its windows
    in one array call, with no loop of its own."""
    text = (SRC / "analysis.py").read_text()
    assert verdict_rules(text) == sorted({"_tail_test", *_OWN_RULES})
    integral = next(node for node in ast.parse(text).body
                    if _is_def(node) and node.name == "dini_integral")
    loops = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
             ast.GeneratorExp)
    looped = [node.lineno for node in ast.walk(integral) if isinstance(node, loops)]
    assert not looped, f"dini_integral loops at lines {looped}"
