"""Static checks over the package modules.

Every imported name must be used, and no module may use a bare
``assert``: ``python -O`` strips those, and cross-checks must raise
``InternalCrossCheckError`` in every mode.  The package ``__init__``
re-exports names by importing them and is left out.  Every module-level
function and class must be loaded in its own module, imported by
another, exported from ``__init__``, or a name the benchmark reaches
(see below).  Every public module-level function and class must also
be reached from what runs: the roots are ``cli.main``, the ``cmd_*``
functions, and every package name that a script in ``bench/`` imports,
loads from a package module it imports, or lists in ``LAYERS`` (the
functions the benchmark's tracer wraps).  From a root, the rule
follows the ``Name`` loads inside each module-level definition, the
``Attribute`` loads on a package module it imports, and each import's
binding.  An export alone reaches nothing: a name only tests read
belongs in ``tests/conftest.py``.  ``spectral`` is the package's one
gateway to LAPACK's dense solvers: no other module calls
``np.linalg.eigh``, ``eigvalsh`` or ``lstsq``.  It also holds the one
degeneracy test, ``cluster_mask``: elsewhere ``tol_degeneracy`` is only
passed on, never part of arithmetic or a comparison.  Likewise the
vanishing, product and realness tolerances (``tol_vanish``,
``tol_product`` and ``tol_real``) cut only in ``nodal._stack_checks``,
the one admissibility kernel, which reads the last two as the module
constants ``PRODUCT_REAL_TOL`` and ``PRODUCT_DEGENERATE_TOL``, and
checks every eigenvalue position:
it has no ``positions`` parameter or field, and ``position_checks`` is
its one caller.  No public function or method takes both an operator
(``SupportedMatrix`` or ``TorusPoint``) and an ``EigenSystem``: each
solves the operator it reads, except ``nodal_count`` and
``nodal_surplus``, which the benchmark's oracles hand an eigensystem:
with no exemption, those two are exactly what the rule finds.
``spectral.eigh_stack``, which solves every stack on the complex path,
has one caller, the Newton polish ``morse._polish``: the other stacked
solves of real operators take the real path.  ``SigningClasses.rows``
is called, and
``SWEEP_CHUNK`` read, in one function only, ``nodal._class_blocks``,
the one walk over switching classes, which the class sum, the index
check and the scan share.  Its blocks come checked, so ``morse``
refers to no ``position_checks``.  In ``nodal``
only ``edge_products``, the one product formula, reads an edge's
``endpoints``.  Outside ``graphs`` no module looks an edge up one at a
time through an ``index_of``: edge arrays are selected by masks.  No
module reads a ``cycles`` attribute: the package takes the fundamental
cycles as one coefficient array, so no per-cycle object comes back
into a hot path.  Only ``graphs``, their owner, and the flux test
``operators.flux_defects`` read that array, ``SpanningForest.coeffs``,
and no module calls ``cycle_basis``, which the benchmark reads: the
torus chart of ``morse`` and ``linkage`` and the switching classes,
and so the class sum, read ``Graph.spanning_forest``'s non-forest
positions and never build a cycle.  ``cli`` imports no ``_``-prefixed
name from another package module: what the commands need is public.  ``cli`` reads no ``is_real`` and
imports no ``nodal_count``: the library decides every precondition,
such as the real-only one, and a command's count at one position comes
from the one kernel call that checks every position.  Only
``transversality``, which needs the vertex lists, calls
``connected_components``: a component count is the number of roots of
the spanning forest's walk.  The "Public API" section of ``README.md``
lists every name the package exports, once.  Every defaulted parameter
of a public function or method is passed, by keyword, by position or
through a ``*`` splat, by some call in ``src`` or ``bench`` other than
its own recursion, matched by name: a test or a function calling itself
is no caller, and a cut that nothing else sets is a module constant,
read where it cuts.  A ``**`` splat passes no name, and no public
function or method takes ``**`` keywords: every option it has is
spelled out.  The Hessian-nullity cut ``morse.RANK_TOL``, the signing
cap ``operators.SIGNING_CAP`` and the kernel's product cuts
``nodal.PRODUCT_REAL_TOL`` and ``nodal.PRODUCT_DEGENERATE_TOL`` are
read when their readers run: none is a parameter default, so one patch
of the constant reaches every reader.  ``verify_index_equals_surplus``
and ``morse_index`` have no ``rank_tol``, and ``linkage`` reads no
``RANK_TOL``: it leaves the cut to ``morse_index``.
"""

import ast
from pathlib import Path

import pytest

import magnodal

PACKAGE = Path(magnodal.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by import statements that no expression loads."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in used]


def loaded_names(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def imported_from(tree: ast.Module, module: str) -> set[str]:
    """Names that ``from .module import ...`` statements bind."""
    return {alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1
            and node.module == module for alias in node.names}


def unreferenced_definitions(path: Path, trees: dict[Path, ast.Module],
                             exempt=()) -> list[str]:
    """Module-level functions and classes of ``path``, other than
    ``exempt``, that its own module never loads and no other package
    module (``__init__`` included) imports."""
    tree = trees[path]
    used = loaded_names(tree).union(exempt, *(
        imported_from(other, path.stem) for other in trees.values()))
    return [f"{node.name} (line {node.lineno})" for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name not in used]


#: The ``np.linalg`` solvers that only ``spectral`` may call.
GATEWAY_SOLVERS = {"eigh", "eigvalsh", "lstsq"}


def solver_uses(tree: ast.Module) -> list[str]:
    """References to ``linalg.eigh``, ``eigvalsh`` or ``lstsq`` through
    any name bound to ``numpy.linalg``, and imports of them from it."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in GATEWAY_SOLVERS \
                and getattr(node.value, "attr",
                            getattr(node.value, "id", None)) == "linalg":
            found.append(f"linalg.{node.attr} (line {node.lineno})")
        elif isinstance(node, ast.ImportFrom) and node.module \
                and node.module.endswith("linalg"):
            found += [f"{alias.name} (line {node.lineno})"
                      for alias in node.names
                      if alias.name in GATEWAY_SOLVERS]
    return found


#: The tolerances that only ``nodal._stack_checks`` may cut at, by
#: parameter or constant name.
ADMISSIBILITY_TOLS = {"tol_vanish", "tol_product", "tol_real",
                      "PRODUCT_REAL_TOL", "PRODUCT_DEGENERATE_TOL"}


def tolerance_cuts(tree: ast.Module, names=frozenset({"tol_degeneracy"}),
                   inside: str | None = None) -> list[str]:
    """Lines where one of ``names``, as a name or an attribute, is an
    operand of arithmetic or a comparison outside the functions named
    ``inside``; an argument of a call inside one is passed on, not
    cut."""
    def operands(node):
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, ast.Call):
                yield child
                yield from operands(child)

    exempt = {id(node) for f in ast.walk(tree)
              if isinstance(f, ast.FunctionDef) and f.name == inside
              for node in ast.walk(f)}
    return [f"line {line}" for line in sorted({
        node.lineno for op in ast.walk(tree)
        if isinstance(op, (ast.BinOp, ast.Compare)) and id(op) not in exempt
        for node in operands(op)
        if getattr(node, "id", getattr(node, "attr", None)) in names})]


def locations(trees: dict[Path, ast.Module], match) -> list[str]:
    """``module.function`` for each node that ``match`` accepts, after
    the innermost function around it; ``module`` alone outside any
    function."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = f"{where.split('.')[0]}.{node.name}"
        elif match(node):
            found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for path, tree in sorted(trees.items()):
        visit(tree, path.stem)
    return found


def method_callers(trees: dict[Path, ast.Module], method: str
                   ) -> list[str]:
    """Where a method named ``method`` is called."""
    return locations(trees, lambda node: isinstance(node, ast.Call)
                     and isinstance(node.func, ast.Attribute)
                     and node.func.attr == method)


def function_callers(trees: dict[Path, ast.Module], name: str
                     ) -> list[str]:
    """Where a function or method named ``name`` is called."""
    return locations(trees, lambda node: isinstance(node, ast.Call)
                     and getattr(node.func, "id",
                                 getattr(node.func, "attr", None)) == name)


#: The module and the function that read the cycle coefficients.
COEFFICIENT_READERS = ("graphs", "operators.flux_defects")


def component_listers(trees: dict[Path, ast.Module]) -> list[str]:
    """Callers of ``connected_components`` outside ``transversality``."""
    return [where for where in function_callers(trees, "connected_components")
            if where.split(".")[0] != "transversality"]


def callers_outside(trees: dict[Path, ast.Module], method: str,
                    module: str) -> list[str]:
    """Where a method named ``method`` is called outside ``module``."""
    return [where for where in method_callers(trees, method)
            if where.split(".")[0] != module]


def attribute_readers(trees: dict[Path, ast.Module], attr: str
                      ) -> list[str]:
    """Where an attribute named ``attr`` is read."""
    return locations(trees, lambda node: isinstance(node, ast.Attribute)
                     and node.attr == attr
                     and isinstance(node.ctx, ast.Load))


def coefficient_readers(trees: dict[Path, ast.Module]) -> list[str]:
    """Reads of a ``coeffs`` attribute outside ``COEFFICIENT_READERS``."""
    return [where for where in attribute_readers(trees, "coeffs")
            if where not in COEFFICIENT_READERS
            and where.split(".")[0] not in COEFFICIENT_READERS]


def private_imports(tree: ast.Module) -> list[str]:
    """``_``-prefixed names, dunders aside, that relative imports bind
    from other package modules."""
    return [f"{alias.name} (line {node.lineno})" for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level
            for alias in node.names if alias.name.startswith("_")
            and not alias.name.endswith("__")]


def library_decisions(tree: ast.Module) -> list[str]:
    """Reads of ``.is_real`` and imports of ``nodal_count``: the
    decisions a command leaves to the library."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "is_real":
            found.append(f"is_real (line {node.lineno})")
        elif isinstance(node, ast.ImportFrom) and any(
                alias.name == "nodal_count" for alias in node.names):
            found.append(f"nodal_count (line {node.lineno})")
    return found


def name_readers(trees: dict[Path, ast.Module], name: str) -> list[str]:
    """Where ``name`` is loaded, as a name or an attribute."""
    return locations(trees, lambda node: isinstance(
        getattr(node, "ctx", None), ast.Load)
        and getattr(node, "id", getattr(node, "attr", None)) == name)


def references(tree: ast.Module, name: str) -> list[int]:
    """Lines that import ``name`` or load it as a name or an attribute."""
    return sorted({node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom)
                   and any(alias.name == name for alias in node.names)
                   or isinstance(getattr(node, "ctx", None), ast.Load)
                   and getattr(node, "id", getattr(node, "attr", None))
                   == name})


def exported_names(tree: ast.Module) -> set[str]:
    """Names that the package ``__init__`` binds by importing them."""
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def public_api_names(readme: str) -> list[str]:
    """The first code span of each bullet line in the "Public API"
    section of the README, up to the next section."""
    section = readme.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    return [line.split("`")[1] for line in section.splitlines()
            if line.startswith("- `")]


def public_functions(tree: ast.Module, module: str):
    """``(where, function, bound)`` for each public module-level function
    and each public method of a public class; ``bound`` marks a method
    that takes ``self`` or ``cls``.  Nested functions, such as ``cli``'s
    parser helpers, are not public."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            functions = [(module, node, False)]
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            functions = [(f"{module}.{node.name}", f, not any(
                getattr(d, "id", None) == "staticmethod"
                for d in f.decorator_list))
                for f in node.body if isinstance(f, ast.FunctionDef)]
        else:
            continue
        yield from (entry for entry in functions
                    if not entry[1].name.startswith("_"))


def public_options(tree: ast.Module, module: str
                   ) -> list[tuple[str, str, str, int | None]]:
    """``(where, function, parameter, position)`` for each defaulted
    parameter of a ``public_functions`` entry.  ``position`` is the
    parameter's index among those a call passes by position, ``self``
    or ``cls`` aside, and None for a keyword-only one."""
    found = []
    for where, f, bound in public_functions(tree, module):
        args = f.args
        positional = (args.posonlyargs + args.args)[int(bound):]
        first = len(positional) - len(args.defaults)
        found += [(where, f.name, a.arg, i)
                  for i, a in enumerate(positional) if i >= first]
        found += [(where, f.name, a.arg, None)
                  for a, d in zip(args.kwonlyargs, args.kw_defaults)
                  if d is not None]
    return found


def passes(call: ast.Call, name: str, position: int | None) -> bool:
    """Whether ``call`` passes the parameter ``name`` at ``position``:
    by keyword, by position or a ``*`` splat; a ``**`` splat names
    nothing."""
    if any(kw.arg == name for kw in call.keywords):
        return True
    if position is None:
        return False
    head = call.args[:position + 1]
    return len(head) > position or any(isinstance(a, ast.Starred)
                                       for a in head)


def unset_options(trees: dict[Path, ast.Module], sources) -> list[str]:
    """``public_options`` of ``trees`` that no call in the ``sources``
    trees passes, a call being matched by the function's name; a call
    inside a function of the same name, its recursion, is not counted."""
    calls: dict[str, list[ast.Call]] = {}

    def visit(node, caller):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            caller = node.name
        elif isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name != caller:
                calls.setdefault(name, []).append(node)
        for child in ast.iter_child_nodes(node):
            visit(child, caller)

    for source in sources:
        visit(source, None)
    return [f"{where}.{function}({name}=)"
            for path, tree in sorted(trees.items())
            for where, function, name, position in public_options(
                tree, path.stem)
            if not any(passes(c, name, position)
                       for c in calls.get(function, ()))]


#: The folders whose calls may set a public option.
OPTION_FOLDERS = ("src", "bench")


def option_sources(root: Path) -> list[ast.Module]:
    """The parsed scripts under the ``OPTION_FOLDERS`` of ``root``."""
    return [parse(p) for folder in OPTION_FOLDERS
            for p in sorted((root / folder).rglob("*.py"))]


def keyword_splats(trees: dict[Path, ast.Module]) -> list[str]:
    """``public_functions`` that take ``**`` keywords."""
    return [f"{where}.{f.name}" for path, tree in sorted(trees.items())
            for where, f, _ in public_functions(tree, path.stem)
            if f.args.kwarg is not None]


#: The annotations that mark a parameter as an operator.
OPERATOR_TYPES = {"SupportedMatrix", "TorusPoint"}


def solve_handins(trees: dict[Path, ast.Module],
                  exempt=("nodal_count", "nodal_surplus")) -> list[str]:
    """Public functions, other than ``exempt``, with a parameter
    annotated as an operator and one annotated as an ``EigenSystem``."""
    found = []
    for path, tree in sorted(trees.items()):
        for where, f, _ in public_functions(tree, path.stem):
            args = f.args
            annotated = [{node.id for node in ast.walk(a.annotation)
                          if isinstance(node, ast.Name)}
                         for a in (*args.posonlyargs, *args.args,
                                   *args.kwonlyargs, args.vararg, args.kwarg)
                         if a is not None and a.annotation is not None]
            if f.name not in exempt \
                    and any(OPERATOR_TYPES & names for names in annotated) \
                    and any("EigenSystem" in names for names in annotated):
                found.append(f"{where}.{f.name}")
    return found


def parameters(tree: ast.Module, name: str) -> set[str]:
    """The parameters of the functions and the annotated fields of the
    classes named ``name``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == name:
            args = node.args
            found |= {a.arg for a in (*args.posonlyargs, *args.args,
                                      *args.kwonlyargs)}
        elif isinstance(node, ast.ClassDef) and node.name == name:
            found |= {item.target.id for item in node.body
                      if isinstance(item, ast.AnnAssign)
                      and isinstance(item.target, ast.Name)}
    return found


def default_readers(trees: dict[Path, ast.Module], name: str) -> list[str]:
    """``module.function`` for each function, nested ones and methods
    included, with a parameter default that reads ``name``, as a name
    or an attribute: a default is bound when the module loads."""
    return [f"{path.stem}.{f.name}" for path, tree in sorted(trees.items())
            for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
            and any(getattr(node, "id", getattr(node, "attr", None)) == name
                    for d in (*f.args.defaults, *f.args.kw_defaults)
                    if d is not None for node in ast.walk(d))]


def constant_reads(tree: ast.Module, name: str) -> list[str]:
    """How ``tree`` reads ``name``: ``owner.name`` for an attribute of a
    module name, ``name`` for a bare load and ``import name`` for an
    import that binds it, in source order."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and any(
                alias.name == name for alias in node.names):
            found.append((node.lineno, f"import {name}"))
        elif isinstance(node, ast.Attribute) and node.attr == name:
            owner = getattr(node.value, "id", "?")
            found.append((node.lineno, f"{owner}.{name}"))
        elif isinstance(node, ast.Name) and node.id == name \
                and isinstance(node.ctx, ast.Load):
            found.append((node.lineno, name))
    return [read for _, read in sorted(found)]


def definitions(tree: ast.Module) -> dict[str, ast.stmt]:
    """Module-level functions, classes and assignments of ``tree``, by
    the names they bind."""
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            found.update((n.id, node) for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name))
    return found


def import_bindings(tree: ast.Module, package: str | None = None
                    ) -> tuple[dict[str, tuple[str, str]], dict[str, str]]:
    """What the imports of ``tree`` bind, by local name: ``(module,
    name)`` for a package name and the module for a package module.  The
    package is reached through relative imports, or, with ``package``
    set, through absolute ones under that name."""
    names, modules = {}, {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        path = (node.module or "").split(".")
        if node.level == 0 and package and path[0] == package:
            path = path[1:] or [""]
        elif node.level != 1:
            continue
        for alias in node.names:
            local = alias.asname or alias.name
            if path[0]:
                names[local] = (path[0], alias.name)
            else:
                modules[local] = alias.name
    return names, modules


def reached(trees: dict[Path, ast.Module], roots) -> set[tuple[str, str]]:
    """The ``(module, name)`` pairs reached from ``roots``, following the
    ``Name`` loads inside each module-level definition, the ``Attribute``
    loads on a package module it imports, and its imports' bindings."""
    defs = {p.stem: definitions(t) for p, t in trees.items()}
    binds = {p.stem: import_bindings(t) for p, t in trees.items()}
    seen, todo = set(), list(roots)
    while todo:
        module, name = todo.pop()
        if (module, name) in seen or module not in defs:
            continue
        seen.add((module, name))
        names, modules = binds[module]
        if name in names:
            todo.append(names[name])
        if name not in defs[module]:
            continue
        for node in ast.walk(defs[module][name]):
            if not isinstance(getattr(node, "ctx", None), ast.Load):
                continue
            if isinstance(node, ast.Name) and node.id in defs[module]:
                todo.append((module, node.id))
            elif isinstance(node, ast.Name) and node.id in names:
                todo.append(names[node.id])
            elif isinstance(node, ast.Attribute) \
                    and getattr(node.value, "id", None) in modules:
                todo.append((modules[node.value.id], node.attr))
    return seen


def command_roots(trees: dict[Path, ast.Module]) -> set[tuple[str, str]]:
    """``cli.main`` and the ``cmd_*`` functions of ``cli``."""
    cli = next(t for p, t in trees.items() if p.stem == "cli")
    return {("cli", "main")} | {("cli", name) for name in definitions(cli)
                                if name.startswith("cmd_")}


def bench_roots(trees: dict[Path, ast.Module], bench
                ) -> set[tuple[str, str]]:
    """``(module, name)`` for each package name that a benchmark script
    in ``bench`` imports, loads from a package module it imports, or
    lists in its ``LAYERS``; a name imported from the package root is
    the one the root re-exports."""
    init = next(t for p, t in trees.items() if p.stem == "__init__")
    exports = import_bindings(init)[0]
    roots = set()
    for tree in bench:
        names, modules = import_bindings(tree, "magnodal")
        roots |= set(names.values())
        roots |= {exports[m] for m in modules.values() if m in exports}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) \
                    and getattr(node.value, "id", None) in modules:
                roots.add((modules[node.value.id], node.attr))
            elif isinstance(node, ast.Assign) and any(
                    getattr(t, "id", None) == "LAYERS" for t in node.targets):
                roots |= {(layer, f) for layer, functions in
                          ast.literal_eval(node.value).items()
                          for f in functions}
    return roots


def unreached(trees: dict[Path, ast.Module], roots) -> list[str]:
    """``module.name`` for each public module-level function and class of
    ``trees`` that ``roots`` do not reach."""
    seen = reached(trees, roots)
    return sorted(f"{p.stem}.{node.name}" for p, t in trees.items()
                  for node in t.body if p.stem != "__init__"
                  and isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and not node.name.startswith("_")
                  and (p.stem, node.name) not in seen)


def bare_asserts(tree: ast.Module) -> list[int]:
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Assert)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(parse(path)) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_bare_assert(path):
    assert bare_asserts(parse(path)) == []


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "spectral.py"],
    ids=lambda p: p.name)
def test_only_spectral_calls_the_dense_solvers(path):
    assert solver_uses(parse(path)) == []


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "spectral.py"],
    ids=lambda p: p.name)
def test_only_spectral_cuts_at_the_degeneracy_tolerance(path):
    assert tolerance_cuts(parse(path)) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_kernel_cuts_at_the_admissibility_tolerances(path):
    assert tolerance_cuts(parse(path), ADMISSIBILITY_TOLS,
                          "_stack_checks" if path.name == "nodal.py"
                          else None) == []


def benchmark_trees() -> list[ast.Module]:
    return [parse(p) for p in sorted((ROOT / "bench").glob("*.py"))]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_definition_is_used(path):
    trees = {p: parse(p) for p in PACKAGE.glob("*.py")}
    benched = {name for module, name in bench_roots(trees, benchmark_trees())
               if module == path.stem}
    assert unreferenced_definitions(path, trees, benched) == []


def test_every_public_name_is_reached_from_a_command_or_the_benchmark():
    trees = {p: parse(p) for p in PACKAGE.glob("*.py")}
    roots = command_roots(trees) | bench_roots(trees, benchmark_trees())
    assert unreached(trees, roots) == []


def test_one_function_builds_class_sign_rows():
    trees = {p: parse(p) for p in MODULES}
    assert method_callers(trees, "rows") == ["nodal._class_blocks"]


def test_one_function_reads_the_block_size():
    trees = {p: parse(p) for p in PACKAGE.glob("*.py")}
    assert set(name_readers(trees, "SWEEP_CHUNK")) == {"nodal._class_blocks"}


def test_morse_takes_its_class_blocks_checked():
    assert references(parse(PACKAGE / "morse.py"), "position_checks") == []


def test_the_kernel_checks_every_position_behind_one_entry():
    trees = {p: parse(p) for p in PACKAGE.glob("*.py")}
    nodal = trees[PACKAGE / "nodal.py"]
    assert "positions" not in parameters(nodal, "_stack_checks")
    assert "positions" not in parameters(nodal, "_StackChecks")
    assert function_callers(trees, "_stack_checks") \
        == ["nodal.position_checks"]


def test_no_public_function_takes_an_operator_and_its_solve():
    trees = {p: parse(p) for p in MODULES}
    assert solve_handins(trees) == []
    assert solve_handins(trees, ()) == ["nodal.nodal_count",
                                        "nodal.nodal_surplus"]


def test_only_the_newton_polish_solves_a_complex_stack():
    trees = {p: parse(p) for p in MODULES}
    assert function_callers(trees, "eigh_stack") == ["morse._polish"]


def test_one_function_forms_edge_products():
    trees = {PACKAGE / "nodal.py": parse(PACKAGE / "nodal.py")}
    assert attribute_readers(trees, "endpoints") == ["nodal.edge_products"]


def test_no_module_reads_cycles_as_chains():
    trees = {p: parse(p) for p in PACKAGE.glob("*.py")}
    assert attribute_readers(trees, "cycles") == []


def test_only_the_flux_test_reads_cycle_coefficients():
    trees = {p: parse(p) for p in MODULES}
    assert coefficient_readers(trees) == []
    assert "operators.flux_defects" in attribute_readers(trees, "coeffs")


def test_no_module_calls_cycle_basis():
    trees = {p: parse(p) for p in MODULES}
    assert function_callers(trees, "cycle_basis") == []


def test_only_transversality_lists_components():
    trees = {p: parse(p) for p in MODULES}
    assert component_listers(trees) == []
    assert "transversality.support_components" in function_callers(
        trees, "connected_components")


def test_only_graphs_looks_up_single_edges():
    trees = {p: parse(p) for p in MODULES}
    assert callers_outside(trees, "index_of", "graphs") == []


def test_cli_imports_only_public_names():
    assert private_imports(parse(PACKAGE / "cli.py")) == []


def test_cli_leaves_preconditions_and_single_counts_to_the_library():
    assert library_decisions(parse(PACKAGE / "cli.py")) == []


def test_readme_lists_every_export_once():
    names = public_api_names(README.read_text(encoding="utf-8"))
    assert len(names) == len(set(names))
    assert set(names) == exported_names(parse(PACKAGE / "__init__.py"))


def test_every_public_option_is_passed():
    trees = {p: parse(p) for p in MODULES}
    assert unset_options(trees, option_sources(ROOT)) == []


def test_no_public_function_takes_keyword_splats():
    assert keyword_splats({p: parse(p) for p in MODULES}) == []


#: The cuts read when their readers run, never bound as a default.
RUNTIME_CUTS = ("RANK_TOL", "SIGNING_CAP", "PRODUCT_REAL_TOL",
                "PRODUCT_DEGENERATE_TOL")


def test_the_nullity_cut_is_read_when_it_runs():
    trees = {p: parse(p) for p in MODULES}
    for cut in RUNTIME_CUTS:
        assert default_readers(trees, cut) == [], cut
        assert name_readers(trees, cut), cut
    morse = trees[PACKAGE / "morse.py"]
    assert "rank_tol" not in parameters(morse, "verify_index_equals_surplus")
    assert "rank_tol" not in parameters(morse, "morse_index")
    assert constant_reads(trees[PACKAGE / "linkage.py"], "RANK_TOL") == []


def test_checks_catch_what_they_look_for(tmp_path):
    tree = ast.parse("import os\nfrom x import y as z\nassert z\n")
    assert unused_imports(tree) == ["os (line 1)"]
    assert bare_asserts(tree) == [3]
    assert solver_uses(ast.parse(
        "import numpy as np\nfrom numpy import linalg\n"
        "from numpy.linalg import lstsq, norm\n"
        "np.linalg.eigh(a)\nlinalg.eigvalsh(a)\nnp.linalg.svd(a)\n"
        "'''np.linalg.eigh in a docstring'''\n")) == [
        "lstsq (line 3)", "linalg.eigh (line 4)", "linalg.eigvalsh (line 5)"]
    assert solver_uses(parse(PACKAGE / "spectral.py")) == []
    assert tolerance_cuts(ast.parse(
        "f(x, tol_degeneracy)\ng(tol_degeneracy=tol_degeneracy)\n"
        "t = (tol_degeneracy * s)[:, None]\n"
        "ok = abs(d) <= args.tol_degeneracy\n"
        "h(1 + k(tol_degeneracy))\nn = [1, tol_degeneracy] + x\n")) \
        == ["line 3", "line 4", "line 6"]
    kernel = (
        "def _stack_checks(v, p, s, tol_vanish, tol_real, tol_product):\n"
        "    flat = abs(p.imag) > tol_real * s\n"
        "    return abs(v) < tol_vanish, p < (tol_product * s)[..., None]\n"
        "def count(v, tol_vanish):\n"
        "    f(v, tol_vanish=tol_vanish)\n"
        "    return abs(v) < tol_vanish\n"
        "x = s.tol_real + tol_degeneracy * 2\n"
        "ok = tol_product >= 0.0\n"
        "def _stack_checks(p, s):\n"
        "    return abs(p) < PRODUCT_DEGENERATE_TOL * s\n"
        "y = nodal.PRODUCT_REAL_TOL * s\n")
    assert tolerance_cuts(ast.parse(kernel), ADMISSIBILITY_TOLS,
                          "_stack_checks") == [
        "line 6", "line 7", "line 8", "line 11"]
    assert tolerance_cuts(ast.parse(kernel), ADMISSIBILITY_TOLS) == [
        "line 2", "line 3", "line 6", "line 7", "line 8", "line 10",
        "line 11"]
    assert tolerance_cuts(ast.parse(kernel), inside="_stack_checks") \
        == ["line 7"]
    assert MODULES and all(p.name != "__init__.py" for p in MODULES)
    a, b = Path("a.py"), Path("b.py")
    trees = {a: ast.parse("def f(): pass\ndef g(): pass\n"
                          "class C: pass\nclass D: pass\nx = [f, D]\n"),
             b: ast.parse("from .a import g\nfrom a import C\n")}
    assert unreferenced_definitions(a, trees) == ["C (line 3)"]
    assert unreferenced_definitions(a, trees, ("C",)) == []
    trees = {a: ast.parse("def f(c):\n    def g():\n        c.rows(1)\n"
                          "    return c.rows(2), c.rows, rows(3)\n"
                          "class C:\n    def m(self):\n"
                          "        self.rows = self.x.rows([])\n"),
             b: ast.parse("x = classes.rows(ids)\n")}
    assert method_callers(trees, "rows") == ["a.g", "a.f", "a.m", "b"]
    trees = {Path("nodal.py"): ast.parse(
        "SWEEP_CHUNK = 256\ndef _class_blocks(c):\n"
        "    return range(0, c, SWEEP_CHUNK)\n"
        "def _blocks(total):\n    return total // SWEEP_CHUNK\n"),
        Path("morse.py"): ast.parse(
        "from . import nodal\nn = nodal.SWEEP_CHUNK\n"
        "nodal.SWEEP_CHUNK = 3\n")}
    assert name_readers(trees, "SWEEP_CHUNK") == [
        "morse", "nodal._class_blocks", "nodal._blocks"]
    assert references(ast.parse(
        "from .nodal import (_checked,\n    position_checks)\n"
        "from . import nodal\nc = nodal.position_checks(h)\n"
        "position_checks = None\nd = position_checks(h)\n"
        "'position_checks in a string'\n"), "position_checks") == [1, 4, 6]
    trees = {a: ast.parse("def f(g, v):\n    return g.index_of(v, 0)\n"
                          "i = g.index_of(1, 2)\nj = g.edge_index[(1, 2)]\n"),
             Path("graphs.py"): ast.parse("def h(g):\n    g.index_of(0, 1)\n")}
    assert callers_outside(trees, "index_of", "graphs") == ["a.f", "a"]
    trees = {a: ast.parse("def edge_products(g, o, v):\n"
                          "    return v[g.endpoints[:, 0]] * o\n"
                          "class S:\n    def at(self, g):\n"
                          "        rs = g.endpoints\n"
                          "        self.endpoints = rs\n"
                          "x = graph.endpoints\n")}
    assert attribute_readers(trees, "endpoints") \
        == ["a.edge_products", "a.at", "a"]
    trees = {a: ast.parse("def flux(b):\n"
                          "    return [c.coeffs for c in b.cycles]\n"
                          "class B:\n    @property\n"
                          "    def cycles(self):\n        return ()\n"
                          "n = len(cycle_basis(g).cycles)\nb.cycles = ()\n")}
    assert attribute_readers(trees, "cycles") == ["a.flux", "a"]
    trees = {Path("nodal.py"): ast.parse(
        "def _surplus_counts(h):\n    return cycle_basis(h.graph)\n"),
        Path("operators.py"): ast.parse(
        "def flux_defects(g):\n    return graphs.cycle_basis(g).coeffs\n"
        "def gauge_classes_of_signings(h):\n"
        "    return len(cycle_basis(h.graph))\n"),
        Path("morse.py"): ast.parse(
        "def f(g):\n    return cycle_basis(g)\nb = cycle_basis(g)\n")}
    assert function_callers(trees, "cycle_basis") == [
        "morse.f", "morse", "nodal._surplus_counts",
        "operators.flux_defects", "operators.gauge_classes_of_signings"]
    trees = {Path("graphs.py"): ast.parse(
        "class SpanningForest:\n    def coeffs(self):\n"
        "        return self.up.coeffs\nn = len(g.spanning_forest.coeffs)\n"),
        Path("morse.py"): ast.parse(
        "def _hessian(s, forest):\n    return forest.coeffs\n"),
        Path("nodal.py"): ast.parse("c = forest.coeffs\nforest.coeffs = c\n"),
        Path("operators.py"): ast.parse(
        "def flux_defects(g):\n    return g.spanning_forest.coeffs\n"
        "def gauge_classes_of_signings(h):\n"
        "    return len(h.graph.spanning_forest.coeffs)\n")}
    assert coefficient_readers(trees) == [
        "morse._hessian", "nodal", "operators.gauge_classes_of_signings"]
    trees = {Path("graphs.py"): ast.parse(
        "class Graph:\n    def component_count(self):\n"
        "        return len(connected_components(self))\n"),
        Path("transversality.py"): ast.parse(
        "def support_components(g):\n    return connected_components(g)\n"),
        Path("nodal.py"): ast.parse(
        "n = len(graphs.connected_components(g))\n")}
    assert component_listers(trees) == ["graphs.component_count", "nodal"]
    assert private_imports(ast.parse(
        "from . import __version__\nfrom .nodal import (_every_position,\n"
        "    nodal_count)\nfrom .spectral import eigh, _check_k\n"
        "from numpy import _core\n")) \
        == ["_every_position (line 2)", "_check_k (line 4)"]
    assert library_decisions(ast.parse(
        "from .nodal import (nodal_count,\n    position_checks)\n"
        "if not h.is_real:\n    raise E()\nx = h.real + h.is_real_part\n"
        "import nodal_count\n")) == ["nodal_count (line 1)",
                                    "is_real (line 3)"]
    assert exported_names(ast.parse(
        "from .a import (b, c as d)\nimport e\nx = 1\n"
        "def f():\n    from .g import h\n")) == {"b", "d"}
    assert public_api_names(
        "# t\n- `no`\n## Public API\n\nText `x`.\n\n- `a` - one.\n"
        "- `b` - two `c`.\n  - `d`\n## Next\n- `e`\n") == ["a", "b"]
    trees = {a: ast.parse(
        "def f(x, y=1, *, z=2, w=3):\n    pass\n"
        "def g(y=1, z=2):\n    pass\n"
        "def _h(q=1):\n    pass\n"
        "class C:\n    def m(self, r=1, s=2):\n"
        "        def inner(t=1):\n            pass\n"
        "    @staticmethod\n    def n(u=1, v=2):\n        pass\n"
        "class _D:\n    def m(self, v=1):\n        pass\n")}
    sources = [ast.parse("f(0, 1, w=4)\nx.g(**opts)\nc.m(5)\n"),
               ast.parse("C.n(*a)\ninner()\nk(z=0, s=1)\n")]
    # a ** splat names nothing
    assert unset_options(trees, sources) == [
        "a.f(z=)", "a.g(y=)", "a.g(z=)", "a.C.m(s=)"]
    assert unset_options(trees, sources[:1]) == [
        "a.f(z=)", "a.g(y=)", "a.g(z=)", "a.C.m(s=)", "a.C.n(u=)",
        "a.C.n(v=)"]
    # its own recursion sets no option; another caller does
    trees = {a: ast.parse(
        "def dump(x, indent=0):\n    return [dump(y, indent + 1) for y in x]\n"
        "def load(x, depth=0):\n    return load(x, depth - 1)\n"
        "def other(x):\n    return load(x, depth=2)\n")}
    assert unset_options(trees, list(trees.values())) == ["a.dump(indent=)"]
    # an option only a test sets is unset
    for folder, text in (("src", "def f(x, y=1):\n    pass\n"
                                 "def g(z=1):\n    pass\n"),
                         ("bench", "f(0)\n"),
                         ("tests", "f(0, y=2)\ng(z=2)\n")):
        (tmp_path / folder).mkdir()
        (tmp_path / folder / "a.py").write_text(text, encoding="utf-8")
    trees = {a: parse(tmp_path / "src" / "a.py")}
    assert len(option_sources(tmp_path)) == 2
    assert unset_options(trees, option_sources(tmp_path)) == [
        "a.f(y=)", "a.g(z=)"]
    assert keyword_splats({a: ast.parse(
        "def f(h, **kw):\n    pass\n"
        "def _g(**kw):\n    pass\n"
        "def n(*args, k=1):\n    pass\n"
        "class C:\n    def m(self, **kw):\n        def inner(**kw):\n"
        "            pass\n"
        "class _D:\n    def m(self, **kw):\n        pass\n")}) \
        == ["a.f", "a.C.m"]
    trees = {a: ast.parse(
        "def f(h: SupportedMatrix, k: int, es: EigenSystem | None = None):"
        "\n    pass\n"
        "def g(p: TorusPoint, *, es: Optional[EigenSystem]):\n    pass\n"
        "def nodal_count(h: SupportedMatrix, *, es: EigenSystem):\n    pass\n"
        "def resolvent(es: EigenSystem, k: int):\n    pass\n"
        "def _checked(h: SupportedMatrix, es: EigenSystem):\n    pass\n"
        "class P:\n    def m(self, es: EigenSystem, *p: TorusPoint):\n"
        "        pass\n"
        "class _Q:\n    def m(self, h: SupportedMatrix, es: EigenSystem):\n"
        "        pass\n")}
    assert solve_handins(trees) == ["a.f", "a.g", "a.P.m"]
    assert solve_handins(trees, ()) \
        == ["a.f", "a.g", "a.nodal_count", "a.P.m"]
    nodal = ast.parse(
        "def _stack_checks(values, products, positions, *, tol=1):\n"
        "    pass\n"
        "def position_checks(graph, *, positions=None):\n"
        "    return _stack_checks(1, 2, positions)\n"
        "def _checked(h):\n    return nodal._stack_checks(1, 2, [0])\n"
        "class _StackChecks:\n    values: object\n    positions: object\n"
        "    def error(self, row, col):\n        k = col + 1\n")
    assert parameters(nodal, "_stack_checks") \
        == {"values", "products", "positions", "tol"}
    assert parameters(nodal, "_StackChecks") == {"values", "positions"}
    assert function_callers({Path("nodal.py"): nodal}, "_stack_checks") \
        == ["nodal.position_checks", "nodal._checked"]
    trees = {Path("morse.py"): ast.parse(
        "RANK_TOL = 1e-7\n"
        "def morse_index(h, rank_tol=RANK_TOL):\n    return rank_tol\n"
        "def verify(h, *, tol=1.0, rank_tol: float = RANK_TOL):\n"
        "    def inner(c=2 * RANK_TOL):\n        pass\n"
        "    return morse_index(h, RANK_TOL)\n"),
        Path("linkage.py"): ast.parse(
        "class A:\n    def m(self, cut=morse.RANK_TOL):\n        pass\n"
        "def f(h, cut=None):\n    return morse.RANK_TOL\n")}
    assert default_readers(trees, "RANK_TOL") == [
        "linkage.m", "morse.morse_index", "morse.verify", "morse.inner"]
    # a cut bound as a default, by name or through its module
    trees = {Path("nodal.py"): ast.parse(
        "def _stack_checks(v, *, tol_real=PRODUCT_REAL_TOL):\n    pass\n"
        "def count(h):\n    return PRODUCT_REAL_TOL * h\n"),
        Path("operators.py"): ast.parse(
        "def classes(h, cap=SIGNING_CAP):\n    pass\n"
        "def sweep(h, cap=operators.SIGNING_CAP + 1):\n    pass\n")}
    assert default_readers(trees, "PRODUCT_REAL_TOL") \
        == ["nodal._stack_checks"]
    assert default_readers(trees, "SIGNING_CAP") \
        == ["operators.classes", "operators.sweep"]
    trees = {Path("cli.py"): ast.parse(
        "from .a import used\nfrom . import b\n"
        "def main():\n    return used(), b.T\n"
        "def cmd_x():\n    return _private()\n"
        "def _private():\n    return b.helper\n"),
        a: ast.parse(
        "def used():\n    return _inner()\ndef _inner():\n    return LIMIT\n"
        "LIMIT = cut()\ndef cut():\n    pass\n"
        "def idle():\n    return orphan()\ndef orphan():\n    pass\n"
        "def benched():\n    pass\ndef traced():\n    pass\n"
        "class Loaded:\n    pass\ndef lone():\n    pass\n"),
        b: ast.parse(
        "def helper():\n    pass\nclass T:\n    def m(self):\n"
        "        return method_only()\ndef method_only():\n    pass\n"),
        Path("__init__.py"): ast.parse("from .a import idle, Loaded\n")}
    bench = [ast.parse("from magnodal.a import benched\n"
                       "from magnodal import cli, Loaded\n"
                       "cli.main([])\nx = cli.cmd_x\n"),
             ast.parse("LAYERS = {'a': ('traced',)}\n")]
    assert command_roots(trees) == {("cli", "main"), ("cli", "cmd_x")}
    assert bench_roots(trees, bench) == {
        ("a", "benched"), ("a", "Loaded"), ("cli", "main"), ("cli", "cmd_x"),
        ("a", "traced")}
    assert unreached(trees, command_roots(trees)) == [
        "a.Loaded", "a.benched", "a.idle", "a.lone", "a.orphan", "a.traced"]
    assert unreached(trees, command_roots(trees) | bench_roots(
        trees, bench)) == ["a.idle", "a.lone", "a.orphan"]
    # exported or loaded is not reached: the older rule passes both
    assert unreferenced_definitions(a, trees, ("benched", "traced")) == [
        "lone (line 18)"]
    assert constant_reads(ast.parse(
        "from . import morse\nfrom .morse import RANK_TOL, morse_index\n"
        "a = morse.RANK_TOL\nb = m.x.RANK_TOL * RANK_TOL\n"
        "RANK_TOL = 1\n'RANK_TOL'\n"), "RANK_TOL") == [
        "import RANK_TOL", "morse.RANK_TOL", "?.RANK_TOL", "RANK_TOL"]
