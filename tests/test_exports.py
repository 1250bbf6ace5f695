"""Every name the package exports is used by the package, the benchmark or a demo,
and so is every public method or property of an exported class.

A public name whose only callers are tests is dead weight: it belongs in
tests/oracles/ or nowhere. This test reads the sources as text. For each name
that ``privmine/__init__.py`` imports it looks for a use in ``src/privmine/``
(other than ``__init__.py``), ``perfbench/`` and ``demos/``. A use is the name
as a code token anywhere but right after ``def`` or ``class``, or a string
literal equal to it (perfbench's tracer wraps functions by name). Comments
and docstrings do not count. Members are matched by name through ``ast``:
any attribute read of that name, f-strings included, or a string constant
equal to it counts as a use.
"""

import ast
import io
import pathlib
import tokenize

REPO = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "privmine"
MODULES = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
USERS = MODULES + sorted((REPO / "perfbench").glob("*.py"))
USERS += sorted((REPO / "demos").glob("*.py"))


def _exported() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def _used(path: pathlib.Path) -> set[str]:
    used, previous = set(), None
    for tok in tokenize.generate_tokens(io.StringIO(path.read_text()).readline):
        if tok.type == tokenize.NAME and previous not in ("def", "class"):
            used.add(tok.string)
        elif tok.type == tokenize.STRING:
            try:
                value = ast.literal_eval(tok.string)
            except (ValueError, SyntaxError):
                value = None
            if isinstance(value, str):
                used.add(value)
        if tok.type not in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE):
            previous = tok.string
    return used


def test_every_export_has_a_user_outside_the_tests():
    assert len(USERS) > 10
    used = set().union(*map(_used, USERS))
    unused = sorted(_exported() - used)
    assert not unused, f"privmine exports names only the tests use: {unused}"


def _public_members() -> set[tuple[str, str]]:
    """(class, name) of every public method or property of an exported class."""
    exported = _exported()
    return {(node.name, item.name) for path in MODULES
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ClassDef) and node.name in exported
            for item in node.body
            if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")}


def _attributes(path: pathlib.Path) -> set[str]:
    """Attribute names the code reads, in f-strings too, and string constants
    (``getattr`` by name)."""
    return {node.attr if isinstance(node, ast.Attribute) else node.value
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute)
            or isinstance(node, ast.Constant) and isinstance(node.value, str)}


def test_every_public_member_of_an_exported_class_has_a_user_outside_the_tests():
    members = _public_members()
    assert len(members) > 30
    used = set().union(*map(_attributes, USERS))
    unused = sorted(f"{cls}.{name}" for cls, name in members if name not in used)
    assert not unused, f"exported classes have members only the tests use: {unused}"


def test_support_estimate_holds_no_mechanism_formula():
    """Each spec states its own inverse (``lattice_weights``); ``estimate``
    applies it without asking which spec it has, and ``mining.py`` carries no
    mechanism's arithmetic."""
    specs = {node.name for path in MODULES for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.ClassDef) and node.name.endswith("Spec")}
    assert {"GammaDiagonalSpec", "MaskSpec", "CutPasteSpec"} <= specs
    tree = ast.parse((PACKAGE / "mining.py").read_text())
    estimator = next(node for node in tree.body
                     if isinstance(node, ast.ClassDef) and node.name == "SupportEstimator")
    estimate = next(node for node in estimator.body
                    if isinstance(node, ast.FunctionDef) and node.name == "estimate")
    names = {node.id for node in ast.walk(estimate) if isinstance(node, ast.Name)}
    banned = specs | {"isinstance", "type"}
    assert not names & banned, sorted(names & banned)
    defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert "_overlap_transform" not in defined
    assert "cut_paste_class_matrix" not in imported


def _unused_imports(path: pathlib.Path) -> list[str]:
    """Names the module imports and never reads, but for imports whose first
    line carries ``# noqa: F401``."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {(alias.asname or alias.name).partition(".")[0]: node.lineno
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                and "# noqa: F401" not in lines[node.lineno - 1]
                for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{lineno} {name}" for name, lineno in imported.items()
            if name not in read]


def test_every_module_uses_what_it_imports():
    """No linter runs in CI, so this stands in for pyflakes' F401 on
    src/privmine. ``__init__.py`` is left out: its imports are the exports,
    which test_every_export_has_a_user_outside_the_tests checks."""
    assert len(MODULES) > 5
    unused = [name for path in MODULES for name in _unused_imports(path)]
    assert not unused, f"imported and never used: {unused}"


MECHANISM_NAMES = {"det-gd", "ran-gd", "mask", "cut-paste"}
# the places that may still ask which mechanism a spec is, each with its reason
MECHANISM_BRANCHES = {
    # perfbench's tracer counts perturb_dataset, mask_dataset and
    # cut_paste_dataset calls through their names bound in privmine.cli, and
    # tests/test_bench_contract.py requires them to be called
    ("cli.py", "_perturb"),
    # a reference path for the subset-marginal inverse, bound for tests/oracles/
    ("reconstruct.py", "SubsetMarginalSpec.for_subset"),
}


def _mechanism_branches(path: pathlib.Path, specs: set[str]) -> set[tuple[str, str]]:
    """(file, qualified function) of each isinstance or issubclass call, or
    comparison, that names a spec class or compares with a mechanism name."""
    found = set()

    def asks(node) -> bool:
        if isinstance(node, ast.Call):
            if not (isinstance(node.func, ast.Name) and node.func.id in ("isinstance", "issubclass")):
                return False
        elif not isinstance(node, ast.Compare):
            return False
        return any(isinstance(sub, ast.Name) and sub.id in specs
                   or isinstance(sub, ast.Constant) and sub.value in MECHANISM_NAMES
                   for sub in ast.walk(node))

    def visit(node, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}".lstrip("."))
                continue
            if asks(child):
                found.add((path.name, scope))
            visit(child, scope)

    visit(ast.parse(path.read_text()), "")
    return found


def test_only_the_spec_classes_know_their_mechanism():
    """One statement of the mechanisms: each spec class in perturb.py says
    all that the loop asks about it, and ``MECHANISMS`` lists the classes.
    No module tests which spec class it has or compares with a mechanism
    name, except at MECHANISM_BRANCHES; perturb.py's own loop does not either."""
    perturb = ast.parse((PACKAGE / "perturb.py").read_text())
    specs = {node.name for node in perturb.body
             if isinstance(node, ast.ClassDef) and node.name.endswith("Spec")}
    branches = set().union(*(_mechanism_branches(path, specs) for path in MODULES))
    assert branches == MECHANISM_BRANCHES
    from privmine.perturb import MECHANISMS

    assert {m.__name__ for m in MECHANISMS} == specs
    assert {m.name for m in MECHANISMS} == MECHANISM_NAMES
    defined = {name for path in MODULES for node in ast.parse(path.read_text()).body
               for name in ([node.name] if isinstance(node, ast.FunctionDef) else
                            [t.id for t in getattr(node, "targets", []) if isinstance(t, ast.Name)])}
    assert not defined & {"SPEC_KEYS", "_params", "_kernel"}
    mining = ast.parse((PACKAGE / "mining.py").read_text())
    imported = {alias.name for node in ast.walk(mining) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert not imported & specs
