"""Static checks on the package source."""

import ast
import importlib
import pathlib
import re
import sys

import pytest

import portloss

PACKAGE = pathlib.Path(portloss.__file__).parent


def _unused_imports(path):
    """Names a module imports and never uses; a name listed in __all__
    counts as used."""
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return sorted(name for name in imported if name not in used)


def test_no_unused_imports():
    # __init__.py imports are the package's re-exports
    unused = {
        path.name: names
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py" and (names := _unused_imports(path))
    }
    assert unused == {}


def _third_party_imports():
    """Top-level names of the modules the package imports that are neither
    its own nor in the standard library."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"portloss"}


def test_imports_match_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")
    pyproject = PACKAGE.parent.parent / "pyproject.toml"
    if not pyproject.exists():
        pytest.skip("package is not run from a source checkout")
    declared = tomllib.loads(pyproject.read_text())["project"]["dependencies"]
    assert _third_party_imports() == {re.split(r"[<>=!~ ;\[]", d)[0] for d in declared}


def test_every_exported_name_exists():
    # a name left in __all__ after its definition goes would pass the
    # unused-import check above, which counts __all__ entries as used
    stale = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(
            "portloss" if path.stem == "__init__" else f"portloss.{path.stem}"
        )
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        if missing:
            stale[module.__name__] = missing
    assert stale == {}


def _private_definitions(tree):
    """Module-level private names a module defines: functions, classes and
    assigned names with one leading underscore."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for target in targets for t in ast.walk(target)
                      if isinstance(t, ast.Name)}
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def _references(tree):
    """Names a module reads, as bare names or as attributes of anything."""
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)} | {
        node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def test_every_private_name_is_reached_by_package_code():
    # a private helper that only the tests reach is code kept for the tests
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    read = set().union(*(_references(tree) for tree in trees.values()))
    unreached = {name: sorted(names - read) for name, tree in trees.items()
                 if (names := _private_definitions(tree)) - read}
    assert unreached == {}


def _private_class_fields(tree):
    """(class, field) of every field of a private class: annotated names in
    the class body and ``self.x = ...`` assignments in its ``__init__``."""
    fields = set()
    for cls in ast.walk(tree):
        if not (isinstance(cls, ast.ClassDef) and cls.name.startswith("_")
                and not cls.name.startswith("__")):
            continue
        for node in cls.body:
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                fields.add((cls.name, node.target.id))
            elif isinstance(node, ast.FunctionDef) and node.name == "__init__":
                for target in ast.walk(node):
                    if (isinstance(target, ast.Attribute) and isinstance(target.ctx, ast.Store)
                            and isinstance(target.value, ast.Name) and target.value.id == "self"):
                        fields.add((cls.name, target.attr))
    return fields


def test_every_private_class_field_is_read_by_package_code():
    # only attribute reads count: a local variable of the same name would
    # hide a field that nothing reads from a scan of bare names
    trees = [ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))]
    read = {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    fields = set().union(*(_private_class_fields(tree) for tree in trees))
    assert sorted(f"{cls}.{name}" for cls, name in fields if name not in read) == []


# exported names that no package code calls, each kept for a reader outside
# the package
DOCUMENTED_API = {
    "engine.density_subordinated": "the README quick start evaluates one point with it",
    "engine.mass_accounting": "the normalization audit that a run's sidecar is to report",
    "engine.gaussian_moment_terms": "perfbench/micro.py times the tranched node-table build",
    "quadrature.chi2_nodes": "perfbench/micro.py times the rule builds in the model's z",
    "quadrature.gauss_nodes": "perfbench/micro.py times the rule builds in the model's u",
    "limits.density_limit_subordinated": "acceptance 07 takes the ridge limit at single points",
    "moments.tau": "acceptance 04 checks each payoff/boundary kernel against quadrature",
    "moments.moment_senior": "perfbench/micro.py times the one-point and vector kernel calls",
    "moments.junior_mean_target_du": "perfbench/micro.py times the one-point slope call",
    "limits.solve_u_senior": "perfbench/micro.py times the one-point u solve",
    "limits.solve_u_plain": "perfbench/micro.py times the one-point u solve",
    "limits.solve_z0": "perfbench/micro.py times the one-point crossing solve",
    "mc.sample_compound": "perfbench/micro.py times the scale-mixture sampler",
    "mc.sample_wishart": "perfbench/micro.py times the random-covariance sampler",
    "mc.ks_compare": "acceptance 05 checks that the two samplers agree in law",
    "calibration.log_return_density": "the full return law whose N profile fit_n maximizes",
}


def _exports(tree):
    """The entries of a module's ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


def _reads_outside_own_def(tree):
    """Names a module reads, as bare names or as attributes of anything,
    except the reads inside the function or class that defines the name."""
    read = set()

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            owner = owner | {node.name}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            name = node.attr
        else:
            name = None
        if name is not None and name not in owner:
            read.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, frozenset())
    return read


def test_every_exported_name_is_reached_by_package_code():
    # a public function that only the tests call is a second path kept for
    # the tests; __init__.py only re-exports, and an __all__ list is a
    # string literal, so neither counts as a read
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "__init__.py"}
    read = set().union(*(_reads_outside_own_def(tree) for tree in trees.values()))
    exported = {f"{module}.{name}" for module, tree in trees.items() for name in _exports(tree)}
    unreached = {name for name in exported if name.split(".")[1] not in read}
    assert sorted(unreached - set(DOCUMENTED_API)) == []
    # an allow-listed name that package code now reads, or that is gone,
    # leaves the list
    assert sorted(set(DOCUMENTED_API) - unreached) == []
