"""The trial modules never reach the per-point oracles: no module of the
package but reference.py imports mimoloc.reference, no other module
defines a name that reference.py defines, and the package root exports
none of them.  One module builds the sparse tap operators: no module but
_kernels.py references scipy.sparse.  Trials reach the field as segment
matrices: no module but signal.py, reference.py and the package root
names PathObservation.  The sources are parsed with ast, not imported.
"""
import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "mimoloc")
MODULES = sorted(name for name in os.listdir(SRC) if name.endswith(".py"))
TRIAL_MODULES = [name for name in MODULES if name != "reference.py"]


def parse(name):
    with open(os.path.join(SRC, name), encoding="utf-8") as fh:
        return ast.parse(fh.read())


def imported_modules(tree):
    """The package modules a module imports, relatively or by full name."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            parts = node.module.split(".") if node.module else []
            if not node.level:
                if parts[:1] != ["mimoloc"]:
                    continue
                parts = parts[1:]
            if parts:
                out.add(parts[0])
            else:                       # from . import name
                out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            out.update(alias.name.split(".")[1] for alias in node.names
                       if alias.name.startswith("mimoloc."))
    return out


def defined_names(tree):
    """Names a module binds at its top level by def, class or assignment."""
    out = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, ast.Assign):
            out.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return out


def bound_names(tree):
    """Names a module binds at its top level, imports included."""
    out = defined_names(tree)
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            out.update(alias.asname or alias.name for alias in node.names)
    return out


def references_sparse(tree):
    """Whether a module imports scipy.sparse, in any form, or reads the
    attribute scipy.sparse."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Attribute) and node.attr == "sparse":
            names = [f"{getattr(node.value, 'id', '')}.sparse"]
        else:
            continue
        if any(n == "scipy.sparse" or n.startswith("scipy.sparse.")
               for n in names):
            return True
    return False


def named(tree):
    """Every identifier a module uses: names, attributes, imports."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            out.update(alias.name.split(".")[-1] for alias in node.names)
    return out


REFERENCE_NAMES = defined_names(parse("reference.py"))


def test_reference_names_found():
    assert {"path_loglik", "gram_matrix", "steering_vector", "footprint",
            "covariance", "classify_scene"} <= REFERENCE_NAMES


@pytest.mark.parametrize("name", TRIAL_MODULES)
def test_trial_module_does_not_import_reference(name):
    assert "reference" not in imported_modules(parse(name))


@pytest.mark.parametrize("name", TRIAL_MODULES)
def test_oracle_defined_only_in_reference(name):
    assert not defined_names(parse(name)) & REFERENCE_NAMES


def test_package_root_exports_no_oracle():
    assert not bound_names(parse("__init__.py")) & (REFERENCE_NAMES
                                                    | {"reference"})


@pytest.mark.parametrize("name", [n for n in MODULES if n != "_kernels.py"])
def test_sparse_only_in_kernels(name):
    assert not references_sparse(parse(name))


def test_kernels_references_sparse():
    assert references_sparse(parse("_kernels.py"))


@pytest.mark.parametrize("name", [n for n in MODULES if n not in
                                  ("signal.py", "reference.py",
                                   "__init__.py")])
def test_path_observation_stays_out_of_trials(name):
    assert "PathObservation" not in named(parse(name))


def test_path_observation_named_in_signal():
    assert "PathObservation" in named(parse("signal.py"))
