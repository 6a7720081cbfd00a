"""Census of the public API: code that only tests reach goes, unless it is
documented library API.

Every public top-level function or class of the package must either be
reached from cli.main, following the names that each top-level definition
refers to (a class brings in everything its body refers to), or be named
in README's "Library use" section.
"""

import ast
import pathlib
import re

import grsoliton

PACKAGE = pathlib.Path(grsoliton.__file__).parent
README = PACKAGE.parents[1] / "README.md"


def package_graph():
    """(definitions, edges): the public top-level functions and classes as
    (module, name) pairs, and for every top-level definition or assignment
    the (module, name) pairs that it refers to."""
    modules = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted(PACKAGE.glob("*.py"))}
    imported = {}        # module -> {local name: (module, name) or module}
    local = {}           # module -> {name: top-level statement}
    for module, tree in modules.items():
        imported[module], local[module] = {}, {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("grsoliton"):
                source = node.module.partition(".")[2]
                for alias in node.names:
                    target = alias.name if not source else (source, alias.name)
                    imported[module][alias.asname or alias.name] = target
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                local[module][node.name] = node
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name):
                            local[module][name.id] = node

    def resolve(module, name):
        while name not in local.get(module, {}):
            target = imported.get(module, {}).get(name)
            if not isinstance(target, tuple):
                return None
            module, name = target
        return module, name

    edges = {}
    for module, names in local.items():
        for name, node in names.items():
            refs = set()
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    refs.add(resolve(module, sub.id))
                elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name) \
                        and isinstance(imported[module].get(sub.value.id), str):
                    refs.add(resolve(imported[module][sub.value.id], sub.attr))
            edges[module, name] = refs - {None}
    definitions = {(module, name) for module, names in local.items()
                   for name, node in names.items()
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                   and not name.startswith("_")}
    return definitions, edges


def reached_from(root, edges):
    reached, stack = set(), [root]
    while stack:
        key = stack.pop()
        if key not in reached:
            reached.add(key)
            stack.extend(edges.get(key, ()))
    return reached


def library_section():
    text = README.read_text(encoding="utf-8")
    section = re.search(r"^## Library use\n(.*?)(?=^## |\Z)", text, re.M | re.S)
    assert section, "README has no Library use section"
    return set(re.findall(r"`([A-Za-z_][\w.]*)`", section.group(1)))


def test_public_names_are_reached_or_documented():
    definitions, edges = package_graph()
    reached = reached_from(("cli", "main"), edges)
    documented = library_section()
    missing = sorted(f"{module}.{name}" for module, name in definitions - reached
                     if name not in documented and f"{module}.{name}" not in documented)
    assert not missing, f"neither reached from cli.main nor in README: {missing}"


def test_the_census_follows_references():
    definitions, edges = package_graph()
    reached = reached_from(("cli", "main"), edges)
    # through an import, a module attribute and a class body
    assert ("runner", "run_manifest") in reached
    assert ("expr", "add") in reached            # expr.add in tensors.py
    assert ("fit", "FitResult") in reached       # FitQR.finish builds one
    assert ("fit", "fit_constants") in definitions - reached
