"""Every public function, class and method of the library is reached.

A public name (no leading underscore) defined at the top level of a module
in src/fqcodes, or as a method of a class there, must be named in one of:
- src/fqcodes, outside its own definition; an import alone (such as a
  re-export in __init__) does not count;
- README.md;
- tests/test_acceptance.py.

Anything else is API that only its own unit tests reach, and it should go.
The check is by name, not by binding: a definition counts as reached
wherever its name is used, so a method that shares a name with another
definition or attribute (`sub`, `add`) can slip through.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "fqcodes"


def _used_names(tree) -> Counter:
    """Every identifier a tree uses: plain names and attribute names."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
    return names


def _public_definitions(tree):
    """(qualified name, name, node) for each public top-level def or class
    and each public method of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name, item


def test_every_public_definition_is_reached():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    src_uses = sum((_used_names(tree) for tree in trees.values()), Counter())
    readme = (ROOT / "README.md").read_text()
    acceptance = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    acceptance_names = set(_used_names(acceptance))
    acceptance_names |= {alias.name for node in ast.walk(acceptance)
                         if isinstance(node, ast.ImportFrom) for alias in node.names}
    unreached = []
    for module, tree in trees.items():
        if module == "__init__.py":
            continue
        for qualname, name, node in _public_definitions(tree):
            if src_uses[name] > _used_names(node)[name]:
                continue
            if name in acceptance_names or re.search(rf"\b{re.escape(name)}\b", readme):
                continue
            unreached.append(f"{module}: {qualname}")
    assert not unreached, "public API that nothing reaches: " + ", ".join(unreached)


def test_packed_values_have_one_range_check():
    """The error for a packed value out of range is worded once, inside
    gf.check_ints, so no module grows its own copy of the check."""
    hits = [(path.name, number) for path in sorted(SRC.glob("*.py"))
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if "is not an int in [0," in line]
    assert len(hits) == 1 and hits[0][0] == "gf.py", hits
    gf = ast.parse((SRC / "gf.py").read_text())
    check = next(node for node in gf.body
                 if isinstance(node, ast.FunctionDef) and node.name == "check_ints")
    assert check.lineno <= hits[0][1] <= check.end_lineno
