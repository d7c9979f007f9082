"""Every library name has a caller outside the tests.

Walks the AST of each `src/noether/*.py` module and fails on any non-dunder
`def` or `class` whose name no package module and no `perfbench/` script
references.  A reference is a name, an attribute or an imported name, so
the check is by bare name: a method shares its fate with every attribute
of the same spelling.  Code that only tests call is deleted with its tests,
unless it is an oracle a test compares against; those are listed below.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "noether"

# name -> the tests that compare against it
ORACLES = {
    "descriptor_to_text": "the .mr round-trip tests in test_specfile",
    "mutator_config_to_text": "the .cfg round-trip test in test_specfile",
    "sut_file_to_text": "the .sut round-trip tests and the TestCensusRows zoo digest",
    "check_homogeneity": "test_zoo and mutate's certified-preserver test; it checks "
    "every (lambda, point) pair independently of ScalingMR",
}


def _references(paths):
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
    return names


def _definitions(node, prefix=""):
    """(qualified name, bare name) of every def and class under `node`."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            yield prefix + child.name, child.name
            yield from _definitions(child, prefix + child.name + ".")
        else:
            yield from _definitions(child, prefix)


def _uncalled():
    modules = sorted(PACKAGE.glob("*.py"))
    callers = _references(modules + sorted((ROOT / "perfbench").glob("*.py")))
    found = {}
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for qualified, name in _definitions(tree):
            dunder = name.startswith("__") and name.endswith("__")
            if not dunder and name not in callers:
                found[f"{path.stem}.{qualified}"] = name
    return found


def test_only_oracles_lack_a_caller_outside_the_tests():
    uncalled = _uncalled()
    assert sorted(q for q, name in uncalled.items() if name not in ORACLES) == []
    # an oracle that gained a real caller leaves the list
    assert sorted(set(uncalled.values())) == sorted(ORACLES)
