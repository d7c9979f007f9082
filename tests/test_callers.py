"""Every library name has a caller outside the tests.

Walks the AST of each `src/noether/*.py` module and fails on any non-dunder
`def` or `class` whose name no package module and no `perfbench/` script
references, and on any field of a `@record` class that none of them reads.
A module-level or local definition is referenced by a name, an attribute or
an imported name of its spelling.  A class member is referenced only by an
attribute (`x.size`) or by a name in its own class body
(`__setitem__ = _read_only`), so a local variable or parameter of the same
spelling does not hide it.  A record field is referenced only by an
attribute: constructing a record names its fields, but keeping a value
nobody reads is waste.  An attribute read off the name `args`, which in
`cli.py` is the argparse namespace (`args.mr`), is an option, not a field,
so it does not count as reading one.  The check is still by bare name:
two members that share an attribute name share their fate.  Code that only
tests call is deleted with its tests, unless it is an oracle a test
compares against; those are listed below.

A second check fails on any name a module-level `import` binds (under
`if TYPE_CHECKING:` too, but not from `__future__`) that its module never
reads, by a name or by a word of a string constant that is not a
docstring, which covers quoted annotations.
"""

import ast
import re
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
    "mr_names": "KillMatrix's green MRs, read by A-11 and test_harness's kill-matrix tests",
    "mutants_by_sut": "BlindnessReport's roster, read by A-05, A-11 and test_harness's "
    "concordance tests",
    "extract_invariants": "A-04 and TestTemplates, which compare the patterns' invariants "
    "and templates against it",
}


def _references(paths):
    """(names and imported names, attributes, attributes not read off the
    name `args`) read anywhere in `paths`."""
    names, attributes, field_reads = set(), set(), set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
                if not (isinstance(node.value, ast.Name) and node.value.id == "args"):
                    field_reads.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
    return names, attributes, field_reads


def _class_body_names(cls):
    """The names read in a class body outside its defs: its own members."""
    return {
        node.id
        for stmt in cls.body
        if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        for node in ast.walk(stmt)
        if isinstance(node, ast.Name)
    }


def _definitions(node, prefix="", class_names=None):
    """(qualified name, bare name, the names of the enclosing class body, or
    None outside a class body) of every def and class under `node`."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            yield prefix + child.name, child.name, class_names
            inner = _class_body_names(child) if isinstance(child, ast.ClassDef) else None
            yield from _definitions(child, prefix + child.name + ".", inner)
        else:
            yield from _definitions(child, prefix, class_names)


def _record_fields(tree):
    """(qualified name, field name) of each annotated field of a `@record` class."""
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef) and any(
            isinstance(d, ast.Name) and d.id == "record" for d in cls.decorator_list
        ):
            for stmt in cls.body:
                if isinstance(stmt, ast.AnnAssign) and not ast.unparse(stmt.annotation).startswith("ClassVar"):
                    yield f"{cls.name}.{stmt.target.id}", stmt.target.id


def _uncalled():
    modules = sorted(PACKAGE.glob("*.py"))
    names, attributes, field_reads = _references(modules + sorted((ROOT / "perfbench").glob("*.py")))
    found = {}
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for qualified, name, class_names in _definitions(tree):
            dunder = name.startswith("__") and name.endswith("__")
            by_name = names if class_names is None else class_names
            if not dunder and name not in attributes and name not in by_name:
                found[f"{path.stem}.{qualified}"] = name
        for qualified, name in _record_fields(tree):
            if name not in field_reads:
                found[f"{path.stem}.{qualified}"] = name
    return found


def test_only_oracles_lack_a_caller_outside_the_tests():
    uncalled = _uncalled()
    assert sorted(q for q, name in uncalled.items() if name not in ORACLES) == []
    # an oracle that gained a real caller leaves the list
    assert sorted(set(uncalled.values())) == sorted(ORACLES)


def _module_imports(tree):
    """(bound name, line) of each import at module level, outside any def or
    class but inside `if` blocks such as `if TYPE_CHECKING:`."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".", 1)[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno
        elif isinstance(node, ast.If):
            stack += node.body + node.orelse


def _docstrings(tree):
    """The string constants that are a module's, class's or def's docstring."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                yield first.value


def _reads(tree):
    """The names a module reads: `ast.Name` ids and the words of its
    non-docstring string constants."""
    docstrings = set(map(id, _docstrings(tree)))
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            reads.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docstrings:
            reads.update(re.findall(r"\w+", node.value))
    return reads


def test_every_module_import_is_read():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        reads = _reads(tree)
        unused += [f"{path.name}:{line} {name}" for name, line in _module_imports(tree) if name not in reads]
    assert unused == []
