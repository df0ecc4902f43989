"""Every public top-level name of src/localelab has a reader, and so
does every public method of a public class.

A public name (no leading underscore) defined at the top level of a
module, or as a method of a public class, must be reached from outside
its own definition: from code in demos/, from a code span of README.md
or docs/formats.md, or from code in src/ that is itself reached that way
(cli's `__main__` block and the other module-level statements count as
reached; a class's other statements are reached with the class).  A
name that only tests reach belongs in tests/; a name nothing reaches is
dead code, and so is a name read only by dead code.  Names are matched
bare, so two definitions of one name stand or fall together.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "localelab").glob("*.py"))
DEMOS = sorted((ROOT / "demos").glob("*.py"))
DOCS = (ROOT / "README.md", ROOT / "docs" / "formats.md")

IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
CODE = re.compile(r"```.*?```|`[^`\n]+`", re.S)


def _defined(node):
    """The names a top-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    return []


def _methods(node):
    """The public methods of a public class statement, none otherwise."""
    if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
        return []
    return [m for m in node.body
            if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")]


def _read(node):
    """Names read in a syntax tree, as bare names or attributes, outside
    the public methods of a public class, which are definitions of their
    own."""
    methods = _methods(node)
    if methods:
        return set().union(*(_read(child) for child in ast.iter_child_nodes(node)
                             if child not in methods))
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def _documented():
    """Identifiers inside the code spans and fenced blocks of the docs."""
    out = set()
    for path in DOCS:
        for span in CODE.findall(path.read_text(encoding="utf-8")):
            out.update(IDENTIFIER.findall(span))
    return out


def unreferenced_names():
    """module.name of every public top-level name, and module.Class.name
    of every public method of a public class, that nothing reaches."""
    reached = _documented()
    for path in DEMOS:
        reached |= _read(ast.parse(path.read_text(encoding="utf-8")))
    definitions = []                    # (qualified name, name, node)
    for path in SRC:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            names = _defined(node)
            if names:
                definitions += [(f"{path.stem}.{name}", name, node) for name in names]
                definitions += [(f"{path.stem}.{node.name}.{m.name}", m.name, m)
                                for m in _methods(node)]
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                reached |= _read(node)
    unread = definitions
    while True:
        live = [node for _, name, node in unread if name in reached]
        if not live:
            break
        unread = [d for d in unread if d[1] not in reached]
        for node in live:
            reached |= _read(node)
    return [qualified for qualified, name, _ in unread if not name.startswith("_")]


def test_every_public_name_is_referenced_outside_its_definition():
    assert unreferenced_names() == []


def test_a_method_read_only_by_tests_is_unreferenced(tmp_path, monkeypatch):
    # the guard covers methods: a public method of a public class that no
    # reached code reads is named, with its class, and the class's other
    # statements still reach what they read
    module = tmp_path / "probe.py"
    module.write_text("class Probe:\n"
                      "    size = kept\n\n"
                      "    def unread(self):\n"
                      "        return helper()\n\n\n"
                      "def kept():\n"
                      "    return 0\n\n\n"
                      "def helper():\n"
                      "    return 0\n\n\n"
                      "Probe()\n", encoding="utf-8")
    monkeypatch.setitem(globals(), "SRC", SRC + [module])
    assert unreferenced_names() == ["probe.Probe.unread", "probe.helper"]
