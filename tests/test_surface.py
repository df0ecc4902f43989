"""Every public top-level name of src/localelab has a reader.

A public name (no leading underscore) defined at the top level of a
module must be reached from outside its own definition: from code in
demos/, from a code span of README.md or docs/formats.md, or from code
in src/ that is itself reached that way (cli's `__main__` block and the
other module-level statements count as reached).  A name that only
tests reach belongs in tests/; a name nothing reaches is dead code, and
so is a name read only by dead code.  Names are matched bare, so two
definitions of one name stand or fall together.
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


def _read(node):
    """Names read in a syntax tree, as bare names or attributes."""
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
    """module.name of every public top-level name nothing reaches."""
    reached = _documented()
    for path in DEMOS:
        reached |= _read(ast.parse(path.read_text(encoding="utf-8")))
    definitions = []                    # (module, name, node)
    for path in SRC:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            names = _defined(node)
            if names:
                definitions += [(path.stem, name, node) for name in names]
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
    return [f"{module}.{name}" for module, name, _ in unread
            if not name.startswith("_")]


def test_every_public_name_is_referenced_outside_its_definition():
    assert unreferenced_names() == []
