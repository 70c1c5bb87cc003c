"""Every refusal text of the package is built at one site.

A failure a user can trigger has one message, made by the library step
that owns it; a second site building the same text is a second copy of
a check that can drift from the first. This scans ``src/wgqed/*.py``
for every ``...Error(...)`` call and collects its message: a string
literal, or the literal parts of an f-string or a concatenation, with
``{}`` for each formatted or non-literal part. A message with no
literal part (a variable) is not collected.

The command line routes a refusal by its class, from a table with one
row per concrete error class, so no refusal raises the base class.

A mode's name in a message, such as ``TE(1,0)``, is formatted by
``ModeIndex.label`` alone: no other f-string follows a formatted
``.value`` with a literal ``(``.
"""

import ast
from collections import defaultdict
from pathlib import Path

from wgqed.modes import ModeIndex, Polarization

SRC = Path(__file__).resolve().parent.parent / "src" / "wgqed"


def message(node):
    """The literal text of a message expression, ``{}`` for each part
    that is not literal; None when no part is."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(part.value if isinstance(part, ast.Constant)
                       else "{}" for part in node.values)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        left, right = message(node.left), message(node.right)
        if left is not None or right is not None:
            return (left or "{}") + (right or "{}")
    return None


def refusal_sites():
    """{message: [file:line, ...]} over every error call with a
    literal message."""
    sites = defaultdict(list)
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Call) and node.args):
                continue
            func = node.func
            name = getattr(func, "id", getattr(func, "attr", ""))
            text = message(node.args[0])
            if name.endswith("Error") and text and text.strip("{}"):
                sites[text].append(f"{path.name}:{node.lineno}")
    return sites


def test_the_scan_sees_the_refusals():
    sites = refusal_sites()
    assert len(sites) > 50
    # a literal, an f-string and a concatenation
    assert "window must satisfy 0 < low < high" in sites
    assert "frequency {} is degenerate with the cutoff {} of {}" in sites
    assert "missing required keys: {}" in sites


def test_each_refusal_text_is_built_once():
    repeated = {text: where for text, where in refusal_sites().items()
                if len(where) > 1}
    assert repeated == {}


def test_no_refusal_raises_the_base_class():
    # ``raise WgError`` and ``raise WgError(...)``, by name or attribute
    sites = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) \
                else node.exc
            if getattr(exc, "id", getattr(exc, "attr", "")) == "WgError":
                sites.append(f"{path.name}:{node.lineno}")
    assert sites == []


def label_sites():
    """``file:function`` of every f-string in ``src/wgqed`` that
    formats a ``.value`` straight before a literal ``(``."""
    sites = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            where = f"{where.split(':')[0]}:{node.name}"
        if isinstance(node, ast.JoinedStr):
            for part, after in zip(node.values, node.values[1:]):
                if (isinstance(part, ast.FormattedValue)
                        and getattr(part.value, "attr", "") == "value"
                        and isinstance(after, ast.Constant)
                        and after.value.startswith("(")):
                    sites.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path.name)
    return sites


def test_the_mode_label_is_formatted_once():
    assert label_sites() == ["modes.py:label"]
    assert ModeIndex(Polarization.TE, 1, 0).label == "TE(1,0)"
