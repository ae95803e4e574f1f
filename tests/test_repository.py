import ast
import pathlib
import shutil
import subprocess

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_no_tracked_file_is_ignored():
    """Generated files stay out of git: nothing tracked matches .gitignore."""
    if shutil.which("git") is None or not (ROOT / ".git").exists():
        pytest.skip("not a git checkout")
    out = subprocess.run(
        ["git", "ls-files", "-ci", "--exclude-standard"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    assert out.stdout == ""


# Public names that no code in the package calls yet, each with its reason.
# element_terms writes an ideal's generators as fixture terms; the FAIL
# witnesses that serialize ideals are its planned caller.
# evaluation_map certifies M -> M°°, which holds by construction, so no
# suite calls it; the benchmark still declares its metric
# duality.evaluation_map.calls/self_s, which ROADMAP item 8 retires
# together with the function.
UNCALLED_API = {("fixtures.py", "element_terms"), ("duality.py", "evaluation_map")}


def _is_property(node):
    return any(isinstance(d, ast.Name) and d.id == "property" for d in node.decorator_list)


def _public_definitions(tree):
    """(node, called) for each public top-level function and class, and
    each public method; called is set for methods that are not
    properties, which count as used only where they are called."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node, False
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                        yield sub, not _is_property(sub)


def _references(tree):
    """(name, line, called) of each name read, attribute taken and name
    imported; called is set when the name is the callee of an ast.Call."""
    callees = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, id(node) in callees
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, id(node) in callees
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno, False


def test_every_public_name_has_a_caller_in_the_package():
    """No library API that only tests call: every public top-level
    function, class and method of the package is used in the package
    outside its own definition.  A method other than a property is used
    only where it is called: reading an attribute of the same name, such
    as field.zero, does not count."""
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted((ROOT / "src" / "matlislab").glob("*.py"))
    }
    refs = {
        (name, fname, line, called)
        for fname, tree in trees.items()
        for name, line, called in _references(tree)
    }
    uncalled = {
        (fname, node.name)
        for fname, tree in trees.items()
        for node, must_call in _public_definitions(tree)
        if not any(
            name == node.name
            and (called or not must_call)
            and not (where == fname and node.lineno <= line <= node.end_lineno)
            for name, where, line, called in refs
        )
    }
    assert uncalled == UNCALLED_API


MEMOS = {"_module_memo", "_ideal_memo"}


def _memo_uses(node, up=(None, None), scope=()):
    """(attribute node, its parent, its grandparent, enclosing def and
    class names) for each use of an algebra value memo under node."""
    if isinstance(node, ast.Attribute) and node.attr in MEMOS:
        yield (node,) + up + (scope,)
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        scope = scope + (node.name,)
    for child in ast.iter_child_nodes(node):
        yield from _memo_uses(child, (node, up[0]), scope)


def _allowed_memo_use(node, parent, grandparent, scope):
    """The three places a value memo may be named: the memo argument of
    algebra.derived, its creation in Algebra.__init__ and the .clear() in
    run_suite."""
    if isinstance(parent, ast.Call):
        func = parent.func
        callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        return callee == "derived" and parent.args[:1] == [node]
    if isinstance(parent, ast.Assign):
        return (scope[-2:] == ("Algebra", "__init__") and parent.targets == [node]
                and isinstance(parent.value, ast.Dict) and not parent.value.keys)
    if isinstance(parent, ast.Attribute) and parent.attr == "clear":
        return (scope[-1:] == ("run_suite",) and isinstance(grandparent, ast.Call)
                and grandparent.func is parent and not grandparent.args)
    return False


def test_value_memos_are_used_only_through_derived():
    """Every read or write of an algebra value memo goes through
    algebra.derived, apart from its creation and the clear() that ends a
    suite: no module keeps a second get-or-build path."""
    stray = [
        "%s:%d" % (path.name, use[0].lineno)
        for path in sorted((ROOT / "src" / "matlislab").glob("*.py"))
        for use in _memo_uses(ast.parse(path.read_text(encoding="utf-8")))
        if not _allowed_memo_use(*use)
    ]
    assert stray == []
