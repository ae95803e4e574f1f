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
UNCALLED_API = {("fixtures.py", "element_terms")}


def _public_definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                        yield sub


def _references(tree):
    """(name, line) of each name read, attribute taken and name imported."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno


def test_every_public_name_has_a_caller_in_the_package():
    """No library API that only tests call: every public top-level
    function, class and method of the package is used in the package
    outside its own definition."""
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted((ROOT / "src" / "matlislab").glob("*.py"))
    }
    refs = {
        (name, fname, line)
        for fname, tree in trees.items()
        for name, line in _references(tree)
    }
    uncalled = {
        (fname, node.name)
        for fname, tree in trees.items()
        for node in _public_definitions(tree)
        if not any(
            name == node.name
            and not (where == fname and node.lineno <= line <= node.end_lineno)
            for name, where, line in refs
        )
    }
    assert uncalled == UNCALLED_API
