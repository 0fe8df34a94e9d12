"""Rules on the source of src/padichyp, read with the stdlib ast module.

- No module but __init__ (which re-exports) imports a name it never reads;
  an import statement marked "# noqa" is skipped.
- No module imports dataclasses or typing: each costs every process its
  start-up time.
- Only checks, cli and __init__ import report, so the kernels build no
  report and checks._evaluate makes every side-pair one.
- gamma imports only combinatorics and padic of the package: the section-3
  suites build their sides from residues, not from hyp.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "padichyp"
MODULES = sorted(SRC.glob("*.py"))


def _imported(path):
    """(line, module or name) for each thing an import statement of path
    names; `from . import report` names report as well as the package."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
            if node.module in (None, "padichyp"):  # from . import report
                names += [alias.name for alias in node.names]
        else:
            continue
        for n in names:
            yield node.lineno, n


def test_no_unused_import_in_src():
    unused = []
    for path in MODULES:
        if path.name == "__init__.py":
            continue
        text = path.read_text()
        lines = text.splitlines()
        tree = ast.parse(text)
        read = {n.id for n in ast.walk(tree)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in ast.walk(tree):
            if (not isinstance(node, (ast.Import, ast.ImportFrom))
                    or getattr(node, "module", None) == "__future__"
                    or any("# noqa" in l for l in lines[node.lineno - 1:node.end_lineno])):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                if name not in read:
                    unused.append(f"{path.name}:{node.lineno}: {name}")
    assert not unused


def test_no_dataclasses_or_typing_import_in_src():
    bad = [f"{path.name}:{line}: imports {n}" for path in MODULES
           for line, n in _imported(path) if n.partition(".")[0] in ("dataclasses", "typing")]
    assert not bad


def test_only_checks_cli_and_init_import_report():
    bad = [f"{path.name}:{line}: imports {n}" for path in MODULES
           if path.stem not in ("checks", "cli", "__init__")
           for line, n in _imported(path) if n.rpartition(".")[2] == "report"]
    assert not bad


def test_gamma_imports_only_combinatorics_and_padic():
    package = {path.stem for path in MODULES}
    inner = {n for _, n in _imported(SRC / "gamma.py") if n in package}
    assert inner == {"combinatorics", "padic"}
