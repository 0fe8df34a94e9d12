"""Rules on the source of src/padichyp, read with the stdlib ast module.

- No module but __init__ (which re-exports) imports a name it never reads;
  an import statement marked "# noqa" is skipped.
- No module imports dataclasses or typing: each costs every process its
  start-up time.
- Only checks, cli and __init__ import report, so the kernels build no
  report.
- Only checks.run_task calls _evaluate, and only _evaluate calls
  CongruenceReport.from_sides or .exact_rational: every report is made by
  one call in one function.
- gamma imports only combinatorics and padic of the package: the section-3
  suites build their sides from residues, not from hyp.
- The Gamma_p kernel (gamma._horner_data and gamma._gamma_blocks) reads no
  name Fraction: its tables are built over integers alone.
- Every memo keyed by a prime is registered with padic._per_prime where it
  is defined: each module-level lru_cache function with a parameter p (as
  the outermost decorator), and the dict gamma._value_cache.
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


def test_gamma_kernel_builds_no_fraction():
    kernel = [node for node in ast.parse((SRC / "gamma.py").read_text()).body
              if isinstance(node, ast.FunctionDef) and node.name in ("_horner_data", "_gamma_blocks")]
    assert sorted(node.name for node in kernel) == ["_gamma_blocks", "_horner_data"]
    reads = [f"{node.name}:{n.lineno}" for node in kernel for n in ast.walk(node)
             if isinstance(n, ast.Name) and n.id == "Fraction"]
    assert not reads


def _called(node):
    """The name a decorator or an assigned value calls or is: lru_cache for
    @lru_cache(maxsize=None), _per_prime for @_per_prime."""
    node = node.func if isinstance(node, ast.Call) else node
    return getattr(node, "id", getattr(node, "attr", None))


def _calls(node, fn=None):
    """(name of the innermost def around it, or None at module level; the
    call) for each call under node; a lambda is part of its def."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            yield fn, child
        yield from _calls(child, child.name if isinstance(child, ast.FunctionDef) else fn)


def test_every_report_is_made_by_one_call_in_one_function():
    maker = {"_evaluate": "run_task", "from_sides": "_evaluate", "exact_rational": "_evaluate"}
    calls = [(f"{path.name}:{call.lineno}", fn, _called(call)) for path in MODULES
             for fn, call in _calls(ast.parse(path.read_text())) if _called(call) in maker]
    assert [c for c in calls if c[1] != maker[c[2]]] == []
    assert [c[1:] for c in calls if c[2] == "_evaluate"] == [("run_task", "_evaluate")]


def test_memos_keyed_by_a_prime_are_registered_per_prime():
    unscoped = []
    for path in MODULES:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                decorators = [_called(d) for d in node.decorator_list]
                params = [a.arg for a in node.args.posonlyargs + node.args.args
                          + node.args.kwonlyargs]
                if "lru_cache" in decorators and "p" in params \
                        and decorators[0] != "_per_prime":
                    unscoped.append(f"{path.name}:{node.lineno}: {node.name}")
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                if "_value_cache" in [getattr(t, "id", None) for t in targets] \
                        and _called(node.value) != "_per_prime":
                    unscoped.append(f"{path.name}:{node.lineno}: _value_cache")
    assert not unscoped
