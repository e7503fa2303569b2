import ast
import inspect
import types
from pathlib import Path

import sephorn


def test_all_lists_exactly_the_public_bindings():
    # every exported name resolves, and every public binding of the package
    # that is not a submodule is exported, so a removed function cannot
    # linger in either place
    unresolved = [name for name in sephorn.__all__ if not hasattr(sephorn, name)]
    assert unresolved == []
    assert len(set(sephorn.__all__)) == len(sephorn.__all__)
    public = {name for name, value in vars(sephorn).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == set(sephorn.__all__)


def test_package_imports_neither_scipy_nor_numba():
    # the package depends on numpy and click alone
    found = []
    for path in sorted(Path(sephorn.__file__).resolve().parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] in ("scipy", "numba")]
    assert found == []


def test_no_bare_float_keyword_defaults():
    # every threshold is a config constant: a default in any module of the
    # package names one instead of spelling its value
    found = []
    for path in sorted(Path(sephorn.__file__).resolve().parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            for default in node.args.defaults + node.args.kw_defaults:
                value = default.operand if isinstance(default, ast.UnaryOp) else default
                if isinstance(value, ast.Constant) and isinstance(value.value, float):
                    found.append(f"{path.name}:{default.lineno}")
    assert found == []


def test_no_bare_float_thresholds_in_comparisons():
    # a float compared against is a config constant too, outside config
    # itself; whole numbers below 10 (0.0, 1.0, 2.0) bound a range or scale
    # a term, and are not tolerances
    found = []
    for path in sorted(Path(sephorn.__file__).resolve().parent.glob("*.py")):
        if path.name == "config.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Compare):
                continue
            for sub in ast.walk(node):
                if (isinstance(sub, ast.Constant) and isinstance(sub.value, float)
                        and not (sub.value.is_integer() and abs(sub.value) < 10)):
                    found.append(f"{path.name}:{sub.lineno} {sub.value!r}")
    assert found == []


def test_analyze_keywords_are_pinned():
    # adding a keyword to analyze takes an edit here
    params = inspect.signature(sephorn.analyze).parameters.values()
    assert [p.name for p in params if p.kind is p.KEYWORD_ONLY] == ["tol", "max_iter"]
    assert [p.name for p in params if p.kind is not p.KEYWORD_ONLY] == [
        "rho", "dim_a", "dim_b"]


def test_trimmed_signatures_are_pinned():
    # the Horn slack is config.HORN_SLACK and to_bloch validates at
    # config.STATE_TOL; neither takes a keyword
    for func, names in [(sephorn.check_product_inequalities, ["tau", "alpha", "beta"]),
                        (sephorn.product_singulars_feasible, ["tau", "alpha", "beta"]),
                        (sephorn.to_bloch, ["rho"])]:
        assert list(inspect.signature(func).parameters) == names, func.__name__
