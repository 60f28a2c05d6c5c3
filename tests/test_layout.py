"""Rules about where code lives, checked by reading the source files, and
what importing the CLI loads, checked in a fresh interpreter."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "superell"


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _imports_oracle(tree: ast.Module) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(alias.name == "superell.oracle" for alias in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            if node.module in ("oracle", "superell.oracle"):
                return True
            if node.module in (None, "superell") and any(a.name == "oracle" for a in node.names):
                return True
    return False


def test_only_init_imports_oracle():
    offenders = [
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py" and _imports_oracle(_tree(path))
    ]
    assert offenders == []
    assert _imports_oracle(_tree(PACKAGE / "__init__.py"))


def test_test_only_helpers_live_in_oracle():
    # helpers that only the tests read are oracles, re-exported by __init__
    helpers = {
        "count_all_primitive",
        "enumerate_order_ell",
        "predicted_count",
        "genus_bound_degree",
        "expand",
        "conductor_groups",
    }
    defined = {
        (path.name, node.name)
        for path in sorted(PACKAGE.glob("*.py"))
        for node in _tree(path).body
        if isinstance(node, ast.FunctionDef) and node.name in helpers
    }
    assert defined == {("oracle.py", name) for name in helpers}


def _is_generator(fn: ast.FunctionDef) -> bool:
    """True when fn's own body yields (nested functions do not count)."""
    todo = list(fn.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            return True
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            todo.extend(ast.iter_child_nodes(node))
    return False


def _traced_functions(module: str) -> set:
    """The functions the perfbench tracer wraps in a module: the public,
    non-generator functions defined at its top level."""
    path = PACKAGE / f"{module}.py"
    if not path.is_file():
        return set()
    return {
        node.name
        for node in _tree(path).body
        if isinstance(node, ast.FunctionDef)
        and not node.name.startswith("_")
        and not _is_generator(node)
    }


def _method_spans() -> set:
    for node in _tree(ROOT / "perfbench" / "tracer.py").body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "METHODS" for t in node.targets
        ):
            return set(ast.literal_eval(node.value).values())
    raise AssertionError("perfbench/tracer.py defines no METHODS")


def test_per_layer_spans_resolve():
    # a per-layer metric named <module>.<function>.calls or .s reads the span
    # the tracer names after the function's defining module, so moving or
    # renaming that function breaks the traced benchmark
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    methods = _method_spans()
    unresolved = []
    for metric in config["per_layer"]:
        name = metric["name"]
        for suffix in (".calls", ".s"):
            if name.endswith(suffix):
                span = name[: -len(suffix)]
                module, _, function = span.partition(".")
                if span not in methods and function not in _traced_functions(module):
                    unresolved.append(name)
    assert unresolved == []


def _constructs(tree: ast.Module, name: str) -> bool:
    return any(
        isinstance(node, ast.Call)
        and (
            (isinstance(node.func, ast.Name) and node.func.id == name)
            or (isinstance(node.func, ast.Attribute) and node.func.attr == name)
        )
        for node in ast.walk(tree)
    )


def test_field_elements_are_built_only_by_their_field():
    # a FieldElem carries its canonical index and, within the cap, is one of
    # the field's shared elements, so only ffield may construct one
    files = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    offenders = [
        path.name
        for path in files
        if path.name != "ffield.py" and _constructs(_tree(path), "FieldElem")
    ]
    assert offenders == []
    assert _constructs(_tree(PACKAGE / "ffield.py"), "FieldElem")


def _attribute_calls(tree: ast.AST, attr: str) -> int:
    return sum(
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == attr
        for node in ast.walk(tree)
    )


def test_one_discrete_log_walk():
    # every generator search and discrete log, for the symbol tables and the
    # field log tables alike, is polyring.residue_dlog, the only caller of
    # AffineIndexMap.walk
    calls = {path.name: _attribute_calls(_tree(path), "walk") for path in PACKAGE.glob("*.py")}
    assert {name: n for name, n in calls.items() if n} == {"polyring.py": 1}
    search = next(
        node
        for node in _tree(PACKAGE / "polyring.py").body
        if isinstance(node, ast.FunctionDef) and node.name == "residue_dlog"
    )
    assert _attribute_calls(search, "walk") == 1


_SPREAD_TABLES = {"norm_lo", "norm_hi", "b_lo", "p_lo", "red_lo", "red_hi"}


def test_only_ffield_reads_the_spread_code():
    # other modules build and apply index maps through ffield.AffineIndexMap
    # and IndexSums, and never the coding's tables
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = _tree(path)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "monic_images":
                offenders.append(f"{path.name}: defines monic_images")
        if path.name == "ffield.py":
            continue
        if _constructs(tree, "spread_coding"):
            offenders.append(f"{path.name}: calls spread_coding")
        for node in ast.walk(tree):
            name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
            if name in _SPREAD_TABLES:
                offenders.append(f"{path.name}: names {name}")
    assert offenders == []
    assert _constructs(_tree(PACKAGE / "ffield.py"), "spread_coding")


def _callers(name: str) -> list:
    """(module, class, function) of every call, one entry per call, of a
    function or method named `name` in the package, by the innermost
    enclosing class and function."""
    found = []

    def visit(node, cls, fn):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name, fn)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, cls, child.name)
            else:
                if isinstance(child, ast.Call) and name in (
                    getattr(child.func, "attr", None), getattr(child.func, "id", None)
                ):
                    found.append((path.name, cls, fn))
                visit(child, cls, fn)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(_tree(path), None, None)
    return found


def test_one_factor_value_decider():
    # the family generator and the density sampler decide pairs through
    # families.FactorValues, the only place besides the one-shot
    # BinaryForm.evaluate that evaluates a form from power lists
    assert set(_callers("evaluate_powers")) == {
        ("families.py", "BinaryForm", "evaluate"),
        ("families.py", "FactorValues", "values"),
    }


def test_only_the_family_experiment_builds_a_character_from_a_model():
    # a census holds the character of every model it checks, so the one
    # caller that factors a model's components is the family experiment
    assert _callers("char_from_model") == [("census.py", None, "family_experiment")]


def test_one_builder_of_a_character_report_object():
    # DirichletChar.to_json and the census's vanishing list share
    # characters.char_json, the only place that makes an {"ell", "factors",
    # "field"} object
    keys = {"ell", "factors", "field"}
    makers = [
        (path.name, fn.name)
        for path in sorted(PACKAGE.glob("*.py"))
        for fn in ast.walk(_tree(path))
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, ast.Dict)
        and {getattr(k, "value", None) for k in node.keys} == keys
    ]
    assert makers == [("characters.py", "char_json")]
    assert sorted(_callers("char_json")) == [
        ("census.py", "_AffineClasses", "listed"),
        ("characters.py", "DirichletChar", "to_json"),
    ]


def _annotation_names(node: ast.AST) -> set:
    """The names a string annotation ("LCache | None") refers to."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return {n.id for n in ast.walk(ast.parse(node.value, mode="eval")) if isinstance(n, ast.Name)}
    return set()


def _used_names(tree: ast.Module) -> set:
    """Every name a module reads, in code, in string annotations or in __all__."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg):
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            used |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= _annotation_names(node.annotation)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return used


def test_every_import_is_used():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = _tree(path)
        used = _used_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.asname or a.name.partition(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [a.asname or a.name for a in node.names]
            else:
                continue
            unused += [f"{path.name}: {name}" for name in names if name not in used]
    assert unused == []


def test_only_cyclo_and_the_boundary_name_cycint():
    # an element of Z[zeta_ell] is a coordinate row on every computing path;
    # the CycInt value type lives in cyclo, the oracles and the public API
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name in ("cyclo.py", "oracle.py", "__init__.py"):
            continue
        tree = _tree(path)
        names = _used_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names |= {a.asname or a.name for a in node.names}
        if "CycInt" in names:
            offenders.append(path.name)
    assert offenders == []


def test_cli_import_loads_no_dataclasses_or_inspect():
    # every CLI run pays for its imports, and nothing the CLI runs needs
    # dataclasses or the inspect module it loads; fractions (with decimal and
    # numbers) loads only where a Fraction is built, and hashlib (with
    # OpenSSL's _hashlib) not at all, since the L-cache checksum uses the
    # interpreter's own sha256
    unwanted = {"dataclasses", "inspect", "fractions", "decimal", "numbers", "hashlib", "_hashlib"}
    code = f"import sys, superell.cli; print(sorted({unwanted!r} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.strip() == "[]"
