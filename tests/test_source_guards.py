import ast
from pathlib import Path

import walklab

PACKAGE = Path(walklab.__file__).resolve().parent


def test_no_assert_statements_in_package():
    # `python -O` strips assert statements, so a check written as one
    # passes vacuously; every check in the package must raise explicitly
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)
        ]
    assert not found, f"assert statements in walklab: {found}"


MEMOIZERS = {"cache", "lru_cache", "cached_property"}


def test_no_functools_memoization_in_package():
    # a memo kept across calls turns repeated work into cache hits: a result
    # cache makes timings lie and holds memory nothing asked for
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        aliases = {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            for alias in node.names
            if alias.name == "functools"
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                hits = [alias.name for alias in node.names if alias.name in MEMOIZERS]
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in aliases
                and node.attr in MEMOIZERS
            ):
                hits = [node.attr]
            else:
                continue
            found += [f"{path.name}:{node.lineno} functools.{name}" for name in hits]
    assert not found, f"functools memoizers in walklab: {found}"


def test_no_floats_in_package():
    # every reported value is exact: a float conversion, a float square root
    # or a __float__ hook would let rounding into a surd computation
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                hit = node.func.id == "float"
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                owner = node.func.value
                hit = isinstance(owner, ast.Name) and (owner.id, node.func.attr) == ("math", "sqrt")
            elif isinstance(node, ast.ImportFrom) and node.module == "math":
                hit = any(alias.name == "sqrt" for alias in node.names)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                hit = node.name == "__float__"
            else:
                continue
            if hit:
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"float arithmetic in walklab: {found}"


def test_no_print_in_package():
    # diagnostics never go into the sequence output: all CLI text is written
    # by cli._emit, to stdout or the -o file, and nothing else prints
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "print"
        ]
    assert not found, f"print calls in walklab: {found}"


# the walk engine and numpy stay behind these modules; the package root and
# the CLI may import them only inside functions, so that `import walklab` and
# the digit-level commands start without numpy, and the rest of the package
# is pure Python
NUMPY_LAYERS = {"walk", "verify"}
LAZY_LAYERS = {"__init__", "cli"}
HEAVY = (".walk", "walklab.walk", ".verify", "walklab.verify")


def _imported_modules(nodes) -> set[str]:
    names = set()
    for node in nodes:
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            dots = "." * node.level
            if node.module:
                names.add(dots + node.module)
            else:  # from . import walk
                names.update(dots + alias.name for alias in node.names)
    return names


def _eager_nodes(tree: ast.Module):
    """Nodes that run at import: everything outside function bodies."""
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            todo.extend(ast.iter_child_nodes(node))


def test_pure_layers_import_neither_numpy_nor_walk():
    found = []
    scanned = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem in NUMPY_LAYERS:
            continue
        scanned.add(path.stem)
        tree = ast.parse(path.read_text(), filename=str(path))
        nodes = _eager_nodes(tree) if path.stem in LAZY_LAYERS else ast.walk(tree)
        found += [
            f"{path.name}: {name}"
            for name in sorted(_imported_modules(nodes))
            if name.split(".")[0] == "numpy" or name in HEAVY
        ]
    assert {"qarith", "numeration", "automata", "substitution", "recurrences"} <= scanned
    assert LAZY_LAYERS <= scanned
    assert not found, f"numpy, walk or verify imported outside {sorted(NUMPY_LAYERS)}: {found}"


def test_eager_import_scan_skips_only_function_bodies():
    tree = ast.parse(
        "import numpy as np\n"
        "if True:\n    from . import walk\n"
        "class C:\n    from .verify import SUITES\n"
        "def f():\n    import numpy\n    from .walk import _CHUNK\n"
    )
    assert _imported_modules(_eager_nodes(tree)) == {"numpy", ".walk", ".verify"}


def test_trusted_word_built_only_by_encode():
    # _canonical_word skips validation, so only encode, whose words are
    # canonical by construction, may use it; digits parsed from the CLI or
    # by parse_digits then always pass through validate
    found, in_encode = [], 0
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        encode = [
            node
            for node in tree.body
            if path.stem == "numeration" and getattr(node, "name", None) == "encode"
        ]
        allowed = {id(inner) for node in encode for inner in ast.walk(node)}
        for node in ast.walk(tree):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if name != "_canonical_word":
                continue
            if id(node) in allowed:
                in_encode += 1
            else:
                found.append(f"{path.name}:{node.lineno}")
    assert in_encode, "numeration.encode no longer builds its words with _canonical_word"
    assert not found, f"_canonical_word used outside numeration.encode: {found}"


BLAS_ROUTINES = {"dot", "vdot", "inner", "outer", "matmul", "tensordot", "einsum", "linalg"}


def _blas_lines(tree: ast.Module) -> list[int]:
    """Lines that name a BLAS-backed numpy routine, as an attribute or an
    import, or that use the @ operator."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            hit = node.attr in BLAS_ROUTINES
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            hit = any(set(alias.name.split(".")) & BLAS_ROUTINES for alias in node.names)
        elif isinstance(node, (ast.BinOp, ast.AugAssign)):
            hit = isinstance(node.op, ast.MatMult)
        else:
            continue
        if hit:
            lines.append(node.lineno)
    return lines


def test_no_blas_routines_in_package():
    # the CLI asks OpenBLAS for no worker threads before numpy loads; that
    # costs nothing only while no walklab module calls a BLAS-backed routine
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{line}" for line in _blas_lines(tree)]
    assert not found, f"BLAS-backed numpy routines in walklab: {found}"


def test_blas_scan_sees_every_spelling():
    tree = ast.parse(
        "import numpy.linalg\nfrom numpy import einsum\n"
        "def f(a, b):\n    c = np.dot(a, b) + a @ b\n    c @= b\n    return np.add.outer(a, b)\n"
    )
    assert sorted(_blas_lines(tree)) == [1, 2, 4, 4, 5, 6]
