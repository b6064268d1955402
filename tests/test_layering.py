"""Module layering of gmlab, read from the source with ast: the conventions
of Z_N live in `_lattice`, the operator and amalgam layers do not reach
into the sequence algebra for them, the parity of N is compared by one
rule, the side of every array over Z_N is read by one guard, the pair
order of lattice matrices is numpy's C order (no flat offset is summed from
strides), every tolerance lives in `errors`, and every name gmlab exports
has a caller outside the tests."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "gmlab"
TREES = {path.stem: ast.parse(path.read_text()) for path in SRC.glob("*.py")}


def imported_modules(module: str) -> set:
    """The gmlab modules that `module` imports from (gmlab imports relatively)."""
    found = set()
    for node in ast.walk(TREES[module]):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found |= {node.module.split(".")[0]} if node.module else {a.name for a in node.names}
    return found


def comparisons(matches) -> list:
    """(module, enclosing function) of every comparison node for which
    matches(node) holds."""
    found = []

    def visit(node, module, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Compare) and matches(node):
            found.append((module, func))
        for child in ast.iter_child_nodes(node):
            visit(child, module, func)

    for module, tree in TREES.items():
        visit(tree, module, None)
    return sorted(found)


def comparisons_reading(*read) -> list:
    """(module, enclosing function) of every comparison that reads one of the
    names or attributes `read`."""

    def reads(node):
        names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
        names |= {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
        return bool(names & set(read))

    return comparisons(reads)


def is_named(node, name: str) -> bool:
    """node is a name or an attribute `name` (N, cfg.N, np.divmod)."""
    return getattr(node, "id", getattr(node, "attr", None)) == name


def is_parity_of_n(node) -> bool:
    """node is N % 2, of a name or an attribute N (cfg.N, sys.N)."""
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod)
            and is_named(node.left, "N")
            and isinstance(node.right, ast.Constant) and node.right.value == 2)


def test_operator_and_amalgam_layers_import_nothing_from_the_sequence_algebra():
    layers = ("phase_space", "weyl", "metaplectic", "matrix_algebra", "fio", "amalgam")
    assert {m for m in layers if "seq_algebra" in imported_modules(m)} == set()


def test_metaplectic_does_not_import_weyl():
    assert "weyl" not in imported_modules("metaplectic")


def test_the_cell_budget_is_compared_in_one_guard_and_one_doubling_condition():
    assert comparisons_reading("MAX_CELLS") == [("_lattice", "require_cells"),
                                                ("seq_algebra", "invert_by_fourier")]


def test_the_parity_of_n_is_compared_only_in_the_modulus_rule():
    parity = comparisons(lambda node: any(map(is_parity_of_n, ast.walk(node))))
    assert parity == [("_lattice", "require_modulus")]


# Shape comparisons of arrays that are not over Z_N: a sampled field on
# [-R, R]^2, a real 2 x 2 matrix, the 2 x 2 lattice map, a sequence box (in
# two places), a frequency point, and the exact shapes of the JSON reader.
NOT_OVER_Z_N = [
    ("amalgam", "__post_init__"),
    ("amalgam", "gl_invariance_check"),
    ("metaplectic", "_as_sympmat"),
    ("seq_algebra", "__getitem__"),
    ("seq_algebra", "_check_int64"),
    ("seq_algebra", "fourier_series_eval"),
    ("serialize", "_pairs_from_json"),
]


def test_arrays_over_z_n_are_measured_by_one_guard_and_one_stack_check():
    # each compares the number of axes and their lengths, and `side` refuses
    # an empty axis; `intertwine_defect` and `intertwine_bound` take stacks
    # (..., N, N), which `side` does not, through the one sweep `_worst_defect`
    guards = [("_lattice", "side")] * 3 + [("metaplectic", "_worst_defect")] * 2
    assert comparisons_reading("shape", "ndim") == sorted(guards + NOT_OVER_Z_N)


def stray_tolerances() -> list:
    """(module, line, value) of every float literal of tolerance size,
    0 < |x| <= 1e-6 or |x| >= 1e6, outside the table in `errors`."""
    return sorted(
        (module, node.lineno, node.value)
        for module, tree in TREES.items()
        if module != "errors"
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and type(node.value) is float
        and (0 < abs(node.value) <= 1e-6 or abs(node.value) >= 1e6)
    )


def test_every_tolerance_is_named_in_the_errors_table():
    assert stray_tolerances() == []


def is_hand_flattened_pair(node) -> bool:
    """node is divmod(., N), . // N or . * N + . (N on either side of the
    product): a lattice pair (k, l) split from or folded into the flat index
    k N + l by hand."""
    if isinstance(node, ast.Call) and is_named(node.func, "divmod"):
        return len(node.args) == 2 and is_named(node.args[1], "N")
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.FloorDiv):
        return is_named(node.right, "N")
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)
            and any(isinstance(side, ast.BinOp) and isinstance(side.op, ast.Mult)
                    and (is_named(side.left, "N") or is_named(side.right, "N"))
                    for side in (node.left, node.right)))


def test_the_lattice_pair_order_is_numpys_c_order():
    # every (N^2, N^2) lattice matrix and every flat pair index comes from
    # reshape and ravel; nothing splits or folds k N + l by hand
    found = sorted((module, node.lineno) for module, tree in TREES.items()
                   for node in ast.walk(tree) if is_hand_flattened_pair(node))
    assert found == []


def test_no_flat_offset_is_read_from_strides():
    # a flat offset into a box comes from np.ravel_multi_index, not from
    # byte strides summed by hand
    found = sorted((module, node.lineno) for module, tree in TREES.items()
                   for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and node.attr == "strides")
    assert found == []


def test_every_export_has_a_caller_outside_the_tests():
    # a name that only tests call belongs in tests/ (see tests/reference.py)
    root = SRC.parents[1]
    callers = [tree for module, tree in TREES.items() if module != "__init__"]
    callers += [ast.parse(path.read_text()) for folder in ("demos", "tools")
                for path in (root / folder).glob("*.py")]
    read = {getattr(node, "id", getattr(node, "attr", None)) for tree in callers
            for node in ast.walk(tree) if isinstance(getattr(node, "ctx", None), ast.Load)}
    exports = {alias.asname or alias.name for node in TREES["__init__"].body
               if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert sorted(exports - read) == []
