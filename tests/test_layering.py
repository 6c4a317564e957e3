"""Import layering of the package, read from the source's syntax trees.

Each data format lives in one module, so the modules that read and
write words and forests never reach up to the operator side, and no
module imports inside a function.
"""

import ast
import pathlib
import sys

import tanglekit
from tanglekit import invariants, operators, oracle, rewriting, words
from tanglekit.boolmat import BitMatrix

PACKAGE = pathlib.Path(tanglekit.__file__).parent
BENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def syntax_tree(module):
    return ast.parse((PACKAGE / f"{module}.py").read_text())


def function_level_imports(tree):
    """Names of the functions holding an import statement."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
            elif isinstance(child, (ast.Import, ast.ImportFrom)):
                if function is not None:
                    found.append(function)
            else:
                visit(child, function)

    visit(tree, None)
    return found


def imported_package_modules(tree):
    """The tanglekit modules a module imports, anywhere in its body."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level and node.module:
                out.add(node.module.split(".")[0])
            elif node.level:
                out.update(alias.name for alias in node.names)
            elif node.module and node.module.startswith("tanglekit."):
                out.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            out.update(alias.name.split(".")[1] for alias in node.names
                       if alias.name.startswith("tanglekit."))
    return out


def test_no_import_inside_a_function():
    # random_state lives with the operators it walks, so no import
    # cycle needs breaking.
    found = [
        f"{path.stem}.{function}"
        for path in sorted(PACKAGE.glob("*.py"))
        for function in function_level_imports(syntax_tree(path.stem))
    ]
    assert found == []


def test_format_modules_stay_below_operators():
    for module in ("words", "rewriting", "oracle"):
        imported = imported_package_modules(syntax_tree(module))
        assert not imported & {"operators", "states"}, module


def test_operators_work_on_labels_not_matrices():
    assert "boolmat" not in imported_package_modules(syntax_tree("operators"))


def test_values_know_no_matrices():
    assert "boolmat" not in imported_package_modules(syntax_tree("lomonoid"))


def test_states_take_only_bitmatrix_from_boolmat():
    # A state checks itself on its labels; the matrix is only a view.
    taken = [
        (node.module, alias.name)
        for node in ast.walk(syntax_tree("states"))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if "boolmat" in (node.module, alias.name)
    ]
    assert taken == [("boolmat", "BitMatrix")]


def test_the_library_multiplies_no_matrices():
    # BitMatrix is a value; the paper's Boolean algebra is the test
    # specification in tests/boolean_algebra.py.
    matmuls = [
        path.stem
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(syntax_tree(path.stem))
        if isinstance(node, ast.MatMult)
    ]
    assert matmuls == []
    algebra = {"__add__", "__sub__", "__matmul__", "transpose", "__le__", "__ge__"}
    assert sorted(algebra & vars(BitMatrix).keys()) == []


def referred_names(tree):
    """Every name a module uses, reads as an attribute or imports."""
    return {
        node.id if isinstance(node, ast.Name) else
        node.attr if isinstance(node, ast.Attribute) else node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute, ast.alias))
    }


def test_only_words_reads_a_words_form():
    # The operators and the sweep take a word's checked slots from
    # words.slots and words.closed_slots, and invariants takes a symbol
    # word from words.encode, never its form.
    for module in ("operators", "oracle", "invariants"):
        assert not referred_names(syntax_tree(module)) & {"decode", "is_sym_word"}, module


def function(module, name):
    """The syntax tree of a module-level function."""
    (found,) = [
        node for node in syntax_tree(module).body
        if isinstance(node, ast.FunctionDef) and node.name == name
    ]
    return found


def test_the_rewrite_loop_calls_no_max_or_min():
    # In CPython 3.11 a two-argument builtin max or min costs more than
    # the rest of a rewrite's arithmetic, so the loop steps back with a
    # conditional expression; wall time is gated nowhere in the tests.
    assert not referred_names(function("rewriting", "_rewrites")) & {"max", "min"}


def test_the_rewrite_loop_calls_no_helper():
    # A call costs more than the rest of a rewrite's arithmetic too, so
    # each site writes its exchange's two d's itself (the reference swap
    # is the test spec) and bounds them with chained comparisons, not abs.
    assert not referred_names(function("rewriting", "_rewrites")) & {"swap", "abs"}


def test_the_rewrite_loop_keeps_no_potential():
    # The tests measure each step's potential from its word; the loop
    # yields (step, rule, forward, pos) and carries no potential of its
    # own, so no hand-derived delta can drift from rewrite_potential.
    loop = function("rewriting", "_rewrites")
    assert not referred_names(loop) & {"pos_sum", "d_balance", "last_e3", "rewrite_potential"}
    yielded = [node.value for node in ast.walk(loop) if isinstance(node, ast.Yield)]
    assert yielded and all(isinstance(value, ast.Tuple) and len(value.elts) == 4 for value in yielded)


def test_the_rewrite_loop_keeps_no_floor():
    # A valid word's c sum to 0, so every validity bound reads -pre[i]
    # with no min(total, 0) term.
    assert "floor" not in referred_names(function("rewriting", "_rewrites"))


def test_the_kernel_calls_no_lattice_operation():
    # A merging cup stores va (+) vb, which the monoid axiom P2 makes
    # equal to the paper's join (+) meet; the kernel needs only zero,
    # (+) and phi.
    assert not referred_names(function("operators", "_run")) & {"join", "meet"}


def test_one_kernel_loop():
    # _run does every cap and cup edit; the public cap and cup run it
    # for one step, so no second copy of a kernel can drift from it.
    defined = {node.name for node in syntax_tree("operators").body if isinstance(node, ast.FunctionDef)}
    assert not defined & {"_cap_into", "_cup_into"}


def test_the_symbol_loop_of_slots_calls_no_helper():
    # slots checks a symbol word's bounds inline, as comparisons, and
    # hands any failure to require_valid for its message.
    (loop,) = [node for node in ast.walk(function("words", "slots")) if isinstance(node, ast.For)]
    assert not referred_names(loop) & {"out_of_bounds", "abs", "max", "min"}


def test_the_sweep_reads_the_word_once():
    # A strand's innermost curve to its right is fixed when its cap is
    # read, so pass 2 walks the caps alone: one loop over the slots, and
    # no second row of strands that replays pass 1's inserts and deletes.
    sweep = function("oracle", "trace_diagram")
    over_steps = [
        node for node in ast.walk(sweep)
        if isinstance(node, ast.For) and isinstance(node.iter, ast.Name) and node.iter.id == "steps"
    ]
    assert len(over_steps) == 1
    assert "row" not in referred_names(sweep)


def test_invariants_never_decode():
    # Symbol words go to the operators as they are; a decode here would
    # bring back one Generator per symbol on every evaluation.
    assert "decode" not in referred_names(syntax_tree("invariants"))


def test_exports_no_module_uses_are_entry_points():
    # Only callers outside the package reach these, so each must be a
    # library entry point; a helper that only the tests use belongs in
    # tests/, and one exported here would show up in this list.
    used = set().union(*(
        referred_names(syntax_tree(path.stem))
        for path in PACKAGE.glob("*.py") if path.stem != "__init__"
    ))
    assert [name for name in tanglekit.__all__ if name not in used] == [
        "circle_count", "lattice_monoid", "validate",
    ]


def test_every_public_definition_has_a_caller():
    # A public module-level function or class is exported, or used by
    # name in the package (its own module included) or by the benchmark;
    # one that only the tests use belongs in tests/.
    modules = sorted(path.stem for path in PACKAGE.glob("*.py"))
    used = set(tanglekit.__all__).union(
        *(referred_names(syntax_tree(module)) for module in modules),
        *(referred_names(ast.parse(path.read_text())) for path in BENCH.glob("*.py")),
    )
    unused = [
        f"{module}.{node.name}"
        for module in modules
        for node in syntax_tree(module).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_") and node.name not in used
    ]
    assert unused == []


def test_exports_are_sorted_and_resolve():
    assert tanglekit.__all__ == sorted(tanglekit.__all__)
    assert [name for name in tanglekit.__all__ if not hasattr(tanglekit, name)] == []


def absolute_imports(tree):
    """The module names a module imports by absolute name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module


def test_imports_only_the_standard_library():
    # pyproject.toml declares dependencies = []; numpy, say, may well be
    # installed where the tests run, so only this keeps it out.
    outside = [
        f"{path.name}: {name}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for name in absolute_imports(ast.parse(path.read_text()))
        if name.split(".")[0] not in sys.stdlib_module_names
    ]
    assert outside == []


def test_moved_names_still_resolve():
    assert tanglekit.Generator is operators.Generator is words.Generator
    assert tanglekit.forest_value is invariants.forest_value is rewriting.forest_value
    assert tanglekit.canonical is oracle.canonical is rewriting.canonical
