"""Guards for what stays stable: the public names, no private
cross-module imports inside the package, layers that import only
downward, table validation only at the input
boundary, partition checks only at the input boundaries, one sibling
merge under both canonical forms that neither sorts nor reads successor
rows, follower rows read from the matrix's public ``followers`` table and no
private matrix state read outside ``sft``, one conjugation routine,
pointwise oracles that share no lookup kernel with what they check,
chain-map exponents searched only on their first read, and one class in
the transducer layer."""

import ast
import pathlib

import shiftgroups
from shiftgroups import sft as sft_module

PUBLIC_NAMES = [
    "BlockCode", "CoeMap", "CylinderPartition", "LocFun", "Point",
    "TableElement", "TransitionMatrix", "Witness", "apply", "birkhoff",
    "canonicalize_point", "check_witness", "check_xihg", "ck_word_weight",
    "cocycle_data", "cocycles", "codes", "coe_apply", "coe_compose",
    "coe_from_chain", "coe_invert", "commutant_witness", "compose",
    "compose_cocycles", "compose_shift", "conjugacy", "conjugate_table",
    "constant", "difference_locus", "enumerate_words", "equal", "errors",
    "eval_at", "functions", "gauge_weight", "higher_block",
    "higher_block_codes", "identity_code", "identity_coe", "identity_table",
    "in_af_group", "in_cocycle_group", "indicator", "invert",
    "is_conjugacy", "linear", "make", "make_code", "orbit", "partition",
    "prefix_swap", "psi", "pullback_map", "pullback_table",
    "random_element", "refine", "relabel_code", "representative", "rho",
    "sft", "shift_point", "tables", "transducer", "validate_matrix",
    "validate_table", "witness_non_conjugacy",
]


def test_public_names_are_pinned():
    assert sorted(shiftgroups.__all__) == PUBLIC_NAMES


def test_no_private_cross_module_imports():
    package = pathlib.Path(shiftgroups.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level:
                found += [f"{path.name}:{node.lineno} {alias.name}"
                          for alias in node.names if alias.name.startswith("_")]
    assert found == []


LAYERS = ("sft", "functions", "tables", "cocycles", "codes", "transducer", "orbit",
          "conjugacy", "formats", "selftest", "cli")


def package_modules(node):
    """The package modules an import statement names, relative or not."""
    if isinstance(node, ast.Import):
        return [alias.name.split(".")[1] for alias in node.names
                if alias.name.startswith("shiftgroups.")]
    module = node.module or ""
    if not node.level:
        package, _, module = module.partition(".")
        if package != "shiftgroups":
            return []
    return [module.partition(".")[0]] if module else [alias.name for alias in node.names]


def test_layers_import_only_downward():
    """Every module is a layer, and every import of the package in a
    layer, at any nesting depth, names ``errors`` or an earlier layer;
    none sits in a function, and none takes an underscore name from
    another module, relative or absolute.  So the cocycle and function
    layers, which sum windows themselves, import nothing from the
    chain-map layers ``codes`` and ``transducer``, and a kernel two layers
    share is public."""
    package = pathlib.Path(shiftgroups.__file__).parent
    assert {path.stem for path in package.glob("*.py")} == {
        *LAYERS, "errors", "__init__", "__main__"}
    found = []
    for rank, name in enumerate(LAYERS):
        tree = ast.parse((package / f"{name}.py").read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if node not in tree.body:
                found.append(f"{name}.py:{node.lineno} imports inside a block")
            modules = package_modules(node)
            found += [f"{name}.py:{node.lineno} {module}" for module in modules
                      if module != "errors" and module not in LAYERS[:rank]]
            if modules and isinstance(node, ast.ImportFrom):
                found += [f"{name}.py:{node.lineno} private {alias.name}"
                          for alias in node.names if alias.name.startswith("_")]
    assert found == []


def test_no_unused_imports():
    package = pathlib.Path(shiftgroups.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [f"{path.name}:{line} {name}"
                  for name, line in imported.items() if name not in used]
    assert found == []


def callers_of(function):
    """The ``module.function`` scopes inside the package that call
    ``function`` by name or as an attribute."""
    package = pathlib.Path(shiftgroups.__file__).parent
    callers = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}"
            elif isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == function:
                    callers.append(scope)
            visit(child, inner)

    for path in sorted(package.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return callers


def test_only_parse_table_validates_tables():
    """Tables the library builds itself go through ``canonical_table``;
    only parsing input calls ``validate_table``."""
    assert callers_of("validate_table") == ["formats.parse_table"]


def test_only_boundaries_validate_word_families():
    """Word families are checked as partitions at the input boundaries only:
    ``make`` for functions, ``validate_table``, from one call site, for both
    sides of a table, and the public ``partition``.  Each hands the one-pass
    check words it sorted itself, so no library code calls ``partition``,
    which sorts again."""
    assert callers_of("family_error") == [
        "functions.make", "sft.partition", "tables.validate_table"]
    assert callers_of("partition") == []


def test_no_validator_rescans_words():
    """Words are tested for admissibility one at a time only by
    ``check_admissible``, which every family scan calls, and by
    ``canonicalize_point``; the block-map check sorts its stray keys out of
    its scan by the follower rows its transition check reads: no validator
    scans words outside ``partition``."""
    assert callers_of("is_admissible") == [
        "sft.TransitionMatrix.check_admissible", "sft.canonicalize_point"]


def test_only_canonicalizers_merge():
    """One sibling merge builds all three canonical forms: functions with
    the same-value rule, from ``canonical`` and from ``make``, which sorted
    its pieces already, tables with the entry rule, from one routine under
    ``canonical_table`` and ``validate_table``, which sorted its entries,
    and transducers with the same-output rule, from
    ``canonical_transducer``, which every transducer constructor calls."""
    assert callers_of("merge_siblings") == [
        "functions.canonical", "functions.make", "tables._merged",
        "transducer.canonical_transducer"]
    assert callers_of("_merged") == ["tables.validate_table", "tables.canonical_table"]


def test_merge_neither_sorts_nor_reads_successor_rows():
    """``merge_siblings`` takes its items sorted and answers each family
    question with one lookup in the matrix's rows."""
    tree = ast.parse(pathlib.Path(sft_module.__file__).read_text(encoding="utf-8"))
    merge = next(node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == "merge_siblings")
    called = {getattr(node.func, "id", getattr(node.func, "attr", None))
              for node in ast.walk(merge) if isinstance(node, ast.Call)}
    assert called and not called & {"sorted", "sort", "successors"}


def test_only_row_walks_read_successor_rows():
    """The kernels read follower rows straight from ``followers``, and two
    rows are compared as ``followers`` rows, by identity, since equal rows
    are one tuple; only ``representative``'s walk, one step per symbol of a
    point, still calls ``successors()``."""
    assert callers_of("successors") == ["sft.representative"]


def test_no_module_reads_private_matrix_state():
    """The names a validated matrix keeps beside its fields that start with
    an underscore are read only inside ``sft``: every other module reads the
    public ``followers`` table or a method."""
    private = {name for name in vars(shiftgroups.validate_matrix([[1, 1], [1, 0]]))
               if name.startswith("_")}
    assert private
    package = pathlib.Path(shiftgroups.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        if path.stem == "sft":
            continue
        found += [f"{path.name}:{node.lineno} {node.attr}"
                  for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                  if isinstance(node, ast.Attribute) and node.attr in private]
    assert found == []


def test_one_conjugation_routine():
    """Tables are read off a transducer in one place: the conjugation of a
    table by a stage list, which serves one code and whole chain maps."""
    assert callers_of("extract_table") == ["transducer.conjugate_by_stages"]


def test_one_way_to_a_target_word():
    """A cylinder's target word is streamed through the core once, at each
    entry of the transducer walk, which then extends it one window per
    child; besides that, only point images, the code stage's own output and
    the reduction of a canonical entry, which reads the core's word on the
    entry's own word once to strip a common suffix, run ``apply_word``."""
    assert callers_of("apply_word") == [
        "codes.BlockCode.encode", "transducer._refine_entries",
        "transducer.canonical_transducer.reduced", "transducer.apply_code_stage.recode"]


def test_one_settle_walk_per_transducer():
    """Every transducer read (stages, orbit sums, table extraction) walks
    through ``_refine_entries``, the one transducer caller of the settle-walk."""
    assert callers_of("refine_until") == [
        "cocycles.rho_from_entries", "functions.indicator", "functions.birkhoff",
        "tables.cylinder_swap", "tables.pullback_table", "transducer._refine_entries"]


def test_exponents_are_searched_only_on_read():
    """``shift_exponents`` runs in one place, the cached pair behind a
    chain map's ``k1`` and ``l1``: a build never searches it."""
    assert callers_of("shift_exponents") == ["orbit.CoeMap._exponents"]


def test_transducer_defines_one_class():
    """The transducer layer's one class is the chain map it stores; a core
    stream over a cylinder is a tuple that a function returns, not a cache."""
    path = pathlib.Path(shiftgroups.__file__).parent / "transducer.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert [node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)] == [
        "Transducer"]


def test_pointwise_oracles_share_no_lookup_kernel():
    """``eval_at``, ``birkhoff_at`` and ``rho_at`` are the oracles the
    sorted-order lookups are checked against, so none of them calls
    ``prefix_of`` or ``part_at`` itself."""
    oracles = ("functions.eval_at", "functions.birkhoff_at", "cocycles.rho_at")
    for kernel in ("prefix_of", "part_at"):
        callers = callers_of(kernel)
        assert callers
        assert [scope for scope in callers
                if any(scope == o or scope.startswith(o + ".") for o in oracles)] == []
