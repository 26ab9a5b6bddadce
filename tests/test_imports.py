"""Guard against imports that a module of the package never uses, private
names that the package never reads and public names that nothing outside the
tests reads, such as those a deletion leaves behind, against loading the
structural oracle where a run does not need it, and against deleting a name
that the benchmark reads; the project depends on no linter."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spinblocks
from spinblocks import oracle

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "spinblocks"
MODULES = sorted(path for path in SRC.glob("*.py") if path.name != "__init__.py")
BENCHMARK = sorted((ROOT / "perfbench").glob("*.py"))


def unused_imports(source):
    """Names imported by the source and never read in it; __future__ is exempt."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_guard_finds_unused_imports():
    source = ("from __future__ import annotations\n"
              "import os.path, sys\n"
              "from . import a, b as c\n"
              "sys.exit(a)\n")
    assert unused_imports(source) == ["c", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def dead_private_names(sources):
    """Module-level _names (functions, classes, assignments) defined in the
    sources and never read in any of them; dunder names are exempt."""
    defined, read = set(), set()
    for source in sources:
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(t.id for t in targets if isinstance(t, ast.Name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    private = {name for name in defined if name.startswith("_") and not name.startswith("__")}
    return sorted(private - read)


def test_guard_finds_dead_private_names():
    sources = ["_LIMIT = 3\n_kept: int = 1\ndef _gone(): pass\nclass _Old: pass\n"
               "def _used(): return _kept\n",
               "from .a import _used, _gone\nm.__x = 1\n__all__ = []\nprint(_used(), m._LIMIT)\n"]
    assert dead_private_names(sources) == ["_Old", "_gone"]


def test_no_dead_private_name():
    assert dead_private_names(path.read_text() for path in SRC.glob("*.py")) == []


def dead_public_names(init_source, sources):
    """Names the package's __init__ source imports that no source reads: a
    read is a Name or Attribute load, or an import of the name."""
    exported = {a.asname or a.name for node in ast.parse(init_source).body
                if isinstance(node, ast.ImportFrom) for a in node.names}
    read = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(a.name for a in node.names)
    return sorted(exported - read)


def test_guard_finds_dead_public_names():
    init = ("from .barpart import EMPTY, bars, format_partition as fmt\n"
            "from .blocks import gone, stored, defined, quoted, spin_block\n"
            "__version__ = '0.1.0'\n")
    sources = ["from .barpart import bars\nx = m.EMPTY\nstored = 1\n"
               "def defined(): return 'quoted'\n",
               "from spinblocks import spin_block\nprint(fmt)\n"]
    assert dead_public_names(init, sources) == ["defined", "gone", "quoted", "stored"]


def test_every_public_name_has_a_reader():
    # a name stays exported only if the package, a demo or the benchmark reads it
    readers = MODULES + sorted((ROOT / "demos").glob("*.py")) + BENCHMARK
    assert dead_public_names((SRC / "__init__.py").read_text(),
                             [path.read_text() for path in readers]) == []


def package_chains(sources):
    """The attribute chains rooted at the name spinblocks in the sources,
    without the root, and the spinblocks submodules they import."""
    chains, modules = set(), set()
    for node in (node for source in sources for node in ast.walk(ast.parse(source))):
        if isinstance(node, ast.Import):
            modules.update(a.name for a in node.names if a.name.startswith("spinblocks."))
        attrs = []
        while isinstance(node, ast.Attribute):
            attrs.append(node.attr)
            node = node.value
        if attrs and isinstance(node, ast.Name) and node.id == "spinblocks":
            chains.add(".".join(reversed(attrs)))
    return sorted(chains), sorted(modules)


def unresolved_chains(chains, modules):
    """The chains that do not resolve on the package once the modules are imported."""
    for module in modules:
        importlib.import_module(module)
    missing = []
    for chain in chains:
        obj = spinblocks
        for attr in chain.split("."):
            if not hasattr(obj, attr):
                missing.append(chain)
                break
            obj = getattr(obj, attr)
    return missing


def test_guard_finds_unresolved_package_chains():
    source = ("import spinblocks\n"
              "import spinblocks.cli\n"
              "def run(spinblocks, argv):\n"
              "    spinblocks.cli.main(argv)\n"
              "    return spinblocks.add_part_pw(x.spinblocks.gone), spinblocks.cli.no_such\n")
    chains, modules = package_chains([source])
    assert chains == ["add_part_pw", "cli", "cli.main", "cli.no_such"]
    assert modules == ["spinblocks.cli"]
    assert unresolved_chains(chains, modules) == ["add_part_pw", "cli.no_such"]


def test_benchmark_reads_only_names_that_resolve():
    # a benchmark run would report a deleted name only as a run_failed verdict
    chains, modules = package_chains(path.read_text() for path in BENCHMARK)
    assert {"add_part_ratio", "cli.main", "grow_class_ratio"} <= set(chains)
    assert unresolved_chains(chains, modules) == []


def is_call_to(node, name):
    func = node.func if isinstance(node, ast.Call) else None
    return (isinstance(func, ast.Name) and func.id == name
            or isinstance(func, ast.Attribute) and func.attr == name)


def sorting_bar_partitions(source):
    """Lines of BarPartition(...) calls that sort their own parts: the
    canonical part order belongs to make_bar_partition, which is exempt."""
    lines = []

    def visit(node):
        if isinstance(node, ast.FunctionDef) and node.name == "make_bar_partition":
            return
        if is_call_to(node, "BarPartition") and any(
                is_call_to(sub, "sorted") for sub in ast.walk(node) if sub is not node):
            lines.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(ast.parse(source))
    return lines


def test_guard_finds_sorting_bar_partitions():
    source = ("def make_bar_partition(parts):\n"
              "    return BarPartition(tuple(sorted(parts, reverse=True)))\n"
              "a = BarPartition(tuple(sorted(x, reverse=True)))\n"
              "b = barpart.BarPartition(parts=tuple(sorted(y)))\n"
              "c = [BarPartition(tuple(sorted(z))) for z in zs]\n"
              "d = BarPartition(tuple(x))\n"
              "e = sorted(BarPartition(x) for x in xs)\n")
    assert sorting_bar_partitions(source) == [3, 4, 5]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_part_order_has_one_owner(path):
    assert sorting_bar_partitions(path.read_text()) == []


def names_bar_partition(node):
    return (isinstance(node, ast.Name) and node.id == "BarPartition"
            or isinstance(node, ast.Attribute) and node.attr == "BarPartition")


def unchecked_bar_partitions(source):
    """Lines that build a BarPartition past its constructor: a call of a
    __new__ other than BarPartition's own, with BarPartition as its first
    argument, which skips the validation of the parts."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "__new__" and node.args
                  and names_bar_partition(node.args[0])
                  and not names_bar_partition(node.func.value))


def test_guard_finds_unchecked_bar_partitions():
    source = ("a = tuple.__new__(BarPartition, ((3, 3),))\n"
              "b = barpart._BarPartitionFields.__new__(barpart.BarPartition, (1,))\n"
              "c = BarPartition.__new__(BarPartition, (2, 1))\n"
              "d = tuple.__new__(Other, ((1,),))\n"
              "e = BarPartition((2, 1))\n"
              "f = [object.__new__(BarPartition) for _ in xs]\n")
    assert unchecked_bar_partitions(source) == [1, 2, 6]


@pytest.mark.parametrize("path", [path for path in sorted(SRC.glob("*.py"))
                                  if path.name != "barpart.py"], ids=lambda path: path.name)
def test_only_barpart_skips_the_part_checks(path):
    # barpart.with_part checks the one part it adds; every other label goes through BarPartition
    assert unchecked_bar_partitions(path.read_text()) == []


def class_order_reads(source):
    """Lines that read the top_order field of a CoreDecomposition: which two
    labels witness a block is decided by _witness_pair alone, which is exempt."""
    lines = []

    def visit(node):
        if isinstance(node, ast.FunctionDef) and node.name == "_witness_pair":
            return
        if (isinstance(node, ast.Attribute) and node.attr == "top_order"
                and isinstance(node.ctx, ast.Load)):
            lines.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(ast.parse(source))
    return lines


def test_guard_finds_class_order_reads():
    source = ("def _witness_pair(dec, w):\n"
              "    return dec.top_order[:2]\n"
              "a = dec.top_order[0]\n"
              "def pick(dec):\n"
              "    return sorted(dec.top_order)\n"
              "top_order = (1, 3)\n"
              "b = CoreDecomposition(p, gamma, top_order=top_order)\n")
    assert class_order_reads(source) == [3, 5]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_witness_pair_has_one_owner(path):
    assert class_order_reads(path.read_text()) == []


def name_reads(source, names, exempt=()):
    """Lines that import, call or otherwise read any of the names, outside
    the functions named in exempt."""
    lines = []

    def visit(node):
        if isinstance(node, ast.FunctionDef) and node.name in exempt:
            return
        if (isinstance(node, ast.ImportFrom) and any(a.name in names for a in node.names)
                or isinstance(node, ast.Name) and node.id in names
                or isinstance(node, ast.Attribute) and node.attr in names):
            lines.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(ast.parse(source))
    return sorted(set(lines))


def prime_checks(source):
    """Lines that import, call or otherwise read _check_odd_prime."""
    return name_reads(source, ("_check_odd_prime",))


def test_guard_finds_prime_checks():
    source = ("from .barpart import (\n"
              "    EMPTY,\n"
              "    _check_odd_prime as check,\n"
              ")\n"
              "_check_odd_prime(args.p)\n"
              "barpart._check_odd_prime(args.p)\n"
              "ws, v = weight_tower(lam, args.p)\n"
              "check = barpart._check_odd_prime\n"
              "is_odd_prime(args.p)\n")
    assert prime_checks(source) == [1, 5, 6, 8]


def test_cli_leaves_input_checks_to_the_library():
    # each command's prime is checked by the library call it makes, before any work
    assert prime_checks((SRC / "cli.py").read_text()) == []


def private_library_reads(source):
    """Lines that import a _name from a package module, or read a _name
    attribute of a package module the source imported; the source's own
    _names and dunder names are exempt."""
    tree = ast.parse(source)
    modules = {a.asname or a.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level and not node.module
               for a in node.names}
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            names = [a.name for a in node.names]
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules):
            names = [node.attr]
        else:
            continue
        if any(name.startswith("_") and not name.startswith("__") for name in names):
            lines.append(node.lineno)
    return sorted(lines)


def test_guard_finds_private_library_reads():
    source = ("from . import barpart, constructions as c\n"
              "from .barpart import (\n"
              "    EMPTY,\n"
              "    _check_odd_prime as check,\n"
              ")\n"
              "def _digits(x):\n"
              "    return barpart.__name__, barpart.TYPE1, args._seen\n"
              "c._compare_constructions(dec, w)\n"
              "pair = barpart._core_run\n"
              "_digits(c.compare_chain(EMPTY, 3, 4))\n"
              "from .constructions import _witness_pair\n")
    assert private_library_reads(source) == [2, 8, 9, 11]


def test_cli_reads_no_private_library_name():
    # each verify kind makes one public walk; the library's private helpers stay private
    assert private_library_reads((SRC / "cli.py").read_text()) == []


def abacus_reads(source):
    """Lines that import, call or otherwise read barpart's residue-histogram
    helpers, which only runner_charges and count_bar_lengths_divisible use."""
    return name_reads(source, ("_residue_classes", "_divisible_count"),
                      exempt=("runner_charges", "count_bar_lengths_divisible"))


def test_guard_finds_abacus_reads():
    source = ("from .barpart import (\n"
              "    runner_charges,\n"
              "    _residue_classes as histogram,\n"
              ")\n"
              "q, classes = _residue_classes(lam, p)\n"
              "w = barpart._divisible_count(p, q, classes)\n"
              "charges, w = runner_charges(lam, p)\n"
              "count = _divisible_count\n"
              "_residue_classes_seen = 1\n"
              "def count_bar_lengths_divisible(lam, q):\n"
              "    return _divisible_count(q, *_residue_classes(lam, q))\n"
              "def weight_tower(lam, p):\n"
              "    return _divisible_count(p, *_residue_classes(lam, p))\n")
    assert abacus_reads(source) == [1, 5, 6, 8, 13]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_runner_charges_is_the_one_abacus_reader(path):
    assert abacus_reads(path.read_text()) == []


def core_refusals(source):
    """Lines of the raise statements whose message names a -bar-core."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Raise)
                  and any(isinstance(sub, ast.Constant) and isinstance(sub.value, str)
                          and "-bar-core" in sub.value for sub in ast.walk(node)))


def test_guard_finds_core_refusals():
    source = ("raise ValueError('%s is not a %d-bar-core' % (gamma, p))\n"
              "raise ValueError(f'{gamma} is not a {p}-bar-core')\n"
              "message = 'not a -bar-core'\n"
              "raise RuntimeError('construction for %s failed' % gamma)\n"
              "if w:\n"
              "    raise ValueError(\n"
              "        '%s is not a %d-bar-core'\n"
              "        % (gamma, p))\n")
    assert core_refusals(source) == [1, 2, 6]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_barpart_alone_refuses_a_non_core(path):
    # barpart.core_charges is the one gate of a p-bar-core
    assert len(core_refusals(path.read_text())) == (path.name == "barpart.py")


def test_constructions_reads_runner_charges_in_certify_only():
    # a core's charges come through barpart.core_charges; _certify reads each label's
    source = (SRC / "constructions.py").read_text()
    tree = ast.parse(source)
    (certify,) = [node for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name == "_certify"]
    imports = {node.lineno for node in tree.body if isinstance(node, ast.ImportFrom)}
    lines = [line for line in name_reads(source, ("runner_charges",)) if line not in imports]
    assert lines and all(certify.lineno <= line <= certify.end_lineno for line in lines)


def spin_blocks_reads(source):
    """Lines that import, call or otherwise read spin_blocks, the block
    builder backed by the structural oracle."""
    return name_reads(source, ("spin_blocks",))


def test_guard_finds_spin_blocks_reads():
    source = ("from .blocks import (\n"
              "    spin_block,\n"
              "    spin_blocks as build,\n"
              ")\n"
              "for block in spin_blocks(n, p, 'A'):\n"
              "    blocks.spin_blocks(n, p, 'S')\n"
              "block = spin_block(core, p, w, 'A')\n"
              "build = blocks.spin_blocks\n"
              "def spin_blocks(n, p, group):\n"
              "    'spin_blocks'\n")
    assert spin_blocks_reads(source) == [1, 5, 6, 8]


@pytest.mark.parametrize("path", [path for path in sorted(SRC.glob("*.py"))
                                  if path.name not in ("blocks.py", "cli.py", "__init__.py")],
                         ids=lambda path: path.name)
def test_no_certification_path_builds_every_block(path):
    # scan certifies from (core, w) alone; every block of n is built for the
    # blocks command only
    assert spin_blocks_reads(path.read_text()) == []


def test_cli_reads_spin_blocks_in_cmd_blocks_only():
    source = (SRC / "cli.py").read_text()
    (command,) = [node for node in ast.parse(source).body
                  if isinstance(node, ast.FunctionDef) and node.name == "cmd_blocks"]
    lines = spin_blocks_reads(source)
    assert lines and all(command.lineno <= line <= command.end_lineno for line in lines)


def test_constructions_reads_no_private_library_name():
    # the core's classes and every label's certificate come from barpart.runner_charges
    assert private_library_reads((SRC / "constructions.py").read_text()) == []


LAZY = ("dataclasses", "inspect", "spinblocks.oracle")


def lazy_modules_loaded(statement):
    """The LAZY modules a fresh interpreter (no site, PYTHONPATH=src) holds
    after running the statement."""
    probe = "import sys\n%s\nprint(sorted(set(sys.modules) & set(%r)))" % (statement, LAZY)
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-S", "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    return ast.literal_eval(proc.stdout)


def test_guard_finds_lazy_modules():
    assert lazy_modules_loaded("import spinblocks.oracle") == sorted(LAZY)


def test_cli_import_loads_no_oracle():
    # every CLI call and benchmark round pays for this import
    assert lazy_modules_loaded("import spinblocks.cli") == []


def importers(source, module):
    """Where the source imports the named package module (or the top-level
    module of that name): the name of the enclosing function, or None at
    module level, one entry per import."""
    found = []

    def names(node):
        if isinstance(node, ast.Import):
            return [a.name.rpartition(".")[2] for a in node.names]
        if isinstance(node, ast.ImportFrom):
            if node.module:
                return [node.module.rpartition(".")[2]]
            return [a.name for a in node.names]
        return []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if module in names(node):
            found.append(function)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def test_guard_finds_importers():
    source = ("from . import barpart, oracle\n"
              "import dataclasses\n"
              "def cmd_bars(args):\n"
              "    from .oracle import bars\n"
              "    def inner():\n"
              "        import spinblocks.oracle\n"
              "def spin_blocks(n):\n"
              "    from .barpart import oracle_like\n"
              "class C:\n"
              "    from spinblocks.oracle import Bar\n")
    assert importers(source, "oracle") == [None, "cmd_bars", "inner", None]
    assert importers(source, "dataclasses") == [None]


CERTIFIER = ("barpart.py", "constructions.py", "witness.py")
EXPLORERS = ("blocks", "oracle", "spinchar")


def explorer_imports(source):
    """The explorer modules (blocks, oracle, spinchar) the source imports
    anywhere in it, each named once."""
    return [module for module in EXPLORERS if importers(source, module)]


def test_guard_finds_explorer_imports():
    source = ("from . import barpart, spinchar\n"
              "from .constructions import decompose_core\n"
              "from .barpart import blocks_like\n"
              "def scan(max_n, primes):\n"
              "    from .blocks import spin_block\n"
              "import spinblocks.oracle\n")
    assert explorer_imports(source) == ["blocks", "oracle", "spinchar"]
    assert explorer_imports("from .barpart import sigma\nimport math\n") == []


@pytest.mark.parametrize("name", CERTIFIER)
def test_certifier_imports_no_explorer_module(name):
    # a certificate is built, verified and swept from p, core, w and two labels
    # alone; building a block or computing a degree is the caller's business
    assert explorer_imports((SRC / name).read_text()) == []


ORACLE_IMPORTERS = {("cli.py", "cmd_bars"), ("blocks.py", "spin_blocks")}


def test_oracle_loads_on_first_use():
    # the structural oracle is imported inside these two functions only, never at load time
    found = {(path.name, function) for path in SRC.glob("*.py")
             for function in importers(path.read_text(), "oracle")}
    assert found == ORACLE_IMPORTERS


def test_only_the_oracle_imports_dataclasses():
    assert [path.name for path in SRC.glob("*.py")
            if importers(path.read_text(), "dataclasses")] == ["oracle.py"]


@pytest.mark.parametrize("name", ["Bar", "BarTable", "bar_core_and_weight", "bars",
                                  "enumerate_bar_partitions", "remove_bar"])
def test_oracle_names_are_not_package_attributes(name):
    # read from spinblocks.oracle alone, even once that module is loaded
    assert hasattr(oracle, name)
    assert not hasattr(spinblocks, name)


def test_unknown_package_name_is_refused():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        spinblocks.no_such_name
