import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pvcgap

MODULES = sorted(Path(pvcgap.__file__).parent.glob("*.py"))

# kept in src/ although nothing in src/ calls them
ALLOWED = {
    # the benchmark's tracer wraps it by name to count the weight layer's calls
    "cond_weight",
    # the full level-1 Lasserre slack matrix (ROADMAP direction 8 builds it from
    # orbit values); tests check the closed-form minor against it
    "level1_slack_matrix",
}


def _unused_imports(tree: ast.Module) -> list:
    """Names a module imports but neither uses nor lists in `__all__`."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _unused_imports(tree) == []


def test_the_check_sees_an_unused_import():
    tree = ast.parse("import os\nfrom math import gcd, lcm\n__all__ = ['lcm']\n")
    assert _unused_imports(tree) == ["gcd (line 2)", "os (line 1)"]


def _dead_definitions(trees: dict, external: set) -> list:
    """Functions, methods and classes, at any depth, that no module and no name
    in `external` refers to outside their own definition; dunder methods,
    which Python calls, are exempt."""
    spans, used = {}, []  # name -> [(module, first line, last line)]; (name, module, line)
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                spans.setdefault(node.name, []).append((module, node.lineno, node.end_lineno))
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if isinstance(name, str):
                used.append((name, module, node.lineno))
    referenced = set(external) | {name for name, module, line in used if name in spans and not any(
        m == module and lo <= line <= hi for m, lo, hi in spans[name])}
    return sorted(f"{module}.{name}" for name, where in spans.items() for module, _, _ in where
                  if name not in referenced and not (name.startswith("__") and name.endswith("__")))


def _overriding_methods() -> set:
    """Names of the package's methods that override a base class's: the base calls them
    (argparse calls the CLI parser's `error`)."""
    names = set()
    for path in MODULES:
        module = importlib.import_module(f"pvcgap.{path.stem}")
        for cls in vars(module).values():
            if isinstance(cls, type) and cls.__module__ == module.__name__:
                names |= {name for name in vars(cls) if any(name in vars(base)
                                                            for base in cls.__mro__[1:])}
    return names


def test_no_dead_helpers():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}
    assert _dead_definitions(trees, ALLOWED | _overriding_methods()) == []


def test_the_allowlist_names_only_dead_helpers():
    """Without `ALLOWED` the check finds exactly its names, so a name leaves the
    list once it gains a caller or goes."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}
    dead = _dead_definitions(trees, _overriding_methods())
    assert dead == ["lasserre.level1_slack_matrix", "moments.cond_weight"]
    assert {name.split(".")[1] for name in dead} == ALLOWED


def test_the_check_sees_a_dead_helper():
    code = "def used():\n    return 1\n\n\ndef dead(k):\n    return dead(k - 1)\n\n\nX = used()\n"
    assert _dead_definitions({"m": ast.parse(code)}, set()) == ["m.dead"]
    assert _dead_definitions({"m": ast.parse(code)}, {"dead"}) == []


def test_the_check_sees_a_dead_method():
    code = ("class C:\n"
            "    def __init__(self):\n        self.k = self.used()\n"
            "    def used(self):\n        return 1\n"
            "    def dead(self):\n        return self.dead()\n"
            "\n\nX = C()\n")
    assert _dead_definitions({"m": ast.parse(code)}, set()) == ["m.dead"]


# child interpreters import the pvcgap this process imported, installed or not
_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
    str(Path(pvcgap.__file__).parents[1]), os.environ.get("PYTHONPATH")])))

# what a short command need not load: the moment and matrix layers and the pool
HEAVY = {"pvcgap.hierarchy", "pvcgap.moments", "pvcgap.linalg", "pvcgap.lasserre",
         "pvcgap.sdp", "concurrent.futures"}


def _loaded(code: str) -> set:
    """The modules a fresh interpreter holds after running `code`."""
    code += "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)), file=sys.stderr)\n"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_ENV, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stderr.splitlines()[-1]))


def _loaded_by_command(*argv) -> set:
    return _loaded(f"from pvcgap.cli import main\nassert main({list(argv)!r}) == 0")


def _loaded_by_help() -> set:
    return _loaded("from pvcgap.cli import main\ntry:\n    main(['--help'])\n"
                   "except SystemExit as exc:\n    assert exc.code == 0")


def _path_graph(tmp_path) -> str:
    path = tmp_path / "p4.graph"
    path.write_text("4 3\n1 2\n2 3\n3 4\n")
    return str(path)


def test_short_commands_load_neither_the_scan_layers_nor_the_pool(tmp_path):
    help_run = _loaded_by_help()
    graph_opt = _loaded_by_command("graph-opt", "--graph", _path_graph(tmp_path), "--t", "2")
    assert "pvcgap.cli" in help_run and "pvcgap.simplex" in graph_opt
    assert help_run & HEAVY == set()
    assert graph_opt & HEAVY == set()


SHORT_SCAN = ("verify", "--level", "sa", "--n", "6", "--r", "1", "--t", "1")
# a child whose threaded scans start their pool right after the first chunk
_NO_BUDGET = ("from pvcgap import hierarchy\nfrom pvcgap.cli import main\n"
              "hierarchy.POOL_AFTER_S = hierarchy.POOL_START_S = 0\n")


def test_a_short_threaded_scan_loads_no_pool():
    # this process scans all 43 pairs within its budget, so no pool starts
    threaded = _loaded_by_command(*SHORT_SCAN, "--threads", "2")
    assert "pvcgap.hierarchy" in threaded and "concurrent.futures" not in threaded


def test_only_a_threaded_scan_loads_the_pool():
    serial = _loaded(_NO_BUDGET + f"assert main({list(SHORT_SCAN)!r}) == 0")
    assert "pvcgap.hierarchy" in serial and "concurrent.futures" not in serial
    threaded = [*SHORT_SCAN, "--threads", "2"]
    assert "concurrent.futures" in _loaded(_NO_BUDGET + f"assert main({threaded!r}) == 0")


def test_a_threaded_scan_failing_in_its_first_chunk_loads_no_pool():
    # the p = 1/100 scan fails at its first pair, inside the chunk this process
    # scans before it looks at its budget
    argv = ("verify", "--level", "sa", "--n", "8", "--r", "1", "--t", "1", "--p", "1/100",
            "--threads", "2")
    loaded = _loaded(_NO_BUDGET + f"assert main({list(argv)!r}) == 2")
    assert "pvcgap.hierarchy" in loaded and "concurrent.futures" not in loaded


def test_a_scan_loads_only_the_layers_it_checks_with():
    argv = ("verify", "--n", "6", "--r", "2", "--t", "1")
    sa = _loaded_by_command(*argv, "--level", "sa")
    xyn = _loaded_by_command(*argv, "--level", "xyn")
    assert "pvcgap.moments" in sa and sa & {"pvcgap.linalg", "pvcgap.simplex"} == set()
    assert "pvcgap.linalg" in xyn and "pvcgap.simplex" not in xyn


def test_the_pool_class_resolves_before_any_scan():
    code = ("import sys\nfrom pvcgap import hierarchy\n"
            "assert 'concurrent.futures' not in sys.modules\n"
            "pool = hierarchy.ProcessPoolExecutor\n"
            "import concurrent.futures\n"
            "assert pool is concurrent.futures.ProcessPoolExecutor\n"
            "assert vars(hierarchy)['ProcessPoolExecutor'] is pool")
    assert "concurrent.futures.process" in _loaded(code)


def test_the_lasserre_command_loads_only_the_matrix_layer():
    loaded = _loaded_by_command("lasserre", "--n", "12", "--r", "1", "--t", "1")
    assert "pvcgap.linalg" in loaded and "pvcgap.lasserre" in loaded
    assert loaded & {"pvcgap.moments", "pvcgap.graphs", "pvcgap.simplex",
                     "pvcgap.hierarchy"} == set()


def test_no_command_loads_dataclasses_or_inspect(tmp_path):
    # their import alone costs several milliseconds of every run's start-up
    verify = ("verify", "--n", "6", "--r", "1", "--t", "1", "--level")
    runs = {
        "--help": _loaded_by_help(),
        "sa": _loaded_by_command(*verify, "sa"),
        "sap": _loaded_by_command(*verify, "sap"),
        "xyn": _loaded_by_command(*verify, "xyn"),
        "star": _loaded_by_command("star", "--n", "6", "--t", "3"),
        "lasserre": _loaded_by_command("lasserre", "--n", "12", "--r", "1", "--t", "1"),
        "gap-table": _loaded_by_command("gap-table", "--grid", "6,1,1"),
        "graph-opt": _loaded_by_command("graph-opt", "--graph", _path_graph(tmp_path),
                                        "--t", "2"),
    }
    for command, loaded in runs.items():
        assert "pvcgap.cli" in loaded, command
        assert loaded & {"dataclasses", "inspect"} == set(), command
