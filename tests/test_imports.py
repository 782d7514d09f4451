import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pvcgap

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench.tracer import TARGETS  # noqa: E402

MODULES = sorted(Path(pvcgap.__file__).parent.glob("*.py"))

# kept in src/ although only tests call it: the oracle the closed form is checked against
ORACLES = {"level1_slack_matrix"}


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
    """Top-level functions and classes that no module, and no name in
    `external`, refers to outside their own definition."""
    defined, used = [], set(external)
    for module, tree in trees.items():
        for node in tree.body:
            own = {node.name} if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else set()
            defined.extend((module, name) for name in own)
            names = {sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name)}
            names |= {sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute)}
            used |= names - own
    return sorted(f"{module}.{name}" for module, name in defined if name not in used)


def test_no_dead_helpers():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}
    external = ORACLES | {attr for _module, attr, _span in TARGETS}
    assert _dead_definitions(trees, external) == []


def test_the_check_sees_a_dead_helper():
    code = "def used():\n    return 1\n\n\ndef dead(k):\n    return dead(k - 1)\n\n\nX = used()\n"
    assert _dead_definitions({"m": ast.parse(code)}, set()) == ["m.dead"]
    assert _dead_definitions({"m": ast.parse(code)}, {"dead"}) == []


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


def test_only_a_threaded_scan_loads_the_pool():
    argv = ("verify", "--level", "sa", "--n", "6", "--r", "1", "--t", "1")
    serial = _loaded_by_command(*argv)
    assert "pvcgap.hierarchy" in serial and "concurrent.futures" not in serial
    assert "concurrent.futures" in _loaded_by_command(*argv, "--threads", "2")


def test_a_threaded_scan_failing_in_its_first_chunk_loads_no_pool():
    # the p = 1/100 scan fails at its first pair, inside the chunk this process scans
    argv = ("verify", "--level", "sa", "--n", "8", "--r", "1", "--t", "1", "--p", "1/100",
            "--threads", "2")
    loaded = _loaded(f"from pvcgap.cli import main\nassert main({list(argv)!r}) == 2")
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
