"""Package import hygiene: every dependency between oamsense modules is a
module-level import, so the import graph can be read off the module tops,
scoring a field and a fit-gm run import no scipy.optimize, taking its
azimuthal spectrum no scipy.ndimage and an swg-gen run no scipy.spatial,
the five subcommands other than beam-sim import neither OpenSSL (secrets,
hashlib) nor numpy.random, `import oamsense` imports each submodule only
when it is first used, and every public function or class of the package
has a caller outside the tests."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import oamsense

MODULES = sorted(Path(oamsense.__file__).resolve().parent.glob("*.py"))
REPO = Path(__file__).resolve().parents[1]


def run_fresh(code: str) -> None:
    """Run code in a fresh interpreter that imports this checkout's oamsense;
    raise if it fails."""
    src = str(Path(oamsense.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120,
                   stdout=subprocess.DEVNULL)


def benchmark_traced() -> list[tuple[str, str]]:
    """(module, function) of every oamsense attribute benchmark/run.py wraps
    by name in TRACED.  The file is read, not imported."""
    tree = ast.parse((REPO / "benchmark" / "run.py").read_text(encoding="utf-8"))
    traced = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "TRACED" for t in node.targets))
    return [(entry.elts[0].value, entry.elts[1].value) for entry in traced.elts]


def _package_modules(node) -> list[str]:
    """The oamsense modules an import statement names, or [] for any other node."""
    if isinstance(node, ast.ImportFrom):
        if node.level > 0:  # from . import x, y / from .x import name
            return [node.module] if node.module else [a.name for a in node.names]
        if node.module == "oamsense":
            return [a.name for a in node.names]
        if (node.module or "").startswith("oamsense."):
            return [node.module.split(".")[1]]
    if isinstance(node, ast.Import):
        return [a.name.split(".")[1] for a in node.names if a.name.startswith("oamsense.")]
    return []


def _top_level_graph() -> dict[str, set[str]]:
    return {
        path.stem: {name for node in ast.parse(path.read_text()).body
                    for name in _package_modules(node)}
        for path in MODULES
    }


def _closure(graph: dict[str, set[str]], module: str) -> set[str]:
    seen, todo = set(), list(graph[module])
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo.extend(graph.get(name, ()))
    return seen


def test_no_package_import_inside_a_function():
    # lazy scipy and standard-library imports stay allowed
    found = []
    for path in MODULES:
        for func in ast.walk(ast.parse(path.read_text())):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{path.name}:{node.lineno}" for node in ast.walk(func)
                          if _package_modules(node)]
    assert found == []


def test_module_graph_has_no_cycle():
    graph = _top_level_graph()
    assert graph["beams"] >= {"swg", "table"}
    assert _closure(graph, "swg") == {"table"}
    assert [m for m in graph if m in _closure(graph, m)] == []


def test_waist_search_does_not_import_scipy_optimize():
    # the waist search is in-house: scipy.optimize costs 80-140 ms to import
    code = (
        "import sys\n"
        "from oamsense import beams\n"
        "gauss = beams.make_gaussian(64, 100e-9, 840e-9, 1.5e-6)\n"
        "beams.conversion_metrics(gauss, beams.vortex_mask(64, 100e-9, 1),\n"
        "                         beams.LGIndex(0, 1, 1.5e-6))\n"
        "assert 'scipy.optimize' not in sys.modules, 'scipy.optimize imported'\n"
    )
    run_fresh(code)


def test_fit_gm_does_not_import_scipy_optimize():
    # the coupling fit is in-house: scipy.optimize adds about 48 MB of RSS
    code = (
        "import sys, tempfile\n"
        "from oamsense import cli\n"
        "with tempfile.TemporaryDirectory() as out:\n"
        "    assert cli.main(['fit-gm', 'bundled', '--out', out]) == 0\n"
        "assert 'oamsense.mechanics' in sys.modules\n"
        "assert 'scipy.optimize' not in sys.modules, 'scipy.optimize imported'\n"
    )
    run_fresh(code)


def test_spectrum_does_not_import_scipy_ndimage():
    # the rings are sampled by a numpy bilinear gather, not map_coordinates
    code = (
        "import sys\n"
        "from oamsense import beams\n"
        "gauss = beams.make_gaussian(64, 100e-9, 840e-9, 1.5e-6)\n"
        "m = beams.conversion_metrics(gauss, beams.vortex_mask(64, 100e-9, 1),\n"
        "                             beams.LGIndex(0, 1, 1.5e-6))\n"
        "beams.azimuthal_spectrum(m.output, range(-2, 5))\n"
        "assert 'scipy.ndimage' not in sys.modules, 'scipy.ndimage imported'\n"
    )
    run_fresh(code)


def test_swg_gen_does_not_import_scipy_spatial():
    # only pillar_index imports it (about 37 MB of RSS): a layout is generated
    # and exported without it
    code = (
        "import sys, tempfile\n"
        "from oamsense import cli\n"
        "with tempfile.TemporaryDirectory() as out:\n"
        "    assert cli.main(['swg-gen', '--out', out]) == 0\n"
        "assert 'oamsense.swg' in sys.modules\n"
        "assert 'scipy.spatial' not in sys.modules, 'scipy.spatial imported'\n"
    )
    run_fresh(code)


def test_non_beam_runs_do_not_import_openssl():
    # temp names come from os.urandom: secrets would load hashlib and
    # OpenSSL's libcrypto (about 3.6 MB of RSS), and numpy.random loads secrets
    code = (
        "import sys, tempfile\n"
        "from oamsense import cli\n"
        "runs = [['noise-sweep', '--preset', 'paper-fig5'],\n"
        "        ['pulse-budget', '--preset', 'paper-fig8'],\n"
        "        ['mech-response', '--preset', 'paper-fig2b'],\n"
        "        ['swg-gen'], ['fit-gm', 'bundled']]\n"
        "with tempfile.TemporaryDirectory() as out:\n"
        "    for argv in runs:\n"
        "        assert cli.main(argv + ['--out', out]) == 0, argv\n"
        "loaded = [m for m in ('secrets', 'hashlib', '_hashlib', 'numpy.random')\n"
        "          if m in sys.modules]\n"
        "assert loaded == [], loaded\n"
    )
    run_fresh(code)


def test_package_imports_submodules_on_first_access():
    # `import oamsense` loads no submodule; loading the bundled dataset
    # loads device alone
    code = (
        "import sys\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m.startswith('oamsense.'))\n"
        "import oamsense\n"
        "assert loaded() == [], loaded()\n"
        "oamsense.device.load_sample_dataset()\n"
        "assert loaded() == ['oamsense.device'], loaded()\n"
        "from oamsense import beams\n"
        "assert beams is oamsense.beams and beams.swg is oamsense.swg\n"
    )
    run_fresh(code)


def test_every_public_name_has_a_caller():
    # code that only tests call belongs in tests/oracles.py.  A use is
    # module.name, or a bare name read inside its own module; an attribute
    # of another object (ConversionMetrics.fidelity) does not count.  The
    # names the benchmark traces are exempt while it traces them.
    defined = {(path.stem, node.name) for path in MODULES
               for node in ast.parse(path.read_text()).body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and not node.name.startswith("_")}
    used = set()
    for path in [*MODULES, *(REPO / "demos").glob("*.py"), *(REPO / "tools").glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(getattr(node, "ctx", None), ast.Load):
                continue
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                used.add((node.value.id, node.attr))
            elif isinstance(node, ast.Name) and path in MODULES:
                used.add((path.stem, node.id))
    assert sorted(defined - used - set(benchmark_traced())) == []
