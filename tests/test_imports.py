"""Every name a module imports is read somewhere in that module, the
package exports exactly the API its README documents, no package module
reads the environment, the basis-graph layer imports only the net and
error modules, the cache module alone owns the cache file's format, and
importing the CLI loads no module it does not use.

A stdlib ``ast`` scan over ``src/`` and ``tests/``: a name bound by an
import statement must appear as a loaded name (``name`` or ``name.attr``)
or be listed in the module's ``__all__``. ``from __future__`` imports are
compiler directives and are skipped.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import tampnet

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").glob("*.py")])


def unused_imports(tree: ast.Module):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            read |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_the_scan_finds_an_unused_import():
    tree = ast.parse("import os\nfrom typing import List, Tuple\nx: List = []\n")
    assert unused_imports(tree) == [(1, "os"), (2, "Tuple")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert unused_imports(tree) == []


# the ways to read the process environment through ``os``
ENVIRONMENT_READERS = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(tree: ast.Module):
    """Lines that read the environment: ``os.environ``, ``os.getenv`` and
    their bytes forms, as attributes or imported names."""
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT_READERS
             and isinstance(node.value, ast.Name) and node.value.id == "os"]
    lines += [node.lineno for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and node.module == "os"
              and any(alias.name in ENVIRONMENT_READERS for alias in node.names)]
    return sorted(lines)


def test_the_scan_finds_an_environment_read():
    tree = ast.parse("import os\nfrom os import getenv\n"
                     "a = os.environ.get('X')\nb = os.getenv('Y')\nc = os.path\n")
    assert environment_reads(tree) == [2, 3, 4]


@pytest.mark.parametrize("path", sorted((ROOT / "src").rglob("*.py")),
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_package_reads_no_environment(path):
    # a setting has one source, its command line option: no variable can
    # change a run that the options do not show
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert environment_reads(tree) == []


def package_imports(tree: ast.Module):
    """The package modules a module imports, by relative import or by
    ``tampnet``'s name; a name imported from the package itself counts as
    the module it names."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[1] for alias in node.names
                      if alias.name.startswith("tampnet.")}
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                module = node.module or ""
            elif node.module.split(".")[0] == "tampnet":
                module = node.module[len("tampnet."):]
            else:
                continue
            if module:
                found.add(module.split(".")[0])
            else:
                found |= {alias.name for alias in node.names}
    return sorted(found)


def test_the_scan_finds_a_package_import():
    tree = ast.parse("import os\nfrom .abstraction import MonitoredNet\nfrom . import grid\n"
                     "import tampnet.planner\nfrom tampnet.taskspec import parse\n"
                     "from tampnet import cli\nfrom .petri import PetriNet\n")
    assert package_imports(tree) == ["abstraction", "cli", "grid", "petri", "planner",
                                     "taskspec"]


def test_the_basis_graph_layer_imports_only_the_net_and_its_errors():
    # the tree is a function of the net alone: the layer takes a PetriNet,
    # so it needs no module above the net
    path = ROOT / "src" / "tampnet" / "basis_graph.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert set(package_imports(tree)) <= {"errors", "petri"}


def test_the_oracle_is_independent_of_the_pipeline():
    # the oracle judges the planner, so it reads the map, the formula and
    # the atom kinds, and nothing of the reduction, the tree or the planner
    assert set(package_imports(_module("oracle"))) <= {"errors", "grid", "petri", "taskspec"}


def absolute_imports(tree: ast.Module):
    """The top-level names of the modules a module imports by absolute
    name: the standard library's, and ``tampnet`` for the package."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module.split(".")[0])
    return found


def test_the_scan_finds_an_absolute_import():
    tree = ast.parse("import os.path\nfrom zlib import compress\nfrom .errors import CacheError\n"
                     "import tampnet.cache\n")
    assert absolute_imports(tree) == {"os", "zlib", "tampnet"}


def _module(name: str) -> ast.Module:
    path = ROOT / "src" / "tampnet" / f"{name}.py"
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_the_cache_module_alone_owns_the_file_format():
    # the header, the zlib body and the checksum are cache.py's; the tree
    # and reduction layers write and read their sections as plain bytes,
    # and report a bad section with ValueError, which cache.py raises as
    # the file's cache error
    assert not {"hashlib", "json", "os", "zlib"} & absolute_imports(_module("basis_graph"))
    assert "errors" not in package_imports(_module("abstraction"))
    deflating = [str(path.relative_to(ROOT)) for path in sorted((ROOT / "src").rglob("*.py"))
                 if "zlib" in absolute_imports(ast.parse(path.read_text(encoding="utf-8")))]
    assert deflating == [os.path.join("src", "tampnet", "cache.py")]


# what perfbench/ imports from the package
PERFBENCH_NAMES = {"Infeasible", "build_offline", "cost_text", "joint_search",
                   "net_digest", "parse", "parse_env", "plan", "plan_json_text"}


def readme_api():
    """The names in the bullets of the README's "Python API" section."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    bullets = [line for line in section.splitlines() if line.startswith("- ")]
    return [name for line in bullets for name in re.findall(r"`(\w+)`", line)]


def test_package_exports_the_documented_api():
    init = ast.parse((ROOT / "src" / "tampnet" / "__init__.py").read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name for node in init.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    documented = readme_api()
    assert len(documented) == len(set(documented)) == len(tampnet.__all__)
    assert set(documented) == set(tampnet.__all__) == imported
    assert PERFBENCH_NAMES <= set(documented)


# modules ``xml.sax.saxutils`` pulls in, none of which the CLI needs
HEAVY_MODULES = ("xml.sax", "urllib.request", "http.client", "email")


def test_cli_import_loads_no_xml_or_network_modules():
    code = ("import sys, tampnet.cli; "
            f"print(' '.join(m for m in {HEAVY_MODULES!r} if m in sys.modules))")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": path}, check=True)
    assert result.stdout.split() == []
