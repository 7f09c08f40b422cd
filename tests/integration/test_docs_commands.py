"""The commands, data files and API names the docs quote exist.

README.md, perf/README.md and the CI workflow tell a reader what to run;
a module, script or baseline file deleted from under them must fail a
test, not a reader.  So must a ``comm.<method>(`` call in a README Python
block that the :class:`Communicator` no longer has, and a name a
package's ``__all__`` exports but no longer defines.  Nothing here runs a
command or writes a file.
"""

from __future__ import annotations

import importlib
import importlib.util
import re
from pathlib import Path

import pytest

from repro import Communicator

ROOT = Path(__file__).resolve().parents[2]
DOCS = {
    doc: (ROOT / doc).read_text(encoding="utf-8")
    for doc in ("README.md", "perf/README.md", ".github/workflows/ci.yml")
}

MODULE = re.compile(r"python3? -m (repro(?:\.\w+)*)")
SCRIPT = re.compile(r"python3? (perf/\w+\.py)")
# Checked-in data files at the repo root are named in capitals
# (BENCHMARK.json); lower-case names are outputs a command writes and
# single letters (A.json) are placeholders.
DATA_FILE = re.compile(r"(?<![\w/.-])([A-Z]{2}\w*\.json)\b")

ENTRY_POINT = re.compile(r"^if __name__ == ['\"]__main__['\"]:", re.MULTILINE)

PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```", re.MULTILINE | re.DOTALL)
COMM_CALL = re.compile(r"\bcomm\.(\w+)\(")


def _quoted(pattern: re.Pattern) -> list:
    return sorted(
        {(doc, match) for doc, text in DOCS.items() for match in pattern.findall(text)}
    )


def _comm_calls() -> list:
    blocks = PYTHON_BLOCK.findall(DOCS["README.md"])
    return sorted({name for block in blocks for name in COMM_CALL.findall(block)})


def test_the_docs_quote_something_of_each_kind():
    """The patterns still match: an empty parametrization passes silently."""
    assert _quoted(MODULE) and _quoted(SCRIPT) and _quoted(DATA_FILE) and _comm_calls()


@pytest.mark.parametrize("doc, module", _quoted(MODULE))
def test_quoted_module_is_runnable(doc, module):
    spec = importlib.util.find_spec(module)
    assert spec is not None, f"{doc} quotes `python -m {module}`: no such module"
    if spec.submodule_search_locations is not None:  # a package runs its __main__
        spec = importlib.util.find_spec(module + ".__main__")
        assert spec is not None, f"{doc}: package {module} has no __main__"
    source = Path(spec.origin).read_text(encoding="utf-8")
    assert ENTRY_POINT.search(source), f"{doc}: {spec.origin} has no entry point"


@pytest.mark.parametrize("doc, script", _quoted(SCRIPT))
def test_quoted_script_is_runnable(doc, script):
    path = ROOT / script
    assert path.is_file(), f"{doc} quotes `python3 {script}`: no such file"
    assert ENTRY_POINT.search(path.read_text(encoding="utf-8")), (
        f"{doc}: {script} has no entry point"
    )


@pytest.mark.parametrize("doc, name", _quoted(DATA_FILE))
def test_quoted_data_file_exists(doc, name):
    assert (ROOT / name).is_file(), f"{doc} quotes {name}: no such file at the root"


@pytest.mark.parametrize("method", _comm_calls())
def test_quoted_communicator_call_exists(method):
    assert hasattr(Communicator, method), (
        f"README.md quotes `comm.{method}(`: Communicator has no such attribute"
    )


@pytest.mark.parametrize("package", ["repro", "repro.core", "repro.faults"])
def test_every_exported_name_imports(package):
    module = importlib.import_module(package)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{package}.__all__ names what it does not define: {missing}"
