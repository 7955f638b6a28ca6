"""What ``import repro.cli`` loads, and the lazy package attributes.

Every ``repro`` command pays for ``import repro.cli``, so a module that
only some commands run is imported where it is used.  The package
``__init__`` modules keep those modules' public names reachable through
a PEP 562 ``__getattr__``.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

#: modules ``repro optimize`` never runs, or runs only once it prices a
#: plan family (NumPy)
COLD_MODULES = (
    "numpy",
    "networkx",
    "http.server",
    "repro.gpu.executor",
    "repro.codegen.cuda_emitter",
    "repro.obs.report_html",
    "repro.obs.prom",
    "repro.lint.sarif",
    "repro.lint.witness",
)

LAZY_PACKAGES = (
    "repro",
    "repro.codegen",
    "repro.lint",
    "repro.obs",
    "repro.tuning",
)


def _run(code: str) -> str:
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    return result.stdout


def test_cli_import_leaves_cold_modules_out():
    loaded = json.loads(
        _run(
            "import json, sys\n"
            "import repro.cli\n"
            f"cold = {COLD_MODULES!r}\n"
            "print(json.dumps([m for m in cold if m in sys.modules]))"
        )
    )
    assert loaded == []


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_public_name_resolves(package):
    module = importlib.import_module(package)
    for name in module.__all__:
        assert getattr(module, name) is not None, name


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_unknown_name_is_an_attribute_error(package):
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(importlib.import_module(package), "no_such_name")


def test_star_import_in_a_fresh_interpreter():
    out = _run(
        "from repro import *\n"
        "import repro\n"
        "missing = [n for n in repro.__all__ if n not in globals()]\n"
        "print(missing, emit_cuda.__module__, execute_plan.__module__)"
    )
    assert out.split() == [
        "[]",
        "repro.codegen.cuda_emitter",
        "repro.gpu.executor",
    ]


@pytest.mark.parametrize(
    "package", ["repro.gpu", "repro.lint", "repro.tuning"]
)
def test_subpackage_imports_first_in_a_fresh_interpreter(package):
    # No import cycle may depend on which package a program imports first.
    _run(f"import {package}")


def test_rule_catalog_is_complete_in_a_fresh_interpreter():
    # The SARIF log lists every rule in RULES, so a bare ``import
    # repro.lint`` must register all of them, lazy modules or not.
    from repro.lint import RULES, lint_source  # noqa: F401

    fresh = json.loads(
        _run(
            "import json, repro.lint\n"
            "print(json.dumps(sorted(repro.lint.RULES)))"
        )
    )
    assert fresh == sorted(RULES)
