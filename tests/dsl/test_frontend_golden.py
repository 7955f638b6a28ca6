"""Front-end golden digests: the lexer and parser must not drift.

For each Table I kernel and each DSL block under ``examples/`` the
golden file records two SHA-256 digests:

* ``tokens`` — the ``(kind, value, line, col)`` token stream;
* ``ast`` — ``repr(parse(src))``.

They were recorded before the lexer's ``Token`` became a ``NamedTuple``
and the expression parser moved to one lookahead read per decision, so
any change in tokenization, positions or tree shape shows up here.

After a deliberate front-end change, regenerate with::

    PYTHONPATH=src python tests/dsl/test_frontend_golden.py
"""

from __future__ import annotations

import ast as pyast
import hashlib
import json
from pathlib import Path

import pytest

from repro.dsl.lexer import tokenize
from repro.dsl.parser import parse
from repro.suite import BENCHMARK_ORDER, get

ROOT = Path(__file__).resolve().parents[2]
GOLDEN = Path(__file__).with_name("golden_frontend.json")


def example_sources():
    """Module-level string constants under ``examples/`` holding a stencil."""
    out = {}
    for path in sorted((ROOT / "examples").glob("*.py")):
        tree = pyast.parse(path.read_text())
        for node in tree.body:
            if (
                isinstance(node, pyast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], pyast.Name)
                and isinstance(node.value, pyast.Constant)
                and isinstance(node.value.value, str)
                and "stencil " in node.value.value
            ):
                out[f"examples/{path.name}:{node.targets[0].id}"] = node.value.value
    return out


def sources():
    out = {f"suite:{name}": get(name).dsl() for name in BENCHMARK_ORDER}
    out.update(example_sources())
    return out


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digests(src: str) -> dict:
    stream = "\n".join(
        repr((t.kind, t.value, t.line, t.col)) for t in tokenize(src)
    )
    return {"tokens": _sha(stream), "ast": _sha(repr(parse(src)))}


def test_golden_covers_every_source():
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(sources())
    assert sum(k.startswith("suite:") for k in golden) == 11
    assert sum(k.startswith("examples/") for k in golden) >= 2


@pytest.mark.parametrize("key", sorted(sources()))
def test_frontend_reproduces_golden_digest(key):
    golden = json.loads(GOLDEN.read_text())
    assert digests(sources()[key]) == golden[key]


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps(
            {key: digests(src) for key, src in sorted(sources().items())},
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"wrote {GOLDEN}")
