"""Regenerate the frozen performance-model snapshot.

Run from the repository root after a *deliberate* model change::

    PYTHONPATH=src python tests/gpu/regen_golden_model.py

It re-runs each Table I kernel's P100 ``optimize`` to pick the winners
to pin, prices every pinned plan on every device profile and rewrites
``golden_model.json``; its diff documents which fields moved.  With
``--stdout`` it prices the winners the snapshot already pins and prints
the result instead (what ``test_golden_model.py`` compares).

The script always runs under ``PYTHONHASHSEED=0`` (re-executing
itself if needed), as ``test_golden_model.py`` does; the model itself
sums its float terms in an order the hash seed does not pick.
"""

import json
import os
import subprocess
import sys

sys.path.insert(
    0, os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
)

from tests.gpu.test_golden_model import (  # noqa: E402
    GOLDEN_PATH,
    p100_winners,
    snapshot,
)


def main(argv) -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        return subprocess.run(
            [sys.executable, os.path.abspath(__file__), *argv], env=env
        ).returncode
    if "--stdout" in argv:
        with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
            winners = json.load(handle)["winners"]
        json.dump(snapshot(winners), sys.stdout, sort_keys=True)
        return 0
    golden = snapshot(p100_winners())
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    model = golden["model"]
    refused = sum(
        "refused" in result
        for entry in model.values()
        for result in entry["devices"].values()
    )
    print(f"{len(model)} plans pinned on every device ({refused} refusals)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
