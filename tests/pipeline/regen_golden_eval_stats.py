"""Regenerate the fail-fast sweep's per-job golden accounting.

Run from the repository root after a *deliberate* model or engine
change::

    PYTHONPATH=src python tests/pipeline/regen_golden_eval_stats.py

The diff of ``golden_eval_stats.json`` then documents exactly which
jobs' counters, variants or winners moved.
"""

import json
import os
import sys

sys.path.insert(
    0, os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
)

from tests.pipeline.test_fail_fast_sweep import (  # noqa: E402
    GOLDEN_PATH,
    JOBS,
    job_entry,
    job_id,
)


def main() -> None:
    golden = {job_id(*job): job_entry(*job) for job in JOBS}
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=2, sort_keys=True)
        handle.write("\n")
    for name, entry in golden.items():
        print(f"{name}: {entry.get('error') or entry['tflops']}")


if __name__ == "__main__":
    main()
