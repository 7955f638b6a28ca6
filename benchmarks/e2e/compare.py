"""Compare two sets of benchmark runs (``run.py --compare A B``).

A set is the JSON-lines file ``run.py --json`` appends to, one record
per run.  Side A is the parent, side B the change.  Per workload and
end-to-end metric the comparison prints each side's median and
quartiles and one verdict:

* ``within``      — B's median is no worse than A's by more than the
  metric's bound;
* ``REGRESSED``   — it is worse by more than the bound;
* ``unresolved``  — a side's spread (quartile distance over median)
  exceeds the bound, so "no change" cannot be told from noise, unless
  every B run is better (or worse) than every A run;
* ``GAIN``        — at least ``MIN_PAIRS`` runs paired in recorded
  order, B wins at least nine tenths of the pairs (ties count for
  neither), and the medians differ by more than A's quartile distance.

Counts and winner digests must be identical on both sides
(``MISMATCH`` otherwise).
"""

from __future__ import annotations

import json
import statistics
from typing import Dict, List, Tuple

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_set(path: str) -> Dict[str, List[dict]]:
    """Untraced run records of a set, by workload, in recorded order."""
    runs: Dict[str, List[dict]] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                record = json.loads(line)
                if not record.get("trace"):
                    runs.setdefault(record["workload"], []).append(record)
    return runs


def summary(values: List[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile) as ``statistics`` gives them."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def judge(metric: dict, a: List[float], b: List[float]) -> Tuple[str, float]:
    """Verdict and relative worsening (share of A's median) of one metric."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    q1a, ma, q3a = summary(a)
    q1b, mb, q3b = summary(b)
    worse = sign * (mb - ma) / ma if ma else 0.0
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    if (
        len(pairs) >= MIN_PAIRS
        and wins >= WIN_SHARE * len(pairs)
        and sign * (mb - ma) < 0
        and abs(mb - ma) > q3a - q1a
    ):
        return "GAIN", worse
    spread = max(
        (q3a - q1a) / ma if ma else 0.0, (q3b - q1b) / mb if mb else 0.0
    )
    separated = all(sign * (y - x) < 0 for x in a for y in b) or all(
        sign * (y - x) > 0 for x in a for y in b
    )
    if spread > metric["bound"] and not separated:
        return "unresolved", worse
    if worse > metric["bound"]:
        return "REGRESSED", worse
    return "within", worse


def _identical(field: str, a: List[dict], b: List[dict]) -> bool:
    values = [json.dumps(r[field], sort_keys=True) for r in a + b]
    return len(set(values)) == 1


def compare(spec: dict, path_a: str, path_b: str) -> Tuple[List[str], dict, bool]:
    """Printable rows, a machine-readable summary, and overall pass/fail."""
    set_a, set_b = load_set(path_a), load_set(path_b)
    rows: List[str] = []
    result: Dict[str, dict] = {}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        a, b = set_a.get(workload, []), set_b.get(workload, [])
        if not a or not b:
            continue
        entry = result.setdefault(
            workload,
            {
                "runs": [len(a), len(b)],
                "job_tail_percentile": a[0]["job_tail_percentile"],
                "counts": a[0]["counts"],
                "metrics": {},
            },
        )
        rows.append(f"== {workload}: {len(a)} run(s) vs {len(b)} run(s)")
        for field in ("counts", "digests"):
            same = _identical(field, a, b)
            entry[f"{field}_identical"] = same
            if not same:
                ok = False
                rows.append(f"   MISMATCH: {field} differ between runs")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            va = [r["metrics"][name] for r in a]
            vb = [r["metrics"][name] for r in b]
            verdict, worse = judge(metric, va, vb)
            sa, sb = summary(va), summary(vb)
            entry["metrics"][name] = {
                "unit": metric["unit"],
                "bound": metric["bound"],
                "a": dict(zip(("q1", "median", "q3"), sa)),
                "b": dict(zip(("q1", "median", "q3"), sb)),
                "worse": worse,
                "verdict": verdict,
            }
            if verdict in ("REGRESSED", "unresolved"):
                ok = False
            rows.append(
                f"   {name:20s} A {sa[1]:10.4f} [{sa[0]:.4f}, {sa[2]:.4f}]"
                f"  B {sb[1]:10.4f} [{sb[0]:.4f}, {sb[2]:.4f}] {metric['unit']:6s}"
                f" {worse * 100:+6.2f}% worse (bound {metric['bound'] * 100:.1f}%)"
                f"  {verdict}"
            )
    if not result:
        rows.append("no workload has runs on both sides")
        ok = False
    return rows, result, ok
