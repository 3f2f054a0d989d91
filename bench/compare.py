"""Compare two sets of benchmark result records.

Usage, from the repository root::

    python3 bench/compare.py .bench_work/results/base/*.json --vs .bench_work/results/new/*.json

Each record is a JSON file written by ``bench/run.py``. Records are grouped
by workload and trace mode; for every metric, bounded or not, the script
prints each side's median and quartiles and the change of the medians. An
end-to-end metric whose new median is worse than the base median by more
than its bound in ``BENCHMARK.json`` is marked ``WORSE``.

The script refuses (exit 2) to compare records whose machine facts differ
(CPU count and model, BLAS name, version and threads, Python, numpy and
scipy versions), and exits 1 when any metric is marked ``WORSE``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

from facts import mismatches


def _load(paths: list[str]) -> list[dict]:
    return [json.loads(Path(p).read_text()) for p in paths]


def _values(record: dict) -> dict[str, float]:
    entries = {**record["metrics"], **record.get("unbounded", {})}
    return {name: entry["value"] for name, entry in entries.items()}


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def compare(base: list[dict], new: list[dict], bench: dict) -> tuple[list[str], bool]:
    """Report lines and whether any end-to-end metric got worse beyond its bound."""
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    groups: dict[tuple, dict[str, list[dict]]] = defaultdict(lambda: {"base": [], "new": []})
    for side, records in (("base", base), ("new", new)):
        for record in records:
            groups[(record["workload"], record["trace"])][side].append(record)
    lines, regressed = [], False
    for (workload, trace), sides in sorted(groups.items()):
        lines.append(f"== {workload} trace={trace}: {len(sides['base'])} base, "
                     f"{len(sides['new'])} new records")
        if not sides["base"] or not sides["new"]:
            continue
        for name in _values(sides["base"][0]):
            b = [_values(r)[name] for r in sides["base"]]
            n = [_values(r)[name] for r in sides["new"] if name in _values(r)]
            if not n:
                continue
            bq, nq = _quartiles(b), _quartiles(n)
            change = (nq[1] - bq[1]) / bq[1] if bq[1] else float("nan")
            verdict = ""
            if name in bounds:
                worse = change if bounds[name]["better"] == "lower" else -change
                if worse > bounds[name]["bound"]:
                    verdict, regressed = "WORSE", True
            lines.append(f"{name:30s} base {bq[1]:12.6g} [{bq[0]:.6g}, {bq[2]:.6g}]  "
                         f"new {nq[1]:12.6g} [{nq[0]:.6g}, {nq[2]:.6g}]  "
                         f"{change:+.2%} {verdict}")
    return lines, regressed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", nargs="+", help="result records of the base version")
    parser.add_argument("--vs", nargs="+", required=True, help="result records to compare")
    args = parser.parse_args(argv)
    base, new = _load(args.base), _load(args.vs)
    reference = base[0]["facts"]
    for record in base + new:
        differ = mismatches(reference, record["facts"])
        if differ:
            print(f"refusing to compare: machine facts differ on {', '.join(differ)}",
                  file=sys.stderr)
            return 2
    bench = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    lines, regressed = compare(base, new, bench)
    print("\n".join(lines))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
