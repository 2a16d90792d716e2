#!/usr/bin/env python3
"""Fail on any std::unordered_* container in src/ that is not allow-listed.

    python3 tools/check_hash_order.py [REPO_ROOT]

A hash container iterates in an order that depends on the standard
library's table layout. Where that order reaches a result, the result
depends on the library, not on the model. Every std::unordered_* in
src/ must therefore match an entry below: a file, an identifier on the
same line, and why that site's iteration order reaches no result. A site
whose order does reach one is listed as order-dependent and pinned by a
digest test until it is replaced. Comments are not checked. An entry that
matches no line fails too, so the list cannot outlive the code.

Exits 0 when every site is listed, 1 otherwise. ctest runs it as
hash_order_lint, and CI's lint job runs it directly.
"""

import re
import sys
from pathlib import Path

ORDER_DEPENDENT = "order-dependent, pinned; ROADMAP item 4 replaces it"

# (path under src/, identifier on the line, why the site is order-free)
ALLOW = [
    ("partition/multilevel.cpp", "AccMap",
     "coarsen_once's coarse-adjacency accumulator: its iteration order is the "
     "next level's matching tie order. " + ORDER_DEPENDENT +
     "; MultilevelPartitioner.PinnedAssignmentDigests and "
     "PinnedBenchmarkInputDigests pin it"),
    ("graph/generators.cpp", "picked",
     "barabasi_albert's targets, appended to the endpoint pool in hash order, "
     "which decides every later draw. " + ORDER_DEPENDENT +
     "; Generators.PinnedAnalogDigests pins it"),
    ("graph/generators.cpp", "seen",
     "the ER and R-MAT duplicate-edge sets: membership tests only"),
    ("graph/io.cpp", "remap",
     "the edge-list id remap: dense ids follow input order; lookups only"),
    ("graph/analysis.cpp", "nbr",
     "clustering_coefficient's neighbour set: membership tests only"),
    ("graph/analysis.cpp", "remap",
     "induced_subgraph's id remap: dense ids follow the caller's order; "
     "lookups only"),
    ("graph/analysis.cpp", "sizes",
     "largest_component_subgraph's component sizes: the scan keeps the "
     "largest and breaks ties by the smaller label"),
    ("harness/experiment.cpp", "cache",
     "the per-process dataset cache: lookups only"),
    ("harness/experiment.cpp", "chosen",
     "pick_roots' drawn set: membership tests only; roots keep draw order"),
    ("algos/label_propagation.hpp", "freq",
     "label counts: the scan keeps the plurality and breaks ties by the "
     "smaller label"),
    ("cloud/queue.hpp", "inflight_",
     "a queue's in-flight messages: lookups and erases by id only"),
    ("cloud/queue.hpp", "queues_",
     "the queue maps: lookups by name, and total_ops sums integers"),
    ("core/engine_core.hpp", "outstanding_index_",
     "the swath's outstanding-root index: lookups and erases only"),
    ("core/engine_core.hpp", "old",
     "the migration rebuild's old partitions: lookups by partition; work "
     "follows the sorted affected list"),
    ("core/engine_core.cpp", "old",
     "the migration rebuild's old partitions: lookups by partition; work "
     "follows the sorted affected list"),
    ("core/engine_core.cpp", "dest",
     "the migration rebuild's destinations: lookups by vertex only"),
    ("core/engine_core.cpp", "parked",
     "the governor's shed roots: membership tests in a stable partition"),
    ("core/engine.hpp", "old",
     "the migration rebuild's old partitions: lookups by partition"),
    ("core/engine.hpp", "od",
     "the migration rebuild's old partition data: lookups by partition; "
     "work follows the sorted affected list"),
    ("core/aggregates.hpp", "values_",
     "aggregator values: each key is reduced on its own, and the run "
     "manifest sorts them by key"),
    ("core/aggregates.hpp", "items",
     "aggregator values: each key is reduced on its own, and the run "
     "manifest sorts them by key"),
]

SITE = re.compile(r"\bstd::unordered_(?:map|set|multimap|multiset)\b")


def code_part(line: str) -> str:
    """The line without a trailing // comment (string literals are not
    special-cased: no src/ literal holds a container name)."""
    return line.split("//", 1)[0]


def main() -> int:
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parent.parent
    src = root / "src"
    used = set()
    failures = []
    for path in sorted(src.rglob("*")):
        if path.suffix not in (".hpp", ".cpp", ".h", ".cc"):
            continue
        rel = path.relative_to(src).as_posix()
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            code = code_part(line)
            if not SITE.search(code):
                continue
            hits = [i for i, (p, ident, _) in enumerate(ALLOW)
                    if p == rel and re.search(r"\b" + re.escape(ident) + r"\b", code)]
            if hits:
                used.update(hits)
            else:
                failures.append(f"src/{rel}:{lineno}: unlisted hash container: {line.strip()}")
    for i, (p, ident, _) in enumerate(ALLOW):
        if i not in used:
            failures.append(f"allow-list entry matches no line: src/{p} '{ident}'")
    for f in failures:
        print(f, file=sys.stderr)
    if failures:
        print("Each std::unordered_* in src/ needs an entry in tools/check_hash_order.py "
              "that says why its iteration order reaches no result.", file=sys.stderr)
        return 1
    print(f"hash-order lint: every std::unordered_* in src/ matches one of {len(ALLOW)} entries")
    return 0


if __name__ == "__main__":
    sys.exit(main())
