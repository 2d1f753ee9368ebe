"""Record perfbench/goldens.json from the current girthlab source.

    python3 perfbench/record_goldens.py

Goldens are the gate of every benchmark run, so record them only from a
commit whose outputs are known to be right, and say so in the change that
updates them. The extremal values and witnesses, and the canonical forms,
must not depend on the seed: this script computes them at the default and
the held-out seed and stops if the two disagree. Verify reports are recorded
for every suite seed, including the few whose report does not pass (listed
under ``overall_pass_false``): the gate is that the bytes do not change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from girthlab import canonical, formats, search, verify  # noqa: E402


def main() -> int:
    seeds = (workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED)
    extremal = {}
    for label, fn, args, lengths in workloads.EXTREMAL_INSTANCES:
        family = search.FamilySpec.of(*lengths)
        outs = [workloads.search_output(getattr(search, fn)(
            *args, family, order_seed=s)) for s in seeds]
        if outs[0] != outs[1]:
            sys.exit(f"{label}: output depends on the order seed")
        extremal[label] = outs[0]
    forms = {}
    for label, kind, q in workloads.CONSTRUCTIONS:
        g = workloads.build_construction(kind, q)
        forms[label] = formats.graph6_encode(
            canonical.canonical_graph(g)).decode("ascii")
    suites = {}
    not_passing = []
    for suite in ("walks", "spectral", "geometry"):
        suites[suite] = {}
        for s in range(workloads.SUITE_SEEDS):
            report = verify.run_verify(suite, s)
            if not report.overall_pass:
                not_passing.append(f"{suite} --seed {s}")
            suites[suite][str(s)] = workloads.report_digest(report)
    goldens = {
        "default_seed": workloads.DEFAULT_SEED,
        "held_out_seed": workloads.HELD_OUT_SEED,
        "extremal-search": extremal,
        "geometry-certificates": forms,
        "suites": suites,
        "overall_pass_false": not_passing,
    }
    workloads.GOLDENS_PATH.write_text(json.dumps(goldens, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
