"""The verify reports, pinned byte for byte.

Each digest is the sha256 of ``run_verify(suite, seed).to_json()``. The
walks and spectral digests were recorded at commit a1d7968, before the
Jacobi rotation, the walk DP and the path DFS were rewritten to do the same
arithmetic in fewer steps. The search and all digests were recorded at
commit 99a6534, before the Turán search moved from edge to vertex
augmentation; ``search_suite`` ignores its seed, so one search digest covers
it. The geometry digests were recorded at commit 3e4f721, before the
geometry suite read its graphs from one construction table and computed
each girth and quadrilateral check once. A change that moves one byte of these reports, down to the last bit of
a printed eigenvalue, fails here.
"""

import hashlib
import json
from pathlib import Path

import pytest

from girthlab.verify import run_verify

GOLDENS = json.loads(
    (Path(__file__).parents[1] / "perfbench" / "goldens.json").read_text())

DIGESTS = {
    ("geometry", 42):
        "be590543d6284f291027f2f35ba72d00b1c4d4741eaa519771aa8fbb9c24536a",
    ("geometry", 7):
        "a26949a078350905ee68666644e77b0e7e19c8436a38782d877cde15f625c674",
    ("walks", 42):
        "2960847f3e044a22a1047af51b7aec5b17b1b05c24fc16f7cd3b1c856efb4b07",
    ("walks", 7):
        "db46bd39f4ff72d7140b255a03a97af107ce1ccf7e8a4a076c97f8099797cbec",
    ("spectral", 42):
        "f71b96bfd18c96ca4fabace57b188f8546ffa46f4f7b98022ffcf84756d44f7d",
    ("spectral", 7):
        "66d5ea334de8895c8532ffb985c5c826f1fcb6a37cdcf0254cde518899fcde5b",
    ("search", 42):
        "08a9d1ba322637bbbd5ba9c25d30cc3ebc17d14f36e57873ccb73242f2365f49",
    ("all", 42):
        "2a9a5249987b1baaae0a00f46c28d03f2858f1b8156b408e8d3383419104cc07",
}


@pytest.mark.parametrize("suite,seed", list(DIGESTS))
def test_report_bytes_are_unchanged(suite, seed):
    report = run_verify(suite, seed).to_json()
    assert hashlib.sha256(report.encode()).hexdigest() == DIGESTS[suite, seed]


@pytest.mark.parametrize("seed", [10, 33])
def test_failing_spectral_reports_match_benchmark_goldens(seed):
    """The two suite reports the benchmark goldens list as failing, pinned
    to the digests recorded there: the only reports with a failed record."""
    assert f"spectral --seed {seed}" in GOLDENS["overall_pass_false"]
    report = run_verify("spectral", seed)
    assert not report.overall_pass
    digest = hashlib.sha256(report.to_json().encode()).hexdigest()
    assert digest == GOLDENS["suites"]["spectral"][str(seed)]


# Every geometry report the benchmark can run (suite seeds 0..63), and three
# more spectral ones: 1, the first suite seed of the held-out benchmark seed
# (1729 % 64), and 0 and 63, the ends of the range. The walks reports, whose
# Hoory and non-returning tallies move with the seed, at those three and at
# 10 and 33, the seeds of the two failing spectral reports.
GOLDEN_SWEEP = ([("geometry", seed) for seed in range(64)]
                + [("spectral", seed) for seed in (0, 1, 63)]
                + [("walks", seed) for seed in (0, 1, 10, 33, 63)])


@pytest.mark.parametrize("suite,seed", GOLDEN_SWEEP)
def test_reports_match_benchmark_goldens(suite, seed):
    report = run_verify(suite, seed).to_json()
    digest = hashlib.sha256(report.encode()).hexdigest()
    assert digest == GOLDENS["suites"][suite][str(seed)]
