"""The walks and spectral verify reports, pinned byte for byte.

Each digest is the sha256 of ``run_verify(suite, seed).to_json()``, recorded
at commit a1d7968, before the Jacobi rotation, the walk DP and the path DFS
were rewritten to do the same arithmetic in fewer steps. A change that moves
one byte of these reports, down to the last bit of a printed eigenvalue,
fails here.
"""

import hashlib

import pytest

from girthlab.verify import run_verify

DIGESTS = {
    ("walks", 42):
        "2960847f3e044a22a1047af51b7aec5b17b1b05c24fc16f7cd3b1c856efb4b07",
    ("walks", 7):
        "db46bd39f4ff72d7140b255a03a97af107ce1ccf7e8a4a076c97f8099797cbec",
    ("spectral", 42):
        "f71b96bfd18c96ca4fabace57b188f8546ffa46f4f7b98022ffcf84756d44f7d",
    ("spectral", 7):
        "66d5ea334de8895c8532ffb985c5c826f1fcb6a37cdcf0254cde518899fcde5b",
}


@pytest.mark.parametrize("suite,seed", list(DIGESTS))
def test_report_bytes_are_unchanged(suite, seed):
    report = run_verify(suite, seed).to_json()
    assert hashlib.sha256(report.encode()).hexdigest() == DIGESTS[suite, seed]
