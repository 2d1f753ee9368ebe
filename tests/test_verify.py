"""The record helpers and the registry of the verify suites.

No report at any recorded seed has a tally with a failure, so the failing
paths of ``_tally`` are checked here against a reference record built from
hand-counted ``(violations, checked)``.
"""

import pytest

from girthlab import spectral, stability, verify, walks
from girthlab.verify import CHECK_OPS, _rec, _tally, run_verify


def _reference_tally(name, ref, instance, violations, checked, op=None):
    return _rec(name, ref, instance, f"violations={violations}",
                f"checked={checked}", violations == 0, op=op)


@pytest.mark.parametrize("verdicts", [
    [],
    [True],
    [False],
    [True, False, True],
    [False, False, False],
    [True] * 7 + [False] * 3,
])
def test_tally_matches_hand_counted_record(verdicts):
    expected = _reference_tally("walk-floor", "ref", "inst",
                                verdicts.count(False), len(verdicts),
                                op="check_godsil")
    got = _tally("walk-floor", "ref", "inst", iter(verdicts), op="check_godsil")
    assert got == expected
    assert (got.lhs, got.rhs, got.holds, got.margin) == (
        f"violations={verdicts.count(False)}", f"checked={len(verdicts)}",
        False not in verdicts, "")


@pytest.mark.parametrize("op", CHECK_OPS)
def test_check_ops_name_public_callables(op):
    """The check-coverage record compares strings; each must still name a
    check of the walks, spectral or stability module."""
    assert not op.startswith("_")
    assert any(callable(getattr(module, op, None))
               for module in (walks, spectral, stability))


def test_one_construction_table_per_run(monkeypatch):
    built = []
    seen = []

    def constructed_set():
        built.append({})
        return built[-1]

    def suite(seed, constructed, budget=None):
        seen.append(constructed)
        return []

    monkeypatch.setattr(verify, "_constructed_set", constructed_set)
    monkeypatch.setattr(verify, "_SUITE_FUNCS",
                        {name: suite for name in verify._SUITE_FUNCS})
    run_verify("all", 3)
    assert len(built) == 1
    assert len(seen) == 4 and all(table is built[0] for table in seen)
