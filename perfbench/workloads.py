"""The three benchmark workloads: seeded inputs, one timed pass, golden checks.

Every call into girthlab goes through a module attribute
(``search.turan_number``, never a name imported from it), so that the layer
tracer in ``layers.py`` sees each call when it replaces those attributes.

A run makes up to ``MAX_PASSES`` passes, each on inputs of its own, because
the seed changes how much work a pass does (z(7,7) takes from about 0.5 to
2.5 s with the order seed), and a run reports the mean pass. Pass j uses
order seed and relabeling seed ``seed + j * SEED_STRIDE``, and verify suite
seed ``(seed + j) % SUITE_SEEDS``. Every suite seed has a recorded digest of
its report, so each suite run is checked byte for byte.
"""

from __future__ import annotations

import functools
import hashlib
import json
import statistics
from pathlib import Path
from time import perf_counter

from girthlab import canonical, formats, geometry, graph, search, verify
from girthlab.rng import XorShift64Star

DEFAULT_SEED = 42
HELD_OUT_SEED = 1729
MAX_PASSES = 32
SEED_STRIDE = 1_000_003
SUITE_SEEDS = 64
REFERENCE_LOOPS = 30_000
# reference_work's fastest time on a 2-vCPU x86-64 VM under CPython 3.11
REFERENCE_SECONDS = 0.027
GOLDENS_PATH = Path(__file__).with_name("goldens.json")

# (label, search function, positional size arguments, forbidden cycle lengths)
EXTREMAL_INSTANCES = (
    *((f"z({n}) no-C4", "zarankiewicz_number", (n,), (4,)) for n in range(4, 13)),
    ("z(7,7) no-C4", "zarankiewicz_ab", (7, 7), (4,)),
    ("z(6,6) no-C4,C6", "zarankiewicz_ab", (6, 6), (4, 6)),
    *((f"ex({n}) no-C4,C5", "turan_number", (n,), (4, 5)) for n in range(5, 10)),
    ("ex(8) no-C3", "turan_number", (8,), (3,)),
)

# (label, construction kind, field order q)
CONSTRUCTIONS = (
    ("heawood", "pg2", 2),
    ("tutte-coxeter", "gq", 2),
    ("pg2-3-incidence", "pg2", 3),
    ("polarity-q3", "polarity", 3),
    ("polarity-q4", "polarity", 4),
    ("polarity-q5", "polarity", 5),
)

INEQUALITY_SUITES = ("walks", "spectral")


def pass_seeds(seed: int) -> list:
    return [seed + j * SEED_STRIDE for j in range(MAX_PASSES)]


def suite_seeds(seed: int) -> list:
    return [(seed + j) % SUITE_SEEDS for j in range(MAX_PASSES)]


def build_construction(kind: str, q: int):
    if kind == "pg2":
        return geometry.incidence_graph(geometry.pg2_incidence(q))
    if kind == "gq":
        return geometry.incidence_graph(geometry.gq_w3(q))
    return geometry.polarity_graph(q)


def load_goldens() -> dict:
    return json.loads(GOLDENS_PATH.read_text())


def report_digest(report) -> str:
    return hashlib.sha256(report.to_json().encode()).hexdigest()


@functools.cache
def _reference_data():
    return list(range(1 << 18)), {i * 7919: i for i in range(1 << 16)}


def reference_work() -> int:
    """A fixed piece of pure-Python work that calls no girthlab code: reads
    spread over a list and a dict of several MiB, as girthlab's searches
    spread over their tables. Timing it between operations tells how fast the
    host runs at that moment, caches shared with other tenants included."""
    items, table = _reference_data()
    mask = len(items) - 1
    acc = 0
    for i in range(REFERENCE_LOOPS):
        j = (i * 2654435761) & mask
        acc += items[j] & 7
        acc += table.get((j & 0xFFFF) * 7919, 0) & 3
    return acc


def slowdown(references: list) -> float:
    """How much slower than its reference speed the host ran while these
    timings of ``reference_work`` were taken."""
    return statistics.mean(references) / REFERENCE_SECONDS


def timed(fn) -> float:
    t0 = perf_counter()
    fn()
    return perf_counter() - t0


class Pass:
    """Operations attempted, their failures, their outputs and the seconds
    each took with its check, over one pass or, merged, over a whole run.

    With ``calibrate`` set, ``reference_work`` is also timed before the first
    operation and after each one, into ``references``."""

    calibrate = False

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.outputs = {}
        self.times = {}
        self.references = []

    def check(self, label, compute, ok):
        """Run one operation. It fails if it raises, or if `ok(output)` is
        false."""
        self.attempted += 1
        if self.calibrate and not self.references:
            self.references.append(timed(reference_work))
        t0 = perf_counter()
        try:
            out = compute()
        except Exception as exc:  # any error is a failed operation
            self.failures.append(f"{label}: raised {type(exc).__name__}: {exc}")
            return
        passed = ok(out)
        self.times[label] = perf_counter() - t0
        if self.calibrate:
            self.references.append(timed(reference_work))
        self.outputs[label] = out
        if not passed:
            self.failures.append(f"{label}: unexpected output {out!r}")

    def merge(self, other: "Pass"):
        """Count the operations of another pass as this one's."""
        self.attempted += other.attempted
        self.failures += other.failures


def search_output(result) -> dict:
    return {
        "value": result.value,
        "completed": result.completed,
        "witnesses": [w.decode("ascii") for w in result.witnesses],
    }


def _check_suite(p: Pass, suite: str, seed: int, goldens: dict):
    """The report must be byte-identical to the recorded one."""
    golden = goldens["suites"][suite][str(seed)]

    def compute():
        report = verify.run_verify(suite, seed)
        return {"overall_pass": report.overall_pass,
                "digest": report_digest(report)}

    p.check(f"verify {suite} --seed {seed}", compute,
            lambda out: out["digest"] == golden)


# --- extremal-search -------------------------------------------------------

def setup_extremal(seed: int) -> list:
    instances = [
        (label, fn, args, search.FamilySpec.of(*lengths))
        for label, fn, args, lengths in EXTREMAL_INSTANCES
    ]
    return [(s, instances) for s in pass_seeds(seed)]


def run_extremal(inp, goldens: dict) -> Pass:
    order_seed, instances = inp
    p = Pass()
    for label, fn, args, family in instances:
        golden = goldens["extremal-search"][label]
        p.check(label,
                lambda: search_output(getattr(search, fn)(
                    *args, family, order_seed=order_seed)),
                lambda out: out == golden)
    return p


# --- inequality-checks -----------------------------------------------------

def setup_inequality(seed: int) -> list:
    return suite_seeds(seed)


def run_inequality(seed: int, goldens: dict) -> Pass:
    p = Pass()
    for suite in INEQUALITY_SUITES:
        _check_suite(p, suite, seed, goldens)
    return p


# --- geometry-certificates -------------------------------------------------

def setup_geometry(seed: int) -> list:
    graphs = [(label, build_construction(kind, q)) for label, kind, q in CONSTRUCTIONS]
    inputs = []
    for s, suite_seed in zip(pass_seeds(seed), suite_seeds(seed)):
        rng = XorShift64Star(s)
        relabeled = []
        for label, g in graphs:
            perm = list(range(g.n))
            rng.shuffle(perm)
            relabeled.append((label, graph.relabel(g, perm)))
        inputs.append((suite_seed, relabeled))
    return inputs


def run_geometry(inp, goldens: dict) -> Pass:
    suite_seed, relabeled = inp
    p = Pass()
    _check_suite(p, "geometry", suite_seed, goldens)
    for label, g in relabeled:
        golden = goldens["geometry-certificates"][label]
        p.check(f"canonical {label}",
                lambda: formats.graph6_encode(
                    canonical.canonical_graph(g)).decode("ascii"),
                lambda out: out == golden)
    return p


WORKLOADS = {
    "extremal-search": (setup_extremal, run_extremal),
    "inequality-checks": (setup_inequality, run_inequality),
    "geometry-certificates": (setup_geometry, run_geometry),
}
