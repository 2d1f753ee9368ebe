from hypothesis import given, settings
from hypothesis import strategies as st

from girthlab.corpus import (
    bipartite_corpus,
    c4_free_corpus,
    dense_corpus,
    near_biregular_corpus,
    walks_corpus,
)
from girthlab.graph import contains_cycle
from girthlab.rng import XorShift64Star

_MASK = (1 << 64) - 1
SEEDS = (0, 1, 17, 42, 1 << 63, _MASK)


def _reference_sample_mask(rng, universe):
    """sample_mask as one generator step per element: the definition the
    table-driven draw must reproduce bit for bit."""
    x = rng.state
    mask = 0
    for i in range(universe):
        x ^= x >> 12
        x = (x ^ (x << 25)) & _MASK
        x ^= x >> 27
        if x & 1:
            mask |= 1 << i
    rng.state = x
    return mask


def test_deterministic_stream():
    a = XorShift64Star(42)
    b = XorShift64Star(42)
    assert [a.next_u64() for _ in range(50)] == [b.next_u64() for _ in range(50)]


def test_zero_seed_replaced():
    assert XorShift64Star(0).state == XorShift64Star(0).state != 0


def test_below_range():
    rng = XorShift64Star(9)
    draws = [rng.below(7) for _ in range(500)]
    assert set(draws) <= set(range(7))
    assert len(set(draws)) == 7


def test_shuffle_is_permutation():
    rng = XorShift64Star(5)
    items = list(range(30))
    rng.shuffle(items)
    assert sorted(items) == list(range(30))
    assert items != list(range(30))


def test_sample_mask_bit_per_element():
    """Bit i of the mask is the low bit of the i-th generator output, and
    the generator ends where one next_u64() call per element leaves it."""
    for seed in (0, 17, (1 << 64) - 1):
        for universe in (0, 1, 63, 64, 65, 200):
            rng, twin = XorShift64Star(seed), XorShift64Star(seed)
            mask = rng.sample_mask(universe)
            assert mask == sum((twin.next_u64() & 1) << i
                               for i in range(universe)), (seed, universe)
            assert rng.state == twin.state
            assert rng.next_u64() == twin.next_u64()


def test_sample_mask_matches_the_per_step_reference():
    """Mask, final state and the next output agree with the per-step loop
    for every universe 0..200, across 64-bit word boundaries."""
    for seed in SEEDS:
        for universe in range(201):
            rng, twin = XorShift64Star(seed), XorShift64Star(seed)
            assert (rng.sample_mask(universe)
                    == _reference_sample_mask(twin, universe)), (seed, universe)
            assert rng.state == twin.state, (seed, universe)
            assert rng.next_u64() == twin.next_u64()


def test_chained_draws_reuse_tables_out_of_order():
    """One generator drawing from mixed universes, tables built and reused
    in any order, follows the reference draw for draw."""
    universes = (80, 14, 0, 200, 14, 65, 64, 80, 1, 0, 200, 63, 14)
    for seed in SEEDS:
        rng, twin = XorShift64Star(seed), XorShift64Star(seed)
        for universe in universes:
            assert (rng.sample_mask(universe)
                    == _reference_sample_mask(twin, universe))
            assert rng.state == twin.state
            assert rng.below(1000) == twin.below(1000)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, _MASK),
       universes=st.lists(st.integers(0, 150), max_size=12))
def test_sample_mask_matches_reference_on_any_draw_sequence(seed, universes):
    rng, twin = XorShift64Star(seed), XorShift64Star(seed)
    for universe in universes:
        assert rng.sample_mask(universe) == _reference_sample_mask(twin,
                                                                   universe)
        assert rng.state == twin.state


def test_sample_keeps_the_masked_elements():
    """sample equals the comprehension over the reference mask, for a
    range, a tuple and empty pools, and leaves the same state."""
    pools = (range(3, 83), tuple(range(200, 130, -1)), (), range(0))
    for seed in SEEDS:
        rng, twin = XorShift64Star(seed), XorShift64Star(seed)
        for pool in pools:
            mask = _reference_sample_mask(twin, len(pool))
            assert rng.sample(pool) == [v for i, v in enumerate(pool)
                                        if (mask >> i) & 1]
            assert rng.state == twin.state


def test_corpora_reproducible():
    assert [g.edges() for g in walks_corpus(10, 3)] == [
        g.edges() for g in walks_corpus(10, 3)
    ]
    assert [g.edges() for g in dense_corpus(4, 3)] == [
        g.edges() for g in dense_corpus(4, 3)
    ]


def test_walks_corpus_sizes():
    for g in walks_corpus(40, 8):
        assert 4 <= g.n <= 20


def test_c4_free_corpus_really_is():
    for g in c4_free_corpus(6, 21):
        assert not contains_cycle(g, 4)


def test_bipartite_corpus_no_isolated():
    for g in bipartite_corpus(10, 34):
        assert g.min_degree() >= 1
        assert g.part_x and g.part_y


def test_near_biregular_degrees():
    for g in near_biregular_corpus(2, 55):
        degs = sorted(set(g.degrees()))
        assert set(degs) <= {15, 16, 17}
        assert g.degrees().count(16) >= g.n - 4
