from girthlab.corpus import (
    bipartite_corpus,
    c4_free_corpus,
    dense_corpus,
    near_biregular_corpus,
    walks_corpus,
)
from girthlab.graph import contains_cycle
from girthlab.rng import XorShift64Star


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


def test_sample_keeps_the_masked_elements():
    pool = tuple(range(100, 170))
    rng, twin = XorShift64Star(23), XorShift64Star(23)
    mask = twin.sample_mask(len(pool))
    assert rng.sample(pool) == [v for i, v in enumerate(pool) if mask >> i & 1]
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
