import random

import pytest

from tabletriples import splits
from tabletriples.errors import DegenerateSplitError
from tabletriples.splits import (
    SplitConfig,
    SplitName,
    TableSignature,
    expand_by_similarity,
    jaccard,
    split,
)
from tabletriples.tables import Table


def sig(table_id: str, *tokens: str) -> TableSignature:
    return TableSignature(table_id=table_id, tokens=frozenset(tokens))


class TestJaccard:
    def test_identical(self):
        assert jaccard(sig("a", "x", "y"), sig("b", "x", "y")) == 1.0

    def test_disjoint(self):
        assert jaccard(sig("a", "x"), sig("b", "y")) == 0.0

    def test_half(self):
        assert jaccard(sig("a", "a", "b", "c"), sig("b", "b", "c", "d")) == 0.5

    def test_both_empty(self):
        assert jaccard(sig("a"), sig("b")) == 0.0

    def test_signature_from_table(self):
        t = Table(
            id="t",
            title="Summer Olympics, 2004!",
            headers=("Host City", "Country"),
            rows=(),
        )
        s = TableSignature.from_table(t)
        assert s.tokens == frozenset(
            {"summer", "olympics", "2004", "host", "city", "country"}
        )


class TestExpansion:
    def test_identical_tables_collapse(self):
        a, b, c = sig("a", "x", "y"), sig("b", "x", "y"), sig("c", "x", "y")
        taken, rest = expand_by_similarity([a], [b, c], threshold=0.5)
        assert {s.table_id for s in taken} == {"a", "b", "c"}
        assert rest == []

    def test_chain_pulled_transitively(self):
        # a~b and b~c above 0.5, but a~c below: the fixpoint must still absorb c
        a = sig("a", "1", "2", "3", "4")
        b = sig("b", "2", "3", "4", "5")  # J(a,b) = 3/5 > 0.5
        c = sig("c", "3", "4", "5", "6")  # J(b,c) = 3/5, J(a,c) = 2/6
        assert jaccard(a, b) > 0.5 and jaccard(b, c) > 0.5 and jaccard(a, c) <= 0.5
        taken, rest = expand_by_similarity([a], [c, b], threshold=0.5)
        assert {s.table_id for s in taken} == {"a", "b", "c"}

    def test_nothing_similar_nothing_taken(self):
        taken, rest = expand_by_similarity([sig("a", "x")], [sig("b", "y")], 0.5)
        assert [s.table_id for s in taken] == ["a"]
        assert [s.table_id for s in rest] == ["b"]

    def test_taken_is_seed_then_pulled_in_pool_order(self):
        # s pulls b, b pulls c: the fixpoint took them in that order, the
        # result lists them as they stand in the pool
        s = sig("s", "1", "2", "3", "4")
        b = sig("b", "2", "3", "4", "5")
        c = sig("c", "3", "4", "5", "6")
        x = sig("x", "7", "8")
        taken, rest = expand_by_similarity([s], [x, c, b], threshold=0.5)
        assert [t.table_id for t in taken] == ["s", "c", "b"]
        assert [t.table_id for t in rest] == ["x"]

    def test_empty_signatures_never_match(self):
        taken, rest = expand_by_similarity([sig("a")], [sig("b"), sig("c", "x")], 0.1)
        assert [t.table_id for t in taken] == ["a"]
        assert [t.table_id for t in rest] == ["b", "c"]

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            expand_by_similarity([sig("a", "x")], [sig("b", "y")], -0.1)


def fixpoint_expand(seed, pool, threshold):
    """The all-pairs expansion repeated until nothing changes: the oracle."""
    taken = list(seed)
    remaining = list(pool)
    changed = True
    while changed:
        changed = False
        still = []
        for s in remaining:
            if any(jaccard(s, member) > threshold for member in taken):
                taken.append(s)
                changed = True
            else:
                still.append(s)
        remaining = still
    return taken, remaining


# thresholds that some overlap/union ratio k/n meets exactly
BOUNDARY_THRESHOLDS = (1 / 3, 0.5, 2 / 3, 0.75, 0.9)


def differential_corpus(rng: random.Random, n: int) -> list[TableSignature]:
    """Signatures of 0-10 tokens from a 3-15 token alphabet."""
    alphabet = [f"w{i}" for i in range(rng.randrange(3, 16))]
    return [
        sig(f"t{i:03d}", *rng.sample(alphabet, min(rng.randrange(0, 11), len(alphabet))))
        for i in range(n)
    ]


def wide_corpus(rng: random.Random, n: int) -> list[TableSignature]:
    """Near copies of three 20-64 token sets from a 65-200 token alphabet.

    Each table toggles up to 12 tokens of one of the sets, so pairs span
    the whole similarity range, and the tokens in use outnumber the 64 bits
    of a machine word.
    """
    alphabet = [f"w{i}" for i in range(rng.randrange(65, 201))]
    bases = [frozenset(rng.sample(alphabet, rng.randrange(20, 65))) for _ in range(3)]
    out = []
    for i in range(n):
        tokens = set(rng.choice(bases))
        for _ in range(rng.randrange(0, 13)):
            tokens ^= {rng.choice(alphabet)}
        out.append(sig(f"t{i:03d}", *tokens))
    return out


def assert_expansion_matches_fixpoint(seed, pool, threshold):
    taken, rest = expand_by_similarity(seed, pool, threshold)
    want_taken, want_rest = fixpoint_expand(seed, pool, threshold)
    assert taken[: len(seed)] == seed
    assert set(taken) == set(want_taken)
    assert len(taken) == len(want_taken)
    assert rest == want_rest


class TestIndexMatchesFixpoint:
    def test_expansion(self):
        rng = random.Random(4242)
        for _ in range(600):
            tables = differential_corpus(rng, rng.randrange(0, 40))
            k = rng.randrange(0, len(tables) + 1)
            threshold = rng.choice(BOUNDARY_THRESHOLDS + (rng.uniform(0.05, 0.95),))
            assert_expansion_matches_fixpoint(tables[:k], tables[k:], threshold)

    def test_expansion_over_wide_masks_and_seed_only_tokens(self):
        # seed tables carry up to 3 tokens no pool table has; some have no other
        rng = random.Random(6464)
        wide = 0
        for _ in range(200):
            tables = wide_corpus(rng, rng.randrange(1, 30))
            wide += len(frozenset().union(*(t.tokens for t in tables))) > 64
            k = rng.randrange(0, len(tables) + 1)
            seed = [
                sig(t.table_id, *(t.tokens if rng.random() < 0.9 else ()),
                    *(f"only{t.table_id}-{j}" for j in range(rng.randrange(0, 4))))
                for t in tables[:k]
            ]
            threshold = rng.choice(BOUNDARY_THRESHOLDS + (rng.uniform(0.05, 0.95),))
            assert_expansion_matches_fixpoint(seed, tables[k:], threshold)
        assert wide > 150

    def test_split_assignments(self, monkeypatch):
        rng = random.Random(1337)
        cases = []
        for _ in range(150):
            tables = differential_corpus(rng, rng.randrange(3, 50))
            config = SplitConfig(
                threshold=rng.choice(BOUNDARY_THRESHOLDS),
                test_seed_fraction=0.2,
                dev_seed_fraction=0.2,
                seed=rng.randrange(1000),
            )
            cases.append((tables, config))

        def outcome(tables, config):
            try:
                return split(tables, config)
            except DegenerateSplitError as exc:
                return str(exc)

        got = [outcome(*case) for case in cases]
        monkeypatch.setattr(splits, "expand_by_similarity", fixpoint_expand)
        assert got == [outcome(*case) for case in cases]


def chain_corpus(rng: random.Random, chains: int, length: int) -> list[TableSignature]:
    """Six-token signatures over 30 words on chains whose neighbours share five.

    Two six-token sets are above 0.5 exactly when they share five tokens;
    a table is kept only if it shares five with no table but its predecessor,
    so every chain is one similarity component. Ids run along each chain.
    """
    vocab = [f"w{i}" for i in range(30)]
    used: set[frozenset[str]] = set()

    def fives(tokens):
        return {tokens - {t} for t in tokens}

    out = []
    for c in range(chains):
        tokens = None
        for pos in range(length):
            while True:
                if tokens is None:
                    candidate, own = frozenset(rng.sample(vocab, 6)), set()
                else:
                    fresh = rng.choice([w for w in vocab if w not in tokens])
                    candidate = tokens - {rng.choice(sorted(tokens))} | {fresh}
                    own = fives(tokens)
                if not (fives(candidate) - own) & used:
                    break
            used |= fives(candidate)
            tokens = candidate
            out.append(TableSignature(table_id=f"c{c:03d}-{pos}", tokens=tokens))
    return out


def test_dense_chains_do_not_compare_every_pair(monkeypatch):
    # The fixpoint makes about 1.39M jaccard calls here and a single
    # all-pairs pass n^2/2 = 320k; the prefix index verifies 123,398 pairs,
    # each with one call of the bitmask check.
    tables = chain_corpus(random.Random(0), chains=100, length=8)
    n = len(tables)
    calls = 0
    check = splits._mask_jaccard

    def counted(a, b):
        nonlocal calls
        calls += 1
        return check(a, b)

    monkeypatch.setattr(splits, "_mask_jaccard", counted)
    assignment = split(tables, SplitConfig(seed=0))
    for c in range(100):
        assert len({assignment[f"c{c:03d}-{pos}"] for pos in range(8)}) == 1
    assert 1 <= calls < n * n / 4


def distinct_corpus(n: int) -> list[TableSignature]:
    # pairwise-disjoint token sets, so no propagation can occur
    return [sig(f"t{i:03d}", f"tok{i}a", f"tok{i}b") for i in range(n)]


class TestSplit:
    def test_disjoint_tokens_give_seed_sized_splits(self):
        tables = distinct_corpus(20)
        config = SplitConfig(test_seed_fraction=0.25, dev_seed_fraction=0.25, seed=3)
        assignment = split(tables, config)
        counts = {name: 0 for name in SplitName}
        for name in assignment.values():
            counts[name] += 1
        assert counts[SplitName.TEST] == 5
        assert counts[SplitName.DEV] == 5
        assert counts[SplitName.TRAIN] == 10

    def test_every_table_assigned_once(self):
        tables = distinct_corpus(9)
        assignment = split(tables, SplitConfig(seed=1, test_seed_fraction=0.34,
                                               dev_seed_fraction=0.34))
        assert set(assignment) == {t.table_id for t in tables}

    def test_three_identical_tables_collapse_and_degenerate(self):
        tables = [sig("a", "x", "y"), sig("b", "x", "y"), sig("c", "x", "y")]
        with pytest.raises(DegenerateSplitError):
            split(tables, SplitConfig(test_seed_fraction=0.34, dev_seed_fraction=0.34,
                                      seed=5))

    def test_identical_trio_lands_in_one_split(self):
        trio = [sig(f"dup{i}", "same", "tokens", "here") for i in range(3)]
        tables = trio + distinct_corpus(12)
        assignment = split(
            tables, SplitConfig(test_seed_fraction=0.2, dev_seed_fraction=0.2, seed=11)
        )
        names = {assignment[s.table_id] for s in trio}
        assert len(names) == 1

    def test_requires_three_tables(self):
        with pytest.raises(DegenerateSplitError, match="^need at least 3 tables, got 2$"):
            split(distinct_corpus(2), SplitConfig(seed=1))

    def test_duplicate_ids_rejected(self):
        tables = [sig("a", "x"), sig("a", "y"), sig("b", "z")]
        with pytest.raises(ValueError):
            split(tables, SplitConfig(seed=1))

    def test_determinism_and_permutation_invariance(self):
        rng = random.Random(17)
        tables = random_corpus(rng, 60)
        config = SplitConfig(test_seed_fraction=0.2, dev_seed_fraction=0.15, seed=99)
        first = split(tables, config)
        second = split(tables, config)
        assert first == second
        shuffled = tables[:]
        rng.shuffle(shuffled)
        assert split(shuffled, config) == first

    def test_guarantee_bruteforce(self):
        rng = random.Random(2718)
        for _ in range(12):
            tables = random_corpus(rng, rng.randrange(10, 60))
            config = SplitConfig(test_seed_fraction=0.2, dev_seed_fraction=0.2, seed=7)
            try:
                assignment = split(tables, config)
            except DegenerateSplitError:
                continue
            assert_no_cross_split_similarity(tables, assignment, config.threshold)

    def test_threshold_monotonicity(self):
        rng = random.Random(606)
        for _ in range(10):
            tables = random_corpus(rng, 40)
            sizes = []
            for threshold in (0.3, 0.5, 0.7):
                config = SplitConfig(
                    threshold=threshold,
                    test_seed_fraction=0.2,
                    dev_seed_fraction=0.2,
                    seed=4,
                )
                try:
                    assignment = split(tables, config)
                except DegenerateSplitError:
                    sizes.append(None)
                    continue
                sizes.append(
                    sum(1 for v in assignment.values() if v is SplitName.TEST)
                )
            known = [s for s in sizes if s is not None]
            assert known == sorted(known, reverse=True)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SplitConfig(threshold=0.0)
        with pytest.raises(ValueError):
            SplitConfig(test_seed_fraction=0.0)
        with pytest.raises(ValueError):
            SplitConfig(test_seed_fraction=0.6, dev_seed_fraction=0.6)


def random_corpus(rng: random.Random, n: int) -> list[TableSignature]:
    """Token sets drawn from a small alphabet so similarity chains occur."""
    alphabet = [f"w{i}" for i in range(30)]
    out = []
    for i in range(n):
        k = rng.randrange(2, 8)
        out.append(sig(f"t{i:03d}", *rng.sample(alphabet, k)))
    return out


def assert_no_cross_split_similarity(tables, assignment, threshold):
    by_id = {t.table_id: t for t in tables}
    ids = sorted(assignment)
    for i, a in enumerate(ids):
        for b in ids[i + 1 :]:
            sa, sb = assignment[a], assignment[b]
            if sa == sb:
                continue
            pair = {sa, sb}
            # test must stay dissimilar from both others; dev from train
            if SplitName.TEST in pair or pair == {SplitName.DEV, SplitName.TRAIN}:
                j = jaccard(by_id[a], by_id[b])
                assert j <= threshold, (a, b, j, sa, sb)
