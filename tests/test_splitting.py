import math
import random

import pytest

from ddimine.corpus import AbstractColumns, TokenizedAbstract
from ddimine.errors import ValidationError
from ddimine.features import build_count_matrix
from ddimine.labeling import InteractionSample
from ddimine.splitting import (
    SPLITS,
    encode_assignment,
    incidence,
    leakage_report,
    load_assignment,
    split_corpus,
)
from helpers import alg1_assign_oracle, leakage_oracle, save, vocab_of


def make_abstract(aid, mentions):
    return TokenizedAbstract(aid, ("tok",), frozenset(mentions))


def make_sample(c, o, label=0):
    return InteractionSample(c, o, label)


def ids(abstracts):
    return [ab.id for ab in abstracts]


def assign(assignment, abstracts, samples):
    """Each sample's abstract ids, read off the incidence (``assignment=None``: the naive one)."""
    corpus = AbstractColumns.of(abstracts)
    A, order = incidence(corpus, samples, assignment)
    return [{corpus.ids[order[j]] for j in A[i].indices} for i in range(len(samples))]


def report(assignment, abstracts, samples, isolated=True):
    A, _ = incidence(AbstractColumns.of(abstracts), samples, assignment if isolated else None)
    return leakage_report(assignment, samples, A)


def random_corpus(rng: random.Random, n_abstracts: int, n_samples: int):
    drugs = [f"d{i}" for i in range(12)]
    cardiac = drugs[:4]
    abstracts = [
        make_abstract(f"a{i}", rng.sample(drugs, rng.randint(0, 3))) for i in range(n_abstracts)
    ]
    seen = set()
    samples = []
    while len(samples) < n_samples and len(seen) < 4 * 8:
        c = rng.choice(cardiac)
        o = rng.choice(drugs[4:])
        if (c, o) not in seen:
            seen.add((c, o))
            samples.append(make_sample(c, o))
    return abstracts, samples


class TestSplitCorpus:
    def test_sizes_within_one_of_shares(self):
        abstracts, samples = random_corpus(random.Random(0), 10, 10)
        assignment = split_corpus(ids(abstracts), samples, (0.64, 0.16, 0.20), seed=7)
        counts = {s: 0 for s in SPLITS}
        for split in assignment.abstract_split.values():
            counts[split] += 1
        # rounding rule by hand: train ceil(6.4)=7, dev ceil(1.6)=2, rest 1
        assert counts == {"train": 7, "dev": 2, "test": 1}
        for share, split in zip((6.4, 1.6, 2.0), SPLITS):
            assert abs(counts[split] - share) <= 1.0

    def test_partition_size_invariant(self):
        rng = random.Random(3)
        for _ in range(40):
            n = rng.randint(1, 60)
            abstracts = [make_abstract(f"a{i}", []) for i in range(n)]
            samples = [make_sample("c", f"o{i}") for i in range(rng.randint(1, 40))]
            r1 = rng.random()
            r2 = rng.random() * (1 - r1)
            ratios = (r1, r2, 1 - r1 - r2)
            assignment = split_corpus(ids(abstracts), samples, ratios, seed=rng.randint(0, 999))
            for mapping, total in ((assignment.abstract_split, n), (assignment.sample_split, len(samples))):
                counts = {s: 0 for s in SPLITS}
                for split in mapping.values():
                    counts[split] += 1
                assert sum(counts.values()) == total
                for ratio, split in zip(ratios, SPLITS):
                    assert abs(counts[split] - math.floor(ratio * total)) <= 1

    def test_deterministic_per_seed(self):
        abstracts, samples = random_corpus(random.Random(1), 25, 20)
        a = split_corpus(ids(abstracts), samples, seed=5)
        b = split_corpus(ids(abstracts), samples, seed=5)
        assert a.abstract_split == b.abstract_split
        assert a.sample_split == b.sample_split
        c = split_corpus(ids(abstracts), samples, seed=6)
        assert c.abstract_split != a.abstract_split or c.sample_split != a.sample_split

    def test_degenerate_ratios_all_train(self):
        abstracts, samples = random_corpus(random.Random(2), 8, 6)
        assignment = split_corpus(ids(abstracts), samples, (1.0, 0.0, 0.0), seed=0)
        assert set(assignment.abstract_split.values()) == {"train"}
        assert set(assignment.sample_split.values()) == {"train"}

    def test_empty_inputs_rejected(self):
        abstracts, samples = random_corpus(random.Random(4), 5, 5)
        with pytest.raises(ValidationError):
            split_corpus([], samples, seed=0)
        with pytest.raises(ValidationError):
            split_corpus(ids(abstracts), [], seed=0)

    def test_bad_ratios_rejected(self):
        abstracts, samples = random_corpus(random.Random(5), 5, 5)
        with pytest.raises(ValidationError):
            split_corpus(ids(abstracts), samples, (0.5, 0.4, 0.2), seed=0)
        with pytest.raises(ValidationError):
            split_corpus(ids(abstracts), samples, (0.9, -0.1, 0.2), seed=0)


class TestAssignAbstracts:
    def test_same_split_mention_assigned(self):
        # a train sample and a train abstract mentioning one of its drugs
        abstracts = [make_abstract("fig1", {"furosemide", "bumetanide"})]
        samples = [make_sample("furosemide", "bumetanide", label=1)]
        assignment = split_corpus(ids(abstracts), samples, (1.0, 0.0, 0.0), seed=0)
        assert assign(assignment, abstracts, samples) == [{"fig1"}]
        A, _ = incidence(AbstractColumns.of(abstracts), samples, assignment)
        assert A.data.tolist() == [1.0]  # binary, though the abstract mentions both drugs

    def test_cross_split_mention_not_assigned(self):
        abstracts = [make_abstract("fig1", {"furosemide", "bumetanide"})]
        samples = [make_sample("furosemide", "bumetanide", label=1)]
        assignment = split_corpus(ids(abstracts), samples, (1.0, 0.0, 0.0), seed=0)
        assignment.abstract_split["fig1"] = "test"  # force the abstract across
        assert assign(assignment, abstracts, samples) == [set()]

    def test_matches_triple_loop_oracle(self):
        rng = random.Random(11)
        for trial in range(30):
            abstracts, samples = random_corpus(rng, rng.randint(1, 50), rng.randint(1, 50))
            assignment = split_corpus(ids(abstracts), samples, seed=trial)
            assert assign(assignment, abstracts, samples) == alg1_assign_oracle(assignment, abstracts, samples)

    def test_incidence_equals_the_oracle_with_unmentioned_drugs_and_unused_abstracts(self):
        rng = random.Random(12)
        for trial in range(40):
            # drugs d12.. are in samples only, x0.. in abstracts only; ids unsorted, some with spaces
            drugs = [f"d{i}" for i in range(16)] + [f"x{i}" for i in range(3)]
            abstracts = [
                make_abstract(f"{rng.randint(0, 999)} a{i}", rng.sample(drugs[:12] + drugs[16:], rng.randint(0, 3)))
                for i in range(rng.randint(1, 40))
            ]
            pairs = {(rng.choice(drugs[:4]), rng.choice(drugs[4:16])) for _ in range(rng.randint(1, 40))}
            samples = [make_sample(c, o) for c, o in sorted(pairs)]
            assignment = split_corpus(ids(abstracts), samples, seed=trial)
            corpus = AbstractColumns.of(abstracts)
            A, order = incidence(corpus, samples, assignment)
            columns = [corpus.ids[i] for i in order]
            assert columns == sorted(corpus.ids) and A.has_sorted_indices and set(A.data) <= {1.0}
            expected = alg1_assign_oracle(assignment, abstracts, samples)
            assert [{columns[j] for j in A[i].indices} for i in range(len(samples))] == expected
            everyone = split_corpus(ids(abstracts), samples, (1.0, 0.0, 0.0), seed=trial)
            assert assign(None, abstracts, samples) == alg1_assign_oracle(everyone, abstracts, samples)
            # drop_empty keeps exactly the samples the oracle attaches some abstract to
            vocab = vocab_of(ab.tokens for ab in abstracts)
            m, _ = build_count_matrix(samples, A, corpus.counts[order], corpus.words, vocab, drop_empty=True)
            assert m.keys == [s.key for s, found in zip(samples, expected) if found]

    def test_samples_may_share_abstract_within_split(self):
        abstracts = [make_abstract("shared", {"c1"})]
        samples = [make_sample("c1", "o1"), make_sample("c1", "o2")]
        assignment = split_corpus(ids(abstracts), samples, (1.0, 0.0, 0.0), seed=0)
        assert assign(assignment, abstracts, samples) == [{"shared"}, {"shared"}]

    def test_missing_assignment_rejected(self):
        abstracts = [make_abstract("a1", {"c1"})]
        samples = [make_sample("c1", "o1")]
        assignment = split_corpus(ids(abstracts), samples, seed=0)
        del assignment.abstract_split["a1"]
        with pytest.raises(ValidationError, match="abstract 'a1' missing from the split assignment"):
            assign(assignment, abstracts, samples)


def adversarial_fixture():
    """One abstract mentions drugs from two samples that land in different splits."""
    abstracts = [make_abstract("bridge", {"c1", "c2"})] + [
        make_abstract(f"pad{i}", set()) for i in range(8)
    ]
    samples = [make_sample("c1", "o1"), make_sample("c2", "o2")]
    assignment = split_corpus(ids(abstracts), samples, (0.5, 0.0, 0.5), seed=0)
    # pin the samples to opposite splits; the abstract set stays as shuffled
    assignment.sample_split[samples[0].key] = "train"
    assignment.sample_split[samples[1].key] = "test"
    return abstracts, samples, assignment


class TestLeakage:
    def test_isolated_assignment_has_zero_sharing(self):
        rng = random.Random(21)
        for trial in range(25):
            abstracts, samples = random_corpus(rng, rng.randint(2, 40), rng.randint(2, 40))
            assignment = split_corpus(ids(abstracts), samples, seed=trial)
            assert report(assignment, abstracts, samples).total_cross_split == 0

    def test_counts_equal_the_loop_oracle(self):
        rng = random.Random(22)
        for trial in range(25):
            abstracts, samples = random_corpus(rng, rng.randint(2, 40), rng.randint(2, 40))
            assignment = split_corpus(ids(abstracts), samples, seed=trial)
            for isolated in (True, False):
                attached = assign(assignment if isolated else None, abstracts, samples)
                expected = leakage_oracle(assignment, samples, attached)
                assert report(assignment, abstracts, samples, isolated) == expected

    def test_adversarial_naive_leaks(self):
        abstracts, samples, assignment = adversarial_fixture()
        assert report(assignment, abstracts, samples).total_cross_split == 0
        assert report(assignment, abstracts, samples, isolated=False).total_cross_split >= 1

    def test_empty_sample_counts(self):
        abstracts = [make_abstract("a1", {"c1"})]
        samples = [make_sample("c1", "o1"), make_sample("c9", "o9")]
        assignment = split_corpus(ids(abstracts), samples, (1.0, 0.0, 0.0), seed=0)
        counts = report(assignment, abstracts, samples)
        assert counts.empty_samples["train"] == 1
        assert counts.sample_counts["train"] == 2

    def test_render_mentions_counts(self):
        abstracts, samples, assignment = adversarial_fixture()
        text = report(assignment, abstracts, samples).render()
        assert "cross-split shared abstracts:" in text
        assert "train/test\t0" in text


class TestAssignmentFile:
    def test_roundtrip_and_byte_identical(self, tmp_path):
        abstracts, samples = random_corpus(random.Random(31), 20, 15)
        assignment = split_corpus(ids(abstracts), samples, seed=9)
        p1, p2 = tmp_path / "a1.tsv", tmp_path / "a2.tsv"
        save(p1, encode_assignment(assignment))
        save(p2, encode_assignment(split_corpus(ids(abstracts), samples, seed=9)))
        assert p1.read_bytes() == p2.read_bytes()
        loaded, header = load_assignment(p1)
        assert loaded.abstract_split == assignment.abstract_split
        assert loaded.sample_split == assignment.sample_split
        assert loaded.seed == 9
        assert loaded.ratios == assignment.ratios

    def test_different_seed_different_bytes(self, tmp_path):
        abstracts, samples = random_corpus(random.Random(32), 20, 15)
        p1, p2 = tmp_path / "a1.tsv", tmp_path / "a2.tsv"
        save(p1, encode_assignment(split_corpus(ids(abstracts), samples, seed=1)))
        save(p2, encode_assignment(split_corpus(ids(abstracts), samples, seed=2)))
        assert p1.read_bytes() != p2.read_bytes()
