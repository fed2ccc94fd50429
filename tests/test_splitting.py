import math
import random

import numpy as np
import pytest

from ddimine.errors import ValidationError
from ddimine.features import build_count_matrix
from ddimine.labeling import InteractionSample
from ddimine.splitting import (
    DEFAULT_RATIOS,
    SPLITS,
    encode_assignment,
    incidence,
    leakage_report,
    load_assignment,
    row_codes,
    split_corpus,
)
from helpers import (
    KeptAbstract, alg1_assign_oracle, assignment_oracle, corpus_of, leakage_oracle, named, save, split_oracle, vocab_of,
)


def make_abstract(aid, mentions):
    return KeptAbstract(aid, ("tok",), frozenset(mentions))


def make_sample(c, o, label=0):
    return InteractionSample(c, o, label)


def ids(abstracts):
    return [ab.id for ab in abstracts]


def split_of(abstracts, samples, ratios=DEFAULT_RATIOS, seed=0):
    return split_corpus(len(abstracts), len(samples), ratios, seed)


def assign(split, abstracts, samples):
    """Each sample's abstract ids, read off the incidence (``split=None``: the naive one)."""
    corpus = corpus_of(abstracts)
    A, order = incidence(corpus, samples, split)
    return [{corpus.ids[order[j]] for j in A[i].indices} for i in range(len(samples))]


def report(split, abstracts, samples, isolated=True):
    A, _ = incidence(corpus_of(abstracts), samples, split if isolated else None)
    return leakage_report(split, A)


def counts_of(codes) -> dict[str, int]:
    return dict(zip(SPLITS, np.bincount(codes, minlength=len(SPLITS)).tolist()))


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
        abstract_split, _ = split_of(abstracts, samples, (0.64, 0.16, 0.20), seed=7)
        counts = counts_of(abstract_split)
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
            split = split_of(abstracts, samples, ratios, seed=rng.randint(0, 999))
            for codes, total in zip(split, (n, len(samples))):
                counts = counts_of(codes)
                assert len(codes) == total and sum(counts.values()) == total
                for ratio, split in zip(ratios, SPLITS):
                    assert abs(counts[split] - math.floor(ratio * total)) <= 1

    def test_deterministic_per_seed(self):
        abstracts, samples = random_corpus(random.Random(1), 25, 20)
        a = split_of(abstracts, samples, seed=5)
        b = split_of(abstracts, samples, seed=5)
        assert a[0].tolist() == b[0].tolist()
        assert a[1].tolist() == b[1].tolist()
        c = split_of(abstracts, samples, seed=6)
        assert c[0].tolist() != a[0].tolist() or c[1].tolist() != a[1].tolist()

    def test_degenerate_ratios_all_train(self):
        abstracts, samples = random_corpus(random.Random(2), 8, 6)
        abstract_split, sample_split = split_of(abstracts, samples, (1.0, 0.0, 0.0))
        assert {SPLITS[code] for code in abstract_split.tolist()} == {"train"}
        assert {SPLITS[code] for code in sample_split.tolist()} == {"train"}

    def test_empty_inputs_rejected(self):
        abstracts, samples = random_corpus(random.Random(4), 5, 5)
        with pytest.raises(ValidationError):
            split_of([], samples)
        with pytest.raises(ValidationError):
            split_of(abstracts, [])

    def test_bad_ratios_rejected(self):
        abstracts, samples = random_corpus(random.Random(5), 5, 5)
        with pytest.raises(ValidationError):
            split_of(abstracts, samples, (0.5, 0.4, 0.2))
        with pytest.raises(ValidationError):
            split_of(abstracts, samples, (0.9, -0.1, 0.2))

    def test_codes_and_file_equal_the_split_keyed_by_name(self, tmp_path):
        rng = random.Random(41)
        degenerate = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (0.5, 0.5, 0.0), (0.0, 0.3, 0.7)]
        for trial in range(60):
            n_abstracts, n_samples = rng.randint(1, 70), rng.randint(1, 70)
            # ids unsorted and of mixed lengths, so that sorting by name differs from row order
            abstract_ids = rng.sample([f"{rng.randint(0, 10**rng.randint(1, 9))} a{i}" for i in range(n_abstracts)],
                                      n_abstracts)
            samples = [make_sample(f"c{rng.randint(0, 99)}", f"o{i}") for i in range(n_samples)]
            r1 = rng.random()
            r2 = rng.random() * (1 - r1)
            ratios = degenerate[trial % 5] if trial % 2 else (r1, r2, 1 - r1 - r2)
            seed = rng.randint(0, 10**6)
            split = split_corpus(n_abstracts, n_samples, ratios, seed)
            expected = split_oracle(abstract_ids, [s.key for s in samples], ratios, seed)
            assert named(split, abstract_ids, samples) == expected
            save(tmp_path / "codes.tsv", encode_assignment(split, abstract_ids, samples, seed, ratios))
            save(tmp_path / "names.tsv", assignment_oracle(expected, seed, ratios))
            assert (tmp_path / "codes.tsv").read_bytes() == (tmp_path / "names.tsv").read_bytes()


class TestAssignAbstracts:
    def test_same_split_mention_assigned(self):
        # a train sample and a train abstract mentioning one of its drugs
        abstracts = [make_abstract("fig1", {"furosemide", "bumetanide"})]
        samples = [make_sample("furosemide", "bumetanide", label=1)]
        split = split_of(abstracts, samples, (1.0, 0.0, 0.0))
        assert assign(split, abstracts, samples) == [{"fig1"}]
        A, _ = incidence(corpus_of(abstracts), samples, split)
        assert A.data.tolist() == [1.0]  # binary, though the abstract mentions both drugs

    def test_cross_split_mention_not_assigned(self):
        abstracts = [make_abstract("fig1", {"furosemide", "bumetanide"})]
        samples = [make_sample("furosemide", "bumetanide", label=1)]
        split = split_of(abstracts, samples, (1.0, 0.0, 0.0))
        split[0][0] = SPLITS.index("test")  # force the abstract across
        assert assign(split, abstracts, samples) == [set()]

    def test_matches_triple_loop_oracle(self):
        rng = random.Random(11)
        for trial in range(30):
            abstracts, samples = random_corpus(rng, rng.randint(1, 50), rng.randint(1, 50))
            split = split_of(abstracts, samples, seed=trial)
            expected = alg1_assign_oracle(named(split, ids(abstracts), samples), abstracts, samples)
            assert assign(split, abstracts, samples) == expected

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
            split = split_of(abstracts, samples, seed=trial)
            corpus = corpus_of(abstracts)
            A, order = incidence(corpus, samples, split)
            columns = [corpus.ids[i] for i in order]
            assert columns == sorted(corpus.ids) and A.has_sorted_indices and set(A.data) <= {1.0}
            expected = alg1_assign_oracle(named(split, ids(abstracts), samples), abstracts, samples)
            assert [{columns[j] for j in A[i].indices} for i in range(len(samples))] == expected
            everyone = named(split_of(abstracts, samples, (1.0, 0.0, 0.0), seed=trial), ids(abstracts), samples)
            assert assign(None, abstracts, samples) == alg1_assign_oracle(everyone, abstracts, samples)
            # drop_empty keeps exactly the samples the oracle attaches some abstract to
            vocab = vocab_of(ab.tokens for ab in abstracts)
            m, _ = build_count_matrix(samples, A, corpus.counts[order], corpus.words, vocab, drop_empty=True)
            assert m.keys == [s.key for s, found in zip(samples, expected) if found]

    def test_samples_may_share_abstract_within_split(self):
        abstracts = [make_abstract("shared", {"c1"})]
        samples = [make_sample("c1", "o1"), make_sample("c1", "o2")]
        split = split_of(abstracts, samples, (1.0, 0.0, 0.0))
        assert assign(split, abstracts, samples) == [{"shared"}, {"shared"}]

    def test_missing_assignment_rejected(self):
        abstracts = [make_abstract("a1", {"c1"}), make_abstract("a2", {"c1"})]
        samples = [make_sample("c1", "o1"), make_sample("c1", "o2")]
        loaded = {"abstract": {"a1": 0, "a2": 2}, "sample": {"c1|o1": 1, "c1|o2": 0}}
        assert [codes.tolist() for codes in row_codes(loaded, ["a2", "a1"], samples, "a.tsv")] == [[2, 0], [1, 0]]
        del loaded["abstract"]["a1"]
        with pytest.raises(ValidationError, match="^a.tsv: abstract 'a1' missing from the split assignment$"):
            row_codes(loaded, ids(abstracts), samples, "a.tsv")
        loaded["abstract"]["a1"] = 0
        del loaded["sample"]["c1|o2"]
        with pytest.raises(ValidationError, match=r"^a.tsv: sample 'c1\|o2' missing from the split assignment$"):
            row_codes(loaded, ids(abstracts), samples, "a.tsv")


def adversarial_fixture():
    """One abstract mentions drugs from two samples that land in different splits."""
    abstracts = [make_abstract("bridge", {"c1", "c2"})] + [
        make_abstract(f"pad{i}", set()) for i in range(8)
    ]
    samples = [make_sample("c1", "o1"), make_sample("c2", "o2")]
    split = split_of(abstracts, samples, (0.5, 0.0, 0.5))
    # pin the samples to opposite splits; the abstract set stays as shuffled
    split[1][:] = SPLITS.index("train"), SPLITS.index("test")
    return abstracts, samples, split


class TestLeakage:
    def test_isolated_assignment_has_zero_sharing(self):
        rng = random.Random(21)
        for trial in range(25):
            abstracts, samples = random_corpus(rng, rng.randint(2, 40), rng.randint(2, 40))
            split = split_of(abstracts, samples, seed=trial)
            assert report(split, abstracts, samples).total_cross_split == 0

    def test_counts_equal_the_loop_oracle(self):
        rng = random.Random(22)
        for trial in range(25):
            abstracts, samples = random_corpus(rng, rng.randint(2, 40), rng.randint(2, 40))
            split = split_of(abstracts, samples, seed=trial)
            for isolated in (True, False):
                attached = assign(split if isolated else None, abstracts, samples)
                expected = leakage_oracle(named(split, ids(abstracts), samples), samples, attached)
                assert report(split, abstracts, samples, isolated) == expected

    def test_adversarial_naive_leaks(self):
        abstracts, samples, split = adversarial_fixture()
        assert report(split, abstracts, samples).total_cross_split == 0
        assert report(split, abstracts, samples, isolated=False).total_cross_split >= 1

    def test_empty_sample_counts(self):
        abstracts = [make_abstract("a1", {"c1"})]
        samples = [make_sample("c1", "o1"), make_sample("c9", "o9")]
        split = split_of(abstracts, samples, (1.0, 0.0, 0.0))
        counts = report(split, abstracts, samples)
        assert counts.empty_samples["train"] == 1
        assert counts.sample_counts["train"] == 2

    def test_render_mentions_counts(self):
        abstracts, samples, split = adversarial_fixture()
        text = report(split, abstracts, samples).render()
        assert "cross-split shared abstracts:" in text
        assert "train/test\t0" in text


class TestAssignmentFile:
    def test_roundtrip_and_byte_identical(self, tmp_path):
        abstracts, samples = random_corpus(random.Random(31), 20, 15)
        split = split_of(abstracts, samples, seed=9)
        p1, p2 = tmp_path / "a1.tsv", tmp_path / "a2.tsv"
        save(p1, encode_assignment(split, ids(abstracts), samples, 9, DEFAULT_RATIOS))
        save(p2, encode_assignment(split_of(abstracts, samples, seed=9), ids(abstracts), samples, 9, DEFAULT_RATIOS))
        assert p1.read_bytes() == p2.read_bytes()
        loaded, header = load_assignment(p1)
        codes = row_codes(loaded, ids(abstracts), samples, p1)
        assert codes[0].tolist() == split[0].tolist()
        assert codes[1].tolist() == split[1].tolist()
        assert header["seed"] == "9"
        assert header["ratios"] == "0.64 0.16 0.2"

    def test_different_seed_different_bytes(self, tmp_path):
        abstracts, samples = random_corpus(random.Random(32), 20, 15)
        p1, p2 = tmp_path / "a1.tsv", tmp_path / "a2.tsv"
        save(p1, encode_assignment(split_of(abstracts, samples, seed=1), ids(abstracts), samples, 1, DEFAULT_RATIOS))
        save(p2, encode_assignment(split_of(abstracts, samples, seed=2), ids(abstracts), samples, 2, DEFAULT_RATIOS))
        assert p1.read_bytes() != p2.read_bytes()
