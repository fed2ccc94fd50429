import io
import os
import random
import re
import subprocess
import sys
import tempfile
import warnings
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from ddimine import artifacts, csr
from ddimine.cli import main
from ddimine.corpus import (
    corpus_stats, default_stopwords, encode_abstracts, load_abstracts, load_stopwords,
)
from ddimine.errors import ValidationError
from ddimine.features import (
    FeatureMatrix,
    build_vocab,
    encode_matrix,
    encode_vocab,
    load_embeddings,
    load_matrix,
    undersample,
)
from helpers import (
    AttachedSample, KeptAbstract, build_matrix, column_of, corpus_of, corpus_stats_oracle, count_vector, csr_of,
    dense_matrix, embed_abstract, embed_sample, full_rows, incidence_of, load_corpus_oracle, load_matrix_oracle,
    load_vocab, mask_of, same_corpus, save, table_columns, vocab_of, vocab_oracle,
)


def toka(aid, tokens, mentions=()):
    return KeptAbstract(aid, tuple(tokens), frozenset(mentions))


def sample_with(ids, c="c1", o="o1", label=0):
    return AttachedSample(c, o, label, None, frozenset(ids))


def tokens_of(abstracts):
    return [ab.tokens for ab in abstracts]


class TestBuildVocab:
    def test_tie_rule(self):
        # frequencies a:2 b:2 c:1; ties lexicographic -> ["a", "b"]
        vocab = vocab_of([["a", "a", "b"], ("b", "c")], top_k=2)
        assert vocab == [("a", 2), ("b", 2)]

    def test_top_k_zero(self):
        vocab = vocab_of([["a"]], top_k=0)
        assert len(vocab) == 0

    def test_unlimited(self):
        vocab = vocab_of([["z", "y", "y"]], top_k=None)
        assert vocab == [("y", 2), ("z", 1)]

    def test_empty_corpus(self):
        assert len(vocab_of([], top_k=5)) == 0

    def test_negative_top_k_rejected(self):
        with pytest.raises(ValidationError):
            vocab_of([], top_k=-1)

    def test_roundtrip(self, tmp_path):
        vocab = vocab_of([["b", "a", "b"]])
        save(tmp_path / "v.tsv", encode_vocab(vocab))
        assert load_vocab(tmp_path / "v.tsv") == vocab


class TestCountVector:
    def test_empty_abstract_set_zero_vector(self):
        vocab = vocab_of([["dose"]])
        vec = count_vector(sample_with([]), {}, vocab)
        assert vec.entries == {} and vec.dims == 1

    def test_direct_count(self):
        abstracts = {"a1": toka("a1", ["dose", "dose", "response"])}
        vocab = vocab_of(tokens_of(abstracts.values()))
        vec = count_vector(sample_with(["a1"]), abstracts, vocab)
        assert vec.entries == {column_of(vocab)["dose"]: 2, column_of(vocab)["response"]: 1}

    def test_out_of_vocab_ignored(self):
        abstracts = {"a1": toka("a1", ["dose", "rare"])}
        vocab = vocab_of([["dose"]])
        vec = count_vector(sample_with(["a1"]), abstracts, vocab)
        assert vec.entries == {0: 1}

    def test_dangling_abstract_id(self):
        vocab = vocab_of([["dose"]])
        with pytest.raises(ValidationError, match="unknown abstract"):
            count_vector(sample_with(["ghost"]), {}, vocab)

    def test_additivity(self):
        rng = random.Random(7)
        words = [f"w{i}" for i in range(30)]
        for _ in range(25):
            abstracts = {
                aid: toka(aid, [rng.choice(words) for _ in range(rng.randint(0, 40))])
                for aid in ("a1", "a2")
            }
            vocab = vocab_of(tokens_of(abstracts.values()), top_k=20)
            both = count_vector(sample_with(["a1", "a2"]), abstracts, vocab)
            first = count_vector(sample_with(["a1"]), abstracts, vocab)
            second = count_vector(sample_with(["a2"]), abstracts, vocab)
            merged = dict(first.entries)
            for col, val in second.entries.items():
                merged[col] = merged.get(col, 0) + val
            assert both.entries == merged
            # values are nonnegative integers; L1 norm = in-vocab occurrences
            assert all(v == int(v) and v > 0 for v in both.entries.values())
            in_vocab = sum(
                1
                for aid in ("a1", "a2")
                for t in abstracts[aid].tokens
                if t in column_of(vocab)
            )
            assert sum(both.entries.values()) == in_vocab


class TestEmbeddings:
    def table(self):
        return {"x": np.array([1.0, 0.0]), "y": np.array([0.0, 2.0])}

    def test_load_and_width_validation(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("y 0.0 2.0\nx 1.0 0.0\n")
        words, V = load_embeddings(path, set())
        assert [words, V.tolist()] == [["x", "y"], [[1.0, 0.0], [0.0, 2.0]]]
        assert load_embeddings(path, {"x"})[0] == ["y"]
        for body, message in [
            ("x 1.0 0.0\ny 0.0\n", ":2: token 'y' has 1 components, expected 2"),
            ("x 1.0 0.0\n\ny 0.0 nan\n", ":3: token 'y' has a non-finite component"),
            ("x 1.0 -inf\n", ":1: token 'x' has a non-finite component"),
            ("x 1.0\nx 2.0\n", ":2: duplicate token 'x'"),
            ("x\n", ":1: token 'x' has no components"),
            ("x 1.0 one\n", ":1: bad vector component"),
        ]:
            path.write_text(body)
            with pytest.raises(ValidationError, match=re.escape(f"{path}{message}")):
                load_embeddings(path, set())

    def test_stopword_only_abstract(self):
        vec, misses = embed_abstract(toka("1", ["the", "and"]), self.table(), {"the", "and"})
        assert np.array_equal(vec, np.zeros(2))
        assert misses == 0

    def test_tf_weighted_sum(self):
        vec, misses = embed_abstract(toka("1", ["x", "x", "y"]), self.table(), set())
        assert np.array_equal(vec, np.array([2.0, 2.0]))
        assert misses == 0

    def test_misses_counted_distinct(self):
        vec, misses = embed_abstract(toka("1", ["x", "gone", "gone", "also"]), self.table(), set())
        assert misses == 2
        assert np.array_equal(vec, np.array([1.0, 0.0]))

    def test_token_order_invariance(self):
        rng = random.Random(3)
        tokens = ["x", "y", "x", "miss", "y", "y"]
        base, base_misses = embed_abstract(toka("1", tokens), self.table(), set())
        for _ in range(10):
            shuffled = tokens[:]
            rng.shuffle(shuffled)
            vec, misses = embed_abstract(toka("1", shuffled), self.table(), set())
            assert np.array_equal(vec, base) and misses == base_misses

    def test_sample_equals_brute_force_token_accumulation(self):
        rng = random.Random(5)
        table = {f"t{i}": np.array([rng.gauss(0, 1) for _ in range(4)]) for i in range(12)}
        stop = {"t0"}
        vocab_tokens = [f"t{i}" for i in range(15)]  # t12..t14 miss
        abstracts = {
            aid: toka(aid, [rng.choice(vocab_tokens) for _ in range(30)]) for aid in ("a1", "a2", "a3")
        }
        s = sample_with(["a1", "a2", "a3"])
        got, misses = embed_sample(s, abstracts, table, stop)

        # oracle: accumulate tf per abstract separately, then sum term by term
        expected = np.zeros(4)
        expected_misses = 0
        for aid in s.abstract_ids:
            tf = {}
            for t in abstracts[aid].tokens:
                if t not in stop:
                    tf[t] = tf.get(t, 0) + 1
            for t, count in tf.items():
                if t in table:
                    expected += count * table[t]
                else:
                    expected_misses += 1
        assert np.allclose(got, expected, atol=1e-12)
        assert misses == expected_misses

    def test_empty_sample_zero(self):
        vec, misses = embed_sample(sample_with([]), {}, self.table(), set())
        assert np.array_equal(vec, np.zeros(2)) and misses == 0

    def test_dangling_id(self):
        with pytest.raises(ValidationError):
            embed_sample(sample_with(["ghost"]), {}, self.table(), set())


class TestMatrixBuilders:
    def test_count_matrix_rows_in_sample_order(self):
        abstracts = {"a1": toka("a1", ["dose", "dose"]), "a2": toka("a2", ["response"])}
        vocab = vocab_of(tokens_of(abstracts.values()))
        samples = [
            sample_with(["a1"], c="c1", o="o1", label=1),
            sample_with(["a2"], c="c1", o="o2", label=0),
            sample_with([], c="c1", o="o3", label=0),
        ]
        m, misses = build_matrix(samples, *incidence_of(samples, abstracts), vocab)
        assert misses == 0
        assert m.keys == ["c1|o1", "c1|o2", "c1|o3"]
        assert m.X.toarray().tolist() == [[2.0, 0.0], [0.0, 1.0], [0.0, 0.0]]
        assert m.y.tolist() == [1, 0, 0]

    def test_drop_empty(self):
        abstracts = {"a1": toka("a1", ["dose"])}
        vocab = vocab_of(tokens_of(abstracts.values()))
        samples = [sample_with(["a1"]), sample_with([], o="o2")]
        m, _ = build_matrix(samples, *incidence_of(samples, abstracts), vocab, drop_empty=True)
        assert m.n_rows == 1

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_builders_equal_single_sample_oracles(self, data):
        rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
        words = [f"w{i}" for i in range(15)]
        abstracts = {
            f"a{i}": toka(f"a{i}", rng.choices(words, k=rng.randint(0, 25)))
            for i in range(data.draw(st.integers(0, 8)))
        }
        vocab = vocab_of(tokens_of(abstracts.values()), data.draw(st.none() | st.integers(0, 12)))
        # with signed zeros, some components are -0.0, and a word repeated in an abstract adds tf * -0.0
        signed_zeros = data.draw(st.booleans())
        table = {
            w: np.array([-0.0 if signed_zeros and rng.random() < 0.4 else rng.gauss(0, 1) for _ in range(3)])
            for w in words[:11]
        }
        stop = set(rng.sample(words, 3))
        samples = [
            sample_with(rng.sample(sorted(abstracts), rng.randint(0, len(abstracts))), o=f"o{j}", label=j % 2)
            for j in range(data.draw(st.integers(0, 10)))
        ]
        drop_empty = data.draw(st.booleans())
        kept = [s for s in samples if s.abstract_ids or not drop_empty]

        counts, _ = build_matrix(samples, *incidence_of(samples, abstracts), vocab, drop_empty)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "embeddings.txt"
            path.write_text("".join(f"{w} {' '.join(map(repr, v.tolist()))}\n" for w, v in table.items()))
            columns, V = load_embeddings(path, stop)
        table_words, table_V = table_columns(table, stop)
        assert columns == table_words and V.tobytes() == table_V.tobytes()  # -0.0 read back as -0.0
        embedded, misses = build_matrix(samples, *incidence_of(samples, abstracts), columns, drop_empty, V, stop)
        for m in (counts, embedded):
            assert m.keys == [s.key for s in kept]
            assert m.y.tolist() == [s.label for s in kept]
        assert counts.X.shape == (len(kept), len(vocab)) and embedded.X.shape == (len(kept), 3)
        assert counts.X.format == "csc" and counts.X.has_sorted_indices
        expected_misses = 0
        for i, s in enumerate(kept):
            entries = count_vector(s, abstracts, vocab).entries
            row = counts.X[i].tocsr()
            assert row.indices.tolist() == sorted(entries)  # no explicit zeros
            assert row.data.tolist() == [float(entries[c]) for c in sorted(entries)]
            vec, m = embed_sample(s, abstracts, table, stop)
            assert embedded.X[i].toarray().ravel().tobytes() == vec.tobytes()  # bit for bit
            expected_misses += m
        assert misses == expected_misses

        # a column no row references is dropped, and its counts are never read
        A, bags, words = incidence_of(samples, abstracts)
        padded = csr_of(sp.csr_matrix((A.data, 2 * A.indices + 1, A.indptr), shape=(A.shape[0], 2 * A.shape[1] + 1)))
        unread = sp.vstack([bags.scipy(), sp.csr_matrix(np.full((A.shape[1] + 1, len(words)), 9))]).tocsr()
        unread = csr_of(unread[np.argsort(np.r_[2 * np.arange(A.shape[1]) + 1, 2 * np.arange(A.shape[1] + 1)])])
        again = (
            build_matrix(samples, padded, unread, words, vocab, drop_empty)[0],
            build_matrix(samples, padded, unread, words, columns, drop_empty, V, stop)[0],
        )
        for m, other in zip((counts, embedded), again):
            for a, b in ((m.A, other.A), (m.parts, other.parts)):
                assert a.shape == b.shape and (a.scipy() != b.scipy()).nnz == 0

    def test_embedding_matrix(self):
        table = {"x": np.array([1.0, 0.0]), "y": np.array([0.0, 1.0]), "the": np.ones(2)}
        abstracts = {"a1": toka("a1", ["x", "y", "gone", "the", "and"])}
        samples = [sample_with(["a1"], label=1)]
        columns, V = table_columns(table, {"the", "and"})
        m, misses = build_matrix(samples, *incidence_of(samples, abstracts), columns, V=V, stopwords={"the", "and"})
        assert m.kind == "embeddings" and columns == ["x", "y"]
        assert m.X.toarray().tolist() == [[1.0, 1.0]]
        assert misses == 1  # "gone"; a stopword is no miss


# words as tokenize gives them: non-ASCII letters and inner hyphens too
CORPUS_WORDS = ["dose", "x-ray", "ünïcödé", "ω", "名前", "b-12", "heart", "a", "z", "ß"]


class TestKeptCorpusOracles:
    """The kept corpus as word-count records gives what its token lists give."""

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_statistics_vocabulary_and_rows_equal_the_token_oracles(self, data):
        n = data.draw(st.one_of(st.just(0), st.just(1), st.integers(2, 8)))  # empty, one abstract, several
        abstracts = [
            KeptAbstract(f"a {i}", tuple(data.draw(st.lists(st.sampled_from(CORPUS_WORDS), max_size=20))),
                         frozenset(data.draw(st.sets(st.sampled_from(["d1", "d2", "d3"]), min_size=1))))
            for i in range(n)
        ]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "cardiac.tsv"
            save(path, encode_abstracts(corpus_of(abstracts)), {"digest": "abc"})
            kept = load_abstracts(path)
            assert load_corpus_oracle(path)[0] == [
                KeptAbstract(ab.id, tuple(sorted(ab.tokens)), ab.drug_mentions) for ab in abstracts
            ]
        assert same_corpus(kept, corpus_of(abstracts))
        assert corpus_stats(kept) == corpus_stats_oracle(abstracts)

        tokens = [ab.tokens for ab in abstracts]
        ordered = vocab_oracle(tokens)
        ties = [k for k in range(1, len(ordered)) if ordered[k - 1][1] == ordered[k][1]]  # a k that cuts a tie
        stop = data.draw(st.sets(st.sampled_from(CORPUS_WORDS), max_size=3))
        for top_k in (None, 0, ties[0] if ties else 1):
            for dropped in (frozenset(), stop):
                got = build_vocab(kept.counts, kept.words, top_k, mask_of(kept.words, dropped))
                assert got == vocab_oracle(tokens, top_k, dropped)

        rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
        by_id = {ab.id: ab for ab in abstracts}
        samples = [
            sample_with(rng.sample(sorted(by_id), rng.randint(0, n)), o=f"o{j}") for j in range(rng.randint(0, 6))
        ]
        A = incidence_of(samples, by_id)[0]
        behind = sorted({aid for s in samples for aid in s.abstract_ids})  # A's columns
        counts = csr.rows(kept.counts, [kept.ids.index(aid) for aid in behind])
        table = {w: np.array([rng.gauss(0, 1) for _ in range(3)]) for w in rng.sample(CORPUS_WORDS, 6)}
        vocab = build_vocab(kept.counts, kept.words, ties[0] if ties else None)
        columns, V = table_columns(table, stop)
        matrix, _ = build_matrix(samples, A, counts, kept.words, vocab)
        embedded, misses = build_matrix(samples, A, counts, kept.words, columns, False, V, stop)
        for i, s in enumerate(samples):
            entries = count_vector(s, by_id, vocab).entries
            row = matrix.X[i].tocsr()
            assert row.indices.tolist() == sorted(entries)
            assert row.data.tolist() == [float(entries[c]) for c in sorted(entries)]
            assert embedded.X[i].toarray().ravel().tobytes() == embed_sample(s, by_id, table, stop)[0].tobytes()
        assert misses == sum(embed_sample(s, by_id, table, stop)[1] for s in samples)


class TestUndersample:
    def test_balances_and_keeps_minority(self):
        m = dense_matrix(np.arange(8).reshape(4, 2), [1, 0, 0, 0])
        out = undersample(m, seed=3)
        assert out.y.tolist().count(1) == out.y.tolist().count(0) == 1
        assert "s0000" in out.keys  # the single positive always survives

    def test_already_balanced_unchanged(self):
        m = dense_matrix(np.arange(8).reshape(4, 2), [1, 0, 1, 0])
        out = undersample(m, seed=1)
        assert out.keys == m.keys
        assert np.array_equal(out.X.toarray(), m.X.toarray())

    def test_single_class_rejected(self):
        m = dense_matrix(np.arange(4).reshape(2, 2), [1, 1])
        with pytest.raises(ValidationError):
            undersample(m, seed=0)

    def test_deterministic_and_rows_bit_exact(self):
        rng = random.Random(13)
        for trial in range(20):
            n = rng.randint(3, 40)
            X = np.array([[rng.gauss(0, 1) for _ in range(3)] for _ in range(n)])
            y = [1] * rng.randint(1, n - 1)
            y += [0] * (n - len(y))
            rng.shuffle(y)
            m = dense_matrix(X, y)
            a = undersample(m, seed=trial)
            b = undersample(m, seed=trial)
            assert a.keys == b.keys
            assert np.array_equal(a.X.toarray(), b.X.toarray())
            n_pos = sum(a.y == 1)
            assert n_pos == sum(a.y == 0) == min(sum(m.y), len(m.y) - sum(m.y))
            for key, row in zip(a.keys, a.X.toarray()):
                orig = m.keys.index(key)
                assert np.array_equal(row, m.X.toarray()[orig])
            # original order preserved among survivors
            assert [m.keys.index(k) for k in a.keys] == sorted(m.keys.index(k) for k in a.keys)


def u8(*values) -> np.ndarray:
    return np.array(values, dtype=np.uint8)


class TestMatrixPersistence:
    def test_sparse_roundtrip(self, tmp_path):
        abstracts = {"a1": toka("a1", ["dose", "dose", "response"])}
        vocab = vocab_of(tokens_of(abstracts.values()))
        samples = [sample_with(["a1"], label=1), sample_with([], o="o2")]
        m, _ = build_matrix(samples, *incidence_of(samples, abstracts), vocab)
        save(tmp_path / "m.txt", encode_matrix(m), {"digest": "abc"})
        loaded, header = load_matrix(tmp_path / "m.txt")
        assert header["digest"] == "abc"
        assert loaded.keys == m.keys
        assert loaded.kind == "counts"
        assert (loaded.X != m.X).nnz == 0
        assert np.array_equal(loaded.y, m.y)

    def test_dense_roundtrip(self, tmp_path):
        m = dense_matrix([[0.125, -3.5], [1e-9, 2.0]], [1, 0], kind="embeddings")
        assert isinstance(m.X, sp.csc_matrix)
        save(tmp_path / "m.txt", encode_matrix(m))
        loaded, _ = load_matrix(tmp_path / "m.txt")
        assert isinstance(loaded.X, sp.csc_matrix)
        assert np.array_equal(loaded.X.toarray(), m.X.toarray())
        assert loaded.kind == "embeddings"

    def test_storage_line_rejected(self, tmp_path):
        # a text body from the dense-storage era, under a current header, is refused unread
        path = tmp_path / "m.txt"
        body = "rows 1\nparts 1\ndims 2\nstorage dense\nkind embeddings\npart 0:0.5 1:2.0\nrow s0 1 0\n"
        save(path, ("feature-matrix", {}, body), {"digest": "abc"})
        with pytest.raises(ValidationError, match="rerun featurize") as err:
            load_matrix(path)
        assert str(path) in str(err.value)

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_load_equals_cell_by_cell_oracle(self, data):
        n, d = data.draw(st.integers(0, 12)), data.draw(st.integers(0, 12))
        value = st.one_of(st.just(0.0), st.floats(width=64))  # nan, inf, -0.0 and subnormals too
        rows = data.draw(st.lists(st.lists(value, min_size=d, max_size=d), min_size=n, max_size=n))
        X = np.array(rows, dtype=float).reshape(n, d)
        y = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=np.int64)
        kind = data.draw(st.sampled_from(["counts", "embeddings"]))
        # the drawn rows as parts, each sample summing a sorted subset of them
        refs = [sorted(data.draw(st.sets(st.integers(0, n - 1)))) if n else [] for _ in range(n)]
        self.check_load_against_oracle(X, y, kind, refs)

    def test_load_equals_oracle_where_infinities_and_a_nan_meet(self):
        # the recorded falsifying case: samples sum -inf, inf and a NaN with payload 1 in column 1
        X = np.zeros((10, 3))
        X[[1, 4, 6, 9], 0] = 1.5, -2.0, 0.25, 3.0
        X[2, 1], X[5, 1], X[7, 1] = -np.inf, np.inf, np.uint64(0x7FF8000000000001).view(np.float64)
        X[[3, 8], 2] = np.inf, -0.0
        refs = [[2, 5, 7], [0, 1, 4], [2, 5], [7], [], [3, 8, 9], [1, 6], [5, 7], [0], [2, 3, 5, 7, 9]]
        self.check_load_against_oracle(X, [1, 0] * 5, "embeddings", refs)

    @staticmethod
    def check_load_against_oracle(X, y, kind, refs):
        """Rows in full and rows summing ``refs`` of them, through a file: load_matrix against the oracle.

        Indices, indptr and every cell's bytes match, except that a cell NaN on
        both sides is only NaN: IEEE 754 leaves the sign and payload of a NaN
        that an operation makes (inf + -inf, or NaN + NaN) unspecified.
        """
        keys = [f"s{i}" for i in range(len(refs))]
        A = sp.csr_matrix(
            (np.ones(sum(map(len, refs))), [i for r in refs for i in r], np.cumsum([0, *map(len, refs)])),
            shape=(len(refs), X.shape[0]),
        )
        factors = FeatureMatrix(keys, csr_of(sp.csr_matrix(X, dtype=float)), np.asarray(y, dtype=np.int64), kind,
                                csr_of(A))
        for m in (full_rows(keys, X, y, kind), factors):
            with tempfile.TemporaryDirectory() as tmp:
                path = Path(tmp) / "m.txt"
                save(path, encode_matrix(m), {"digest": "abc"})
                got, header = load_matrix(path)
                want = load_matrix_oracle(path)
            assert header["digest"] == "abc"
            assert (got.keys, got.kind, got.y.tolist()) == (want.keys, want.kind, want.y.tolist())
            for a, b in ((getattr(got.X, name), getattr(want.X, name)) for name in ("data", "indices", "indptr")):
                assert (a.shape, a.dtype) == (b.shape, b.dtype)
                both_nan = np.isnan(a) & np.isnan(b)
                assert a[~both_nan].tobytes() == b[~both_nan].tobytes()

    @pytest.mark.parametrize(
        "line",
        ["row s0 1 3", "row s0 1 3:1.0 4", "row s0 1 3.5:1.0", "row s0 1 x:1.0",
         "part 3", "part 3:1.0 4", "part 3.5:1.0", "part x:1.0", "part 5:1.0"],
    )
    def test_malformed_sparse_cells_rejected(self, tmp_path, line):
        # a text body is refused as older, not parsed: malformed cells give the same error as well-formed ones
        part, row = (line, "row s0 1 0") if line.startswith("part") else ("part 0:1.0", line)
        path = tmp_path / "m.txt"
        save(path, ("feature-matrix", {}, f"rows 1\nparts 1\ndims 5\nkind counts\n{part}\n{row}\n"), {"digest": "abc"})
        with pytest.raises(ValidationError, match="rerun featurize") as err:
            load_matrix(path)
        assert str(path) in str(err.value)

    @staticmethod
    def write_records(path, fields: dict, records: dict) -> None:
        """A feature file with a current header and the given ``npy`` records, in order; a None field or record is
        left out."""
        body = io.BytesIO()
        for record in filter(lambda r: r is not None, records.values()):
            np.lib.format.write_array(body, record, allow_pickle=False)
        header = {"digest": "abc", "rows": 1, "parts": 1, "dims": 2, "kind": "counts", "body": "npy", **fields}
        header = {key: val for key, val in header.items() if val is not None}
        artifacts.write(path, "feature-matrix", header, body.getvalue())

    # one sample summing one part of width 2: each case changes header fields or records of it
    VALID = {
        "part indptr": u8(0, 1), "part columns": u8(1), "part values": u8(3), "row indptr": u8(0, 1),
        "row part indices": u8(0), "labels": u8(1), "keys": np.frombuffer(b"a|b", np.uint8),
    }
    DAMAGED = {
        # (header fields, records replaced, message)
        "index-past-end": ({}, {"row part indices": u8(1)}, r"row's part index is not in \[0, 1\)"),
        "index-negative": ({}, {"row part indices": np.array([-1], np.int8)}, "row part indices record is int8"),
        "index-fraction": ({}, {"row part indices": np.array([0.5])}, "row part indices record is float64"),
        "index-cell": ({}, {"part columns": u8(2)}, r"part's column is not in \[0, 2\)"),
        "part-count": ({"parts": 2}, {}, "part indptr is not 3 ascending offsets"),
        "row-count": ({"rows": 2}, {"row indptr": u8(0, 1, 1)}, "says 2 rows, found 1 keys"),
        "old-format": ({"body": "text"}, {}, "rerun featurize"),
        "columns-past-dims": ({"dims": 1}, {}, r"part's column is not in \[0, 1\)"),
        "part-index-past-parts": (
            {"parts": 0}, {"part indptr": u8(0), "part columns": u8(), "part values": u8()},
            r"part index is not in \[0, 0\)",
        ),
        "part-indptr-not-monotone": ({"parts": 2}, {"part indptr": u8(0, 2, 1), "part columns": u8(0)}, "not 3 asc"),
        "part-indptr-short-of-the-end": (
            {}, {"part columns": u8(0, 1), "part values": u8(1, 2)}, "ascending offsets from 0 to 2",
        ),
        "row-indptr-past-the-end": ({}, {"row indptr": u8(0, 2)}, "ascending offsets from 0 to 1"),
        "row-indptr-from-one": ({}, {"row indptr": u8(1, 1)}, "ascending offsets from 0"),
        "more-keys-than-rows": ({}, {"keys": np.frombuffer(b"a|b\nc|d", np.uint8)}, "found 2 keys"),
        "no-keys-for-a-row": (
            {"rows": 0}, {"row indptr": u8(0), "row part indices": u8(), "labels": u8()}, "says 0 rows, found 1 keys",
        ),
        "keys-not-utf8": ({}, {"keys": u8(0xFF)}, "damaged feature file"),
        "label-two": ({}, {"labels": u8(2)}, "label is not 0 or 1"),
        "label-minus-one": ({}, {"labels": np.array([-1], np.int64)}, "labels record is int64"),
        "values-as-float32": ({}, {"part values": np.array([3], np.float32)}, "part values record is float32"),
        "values-as-a-matrix": ({}, {"part values": np.array([[3]], np.uint8)}, r"shape \(1, 1\)"),
        "kind-bogus": ({"kind": "bogus"}, {}, "kind 'bogus' is not one of"),
        "rows-missing": ({"rows": None}, {}, "damaged feature file"),
        "dims-negative": ({"dims": -1}, {}, "negative size"),
        "a-record-missing": ({}, {"keys": None}, "damaged feature file: EOF"),
    }

    @pytest.mark.parametrize("case", sorted(DAMAGED))
    def test_inconsistent_file_rejected(self, tmp_path, case):
        fields, replaced, message = self.DAMAGED[case]
        path = tmp_path / "features_train.txt"
        self.write_records(path, fields, {**self.VALID, **replaced})
        with pytest.raises(ValidationError, match=message) as err:
            load_matrix(path)
        assert str(path) in str(err.value)

    def test_written_labels_outside_zero_one_are_refused(self, tmp_path):
        path = tmp_path / "features_train.txt"
        save(path, encode_matrix(dense_matrix([[1.0], [2.0]], [2, -1])), {"digest": "abc"})
        with pytest.raises(ValidationError, match="label is not 0 or 1") as err:
            load_matrix(path)
        assert str(path) in str(err.value)

    @pytest.fixture
    def written(self, tmp_path):
        """A valid feature file, its bytes and where its body starts."""
        path = tmp_path / "features_train.txt"
        save(path, encode_matrix(dense_matrix([[0.5, -0.0], [3.0, 0.0], [np.nan, 7.0]], [1, 0, 1])), {"digest": "abc"})
        data = path.read_bytes()
        return path, data, data.index(b"\x93NUMPY")

    def test_truncated_body_rejected(self, written):
        path, data, start = written
        for cut in sorted({start, start + 1, start + 9, start + 100, start + 128, start + 130, len(data) // 2,
                           data.rindex(b"\x93NUMPY"), len(data) - 4, len(data) - 1}):
            path.write_bytes(data[:cut])
            with pytest.raises(ValidationError, match="damaged feature file") as err:
                load_matrix(path)
            assert str(path) in str(err.value), cut

    def test_trailing_bytes_rejected(self, written):
        path, data, _ = written
        for tail in (b"\n", b"\x00", data[-200:]):
            path.write_bytes(data + tail)
            with pytest.raises(ValidationError, match="bytes after the last record") as err:
                load_matrix(path)
            assert str(path) in str(err.value)

    @pytest.mark.parametrize(
        "field, value, message",
        [("descr", b"'|O'", "allow_pickle"), ("shape", b"(1099511627776,)", "damaged feature file"),
         ("shape", b"((4,)", "damaged feature file")],
        ids=["object-dtype", "shape-past-the-file", "unbalanced"],
    )
    def test_rewritten_npy_header_rejected(self, written, field, value, message):
        path, data, start = written
        at = data.index(b"'%s': " % field.encode(), start) + len(field) + 4  # in the first record's header
        old = data[at : data.index(b")", at) + 1] if field == "shape" else data[at : data.index(b",", at)]
        end = data.index(b"\n", at)  # the header's padding ends there: take the new value's length from it
        path.write_bytes(data[:at] + value + data[at + len(old) : end - len(value) + len(old)] + data[end:])
        with pytest.raises(ValidationError, match=message) as err:
            load_matrix(path)
        assert str(path) in str(err.value)

    @given(edits=st.lists(st.tuples(st.integers(0, 10**6), st.integers(-1, 255)), min_size=1, max_size=4))
    @settings(max_examples=300, deadline=None)
    def test_edited_bytes_load_or_are_refused_with_the_path(self, edits):
        """Bytes overwritten (or, at -1, deleted) anywhere in a file: no error escapes but ValidationError."""
        m = dense_matrix([[0.5, -0.0, 3.0], [3.0, 0.0, 1.0], [np.nan, 7.0, 2.0]], [1, 0, 1])
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "features_train.txt"
            save(path, encode_matrix(m), {"digest": "abc"})
            data = bytearray(path.read_bytes())
            for at, byte in edits:
                at %= len(data)
                if byte < 0:
                    del data[at]
                else:
                    data[at] = byte
            path.write_bytes(data)
            try:
                load_matrix(path)
            except ValidationError as err:
                assert str(path) in str(err)

    def test_a_header_numpy_warns_about_is_refused_with_the_path_and_no_warning(self, tmp_path):
        """A 'descr' edited to start with an invalid escape: numpy's header parse warns; the read refuses it."""
        path = tmp_path / "features_train.txt"
        save(path, encode_matrix(dense_matrix([[1.0, 0.0], [0.0, 2.0]], [1, 0])), {"digest": "abc"})
        data = path.read_bytes()
        assert data.count(b"'descr': '|u1'") >= 1
        path.write_bytes(data.replace(b"'descr': '|u1'", b"'descr': '\\o1'", 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=re.escape(str(path))):
                load_matrix(path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValidationError, match=re.escape(str(path))):
                load_matrix(path)
        assert caught == []

    def test_counts_narrowed_and_embeddings_kept_exact(self, tmp_path):
        """Integer counts go to the smallest unsigned type; -0.0, NaN payloads and fractions stay float64."""
        nan1 = np.uint64(0x7FF8000000000001).view(np.float64)
        cases = [([1.0, 300.0], np.uint16), ([-0.0, 1.0], np.float64), ([nan1, 1.0], np.float64),
                 ([0.5, 1.0], np.float64), ([2.0**64, 1.0], np.float64), ([-1.0, 1.0], np.float64)]
        for values, dtype in cases:
            stored = sp.csr_matrix((values, [0, 1], [0, 2]), shape=(1, 2))  # -0.0 kept as a cell
            path = tmp_path / "m.txt"
            save(path, encode_matrix(full_rows(["s"], stored, [1])), {"digest": "abc"})
            body = io.BytesIO(path.read_bytes().partition(b"# body: npy\n")[2])
            assert [np.lib.format.read_array(body).dtype for _ in range(3)][2] == dtype
            loaded, _ = load_matrix(path)
            assert loaded.parts.data.dtype == np.float64
            assert loaded.parts.data.tobytes() == np.array(values).tobytes()

    def test_show_prints_the_text_form(self, tmp_path, capsys):
        # the text the text-body format wrote for this matrix, header included
        golden = (
            "# ddimine feature-matrix\n# digest: abc\nrows 3\nparts 3\ndims 4\nkind embeddings\n"
            "part 0:2.0 2:1.0\npart 0:0.5 1:-0.0 2:nan\npart 1:inf 2:1e-300\n"
            "row a|b 1 0 2\nrow c|d 0\nrow e|f 1 1 2\n"
        )
        nan1 = np.uint64(0x7FF8000000000001).view(np.float64)
        parts = sp.csr_matrix(
            (np.array([2.0, 1.0, 0.5, -0.0, nan1, np.inf, 1e-300]), [0, 2, 0, 1, 2, 1, 2], [0, 2, 5, 7]), shape=(3, 4)
        )
        A = sp.csr_matrix((np.ones(4), [0, 2, 1, 2], [0, 2, 2, 4]), shape=(3, 3))
        path = tmp_path / "features_train.txt"
        matrix = FeatureMatrix(["a|b", "c|d", "e|f"], csr_of(parts), np.array([1, 0, 1]), "embeddings", csr_of(A))
        save(path, encode_matrix(matrix),
             {"digest": "abc"})
        assert main(["show", str(path)]) == 0
        assert capsys.readouterr().out == golden

    def test_show_into_a_reader_that_stops_early_ends_quietly(self, tmp_path):
        path = tmp_path / "features_train.txt"
        save(path, encode_matrix(dense_matrix(np.arange(40_000.0).reshape(2000, 20) / 7, [0, 1] * 1000)),
             {"digest": "abc"})
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        with subprocess.Popen([sys.executable, "-m", "ddimine.cli", "show", str(path)], env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE) as show:  # closes the pipes at the end
            assert show.stdout.read(100).startswith(b"# ddimine feature-matrix\n")  # the text is far longer than a pipe
            show.stdout.close()
            assert show.wait(timeout=60) == 0 and show.stderr.read() == b""

    def test_show_refuses_a_text_artifact_and_a_corrupt_file(self, tmp_path, written, capsys):
        path, data, _ = written
        vocab = tmp_path / "vocab.tsv"
        save(vocab, encode_vocab(vocab_of([["dose", "dose"]])), {"digest": "abc"})
        path.write_bytes(data[:-3])
        for target in (vocab, path):
            assert main(["show", str(target)]) == 2
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("error: ") and str(target) in err

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_written_file_gives_the_in_memory_product_bit_for_bit(self, data):
        rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
        words = [f"w{i}" for i in range(15)]
        abstracts = {f"a {i}": toka(f"a {i}", rng.choices(words, k=rng.randint(0, 25))) for i in range(10)}
        vocab = vocab_of(tokens_of(abstracts.values()), 12)
        table = {w: np.array([rng.gauss(0, 1) for _ in range(3)]) for w in words[:11]}
        samples = [
            sample_with(rng.sample(sorted(abstracts), rng.randint(0, 4)), o=f"o{j}", label=int(j % 3 == 0))
            for j in range(data.draw(st.integers(2, 14)))
        ]
        columns, V = table_columns(table)
        for full in (
            build_matrix(samples, *incidence_of(samples, abstracts), vocab)[0],
            build_matrix(samples, *incidence_of(samples, abstracts), columns, False, V)[0],
        ):
            kept = undersample(full, seed=rng.randint(0, 99))
            assert kept.parts.shape[0] == len(np.unique(kept.A.indices))  # no part left unreferenced
            rows = [full.keys.index(key) for key in kept.keys]
            with tempfile.TemporaryDirectory() as tmp:
                path = Path(tmp) / "m.txt"
                save(path, encode_matrix(kept), {"digest": "abc"})
                loaded, _ = load_matrix(path)
            # what the file gives, the product in memory, and the rows of the product before undersampling
            for X in (kept.X, full.X[rows]):
                for name in ("data", "indices", "indptr"):
                    a, b = getattr(loaded.X, name), getattr(X, name)
                    assert (a.shape, a.dtype, a.tobytes()) == (b.shape, b.dtype, b.tobytes())


def test_stopword_files(tmp_path):
    words = default_stopwords()
    assert "the" in words and "and" in words
    text = resources.files("ddimine").joinpath("data/stopwords.txt").read_text("utf-8")
    assert words == frozenset(w.strip().lower() for w in text.splitlines() if w.strip())  # no "#" lines in it
    assert all(w == w.lower() for w in words)
    path = tmp_path / "stop.txt"
    path.write_text("The\nof\n\n# comment\n")
    assert load_stopwords(path) == {"the", "of"}
