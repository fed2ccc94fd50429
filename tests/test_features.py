import random
import re
import tempfile
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from ddimine.corpus import TokenizedAbstract, default_stopwords, load_stopwords
from ddimine.errors import ValidationError
from ddimine.features import (
    EmbeddingTable,
    FeatureMatrix,
    build_count_matrix,
    build_vocab,
    encode_matrix,
    encode_vocab,
    load_matrix,
    undersample,
)
from helpers import (
    AttachedSample, count_vector, dense_matrix, embed_abstract, embed_sample, full_rows, incidence_of,
    load_matrix_oracle, load_vocab, save,
)


def toka(aid, tokens, mentions=()):
    return TokenizedAbstract(aid, tuple(tokens), frozenset(mentions))


def sample_with(ids, c="c1", o="o1", label=0):
    return AttachedSample(c, o, label, None, frozenset(ids))


def tokens_of(abstracts):
    return [ab.tokens for ab in abstracts]


class TestBuildVocab:
    def test_tie_rule(self):
        # frequencies a:2 b:2 c:1; ties lexicographic -> ["a", "b"]
        vocab = build_vocab([["a", "a", "b"], ("b", "c")], top_k=2)
        assert vocab.words == [("a", 2), ("b", 2)]
        assert vocab.index == {"a": 0, "b": 1}

    def test_top_k_zero(self):
        vocab = build_vocab([["a"]], top_k=0)
        assert len(vocab) == 0

    def test_unlimited(self):
        vocab = build_vocab([["z", "y", "y"]], top_k=None)
        assert vocab.words == [("y", 2), ("z", 1)]

    def test_empty_corpus(self):
        assert len(build_vocab([], top_k=5)) == 0

    def test_negative_top_k_rejected(self):
        with pytest.raises(ValidationError):
            build_vocab([], top_k=-1)

    def test_roundtrip(self, tmp_path):
        vocab = build_vocab([["b", "a", "b"]])
        save(tmp_path / "v.tsv", encode_vocab(vocab))
        loaded = load_vocab(tmp_path / "v.tsv")
        assert loaded.words == vocab.words
        assert loaded.index == vocab.index


class TestCountVector:
    def test_empty_abstract_set_zero_vector(self):
        vocab = build_vocab([["dose"]])
        vec = count_vector(sample_with([]), {}, vocab)
        assert vec.entries == {} and vec.dims == 1

    def test_direct_count(self):
        abstracts = {"a1": toka("a1", ["dose", "dose", "response"])}
        vocab = build_vocab(tokens_of(abstracts.values()))
        vec = count_vector(sample_with(["a1"]), abstracts, vocab)
        assert vec.entries == {vocab.index["dose"]: 2, vocab.index["response"]: 1}

    def test_out_of_vocab_ignored(self):
        abstracts = {"a1": toka("a1", ["dose", "rare"])}
        vocab = build_vocab([["dose"]])
        vec = count_vector(sample_with(["a1"]), abstracts, vocab)
        assert vec.entries == {0: 1}

    def test_dangling_abstract_id(self):
        vocab = build_vocab([["dose"]])
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
            vocab = build_vocab(tokens_of(abstracts.values()), top_k=20)
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
                if t in vocab.index
            )
            assert sum(both.entries.values()) == in_vocab


class TestEmbeddings:
    def table(self):
        return EmbeddingTable({"x": np.array([1.0, 0.0]), "y": np.array([0.0, 2.0])})

    def test_load_and_width_validation(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("x 1.0 0.0\ny 0.0 2.0\n")
        table = EmbeddingTable.load(path)
        assert table.dim == 2
        for body, message in [
            ("x 1.0 0.0\ny 0.0\n", ":2: token 'y' has 1 components, expected 2"),
            ("x 1.0 0.0\n\ny 0.0 nan\n", ":3: token 'y' has a non-finite component"),
            ("x 1.0 -inf\n", ":1: token 'x' has a non-finite component"),
        ]:
            path.write_text(body)
            with pytest.raises(ValidationError, match=re.escape(f"{path}{message}")):
                EmbeddingTable.load(path)

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
        table = EmbeddingTable(
            {f"t{i}": np.array([rng.gauss(0, 1) for _ in range(4)]) for i in range(12)}
        )
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
                if t in table.vectors:
                    expected += count * table.vectors[t]
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
        vocab = build_vocab(tokens_of(abstracts.values()))
        samples = [
            sample_with(["a1"], c="c1", o="o1", label=1),
            sample_with(["a2"], c="c1", o="o2", label=0),
            sample_with([], c="c1", o="o3", label=0),
        ]
        m, misses = build_count_matrix(samples, *incidence_of(samples, abstracts), vocab)
        assert misses == 0
        assert m.keys == ["c1|o1", "c1|o2", "c1|o3"]
        assert m.X.toarray().tolist() == [[2.0, 0.0], [0.0, 1.0], [0.0, 0.0]]
        assert m.y.tolist() == [1, 0, 0]

    def test_drop_empty(self):
        abstracts = {"a1": toka("a1", ["dose"])}
        vocab = build_vocab(tokens_of(abstracts.values()))
        samples = [sample_with(["a1"]), sample_with([], o="o2")]
        m, _ = build_count_matrix(samples, *incidence_of(samples, abstracts), vocab, drop_empty=True)
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
        vocab = build_vocab(tokens_of(abstracts.values()), data.draw(st.none() | st.integers(0, 12)))
        table = EmbeddingTable({w: np.array([rng.gauss(0, 1) for _ in range(3)]) for w in words[:11]})
        stop = set(rng.sample(words, 3))
        samples = [
            sample_with(rng.sample(sorted(abstracts), rng.randint(0, len(abstracts))), o=f"o{j}", label=j % 2)
            for j in range(data.draw(st.integers(0, 10)))
        ]
        drop_empty = data.draw(st.booleans())
        kept = [s for s in samples if s.abstract_ids or not drop_empty]

        counts, _ = build_count_matrix(samples, *incidence_of(samples, abstracts), vocab, drop_empty)
        columns, V = table.columns(stop)
        embedded, misses = build_count_matrix(samples, *incidence_of(samples, abstracts), columns, drop_empty, V, stop)
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

        # a column no row references is dropped, and its tokens are never read
        A, tokens = incidence_of(samples, abstracts)
        padded = sp.csr_matrix((A.data, 2 * A.indices + 1, A.indptr), shape=(A.shape[0], 2 * A.shape[1] + 1))
        unread = [None] * (2 * len(tokens) + 1)
        unread[1::2] = tokens
        again = (
            build_count_matrix(samples, padded, unread, vocab, drop_empty)[0],
            build_count_matrix(samples, padded, unread, columns, drop_empty, V, stop)[0],
        )
        for m, other in zip((counts, embedded), again):
            for a, b in ((m.A, other.A), (m.parts, other.parts)):
                assert a.shape == b.shape and (a != b).nnz == 0

    def test_embedding_matrix(self):
        table = EmbeddingTable({"x": np.array([1.0, 0.0]), "y": np.array([0.0, 1.0]), "the": np.ones(2)})
        abstracts = {"a1": toka("a1", ["x", "y", "gone", "the", "and"])}
        samples = [sample_with(["a1"], label=1)]
        columns, V = table.columns({"the", "and"})
        m, misses = build_count_matrix(
            samples, *incidence_of(samples, abstracts), columns, V=V, stopwords={"the", "and"}
        )
        assert m.kind == "embeddings" and columns.index == {"x": 0, "y": 1}
        assert m.X.toarray().tolist() == [[1.0, 1.0]]
        assert misses == 1  # "gone"; a stopword is no miss


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


class TestMatrixPersistence:
    def test_sparse_roundtrip(self, tmp_path):
        abstracts = {"a1": toka("a1", ["dose", "dose", "response"])}
        vocab = build_vocab(tokens_of(abstracts.values()))
        samples = [sample_with(["a1"], label=1), sample_with([], o="o2")]
        m, _ = build_count_matrix(samples, *incidence_of(samples, abstracts), vocab)
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
        path = tmp_path / "m.txt"
        path.write_text(
            "rows 1\nparts 1\ndims 2\nstorage dense\nkind embeddings\npart 0:0.5 1:2.0\nrow s0 1 0\n",
            encoding="utf-8",
        )
        with pytest.raises(ValidationError, match="storage"):
            load_matrix(path)

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
        for m in (full_rows(keys, X, y, kind), FeatureMatrix(keys, X, np.asarray(y, dtype=np.int64), kind, A)):
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
        # each text is malformed both as a sample row's part indices and as a part row's cells
        part, row = (line, "row s0 1 0") if line.startswith("part") else ("part 0:1.0", line)
        path = tmp_path / "m.txt"
        path.write_text(f"rows 1\nparts 1\ndims 5\nkind counts\n{part}\n{row}\n", encoding="utf-8")
        with pytest.raises(ValueError):  # ValidationError is a ValueError
            load_matrix(path)

    @pytest.mark.parametrize(
        "body, message",
        [
            ("rows 1\nparts 1\ndims 2\nkind counts\npart 0:1.0\nrow s0 1 1\n", r"part index .* \[0, 1\)"),
            ("rows 1\nparts 1\ndims 2\nkind counts\npart 0:1.0\nrow s0 1 -1\n", r"part index .* \[0, 1\)"),
            ("rows 1\nparts 1\ndims 2\nkind counts\npart 0:1.0\nrow s0 1 0.5\n", r"part index .* \[0, 1\)"),
            ("rows 1\nparts 1\ndims 2\nkind counts\npart 0:1.0\nrow s0 1 0:1.0\n", "malformed part indices"),
            ("rows 1\nparts 2\ndims 2\nkind counts\npart 0:1.0\nrow s0 1 0\n", "says 2 parts, found 1"),
            ("rows 2\nparts 1\ndims 2\nkind counts\npart 0:1.0\nrow s0 1 0\n", "says 2 rows, found 1"),
            ("rows 1\ndims 2\nkind counts\nrow s0 1 0:1.0 1:2.0\n", "rerun featurize"),
        ],
        ids=["index-past-end", "index-negative", "index-fraction", "index-cell", "part-count", "row-count",
             "old-format"],
    )
    def test_inconsistent_file_rejected(self, tmp_path, body, message):
        path = tmp_path / "features_train.txt"
        save(path, ("feature-matrix", {}, body), {"digest": "abc"})
        with pytest.raises(ValidationError, match=message) as err:
            load_matrix(path)
        assert str(path) in str(err.value)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_written_file_gives_the_in_memory_product_bit_for_bit(self, data):
        rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
        words = [f"w{i}" for i in range(15)]
        abstracts = {f"a {i}": toka(f"a {i}", rng.choices(words, k=rng.randint(0, 25))) for i in range(10)}
        vocab = build_vocab(tokens_of(abstracts.values()), 12)
        table = EmbeddingTable({w: np.array([rng.gauss(0, 1) for _ in range(3)]) for w in words[:11]})
        samples = [
            sample_with(rng.sample(sorted(abstracts), rng.randint(0, 4)), o=f"o{j}", label=int(j % 3 == 0))
            for j in range(data.draw(st.integers(2, 14)))
        ]
        columns, V = table.columns(set())
        for full in (
            build_count_matrix(samples, *incidence_of(samples, abstracts), vocab)[0],
            build_count_matrix(samples, *incidence_of(samples, abstracts), columns, False, V)[0],
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
