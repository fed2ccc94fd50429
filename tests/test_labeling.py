import itertools
import random
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddimine import labeling
from ddimine.corpus import DrugLexicon
from ddimine.errors import ValidationError
from ddimine.labeling import (
    InteractionCatalog,
    build_universe,
    enumerate_samples,
    extract_templates,
    label_pair,
    pair_key,
    positive_tallies,
    templateize,
)
from helpers import templateize_oracle


def catalog_of(*pairs):
    return InteractionCatalog([(a, b, f"{a} interacts with {b}") for a, b in pairs])


class TestCatalog:
    def test_order_insensitive_lookup(self):
        cat = catalog_of(("A", "B"))
        assert ("A", "B") in cat and ("B", "A") in cat
        assert ("A", "C") not in cat

    def test_self_pair_rejected(self):
        with pytest.raises(ValidationError, match="self-pair"):
            catalog_of(("A", "A"))

    def test_duplicates_first_wins(self):
        cat = InteractionCatalog([("A", "B", "first"), ("B", "A", "second")])
        assert len(cat) == 1
        assert cat.n_duplicate_rows == 1
        assert cat.description("A", "B") == "first"

    def test_display_preserves_row_order(self):
        cat = InteractionCatalog([("Furosemide", "Bumetanide", "effect")])
        assert cat.display("Bumetanide", "Furosemide") == ("Furosemide", "Bumetanide")

    def test_load(self, tmp_path):
        path = tmp_path / "catalog.tsv"
        path.write_text("# header\nA\tB\tincreases risk\nC\tD\tlowers clearance\n")
        cat = InteractionCatalog.load(path)
        assert len(cat) == 2
        assert cat.description("D", "C") == "lowers clearance"

    @pytest.mark.parametrize("row, message", [
        ("A\tB C\teffect", "drug id 'B C'"),
        ("A|B\tC\teffect", "drug id 'A|B'"),
        ("\tC\teffect", "drug id ''"),
        ("A\tA\teffect", "catalog contains self-pair"),
        ("A\tB", "expected 3 tab-separated fields"),
    ])
    def test_bad_row_named_by_its_line(self, tmp_path, row, message):
        path = tmp_path / "catalog.tsv"
        path.write_text(f"# header\nC\tD\tlowers clearance\n{row}\nE\tF\teffect\n")
        with pytest.raises(ValidationError, match=re.escape(f"{path}:3: {message}")):
            InteractionCatalog.load(path)


class TestBuildUniverse:
    def test_partners_plus_cardiac(self):
        cat = catalog_of(("A", "B"), ("A", "C"), ("X", "Y"))
        assert build_universe({"A"}, cat) == {"A", "B", "C"}

    def test_cardiac_second_in_pair(self):
        cat = catalog_of(("B", "A"), ("C", "A"), ("B", "C"))
        assert build_universe({"A"}, cat) == {"A", "B", "C"}

    def test_pair_of_two_cardiac_drugs(self):
        cat = catalog_of(("A", "B"), ("B", "C"), ("D", "E"))
        assert build_universe({"A", "B"}, cat) == {"A", "B", "C"}

    def test_empty_catalog(self):
        assert build_universe({"A"}, catalog_of()) == {"A"}

    def test_empty_cardiac_rejected(self):
        with pytest.raises(ValidationError):
            build_universe(set(), catalog_of(("A", "B")))


class TestLabelPair:
    def test_membership(self):
        cat = catalog_of(("A", "B"))
        assert label_pair("A", "B", cat) == 1
        assert label_pair("A", "C", cat) == 0

    def test_self_pair_rejected(self):
        with pytest.raises(ValidationError):
            label_pair("A", "A", catalog_of(("A", "B")))

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_symmetry(self, data):
        drugs = [f"d{i}" for i in range(8)]
        pairs = data.draw(
            st.sets(
                st.tuples(st.sampled_from(drugs), st.sampled_from(drugs)).filter(
                    lambda p: p[0] != p[1]
                ),
                max_size=12,
            )
        )
        cat = catalog_of(*pairs)
        a, b = data.draw(st.sampled_from(drugs)), data.draw(st.sampled_from(drugs))
        if a != b:
            assert label_pair(a, b, cat) == label_pair(b, a, cat)


class TestEnumerateSamples:
    def test_single_cardiac(self):
        cat = catalog_of(("A", "B"))
        samples = enumerate_samples({"A"}, {"A", "B", "C"}, cat, {})
        assert [(s.cardiac_drug, s.other_drug, s.label) for s in samples] == [
            ("A", "B", 1),
            ("A", "C", 0),
        ]

    def test_template_ids_come_from_the_table_by_canonical_pair(self):
        cat = InteractionCatalog([("B", "A", "B with A"), ("A", "C", "A with C")])
        samples = enumerate_samples({"A"}, {"A", "B", "C", "D"}, cat, {("A", "B"): 3})
        assert [(s.other_drug, s.label, s.template_id) for s in samples] == [
            ("B", 1, 3),  # the catalog lists (B, A); the table keys it as (A, B)
            ("C", 1, None),  # its description kept no template
            ("D", 0, None),
        ]

    def test_cardiac_cardiac_pair_once(self):
        cat = catalog_of(("A", "B"))
        samples = enumerate_samples({"A", "B"}, {"A", "B"}, cat, {})
        assert len(samples) == 1
        assert (samples[0].cardiac_drug, samples[0].other_drug) == ("A", "B")

    def test_count_formula_and_positive_count_brute_force(self):
        rng = random.Random(42)
        for _ in range(50):
            n_drugs = rng.randint(2, 10)
            drugs = [f"d{i}" for i in range(n_drugs)]
            cardiac = set(rng.sample(drugs, rng.randint(1, n_drugs)))
            pairs = set()
            for a, b in itertools.combinations(drugs, 2):
                if rng.random() < 0.4:
                    pairs.add((a, b))
            cat = catalog_of(*pairs)
            universe = build_universe(cardiac, cat)
            samples = enumerate_samples(cardiac, universe, cat, {})

            # brute-force: distinct pairs {c, o} with c cardiac, o in universe
            expected_pairs = set()
            for c in cardiac:
                for o in universe:
                    if o != c:
                        expected_pairs.add(pair_key(c, o))
            assert {pair_key(s.cardiac_drug, s.other_drug) for s in samples} == expected_pairs
            assert len(samples) == len(expected_pairs)

            k = len(cardiac & universe)
            assert len(samples) == len(cardiac) * (len(universe) - 1) - k * (k - 1) // 2

            expected_pos = sum(
                1 for a, b in pairs if (a in cardiac or b in cardiac) and (a in universe and b in universe)
            )
            assert sum(s.label for s in samples) == expected_pos

    def test_positive_tallies(self):
        cat = catalog_of(("A", "B"), ("A", "C"))
        samples = enumerate_samples({"A", "B"}, build_universe({"A", "B"}, cat), cat, {})
        tallies = positive_tallies(samples)
        assert tallies["positives_unordered"] == 2
        assert tallies["cardiac_cardiac_positives"] == 1
        assert tallies["positives_ordered"] == 3


LEXICON = DrugLexicon(
    {
        "digoxin": [("digoxin",)],
        "quinidine": [("quinidine",)],
        "aspirin": [("aspirin",), ("acetyl", "salicylic", "acid")],
        "warfarin": [("warfarin",)],
    },
    cardiac={"digoxin"},
)


class TestTemplateize:
    def test_serum_concentration_example(self):
        text, n = templateize(
            "The serum concentration of Digoxin can be increased when it is combined with Quinidine.",
            "digoxin",
            "quinidine",
            LEXICON,
        )
        assert text == (
            "The serum concentration of (~drug~) can be increased when it is combined with (~drug~)."
        )
        assert n == 2

    def test_no_mention_unchanged(self):
        text, n = templateize("No names at all here.", "digoxin", "quinidine", LEXICON)
        assert text == "No names at all here."
        assert n == 0

    def test_longest_phrase_first(self):
        text, n = templateize(
            "Acetyl salicylic acid potentiates Warfarin.", "aspirin", "warfarin", LEXICON
        )
        assert text == "(~drug~) potentiates (~drug~)."
        assert n == 2

    def test_word_boundaries(self):
        # "aspirin-like" replaces the name; "aspirins" does not (not the phrase)
        text, n = templateize("aspirin-like but not aspirins.", "aspirin", "warfarin", LEXICON)
        assert text == "(~drug~)-like but not aspirins."
        assert n == 1

    def test_a_later_phrase_when_the_first_ends_inside_a_word(self):
        lexicon = DrugLexicon({"d0": [("ab", "c"), ("ab",)], "d1": [("x",)]}, cardiac=())
        assert templateize("AB cd, ab-c x", "d0", "d1", lexicon) == ("(~drug~) cd, (~drug~) (~drug~)", 3)
        assert templateize("xab c", "d0", "d1", lexicon) == ("xab c", 0)

    def test_word_chars_are_what_the_class_matches_ignoring_case(self):
        every = "".join(map(chr, range(sys.maxunicode + 1)))
        assert frozenset(re.findall("[0-9A-Za-z]", every, re.IGNORECASE)) == labeling._WORD_CHARS

    def test_idempotent_on_own_output(self):
        first, _ = templateize(
            "Digoxin raises Quinidine levels.", "digoxin", "quinidine", LEXICON
        )
        second, n = templateize(first, "digoxin", "quinidine", LEXICON)
        assert second == first
        assert n == 0

    def test_empty_description_rejected(self):
        with pytest.raises(ValidationError):
            templateize("", "digoxin", "quinidine", LEXICON)

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_per_drug_scan_equals_per_pair_alternation(self, data):
        # overlapping, multi-word, hyphenated phrases, some shared between drugs
        tokens = st.sampled_from(["ab", "abc", "b", "bc", "c1", "x-y", "y", "k", "s-t", "i"])
        phrase = st.lists(tokens, min_size=1, max_size=3).map(tuple)
        phrase_lists = data.draw(st.lists(st.lists(phrase, min_size=1, max_size=3), min_size=2, max_size=4))
        lexicon = DrugLexicon({f"d{i}": ps for i, ps in enumerate(phrase_lists)}, cardiac=())

        def rendered(p):
            n = len(p) - 1
            seps = st.lists(st.sampled_from([" ", "-", "  ", " - ", "\n"]), min_size=n, max_size=n)
            case = st.sampled_from([str.lower, str.upper, str.title])
            return st.tuples(seps, case).map(lambda t: t[1](p[0] + "".join(map(str.__add__, t[0], p[1:]))))

        mention = st.sampled_from([p for ps in phrase_lists for p in ps]).flatmap(rendered)
        # with the letters that case-fold into [0-9A-Za-z]: Kelvin sign, long s, dotted and dotless i
        filler = st.sampled_from(
            [" ", "-", ", ", "x", "9", "Ab", ".", " and ", "_", "k", "K", "\u212a", "\u017f", "\u0130", "\u0131", "é"]
        )
        description = "".join(data.draw(st.lists(st.one_of(mention, filler), min_size=1, max_size=12)))
        # catalog drugs missing from the lexicon contribute no phrases
        absent = [f"absent{i}" for i in range(data.draw(st.integers(0, 2)))]
        patterns: dict = {}  # shared across pairs, as extract_templates shares it
        for a, b in itertools.permutations([*lexicon.phrases, *absent], 2):
            expected = templateize_oracle(description, a, b, lexicon)
            assert templateize(description, a, b, lexicon) == expected
            assert templateize(description, a, b, lexicon, patterns) == expected


class TestExtractTemplates:
    def test_name_varied_descriptions_share_id(self):
        cat = InteractionCatalog(
            [
                ("digoxin", "quinidine", "The serum concentration of Digoxin can be increased when it is combined with Quinidine."),
                ("digoxin", "warfarin", "The serum concentration of Digoxin can be increased when it is combined with Warfarin."),
                ("digoxin", "aspirin", "Digoxin potentiates aspirin."),
            ]
        )
        table = extract_templates(cat, LEXICON)
        assert table.by_pair[pair_key("digoxin", "quinidine")] == table.by_pair[pair_key("digoxin", "warfarin")]
        assert table.by_pair[pair_key("digoxin", "aspirin")] != table.by_pair[pair_key("digoxin", "quinidine")]
        assert table.templates == [
            "The serum concentration of (~drug~) can be increased when it is combined with (~drug~).",
            "(~drug~) potentiates (~drug~).",
        ]  # ids are list positions, in order of first appearance
        assert table.by_pair[pair_key("digoxin", "aspirin")] == 1
        assert table.support[0] == 2
        assert table.n_warnings == 0

    def test_unmatched_description_warned_and_excluded(self):
        cat = InteractionCatalog([("digoxin", "quinidine", "completely unrelated text")])
        table = extract_templates(cat, LEXICON)
        assert table.n_warnings == 1
        assert table.templates == []

    def test_one_pattern_per_drug(self, monkeypatch):
        compiled = []
        compile_ = labeling.re.compile
        monkeypatch.setattr(labeling.re, "compile", lambda *a: compiled.append(a) or compile_(*a))
        cat = InteractionCatalog(
            [(a, b, f"{a} and {b}") for a, b in itertools.combinations(sorted(LEXICON.phrases), 2)]
        )
        table = extract_templates(cat, LEXICON)
        assert len(compiled) == len(LEXICON.phrases) == 4
        assert table.support == {0: 6}

    def test_every_template_has_placeholder(self):
        cat = InteractionCatalog(
            [("digoxin", "quinidine", "Digoxin levels rise."), ("digoxin", "aspirin", "nothing here")]
        )
        table = extract_templates(cat, LEXICON)
        assert all("(~drug~)" in text for text in table.templates)
