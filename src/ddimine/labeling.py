"""Interaction catalog, pair enumeration, binary labels, and type templates.

A template is a catalog description with both drugs' name phrases replaced by
a placeholder.  Each drug's phrases compile to one regex, once per catalog, and
a description is scanned with its two drugs' patterns side by side.  The word
boundaries around a name are checked on the characters themselves, not by
lookarounds in each pattern, which cost most of the compile time.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from . import artifacts
from .corpus import DrugLexicon, check_drug_id, three_fields
from .errors import ValidationError

PLACEHOLDER = "(~drug~)"


def pair_key(a: str, b: str) -> tuple[str, str]:
    """Order-insensitive lookup key for a drug pair."""
    return (a, b) if a <= b else (b, a)


class InteractionCatalog:
    """Known interacting drug pairs with free-text descriptions.

    Lookup is order-insensitive.  The order drugs appeared in the source row
    is kept as the display order for rendering alerts.
    """

    def __init__(self, rows: Iterable[tuple[str, str, str]]):
        self._records: dict[tuple[str, str], tuple[tuple[str, str], str]] = {}
        self.n_duplicate_rows = 0
        check = functools.cache(check_drug_id)  # each distinct id once, at its first row
        for a, b, description in rows:
            check(a)
            check(b)
            if a == b:
                raise ValidationError(f"catalog contains self-pair ({a!r}, {b!r})")
            key = pair_key(a, b)
            if key in self._records:
                self.n_duplicate_rows += 1  # first row wins
                continue
            self._records[key] = ((a, b), description)

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, pair: tuple[str, str]) -> bool:
        return pair_key(*pair) in self._records

    def pairs(self) -> Iterator[tuple[str, str]]:
        """Canonical (sorted) pairs in first-seen order."""
        return iter(self._records)

    def description(self, a: str, b: str) -> str:
        return self._records[pair_key(a, b)][1]

    def display(self, a: str, b: str) -> tuple[str, str]:
        return self._records[pair_key(a, b)][0]

    @classmethod
    def load(cls, path: Path | str) -> "InteractionCatalog":
        """Read rows ``drug_a TAB drug_b TAB description``; '#' lines are comments.

        Rows reach the constructor one at a time, so an error names the last row read, as ``path:line``.
        """
        with artifacts.input_lines(path, comments=True) as lines:
            return cls(map(three_fields, lines))


@dataclass(frozen=True)
class InteractionSample:
    """An ordered (cardiac drug, other drug) pair with its binary label."""

    cardiac_drug: str
    other_drug: str
    label: int
    template_id: int | None = None

    @property
    def key(self) -> str:
        return f"{self.cardiac_drug}|{self.other_drug}"


def build_universe(cardiac: set[str], catalog: InteractionCatalog) -> set[str]:
    """All catalog partners of cardiac drugs, united with the cardiac set."""
    if not cardiac:
        raise ValidationError("cardiac drug set is empty")
    universe = set(cardiac)
    for a, b in catalog.pairs():
        if a in cardiac or b in cardiac:
            universe.update((a, b))
    return universe


def label_pair(d_cardiac: str, d_other: str, catalog: InteractionCatalog) -> int:
    if d_cardiac == d_other:
        raise ValidationError(f"cannot label a self-pair ({d_cardiac!r})")
    return 1 if (d_cardiac, d_other) in catalog else 0


def enumerate_samples(
    cardiac: set[str], universe: set[str], catalog: InteractionCatalog, by_pair: dict[tuple[str, str], int]
) -> list[InteractionSample]:
    """One sample per (cardiac, other) pair over the universe, with its template id from ``by_pair``.

    ``by_pair`` maps canonical catalog pairs to template ids
    (``TemplateTable.by_pair``), so only a positive sample can carry one.  A
    pair of two cardiac drugs appears once, with the lexicographically smaller
    drug in the cardiac slot.  Output order is sorted and stable.
    """
    samples = []
    for d_c in sorted(cardiac):
        for d_o in sorted(universe):
            if d_o == d_c:
                continue
            if d_o in cardiac and not d_c < d_o:
                continue  # cardiac-cardiac pair already emitted from the other side
            samples.append(InteractionSample(d_c, d_o, label_pair(d_c, d_o, catalog), by_pair.get(pair_key(d_c, d_o))))
    return samples


def _priority(phrase: tuple[str, ...]) -> tuple[int, tuple[str, ...]]:
    """Longest phrase text first, then lexicographic."""
    return (-len(" ".join(phrase)), phrase)


# what ``[0-9A-Za-z]`` matches under re.IGNORECASE: the class, and four letters whose case folds into it
_WORD_CHARS = frozenset("0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz\u0130\u0131\u017f\u212a")


def _drug_pattern(phrases: Iterable[tuple[str, ...]]) -> tuple[re.Pattern[str], list, list]:
    """One drug's phrases in priority order: their alternation (a group each), each one's pattern, its priority."""
    ordered = sorted(phrases, key=_priority)
    texts = [r"[\s\-]+".join(map(re.escape, p)) for p in ordered]
    pattern = re.compile("|".join(f"({text})" for text in texts) or "(?!)", re.IGNORECASE)
    return pattern, texts, [_priority(p) for p in ordered]


def _first_match(drug: tuple[re.Pattern[str], list, list], text: str, pos: int) -> tuple[int, tuple, int] | None:
    """(start, priority, end) of the first match at or after ``pos`` of ``(?<![0-9A-Za-z])(?:phrases)(?![0-9A-Za-z])``:
    at each start the alternation finds, its phrase, then each later one in turn (compiled only then), is tried."""
    pattern, texts, priorities = drug
    m = pattern.search(text, pos)
    while m:
        start = m.start()
        if text[start - 1 : start] not in _WORD_CHARS:  # "" at the text's start
            for k in range(m.lastindex - 1, len(texts)):
                hit = m if k == m.lastindex - 1 else re.compile(texts[k], re.IGNORECASE).match(text, start)
                if hit and text[hit.end() : hit.end() + 1] not in _WORD_CHARS:
                    return start, priorities[k], hit.end()
        m = pattern.search(text, start + 1)
    return None


def templateize(
    description: str,
    drug_a: str,
    drug_b: str,
    lexicon: DrugLexicon,
    patterns: dict[str, tuple[re.Pattern[str], list, list]] | None = None,
) -> tuple[str, int]:
    """Replace both drugs' name phrases in ``description`` with the placeholder.

    Matching is case-insensitive, left to right without overlap, longest
    phrase first: the earliest match wins, and of two matches at one start the
    higher-priority phrase.  That is what one alternation over both drugs'
    phrases in priority order matches, but each drug's phrases are compiled
    once; ``patterns`` caches the compiled patterns by drug id across calls.
    A drug missing from the lexicon has no phrases.  Returns the template
    text and the number of replacements made (0 means the caller should
    count a warning; the text is returned unchanged).
    """
    if not description:
        raise ValidationError("empty interaction description")
    patterns = {} if patterns is None else patterns
    for drug in (drug_a, drug_b):
        if drug not in patterns:
            patterns[drug] = _drug_pattern(lexicon.phrases.get(drug, ()))
    pat_a, pat_b = patterns[drug_a], patterns[drug_b]
    m_a, m_b = _first_match(pat_a, description, 0), _first_match(pat_b, description, 0)
    pieces: list[str] = []
    pos = 0
    while m_a or m_b:
        m = m_a if m_b is None or (m_a is not None and m_a[:2] <= m_b[:2]) else m_b
        pieces += (description[pos : m[0]], PLACEHOLDER)
        pos = m[2]
        # a scan whose next match starts before pos resumes from pos, still seeing the text before it
        if m_a is not None and m_a[0] < pos:
            m_a = _first_match(pat_a, description, pos)
        if m_b is not None and m_b[0] < pos:
            m_b = _first_match(pat_b, description, pos)
    pieces.append(description[pos:])
    return "".join(pieces), len(pieces) // 2


@dataclass
class TemplateTable:
    """The distinct template texts, a template's id being its index, and the catalog pairs they came from."""

    templates: list[str]
    by_pair: dict[tuple[str, str], int]  # canonical pair -> template id
    support: dict[int, int]  # template id -> its catalog pairs
    n_warnings: int  # descriptions where neither drug name was found


def extract_templates(catalog: InteractionCatalog, lexicon: DrugLexicon) -> TemplateTable:
    """Collapse catalog descriptions to placeholder templates with dense ids.

    Ids are assigned in order of first appearance over the catalog.  A
    description where no drug name was found keeps no template (it would
    carry no placeholder) and counts as a warning.
    """
    ids: dict[str, int] = {}
    by_pair: dict[tuple[str, str], int] = {}
    support: dict[int, int] = {}
    warnings = 0
    patterns: dict[str, tuple[re.Pattern[str], list, list]] = {}
    for a, b in catalog.pairs():
        text, n_replaced = templateize(catalog.description(a, b), a, b, lexicon, patterns)
        if n_replaced == 0:
            warnings += 1
            continue
        if text not in ids:
            ids[text] = len(ids)
        tid = ids[text]
        by_pair[(a, b)] = tid
        support[tid] = support.get(tid, 0) + 1
    return TemplateTable(list(ids), by_pair, support, warnings)


def positive_tallies(samples: list[InteractionSample]) -> dict[str, int]:
    """Positive-pair counts under both the unordered and ordered conventions.

    Enumeration stores each pair once (unordered).  The ordered tally counts
    (cardiac, other) and (other, cardiac) separately when both drugs are
    cardiac, for comparison with conventions that do.
    """
    cardiac = {s.cardiac_drug for s in samples}
    unordered = sum(s.label for s in samples)
    cc = sum(s.label for s in samples if s.other_drug in cardiac)
    return {
        "positives_unordered": unordered,
        "positives_ordered": unordered + cc,
        "cardiac_cardiac_positives": cc,
    }
