"""The methodology keyword lexicons of Table 2, verbatim.

Five lexicons drive the semi-automatic stages of the pipeline: selecting
eWhoring threads, classifying Threads Offering Packs (TOPs), discarding
info-requesting threads, detecting tutorials, and finding posts that share
earnings.  Multi-word entries are matched as substrings of the lowercased
text, single words as whole tokens, mirroring how forum headings are
scanned in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Tuple

from .tokenize import tokenize_raw

__all__ = [
    "EARNINGS_KEYWORDS",
    "EWHORING_KEYWORDS",
    "Lexicon",
    "PACK_KEYWORDS",
    "REQUEST_KEYWORDS",
    "TUTORIAL_KEYWORDS",
]


@dataclass(frozen=True)
class Lexicon:
    """A named keyword set with token- and phrase-level matching.

    With ``match_substrings=True`` every entry is matched as a raw
    substring of the lowercased text — the semantics of the paper's
    heading search, where ``'ewhor'`` must hit ``'ewhoring'``.
    """

    name: str
    entries: Tuple[str, ...]
    match_substrings: bool = False

    def __post_init__(self) -> None:
        lowered = tuple(entry.lower() for entry in self.entries)
        object.__setattr__(self, "entries", lowered)
        if self.match_substrings:
            words: FrozenSet[str] = frozenset()
            phrases = lowered
        else:
            words = frozenset(e for e in lowered if " " not in e and "[" not in e)
            phrases = tuple(e for e in lowered if " " in e or "[" in e)
        object.__setattr__(self, "_words", words)
        object.__setattr__(self, "_phrases", phrases)

    @property
    def words(self) -> FrozenSet[str]:
        """Single-token entries, matched as whole tokens."""
        return self._words  # type: ignore[attr-defined]

    @property
    def phrases(self) -> Tuple[str, ...]:
        """Multi-word or bracketed entries, matched as substrings."""
        return self._phrases  # type: ignore[attr-defined]

    def count_matches(self, text: str) -> int:
        """Number of lexicon hits in ``text`` (token + phrase matches)."""
        lowered = text.lower()
        tokens = tokenize_raw(lowered)
        token_hits = sum(1 for token in tokens if token in self.words)
        phrase_hits = sum(lowered.count(phrase) for phrase in self.phrases)
        return token_hits + phrase_hits

    def matches(self, text: str) -> bool:
        """True when any entry occurs in ``text``."""
        lowered = text.lower()
        if any(phrase in lowered for phrase in self.phrases):
            return True
        words = self.words
        return any(token in words for token in tokenize_raw(lowered))

    def __len__(self) -> int:
        return len(self.entries)


#: Row 1 of Table 2 — selects eWhoring-related threads by heading.
#: Substring semantics: the paper searches for these inside lowercased
#: headings, so 'ewhor' hits 'ewhoring'.
EWHORING_KEYWORDS = Lexicon("ewhoring", ("ewhor", "e-whor"), match_substrings=True)

#: Row 2 of Table 2 — indicative of Threads Offering Packs.
PACK_KEYWORDS = Lexicon(
    "packs",
    (
        "pack", "packs", "package", "packages", "pics", "pictures",
        "videos", "vids", "video", "collection", "collections", "set",
        "sets", "repository", "repositories", "selling", "wts",
        "offering", "free", "unsaturated", "new", "giving",
        "compilation", "private", "girl", "girls", "sexy",
    ),
)

#: Row 3 of Table 2 — info-requesting posts (used to *discard* threads
#: asking for rather than offering packs).
REQUEST_KEYWORDS = Lexicon(
    "requests",
    (
        "[question]", "[help]", "need advice", "need", "needed", "wtb",
        "want to buy", "req", "request", "question", "looking for",
        "give me advice", "quick question", "question for",
        "i wonder whether", "i wonder if", "im asking for",
        "general query", "general question", "i have a question",
        "i have a doubt", "help requested", "how to", "help please",
        "help with", "need help", "need a", "need some help",
        "help needed", "i want help", "help me", "seeking",
    ),
)

#: Row 4 of Table 2 — threads providing tutorials.
TUTORIAL_KEYWORDS = Lexicon(
    "tutorials",
    ("tutorial", "[tut]", "howto", "how-to", "definite guide", "guide"),
)

#: Row 5 of Table 2 — posts sharing earnings.
EARNINGS_KEYWORDS = Lexicon("earnings", ("earn", "profit", "money", "gain"))

#: All lexicons in Table 2 order, for documentation and the T2 benchmark.
TABLE2_LEXICONS: Tuple[Lexicon, ...] = (
    EWHORING_KEYWORDS,
    PACK_KEYWORDS,
    REQUEST_KEYWORDS,
    TUTORIAL_KEYWORDS,
    EARNINGS_KEYWORDS,
)
