"""Tokenisation as specified in §4.1 of the paper.

The document-term pipeline strips punctuation, lowercases, ignores pure
numbers and drops stop words.  Tokenisation is intentionally simple —
underground-forum text is noisy (jargon, misspellings) and the paper
compensates with statistical features, not with heavier NLP.
"""

from __future__ import annotations

import re
from typing import List

from .stopwords import STOPWORDS

__all__ = ["count_question_marks", "tokenize", "tokenize_raw", "word_pattern"]

#: Words are runs of letters possibly containing internal apostrophes or
#: hyphens (``e-whoring`` must survive as one token).
word_pattern = re.compile(r"[a-zA-Z][a-zA-Z'\-]*")

_number_pattern = re.compile(r"^\d+$")


def tokenize_raw(text: str) -> List[str]:
    """Lowercased word tokens with punctuation stripped, stop words kept."""
    return [match.group(0).lower() for match in word_pattern.finditer(text)]


def tokenize(text: str) -> List[str]:
    """Tokens ready for the document-term matrix.

    Lowercases, strips punctuation, ignores numbers and removes stop
    words — the exact preprocessing of §4.1.

    >>> tokenize("Selling UNSATURATED pack!!! 50 pics, no timewasters")
    ['selling', 'unsaturated', 'pack', 'pics', 'timewasters']
    """
    return [
        token
        for token in tokenize_raw(text)
        if token not in STOPWORDS and not _number_pattern.match(token)
    ]


def count_question_marks(text: str) -> int:
    """Number of ``?`` characters — a §4.1 statistical feature."""
    return text.count("?")
