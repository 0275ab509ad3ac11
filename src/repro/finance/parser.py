"""Parsing Currency Exchange thread headings (§5.1).

"Most of the threads in this board use a de-facto standard format where
the currency offered follows the tag [H] and the currency wanted follows
the tag [W]."  This module parses that format into canonical currency
labels, with the alias table an exchange board actually exhibits (pp,
paypal, btc, bitcoin, agc, amazon gc, …).  Headings that do not follow
the convention, or whose currency token is unrecognised, classify as
``"?"`` — the unclassified bucket of Table 7.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, Tuple

__all__ = [
    "CANONICAL_CURRENCIES",
    "ExchangeOffer",
    "UNCLASSIFIED",
    "canonical_currency",
    "parse_exchange_heading",
]

#: The canonical buckets of Table 7.
CANONICAL_CURRENCIES: Tuple[str, ...] = ("PayPal", "BTC", "AGC", "?", "others")

#: Label for headings without a recognisable currency.
UNCLASSIFIED = "?"

_ALIASES: Dict[str, str] = {
    "paypal": "PayPal",
    "pp": "PayPal",
    "btc": "BTC",
    "bitcoin": "BTC",
    "bitcoins": "BTC",
    "agc": "AGC",
    "amazon": "AGC",
    "amazon gc": "AGC",
    "amazon gift card": "AGC",
    "amazon gift cards": "AGC",
    "amazon giftcard": "AGC",
    "amazongc": "AGC",
    # Everything else the board trades collapses into "others".
    "skrill": "others",
    "ltc": "others",
    "litecoin": "others",
    "eth": "others",
    "ethereum": "others",
    "wmz": "others",
    "webmoney": "others",
    "wu": "others",
    "western union": "others",
    "steam": "others",
    "psc": "others",
    "paysafecard": "others",
    "venmo": "others",
    "cashapp": "others",
    "zelle": "others",
}

_H_PATTERN = re.compile(r"\[h\]\s*([^\[\]]*)", re.IGNORECASE)
_W_PATTERN = re.compile(r"\[w\]\s*([^\[\]]*)", re.IGNORECASE)
#: Strips amounts like "$50", "50$", "0.01", "50 usd" from a tag segment.
_AMOUNT_PATTERN = re.compile(r"[\$€£]?\s*\d+(?:[.,]\d+)?\s*(?:usd|eur|gbp)?\s*", re.IGNORECASE)


@dataclass(frozen=True, slots=True)
class ExchangeOffer:
    """Parsed [H]/[W] heading: what is offered and what is wanted."""

    offered: str
    wanted: str

    @property
    def parsed(self) -> bool:
        """True when both sides were recognised."""
        return self.offered != UNCLASSIFIED and self.wanted != UNCLASSIFIED


def canonical_currency(token: str) -> str:
    """Map a free-text currency mention to its Table 7 bucket."""
    cleaned = _AMOUNT_PATTERN.sub(" ", token.lower())
    cleaned = re.sub(r"[^a-z ]", " ", cleaned)
    cleaned = " ".join(cleaned.split())
    if not cleaned:
        return UNCLASSIFIED
    if cleaned in _ALIASES:
        return _ALIASES[cleaned]
    # Try multi-word aliases inside the segment, longest first.
    for alias in sorted(_ALIASES, key=len, reverse=True):
        if " " in alias and alias in cleaned:
            return _ALIASES[alias]
    for word in cleaned.split():
        if word in _ALIASES:
            return _ALIASES[word]
    return UNCLASSIFIED


def parse_exchange_heading(heading: str) -> ExchangeOffer:
    """Parse a Currency Exchange heading into an :class:`ExchangeOffer`.

    >>> parse_exchange_heading("[H] $50 Amazon GC [W] BTC").offered
    'AGC'
    >>> parse_exchange_heading("selling stuff").wanted
    '?'
    """
    have = _H_PATTERN.search(heading)
    want = _W_PATTERN.search(heading)
    offered = canonical_currency(have.group(1)) if have else UNCLASSIFIED
    wanted = canonical_currency(want.group(1)) if want else UNCLASSIFIED
    return ExchangeOffer(offered=offered, wanted=wanted)
