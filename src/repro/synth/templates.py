"""Text templates for synthetic forum content.

Headings and post bodies are assembled from these pools.  They are
written so that the Table 2 lexicons and the TF-IDF features find the
same signal structure the paper found: TOP headings carry pack/selling
vocabulary, request threads carry question/buy vocabulary, tutorials the
tutorial markers, earnings threads the earnings markers — with enough
overlap and noise that the hybrid classifier is useful but imperfect
(the paper reports 92% precision / 93% recall, not 100%).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

__all__ = [
    "choose",
    "choose_many",
    "choose_mixed",
    "corrupt_heading",
    "render_template",
    "TOP_HEADINGS",
    "TOP_HARD_HEADINGS",
    "TOP_OPENERS",
    "REQUEST_HEADINGS",
    "REQUEST_HARD_HEADINGS",
    "DISCUSSION_HARD_HEADINGS",
    "TUTORIAL_HEADINGS",
    "EARNINGS_HEADINGS",
    "DISCUSSION_HEADINGS",
    "ACCOUNT_TRADE_HEADINGS",
    "BHW_HEADINGS",
    "REPLY_BODIES",
    "TOP_REPLY_BODIES",
    "EARNINGS_POST_BODIES",
    "PROOF_MENTION_BODIES",
    "CE_FALLBACK_HEADINGS",
    "OTHER_BOARD_HEADINGS",
    "OTHER_BOARD_BODIES",
    "GIRL_NAMES",
]

GIRL_NAMES: Tuple[str, ...] = (
    "Amber", "Ashley", "Bella", "Brooke", "Chloe", "Crystal", "Daisy",
    "Emma", "Hailey", "Jade", "Jessie", "Katie", "Lana", "Lily", "Mia",
    "Nina", "Olivia", "Ruby", "Sasha", "Skye", "Sophie", "Tina", "Violet",
)

# {name} model name, {n}/{m} counts, {year} year, {site} platform name.
TOP_HEADINGS: Tuple[str, ...] = (
    "[FREE] Unsaturated {name} pack - {n} pics + {m} vids",
    "Unsaturated pack of {name} ({n} pictures)",
    "WTS private {name} collection - HQ previews inside",
    "Giving away my {name} pack, {n} pics, sexy girl",
    "[HQ] New pack - {name} - {n} pics {m} videos",
    "Selling fresh pack, barely used, previews inside",
    "{name} pack with verification pics - free download",
    "Huge compilation: {n} pics of {name} [unsaturated]",
    "My private girl pack - {name} - enjoy",
    "[PACK] {name} set, dressed + more, {n} pics",
    "Free pack dump: {name} collection, vids included",
    "Offering unsaturated sets - {name} + previews",
    "{name} - new girl pack - {n} pictures {m} vids",
    "Mega pack release: {name} ({n} pics)",
    "sexy {name} pack. free. previews in thread",
)

#: Atypical TOP headings without the telltale vocabulary — mixed in at a
#: low rate so classifier recall stays below 100% as in §4.1.
TOP_HARD_HEADINGS: Tuple[str, ...] = (
    "My new collection, enjoy guys",
    "{name} rars inside, get them while hot",
    "dumping my old stuff ({name})",
    "fresh stuff inside, grab it",
    "{name} - you know what this is",
    "early xmas present for the community",
    "sharing something special today ({name})",
)

TOP_OPENERS: Tuple[str, ...] = (
    "Sharing my {name} pack with the community. Previews: {previews} "
    "Full pack here: {packlink} Enjoy and leave a thanks!",
    "Fresh unsaturated pack of {name}. {n} pics, {m} vids. "
    "Previews: {previews} Download: {packlink}",
    "As promised, here is the {name} collection. Previews below. "
    "{previews} Pack link: {packlink} Don't leech, say thanks.",
    "HQ pack, barely used. Previews: {previews} Link: {packlink}",
)

TOP_OPENERS_GATED: Tuple[str, ...] = (
    "Unsaturated {name} pack, {n} pics. Previews: {previews} "
    "Reply to this thread to unlock the download link.",
    "Sharing my private {name} set. Previews: {previews} "
    "Pack link goes to the first 20 who reply.",
    "New pack of {name}. Previews: {previews} PM me or reply for the link.",
    "{name} collection, vids included. Reply + like to get the link.",
)

REQUEST_HEADINGS: Tuple[str, ...] = (
    "[Question] where do you get unsaturated packs?",
    "Looking for a good pack, any help?",
    "Need a fresh pack please",
    "WTB unsaturated pack - paying well",
    "[HELP] need advice on ewhoring packs",
    "Anyone got a {name} pack? request inside",
    "How to find new packs? quick question",
    "Request: pack with verification pictures",
    "i have a question about packs",
    "Need some help with my ewhoring setup",
    "want to buy private pack, who is selling?",
    "seeking good vids for cam shows, help please",
)

#: Requests phrased like offers — rare hard negatives.
REQUEST_HARD_HEADINGS: Tuple[str, ...] = (
    "unsaturated pack wanted, will trade",
    "pack trade - your sets for my sets",
    "one more pack for my rotation, trading mine",
)

TUTORIAL_HEADINGS: Tuple[str, ...] = (
    "[TUT] The definite guide to ewhoring {year}",
    "Complete ewhoring tutorial - from zero to ${n}/day",
    "How-to: ewhoring on {site} without bans",
    "Ewhoring guide {year} edition [TUT]",
    "My ewhoring method - full tutorial inside",
    "Beginners guide to ewhoring - step by step",
    "[GUIDE] advanced ewhoring techniques",
    "howto avoid chargebacks - ewhoring guide",
)

EARNINGS_HEADINGS: Tuple[str, ...] = (
    "Post your ewhoring earnings!",
    "How much you make ewhoring?",
    "My ewhoring profit journey - updated weekly",
    "${n} in one week - proof inside",
    "Ewhoring money thread - post your gains",
    "What do you earn per day ewhoring?",
    "Show your profit screenshots",
    "ewhoring earnings check - how much you make this month?",
)

DISCUSSION_HEADINGS: Tuple[str, ...] = (
    "Is ewhoring dead in {year}?",
    "Best sites for ewhoring right now?",
    "ewhoring ban risk - discussion",
    "Funny customer story from last night (ewhoring)",
    "Ethics of ewhoring - your thoughts",
    "Which payment platform for ewhoring?",
    "e-whoring on {site}: still worth it?",
    "Do you feel bad about ewhoring?",
    "My first week of ewhoring - experiences",
    "ewhoring and VPNs - what do you use?",
)

#: Discussions that borrow pack vocabulary — rare hard negatives.
DISCUSSION_HARD_HEADINGS: Tuple[str, ...] = (
    "my pack collection story - how it started",
    "this pack got me banned, rant inside",
    "are video packs overrated",
    "saturated packs ruined the market imo",
)

ACCOUNT_TRADE_HEADINGS: Tuple[str, ...] = (
    "Selling Snapchat account with girl name - perfect for ewhoring",
    "[WTS] Kik account, female OG name ({name}) - ewhoring ready",
    "Aged Skype account for ewhoring, feminine handle",
    "OG girl-name Instagram for sale - ewhor setup",
    "Selling {name} Snapchat + email combo (ewhoring)",
    "Female-name Kik accounts, bulk, ewhoring grade",
)

BHW_HEADINGS: Tuple[str, ...] = (
    "Why is ewhoring banned here? discussion",
    "ewhoring ebook I found - is it legit?",
    "Mods keep deleting ewhoring threads",
    "e-whoring: the business model explained",
    "Is ewhoring against the rules on this forum?",
    "Request: ewhoring pictures (yes I know it's banned)",
)

REPLY_BODIES: Tuple[str, ...] = (
    "thanks for this",
    "interesting, following",
    "bump, anyone?",
    "good point mate",
    "this. exactly this.",
    "lol what a story",
    "not sure I agree but ok",
    "can confirm, happened to me too",
    "any update on this?",
    "solid thread, thanks op",
)

TOP_REPLY_BODIES: Tuple[str, ...] = (
    "Downloading, thanks for the share!",
    "just download the pack, amazing pack",
    "thanks op, great pack",
    "mirror please? link is dead for me",
    "replying for the link",
    "leeching this, cheers",
    "quality previews, grabbing it now",
    "is this one saturated already?",
    "thanks! exactly what I needed",
    "vouch, pack is HQ",
)

EARNINGS_POST_BODIES: Tuple[str, ...] = (
    "Made {amount} this week. Proof: {url}",
    "My earnings so far: {url} ({amount})",
    "{amount} today alone, screenshot: {url}",
    "Weekly earn update: {url}",
    "proof of my profit: {url} - AMA",
    "cashed out {amount}, proof attached {url}",
)

PROOF_MENTION_BODIES: Tuple[str, ...] = (
    "Selling my mentoring service, proof of earnings: {url}",
    "My ebook works, here is proof: {url} - selling for cheap",
    "Buy my method, {amount} proof here {url}",
    "vouch me, proof of my sales: {url}",
)

CE_FALLBACK_HEADINGS: Tuple[str, ...] = (
    "Exchange deal inside, quick",
    "need exchange asap, good rates",
    "trading currencies, pm me",
    "quick swap anyone?",
)

OTHER_BOARD_HEADINGS: Tuple[str, ...] = (
    "Thoughts on the latest update?",
    "Anyone playing this weekend?",
    "Best setup for beginners",
    "Rate my configuration",
    "Issue with my account - help",
    "General discussion thread #{n}",
    "What are you working on?",
    "Tips and tricks compilation",
)

OTHER_BOARD_BODIES: Tuple[str, ...] = (
    "pretty sure this was answered before",
    "works fine for me",
    "try reinstalling first",
    "nice share, thanks",
    "anyone else seeing this?",
    "been using this for months, solid",
    "meh, overrated imo",
    "+1, same here",
)


_LEET_FORWARD = {"a": "4", "e": "3", "o": "0", "s": "5", "i": "1", "t": "7"}


def corrupt_heading(rng: np.random.Generator, heading: str, intensity: float = 0.35) -> str:
    """Leetify a heading the way forum users do (``p4ck``, ``fr33``).

    Each eligible letter flips with probability ``intensity``; one random
    vowel may also be stretched.  Used on a small fraction of generated
    headings so the §4.1 normalisation extension has real work to do.
    """
    chars = []
    for ch in heading:
        replacement = _LEET_FORWARD.get(ch.lower())
        if replacement is not None and rng.random() < intensity:
            chars.append(replacement)
        else:
            chars.append(ch)
    corrupted = "".join(chars)
    if rng.random() < 0.4:
        vowel_positions = [i for i, c in enumerate(corrupted) if c.lower() in "aeiou"]
        if vowel_positions:
            pos = vowel_positions[int(rng.integers(0, len(vowel_positions)))]
            corrupted = corrupted[: pos + 1] + corrupted[pos] * 2 + corrupted[pos + 1 :]
    return corrupted


def choose(rng: np.random.Generator, pool: Sequence[str]) -> str:
    """Pick one template uniformly."""
    return pool[int(rng.integers(0, len(pool)))]


def choose_many(rng: np.random.Generator, pool: Sequence[str], k: int) -> List[str]:
    """Pick ``k`` templates uniformly, in one draw."""
    return [pool[i] for i in rng.integers(0, len(pool), size=k).tolist()]


def choose_mixed(
    rng: np.random.Generator,
    common: Sequence[str],
    rare: Sequence[str],
    p_rare: float,
) -> str:
    """Pick from ``rare`` with probability ``p_rare``, else from ``common``.

    Keeps the hard cases present but infrequent, as in real forum data —
    the classifier metrics of §4.1 depend on the base rate of ambiguous
    headings, not just their existence.
    """
    if rare and rng.random() < p_rare:
        return choose(rng, rare)
    return choose(rng, common)


_SITES = ("Omegle", "Kik", "Snapchat", "Skype", "Tinder", "Chatroulette")

#: ``render_template``'s random defaults, drawn in one call as integers in
#: ``[low, high)``: name index, n, m, year, site index, amount.
_DEFAULT_LOW = np.array([0, 10, 1, 2009, 0, 20])
_DEFAULT_HIGH = np.array([len(GIRL_NAMES), 400, 30, 2020, len(_SITES), 900])


def render_template(rng: np.random.Generator, template: str, **extra: str) -> str:
    """Fill a template's placeholders with plausible values.

    ``extra`` overrides the random defaults (e.g. a concrete ``previews``
    URL list).  Unknown placeholders in ``extra`` are ignored by templates
    that do not use them.
    """
    name, n, m, year, site, amount = rng.integers(_DEFAULT_LOW, _DEFAULT_HIGH).tolist()
    values = {
        "name": GIRL_NAMES[name],
        "n": str(n),
        "m": str(m),
        "year": str(year),
        "site": _SITES[site],
        "amount": f"${amount}",
        "url": "",
        "previews": "",
        "packlink": "",
    }
    values.update(extra)
    return template.format(**values)
