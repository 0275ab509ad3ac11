"""URL extraction from TOPs with a snowball-sampled whitelist (§4.2).

Two pieces:

* :class:`WhitelistBuilder` — grows the set of known image-sharing and
  cloud-storage domains by snowball sampling: starting from a seed set,
  every unknown domain seen in TOP links is "visited" (looked up in the
  service registry, the analogue of a manual landing-page inspection)
  and added when it turns out to host images or files.
* :func:`extract_links` — pulls URLs out of TOP posts with the regex
  extractor, keeps whitelist hits, and annotates each with the post
  metadata the crawler records (post id, author, date).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..forum.dataset import ForumDataset
from ..forum.models import Thread
from ..web.crawler import LinkRecord
from ..web.sites import HostingService, ServiceKind, service_by_domain
from ..web.url import Url, deobfuscate_text, extract_urls

__all__ = ["LinkExtraction", "WhitelistBuilder", "extract_links"]

#: The analyst's initial whitelist: the services any forum reader would
#: recognise on sight.
DEFAULT_SEED_WHITELIST: Dict[str, ServiceKind] = {
    "imgur.com": ServiceKind.IMAGE_SHARING,
    "gyazo.com": ServiceKind.IMAGE_SHARING,
    "mediafire.com": ServiceKind.CLOUD_STORAGE,
    "mega.nz": ServiceKind.CLOUD_STORAGE,
    "dropbox.com": ServiceKind.CLOUD_STORAGE,
}


class WhitelistBuilder:
    """Snowball sampling over the domains appearing in TOP links.

    ``inspect`` is the landing-page inspection: given a host it returns
    the :class:`HostingService` there, or ``None``.  The default consults
    only the static Table 3/4 registry; under domain churn the adaptive
    re-snowballing defense passes :meth:`SimulatedInternet.service_for
    <repro.web.internet.SimulatedInternet.service_for>` so churned-in
    hosts are discoverable too.
    """

    def __init__(
        self,
        seed_whitelist: Optional[Dict[str, ServiceKind]] = None,
        inspect: Optional[Callable[[str], Optional[HostingService]]] = None,
    ):
        self._whitelist: Dict[str, ServiceKind] = dict(
            seed_whitelist if seed_whitelist is not None else DEFAULT_SEED_WHITELIST
        )
        self._inspect = inspect if inspect is not None else service_by_domain
        self._rejected: Set[str] = set()
        self.n_inspections = 0

    @property
    def whitelist(self) -> Dict[str, ServiceKind]:
        return dict(self._whitelist)

    def kind_of(self, host: str) -> Optional[ServiceKind]:
        """Whitelist verdict for a host, or ``None`` when unknown."""
        return self._whitelist.get(host.lower())

    # ------------------------------------------------------------------
    def snowball(self, urls: Iterable[Url], max_rounds: int = 10) -> int:
        """Grow the whitelist from observed URLs; returns domains added.

        Each round inspects the unknown domains seen so far.  Inspection
        is simulated by the hosting-service registry lookup — the
        analogue of manually visiting the landing page (§4.2).  Rounds
        repeat until no new domain qualifies, as in the paper.
        """
        pending = {url.host.lower() for url in urls}
        added_total = 0
        for _ in range(max_rounds):
            unknown = [
                host
                for host in sorted(pending)
                if host not in self._whitelist and host not in self._rejected
            ]
            if not unknown:
                break
            added_this_round = 0
            for host in unknown:
                self.n_inspections += 1
                service = self._inspect(host)
                if service is not None:
                    self._whitelist[host] = service.kind
                    added_this_round += 1
                else:
                    self._rejected.add(host)
            added_total += added_this_round
            if added_this_round == 0:
                break
        return added_total


@dataclass
class LinkExtraction:
    """Everything the URL-extraction stage produced."""

    preview_links: List[LinkRecord]
    pack_links: List[LinkRecord]
    #: URLs that matched no whitelisted service.
    unknown_urls: List[Url]
    #: Threads that contained at least one whitelisted link (§4.2 reports
    #: 774 of 4 137 TOPs, 18.7%).
    threads_with_links: Set[int]
    whitelist: Dict[str, ServiceKind]

    @property
    def all_links(self) -> List[LinkRecord]:
        return self.preview_links + self.pack_links

    def links_per_domain(self, kind: ServiceKind) -> Dict[str, int]:
        """Link counts per domain for one service family (Tables 3/4)."""
        source = self.preview_links if kind is ServiceKind.IMAGE_SHARING else self.pack_links
        counts: Dict[str, int] = {}
        for link in source:
            counts[link.url.host] = counts.get(link.url.host, 0) + 1
        return counts


def extract_links(
    dataset: ForumDataset,
    tops: Sequence[Thread],
    whitelist_builder: Optional[WhitelistBuilder] = None,
    scan_replies: bool = True,
    deobfuscate: bool = False,
) -> LinkExtraction:
    """Extract whitelisted links from TOP posts.

    The opener is always scanned; with ``scan_replies`` the follow-up
    posts are too (sharers often post mirrors in replies).  With
    ``deobfuscate`` each post's text is first normalised through
    :func:`~repro.web.url.deobfuscate_text`, recovering ``hxxp://`` /
    ``host[.]tld`` style de-fanged links the plain regex would miss —
    the adaptive defense against drift's URL-obfuscation channel.
    """
    builder = whitelist_builder if whitelist_builder is not None else WhitelistBuilder()

    # Pass 1: collect every URL to feed the snowball sampler.
    per_post_urls: List[Tuple[Thread, int, int, object, List[Url]]] = []
    all_urls: List[Url] = []
    for thread in tops:
        posts = dataset.posts_in_thread(thread.thread_id)
        if not scan_replies:
            posts = posts[:1]
        for post in posts:
            content = deobfuscate_text(post.content) if deobfuscate else post.content
            urls = extract_urls(content)
            if urls:
                per_post_urls.append((thread, post.post_id, post.author_id, post.created_at, urls))
                all_urls.extend(urls)
    builder.snowball(all_urls)

    preview_links: List[LinkRecord] = []
    pack_links: List[LinkRecord] = []
    unknown: List[Url] = []
    threads_with_links: Set[int] = set()

    for thread, post_id, author_id, created_at, urls in per_post_urls:
        for url in urls:
            kind = builder.kind_of(url.host)
            if kind is None:
                unknown.append(url)
                continue
            record = LinkRecord(
                url=url,
                thread_id=thread.thread_id,
                post_id=post_id,
                author_id=author_id,
                posted_at=created_at,
                link_kind="preview" if kind is ServiceKind.IMAGE_SHARING else "pack",
            )
            threads_with_links.add(thread.thread_id)
            if kind is ServiceKind.IMAGE_SHARING:
                preview_links.append(record)
            else:
                pack_links.append(record)

    return LinkExtraction(
        preview_links=preview_links,
        pack_links=pack_links,
        unknown_urls=unknown,
        threads_with_links=threads_with_links,
        whitelist=builder.whitelist,
    )
