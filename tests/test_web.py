"""Tests for the simulated-internet substrate."""

from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.media import ImageKind, Pack, SyntheticImage, sample_latent
from repro.web import (
    CLOUD_STORAGE_SERVICES,
    IMAGE_SHARING_SERVICES,
    CrawlStats,
    Crawler,
    FetchStatus,
    HostingService,
    LinkRecord,
    OriginSite,
    ServiceKind,
    SimulatedInternet,
    Url,
    WaybackArchive,
    content_digest,
    extract_urls,
    normalize_url,
    registrable_domain,
    service_by_domain,
)

T0 = datetime(2014, 5, 1)


def make_image(rng, kind=ImageKind.MODEL_NUDE, image_id=1):
    return SyntheticImage(image_id, sample_latent(rng, kind, model_id=1 if kind.is_model else None))


def make_pack(rng, pack_id=1, n=4):
    images = [make_image(rng, image_id=100 + i) for i in range(n)]
    return Pack(pack_id=pack_id, model_id=1, images=images)


class TestUrl:
    def test_str_round_trip(self):
        url = Url("imgur.com", "/abc")
        assert str(url) == "https://imgur.com/abc"

    def test_default_path(self):
        assert str(Url("a.com")) == "https://a.com/"

    def test_invalid_host(self):
        with pytest.raises(ValueError):
            Url("nodots")

    def test_registrable_domain(self):
        assert registrable_domain("www.imgur.com") == "imgur.com"
        assert registrable_domain("a.b.example.org") == "example.org"
        assert registrable_domain("ge.tt") == "ge.tt"

    def test_normalize_url(self):
        url = normalize_url("http://www.Imgur.com/xyz")
        assert url == Url("imgur.com", "/xyz")

    def test_normalize_rejects_garbage(self):
        assert normalize_url("not a url") is None

    def test_extract_urls_basic(self):
        text = "previews https://imgur.com/a1 and https://mega.nz/f/x2 done"
        urls = extract_urls(text)
        assert [u.host for u in urls] == ["imgur.com", "mega.nz"]

    def test_extract_preserves_duplicates(self):
        text = "https://a.com/x https://a.com/x"
        assert len(extract_urls(text)) == 2

    def test_extract_strips_trailing_punctuation(self):
        urls = extract_urls("see (https://imgur.com/abc) now")
        assert urls[0].path == "/abc"

    def test_extract_none(self):
        assert extract_urls("no links here") == []

    @given(st.text(max_size=200))
    @settings(max_examples=50)
    def test_extract_never_crashes(self, text):
        extract_urls(text)


class TestSites:
    def test_weights_match_table3_ordering(self):
        weights = {s.name: s.weight for s in IMAGE_SHARING_SERVICES}
        assert weights["imgur"] > weights["Gyazo"] > weights["ImageShack"]

    def test_weights_match_table4_ordering(self):
        weights = {s.name: s.weight for s in CLOUD_STORAGE_SERVICES}
        assert weights["MediaFire"] > weights["mega"] > weights["Dropbox"]

    def test_registration_walls(self):
        assert service_by_domain("dropbox.com").requires_registration
        assert service_by_domain("drive.google.com").requires_registration
        assert not service_by_domain("mediafire.com").requires_registration

    def test_oron_defunct(self):
        assert service_by_domain("oron.com").defunct

    def test_lookup_unknown(self):
        assert service_by_domain("example.org") is None

    def test_invalid_rates_rejected(self):
        with pytest.raises(ValueError):
            HostingService("x", "x.com", ServiceKind.IMAGE_SHARING, 1, dead_link_rate=1.5)
        with pytest.raises(ValueError):
            HostingService("x", "x.com", ServiceKind.IMAGE_SHARING, 0)


class TestInternet:
    def make_service(self, **kwargs):
        defaults = dict(
            name="svc", domain="svc.com", kind=ServiceKind.IMAGE_SHARING,
            weight=1.0, dead_link_rate=0.0, tos_takedown_rate=0.0,
        )
        defaults.update(kwargs)
        return HostingService(**defaults)

    def test_host_and_fetch_ok(self, rng):
        net = SimulatedInternet(seed=1)
        image = make_image(rng)
        url = net.host_on_service(self.make_service(), image, T0, contains_nudity=False)
        result = net.fetch(url)
        assert result.ok
        assert result.resource is image

    def test_defunct_service(self, rng):
        net = SimulatedInternet(seed=1)
        url = net.host_on_service(
            self.make_service(defunct=True), make_image(rng), T0, contains_nudity=False
        )
        assert net.fetch(url).status is FetchStatus.DEFUNCT

    def test_dead_links_sampled(self, rng):
        net = SimulatedInternet(seed=1)
        service = self.make_service(dead_link_rate=1.0)
        url = net.host_on_service(service, make_image(rng), T0, contains_nudity=False)
        assert net.fetch(url).status is FetchStatus.NOT_FOUND

    def test_tos_takedown_only_for_nudity(self, rng):
        net = SimulatedInternet(seed=1)
        service = self.make_service(tos_takedown_rate=1.0)
        url_clean = net.host_on_service(service, make_image(rng, ImageKind.PROOF_SCREENSHOT), T0, False)
        url_nude = net.host_on_service(service, make_image(rng), T0, True)
        assert net.fetch(url_clean).ok
        assert net.fetch(url_nude).status is FetchStatus.REMOVED_TOS

    def test_registration_wall_applies_to_packs_only(self, rng):
        net = SimulatedInternet(seed=1)
        service = self.make_service(
            kind=ServiceKind.CLOUD_STORAGE, requires_registration=True
        )
        url_pack = net.host_on_service(service, make_pack(rng), T0, True)
        url_image = net.host_on_service(service, make_image(rng), T0, False)
        assert net.fetch(url_pack).status is FetchStatus.REGISTRATION_REQUIRED
        assert net.fetch(url_image).ok

    def test_unknown_url(self):
        net = SimulatedInternet()
        assert net.fetch("https://nowhere.com/x").status is FetchStatus.UNKNOWN_HOST

    def test_minted_urls_unique(self, rng):
        net = SimulatedInternet(seed=2)
        service = self.make_service()
        urls = {
            str(net.host_on_service(service, make_image(rng, image_id=i), T0, False))
            for i in range(200)
        }
        assert len(urls) == 200

    def test_origin_site_registry(self, rng):
        net = SimulatedInternet(seed=3)
        site = OriginSite("porn.example", "Pornography", "regular website", "Europe")
        net.register_origin_site(site)
        assert list(net.origin_sites()) == [site]
        assert net.region_of("porn.example") == "Europe"
        assert net.site_type_of("porn.example") == "regular website"

    def test_conflicting_origin_registration(self):
        net = SimulatedInternet()
        net.register_origin_site(OriginSite("d.com", "Blogs", "blog", "UK"))
        with pytest.raises(ValueError):
            net.register_origin_site(OriginSite("d.com", "News", "blog", "UK"))

    def test_site_type_for_hosting_services(self):
        net = SimulatedInternet()
        assert net.site_type_of("imgur.com") == "image sharing site"
        assert net.site_type_of("mediafire.com") == "cloud storage"
        assert net.site_type_of("unknown.tld") is None


class TestArchive:
    def test_record_and_query(self):
        archive = WaybackArchive(seed=1, coverage=1.0)
        archive.record("https://a.com/x", T0)
        assert archive.earliest_snapshot("https://a.com/x") == T0
        assert archive.seen_before("https://a.com/x", T0 + timedelta(days=1))
        assert not archive.seen_before("https://a.com/x", T0)

    def test_unarchived_url(self):
        archive = WaybackArchive()
        assert archive.earliest_snapshot("https://a.com/x") is None
        assert not archive.seen_before("https://a.com/x", T0)

    def test_zero_coverage_never_archives(self):
        archive = WaybackArchive(seed=1, coverage=0.0)
        for i in range(50):
            assert archive.observe_publication(f"https://a.com/{i}", T0) is None

    def test_full_coverage_always_archives(self):
        archive = WaybackArchive(seed=1, coverage=1.0, max_lag_days=10)
        snapshot = archive.observe_publication("https://a.com/x", T0)
        assert snapshot is not None
        assert T0 <= snapshot <= T0 + timedelta(days=10)

    def test_coverage_validation(self):
        with pytest.raises(ValueError):
            WaybackArchive(coverage=1.5)

    def test_snapshots_sorted(self):
        archive = WaybackArchive()
        archive.record("u", T0 + timedelta(days=5))
        archive.record("u", T0)
        assert archive.snapshots("u") == [T0, T0 + timedelta(days=5)]


class TestCrawler:
    def make_net_with(self, rng, resources):
        net = SimulatedInternet(seed=4)
        service = HostingService(
            "ok", "ok.com", ServiceKind.IMAGE_SHARING, 1.0, 0.0, 0.0
        )
        links = []
        for kind, resource in resources:
            url = net.host_on_service(service, resource, T0, contains_nudity=False)
            links.append(LinkRecord(url=url, thread_id=1, post_id=2,
                                    author_id=3, posted_at=T0, link_kind=kind))
        return net, links

    def test_downloads_images(self, rng):
        net, links = self.make_net_with(rng, [("preview", make_image(rng))])
        result = Crawler(net).crawl(links)
        assert len(result.preview_images) == 1
        assert result.stats.n_ok == 1

    def test_unpacks_packs(self, rng):
        pack = make_pack(rng, n=5)
        net, links = self.make_net_with(rng, [("pack", pack)])
        result = Crawler(net).crawl(links)
        assert len(result.packs) == 1
        assert len(result.pack_images) == 5

    def test_same_pack_two_links_counted_once(self, rng):
        pack = make_pack(rng, n=3)
        net, links = self.make_net_with(rng, [("pack", pack), ("pack", pack)])
        result = Crawler(net).crawl(links)
        assert len(result.packs) == 1
        assert len(result.pack_images) == 6  # both links deliver files

    def test_dedup_by_digest(self, rng):
        pack = make_pack(rng, n=3)
        net, links = self.make_net_with(rng, [("pack", pack), ("pack", pack)])
        result = Crawler(net).crawl(links)
        assert result.n_unique_files == 3

    def test_dead_links_counted(self, rng):
        net = SimulatedInternet(seed=5)
        dead = HostingService("dead", "dead.com", ServiceKind.IMAGE_SHARING, 1.0, 1.0, 0.0)
        url = net.host_on_service(dead, make_image(rng), T0, False)
        result = Crawler(net).crawl([LinkRecord(url=url)])
        assert result.stats.count(FetchStatus.NOT_FOUND) == 1
        assert result.preview_images == []

    def test_duplicate_histogram(self, rng):
        pack = make_pack(rng, n=2)
        net, links = self.make_net_with(rng, [("pack", pack), ("pack", pack)])
        histogram = Crawler(net).crawl(links).duplicate_histogram()
        assert sorted(histogram.values()) == [2, 2]

    def test_content_digest_stable_and_distinct(self, rng):
        a = make_image(rng, image_id=1)
        b = make_image(rng, image_id=2)
        assert content_digest(a) == content_digest(a)
        assert content_digest(a) != content_digest(b)

    def test_stats_by_domain(self, rng):
        net, links = self.make_net_with(rng, [("preview", make_image(rng))])
        stats = Crawler(net).crawl(links).stats
        assert stats.by_domain == {"ok.com": 1}
