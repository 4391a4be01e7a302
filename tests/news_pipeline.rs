//! The metadata pipeline end to end: articles → key extraction → catalog →
//! Zipf workload → TTL index, spanning `pdht-workload`, `pdht-zipf`,
//! `pdht-gossip` and `pdht-core`.

use pdht::core::{PartialIndex, Ttl};
use pdht::gossip::VersionedValue;
use pdht::types::{Key, RngStreams};
use pdht::workload::{KeyCatalog, NewsGenerator, QueryWorkload, UpdateProcess, STOP_WORDS};
use pdht::zipf::ZipfDistribution;

#[test]
fn catalog_keys_route_back_to_their_articles() {
    let streams = RngStreams::new(4);
    let mut rng = streams.stream("articles");
    let articles = NewsGenerator::new().articles(100, &mut rng);
    let catalog = KeyCatalog::build(&articles);

    for article in &articles {
        for key in article.keys() {
            let idx = catalog
                .index_of(key)
                .unwrap_or_else(|| panic!("key of article {} missing", article.id));
            // The owner is *an* article producing this string — for shared
            // metadata (same author/date) it may be an earlier one.
            let owner = catalog.article_of(idx);
            assert!(owner <= article.id, "owner must be first producer");
            assert_eq!(catalog.key(idx), key);
        }
    }
}

#[test]
fn stop_words_filtered_across_the_whole_corpus() {
    let streams = RngStreams::new(4);
    let mut rng = streams.stream("articles");
    let articles = NewsGenerator::new().articles(200, &mut rng);
    let catalog = KeyCatalog::build(&articles);
    for i in 0..catalog.len() {
        let s = catalog.key_string(i);
        if let Some(term) = s.strip_prefix("term=") {
            assert!(!STOP_WORDS.contains(&term), "stop word `{term}` made it into the catalog");
        }
    }
}

#[test]
fn zipf_workload_over_catalog_favours_head_articles() {
    let streams = RngStreams::new(4);
    let mut rng = streams.stream("pipeline");
    let articles = NewsGenerator::new().articles(100, &mut rng);
    let catalog = KeyCatalog::build(&articles);
    let workload = QueryWorkload::new(catalog.len(), 1.2, 500, 0.5, None).unwrap();

    let mut head_hits = 0usize;
    let mut total = 0usize;
    for round in 0..40 {
        for q in workload.round_queries(round, &mut rng) {
            assert!(q.key_index < catalog.len());
            total += 1;
            if q.key_index < catalog.len() / 100 {
                head_hits += 1;
            }
        }
    }
    assert!(total > 1_000);
    let frac = head_hits as f64 / total as f64;
    assert!(frac > 0.4, "1% head should draw >40% of queries, got {frac:.3}");
}

#[test]
fn ttl_index_tracks_update_versions() {
    // An index entry inserted before an article update serves a stale
    // version until it expires or is overwritten — exactly the laziness
    // the selection algorithm accepts. Verify version bookkeeping.
    let streams = RngStreams::new(4);
    let mut rng = streams.stream("updates");
    let mut updates = UpdateProcess::new(10, 3.0).unwrap(); // fast updates
    let mut index = PartialIndex::new(64);
    let ki = 0u32; // dense index of the one key in this universe
    let key = Key::of_index(ki);

    index.insert(
        ki,
        key,
        VersionedValue { version: updates.version(0), data: 0 },
        0,
        Ttl::Rounds(50),
    );
    let mut last_seen = 1u64;
    for now in 1..=100 {
        updates.round_updates(&mut rng);
        if now % 10 == 0 {
            // Re-broadcast fetches the fresh version and reinserts.
            let fresh = VersionedValue { version: updates.version(0), data: 0 };
            index.insert(ki, key, fresh, now, Ttl::Rounds(50));
            let got = index.peek(ki, now).unwrap();
            assert!(got >= last_seen, "versions must not regress");
            last_seen = got;
        }
    }
    assert!(last_seen > 1, "article 0 must have updated with 3 s lifetime");
    assert_eq!(index.peek(ki, 100), Some(updates.version(0)));
}

#[test]
fn full_pipeline_selects_popular_metadata() {
    // 50 articles, Zipf queries, one shared TTL store: after a few hundred
    // rounds the store must contain mostly head keys.
    let streams = RngStreams::new(4);
    let mut rng = streams.stream("select");
    let articles = NewsGenerator::new().articles(50, &mut rng);
    let catalog = KeyCatalog::build(&articles);
    let zipf = ZipfDistribution::new(catalog.len(), 1.2).unwrap();
    let ttl = 40u64;
    let mut store = PartialIndex::new(catalog.len());

    let mut purged = Vec::new();
    for now in 0..400u64 {
        for _ in 0..20 {
            let rank = zipf.sample(&mut rng);
            let ki = (rank - 1) as u32;
            if store.get_and_refresh(ki, now, Ttl::Rounds(ttl)).is_none() {
                store.insert(
                    ki,
                    Key::of_index(ki),
                    VersionedValue { version: 1, data: u64::from(ki) },
                    now,
                    Ttl::Rounds(ttl),
                );
            }
        }
        purged.clear();
        store.purge_expired_into(now, &mut purged);
    }

    // Resident keys should be dominated by the head of the ranking.
    let resident: Vec<usize> =
        (0..catalog.len()).filter(|&i| store.peek(i as u32, 399).is_some()).collect();
    assert!(!resident.is_empty());
    let head_resident = resident.iter().filter(|&&i| i < catalog.len() / 5).count();
    let frac = head_resident as f64 / resident.len() as f64;
    assert!(
        frac > 0.5,
        "top-20% ranks should dominate the index, got {frac:.3} of {} resident",
        resident.len()
    );
}
