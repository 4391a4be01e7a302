//! The paper's motivating application: a decentralized news system
//! (Sections 1 and 4).
//!
//! ```text
//! cargo run --release --example news_system
//! ```
//!
//! Walks the whole metadata pipeline: generate articles with element-value
//! metadata, extract hashed keys ([FeBi04]-style, stop words removed),
//! build the global key catalog, and then let the cost model decide — for
//! concrete keys like the paper's `title=Weather Iráklion` example —
//! whether each is worth indexing at the current query load.

use pdht::core::{PartialIndex, Ttl};
use pdht::gossip::VersionedValue;
use pdht::model::{CostModel, IdealPartial, Scenario};
use pdht::types::{Key, RngStreams};
use pdht::workload::{KeyCatalog, NewsGenerator};
use pdht::zipf::ZipfDistribution;

fn main() {
    let streams = RngStreams::new(2004);
    let mut rng = streams.stream("news");

    // 1. Publish 500 articles.
    let mut generator = NewsGenerator::new();
    let articles = generator.articles(500, &mut rng);
    println!("published {} articles; sample metadata:", articles.len());
    for (e, v) in &articles[0].attrs {
        println!("  {e} = {v}");
    }

    // 2. Extract the indexable keys.
    let catalog = KeyCatalog::build(&articles);
    println!(
        "\nkey catalog: {} unique keys (20 raw per article, shared metadata dedupes)",
        catalog.len()
    );
    println!("sample keys of article 0:");
    for s in articles[0].key_strings().iter().take(6) {
        println!("  hash({s}) = {}", Key::hash_str(s));
    }

    // 3. The paper's Section 1 example: key1 (title AND date) is likely to
    //    be queried; key2 (size=2405) is not. Ask the model where the bar
    //    `fMin` sits and which Zipf ranks clear it.
    let scenario = Scenario { keys: catalog.len() as u32, ..Scenario::table1_scaled(20) };
    let f_qry = 1.0 / 120.0;
    let ideal = IdealPartial::solve(&scenario, f_qry).expect("model solves");
    let cost = CostModel::new(&scenario);
    println!("\ncost model at one query per peer per {:.0} s:", 1.0 / f_qry);
    println!(
        "  broadcast search costs {:.0} msg, index search {:.2} msg",
        cost.c_s_unstr(),
        ideal.c_s_indx
    );
    println!("  minimum query rate worth indexing (fMin) = {:.2e} per round", ideal.f_min);
    println!("  => worth indexing: the {} most queried keys of {}", ideal.max_rank, scenario.keys);
    println!("  => they answer {:.1}% of all queries", ideal.p_indexed * 100.0);

    // 4. Show the selection mechanism doing that *without* the model: a
    //    peer's local TTL store, fed a popular and an unpopular key.
    let zipf = ZipfDistribution::new(catalog.len(), scenario.alpha).expect("zipf");
    let popular_rank = 1;
    let unpopular_rank = catalog.len(); // the tail
    println!(
        "\nZipf(α = {}): rank {popular_rank} gets {:.1}% of queries, rank {unpopular_rank} gets {:.2e}%",
        scenario.alpha,
        zipf.prob(popular_rank) * 100.0,
        zipf.prob(unpopular_rank) * 100.0
    );

    let ttl = 50;
    let mut store = PartialIndex::new(100);
    // The store files keys by their dense index in the catalog.
    let (hot_idx, cold_idx) = (0u32, (catalog.len() - 1) as u32);
    for idx in [hot_idx, cold_idx] {
        let value = VersionedValue { version: 1, data: u64::from(idx) };
        store.insert(idx, Key::of_index(idx), value, 0, Ttl::Rounds(ttl));
    }
    // The hot key is queried every 20 rounds, the cold key never again.
    let mut purged = Vec::new();
    for now in 1..=200 {
        if now % 20 == 0 {
            store.get_and_refresh(hot_idx, now, Ttl::Rounds(ttl));
        }
        purged.clear();
        store.purge_expired_into(now, &mut purged);
    }
    println!("\nafter 200 rounds with keyTtl = {ttl}:");
    println!(
        "  '{}' (queried)    in index: {}",
        catalog.key_string(0),
        store.peek(hot_idx, 200).is_some()
    );
    println!(
        "  '{}' (never queried) in index: {}",
        catalog.key_string(catalog.len() - 1),
        store.peek(cold_idx, 200).is_some()
    );
    println!("\nThe TTL mechanism kept exactly the key worth keeping.");
}
