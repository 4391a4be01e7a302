//! Property tests for the TTL partial index — the data structure at the
//! heart of the selection algorithm.

use pdht_core::{AdmissionFilter, AdmissionPolicy, InsertResult, PartialIndex, Ttl};
use pdht_gossip::VersionedValue;
use pdht_types::Key;
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

/// Arbitrary index operations.
#[derive(Debug, Clone)]
enum Op {
    Insert { key: u8, version: u64, ttl: u64 },
    Get { key: u8 },
    Purge,
    Advance { by: u64 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), 1u64..50, 1u64..64).prop_map(|(key, version, ttl)| Op::Insert {
            key,
            version,
            ttl
        }),
        any::<u8>().prop_map(|key| Op::Get { key }),
        Just(Op::Purge),
        (1u64..16).prop_map(|by| Op::Advance { by }),
    ]
}

/// The hash-map store `PartialIndex` was until the sorted columns replaced
/// it, kept as the lockstep oracle: same rules, none of the layout. The
/// routed key is derived from the index, as the store derives it, and the
/// victim is the one-pass `(expires_at, routed key, index)` minimum the
/// store's two-pass scan must reproduce. (The map left a full
/// `(expires_at, key)` tie to its bucket order; the columns, and so this
/// model, settle it on the smaller dense index.) Its entries stay `u64`:
/// the store's `u32` columns must agree with it below the horizon.
#[derive(Clone)]
struct ModelIndex {
    entries: HashMap<u32, ModelEntry>,
    capacity: usize,
}

/// A model entry: the version and expiry round at full width.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct ModelEntry {
    version: u64,
    expires_at: u64,
}

impl ModelIndex {
    fn get_and_refresh(&mut self, idx: u32, now: u64, ttl: Ttl) -> Option<u64> {
        let e = self.entries.get_mut(&idx).filter(|e| e.expires_at > now)?;
        e.expires_at = ttl.expires_at(now);
        Some(e.version)
    }

    fn peek(&self, idx: u32, now: u64) -> Option<u64> {
        self.entries.get(&idx).filter(|e| e.expires_at > now).map(|e| e.version)
    }

    fn insert(&mut self, idx: u32, version: u64, now: u64, ttl: Ttl) -> InsertResult {
        let expires_at = ttl.expires_at(now);
        if let Some(existing) = self.entries.get_mut(&idx) {
            existing.version = existing.version.max(version);
            existing.expires_at = existing.expires_at.max(expires_at);
            return InsertResult { was_new: false, evicted: None };
        }
        let mut evicted = None;
        if self.entries.len() >= self.capacity {
            evicted = self
                .entries
                .iter()
                .map(|(&i, e)| (e.expires_at, Key::of_index(i), i))
                .min()
                .map(|v| v.2);
            if let Some(victim) = evicted {
                self.entries.remove(&victim);
            }
        }
        if self.capacity > 0 {
            self.entries.insert(idx, ModelEntry { version, expires_at });
        }
        InsertResult { was_new: self.capacity > 0, evicted }
    }

    fn remove(&mut self, idx: u32) -> bool {
        self.entries.remove(&idx).is_some()
    }

    fn purge_expired(&mut self, now: u64) -> Vec<u32> {
        let mut gone: Vec<u32> =
            self.entries.iter().filter(|(_, e)| e.expires_at <= now).map(|(&i, _)| i).collect();
        gone.sort_unstable();
        for i in &gone {
            self.entries.remove(i);
        }
        gone
    }
}

/// Round 2³²−1, where the store's `u32` expiry column runs out.
const HORIZON: u64 = u32::MAX as u64;

/// Operations of the lockstep run; `ttl` is a code for [`lockstep_ttl`].
#[derive(Debug, Clone)]
enum LockstepOp {
    Insert { idx: u32, version: u64, ttl: u64 },
    Get { idx: u32, ttl: u64 },
    Peek { idx: u32 },
    Remove { idx: u32 },
    Purge,
    Advance { by: u64 },
}

/// The TTL a lockstep `ttl` code stands for at round `now`: `0` is
/// [`Ttl::Infinite`], `1..4` that many rounds, and `c >= 4` a finite
/// expiry `c - 3` rounds short of the horizon (the next round once the
/// clock has passed that) — so every finite expiry stays below the
/// horizon while the clock does.
fn lockstep_ttl(code: u64, now: u64) -> Ttl {
    match code {
        0 => Ttl::Infinite,
        1..4 => Ttl::Rounds(code),
        _ => Ttl::Rounds((HORIZON - (code - 3)).saturating_sub(now).max(1)),
    }
}

fn lockstep_ttl_code() -> impl Strategy<Value = u64> {
    prop_oneof![0u64..4, 0u64..4, 4u64..300]
}

fn lockstep_version() -> impl Strategy<Value = u64> {
    // Small versions collide often; the top five reach `u32::MAX`, the
    // widest version the store holds exactly.
    prop_oneof![1u64..6, (HORIZON - 4)..=HORIZON]
}

fn lockstep_op() -> impl Strategy<Value = LockstepOp> {
    // Twelve indices against capacities 0..=8 force evictions; TTLs of 0..4
    // rounds force equal expiries, so victims are decided by the tie-break.
    prop_oneof![
        (0u32..12, lockstep_version(), lockstep_ttl_code())
            .prop_map(|(idx, version, ttl)| LockstepOp::Insert { idx, version, ttl }),
        (0u32..12, lockstep_version(), lockstep_ttl_code())
            .prop_map(|(idx, version, ttl)| LockstepOp::Insert { idx, version, ttl }),
        (0u32..12, lockstep_ttl_code()).prop_map(|(idx, ttl)| LockstepOp::Get { idx, ttl }),
        (0u32..12).prop_map(|idx| LockstepOp::Peek { idx }),
        (0u32..12).prop_map(|idx| LockstepOp::Remove { idx }),
        Just(LockstepOp::Purge),
        (0u64..3).prop_map(|by| LockstepOp::Advance { by }),
    ]
}

/// Applies `op` at round `*now` to the store and its model, comparing
/// their results.
fn lockstep(
    index: &mut PartialIndex,
    model: &mut ModelIndex,
    now: &mut u64,
    op: LockstepOp,
) -> Result<(), TestCaseError> {
    match op {
        LockstepOp::Insert { idx, version, ttl } => {
            let value = VersionedValue { version, data: u64::from(idx) };
            let ttl = lockstep_ttl(ttl, *now);
            prop_assert_eq!(
                index.insert(idx, Key::of_index(idx), value, *now, ttl),
                model.insert(idx, version, *now, ttl)
            );
        }
        LockstepOp::Get { idx, ttl } => prop_assert_eq!(
            index.get_and_refresh(idx, *now, lockstep_ttl(ttl, *now)),
            model.get_and_refresh(idx, *now, lockstep_ttl(ttl, *now))
        ),
        LockstepOp::Peek { idx } => prop_assert_eq!(index.peek(idx, *now), model.peek(idx, *now)),
        LockstepOp::Remove { idx } => prop_assert_eq!(index.remove(idx), model.remove(idx)),
        LockstepOp::Purge => {
            let mut gone = Vec::new();
            index.purge_expired_into(*now, &mut gone);
            gone.sort_unstable();
            prop_assert_eq!(gone, model.purge_expired(*now));
        }
        LockstepOp::Advance { by } => *now += by,
    }
    Ok(())
}

/// The store holds what its model holds, in ascending index order, within
/// its byte bound.
fn same_content(index: &PartialIndex, model: &ModelIndex) -> Result<(), TestCaseError> {
    prop_assert_eq!(index.len(), model.entries.len());
    prop_assert!(index.heap_bytes() <= 12 * model.capacity.max(4), "grew past the bound");
    let mut want: Vec<(u32, ModelEntry)> = model.entries.iter().map(|(&i, &e)| (i, e)).collect();
    want.sort_unstable_by_key(|&(i, _)| i);
    let got: Vec<(u32, ModelEntry)> = index
        .iter()
        .map(|(i, e)| (i, ModelEntry { version: e.version(), expires_at: e.expires_at() }))
        .collect();
    prop_assert_eq!(got, want);
    Ok(())
}

proptest! {
    /// The sorted-column store and the hash-map model it replaced agree on
    /// every result of every operation, and `iter()` is the model's content
    /// in ascending dense-index order — from round 0 and from just short of
    /// the `u32` horizon, with expiries and versions up to its edge. With
    /// `sharers`, one to three stores start from one never-expiring run
    /// (shared copy-on-write where it fits the capacity) and each runs its
    /// own operations and clock against its own model, all checked after
    /// every operation: one store's writes never reach another's entries.
    #[test]
    fn sorted_columns_match_the_hash_map_model(
        capacity in 0usize..=8,
        start in prop_oneof![Just(0u64), Just(HORIZON - 300)],
        sharers in 0usize..=3,
        run in prop::collection::btree_set(0u32..12, 0..=8),
        version in lockstep_version(),
        ops in prop::collection::vec((0usize..3, lockstep_op()), 1..120),
    ) {
        let empty = || ModelIndex { entries: HashMap::new(), capacity };
        let (mut stores, mut models) = if sharers == 0 {
            (vec![PartialIndex::new(capacity)], vec![empty()])
        } else {
            let run: Arc<[u32]> = run.into_iter().collect();
            let mut model = empty();
            for &idx in run.iter() {
                model.insert(idx, version, start, Ttl::Infinite);
            }
            let store = PartialIndex::from_shared_run(capacity, &run, version);
            (vec![store; sharers], vec![model; sharers])
        };
        let mut clocks = vec![start; stores.len()];
        for (which, op) in ops {
            let at = which % stores.len();
            lockstep(&mut stores[at], &mut models[at], &mut clocks[at], op)?;
            for (index, model) in stores.iter().zip(&models) {
                same_content(index, model)?;
            }
        }
    }

    /// Under any operation sequence: capacity is never exceeded, expired
    /// entries are never served, and versions never regress.
    #[test]
    fn index_invariants_under_arbitrary_ops(
        capacity in 1usize..32,
        ops in prop::collection::vec(op_strategy(), 1..200),
    ) {
        let mut idx = PartialIndex::new(capacity);
        let mut now = 0u64;
        // Versions can "regress" across an eviction boundary (a fresh
        // insert after expiry carries whatever the broadcast found), but a
        // served version can never exceed the highest ever inserted, and
        // while an entry is continuously present, overwrites keep the max.
        let mut max_inserted: std::collections::HashMap<u8, u64> = Default::default();
        let ttl_default = 10;

        for op in ops {
            match op {
                Op::Insert { key, version, ttl } => {
                    let ki = u32::from(key);
                    let before = idx.peek(ki, now);
                    idx.insert(
                        ki,
                        Key::of_index(ki),
                        VersionedValue { version, data: u64::from(key) },
                        now,
                        Ttl::Rounds(ttl),
                    );
                    let ceiling = max_inserted.entry(key).or_insert(0);
                    *ceiling = (*ceiling).max(version);
                    // Overwrite of a live entry keeps the newer version.
                    if let Some(old) = before {
                        let stored = idx.peek(ki, now).expect("just inserted");
                        prop_assert_eq!(stored, old.max(version));
                    }
                }
                Op::Get { key } => {
                    if let Some(v) = idx.get_and_refresh(u32::from(key), now, Ttl::Rounds(ttl_default)) {
                        let ceiling = max_inserted.get(&key).copied().unwrap_or(0);
                        prop_assert!(
                            v <= ceiling,
                            "served version above anything inserted"
                        );
                    }
                }
                Op::Purge => {
                    let mut gone = Vec::new();
                    idx.purge_expired_into(now, &mut gone);
                }
                Op::Advance { by } => {
                    now += by;
                }
            }
            prop_assert!(idx.len() <= capacity, "capacity breached: {} > {capacity}", idx.len());
            // peek never returns an expired entry.
            for k in 0..=255u8 {
                if let Some(_v) = idx.peek(u32::from(k), now) {
                    // peek filtering is the assertion itself: reaching here
                    // means expires_at > now by contract; cross-check via
                    // get (which must also succeed).
                    prop_assert!(
                        idx.get_and_refresh(u32::from(k), now, Ttl::Rounds(ttl_default)).is_some()
                    );
                    break; // one cross-check per step keeps the test fast
                }
            }
        }
    }

    /// Purge returns exactly the keys that stop being visible.
    #[test]
    fn purge_reports_exactly_the_expired(
        entries in prop::collection::vec((any::<u8>(), 1u64..32), 1..40),
        purge_at in 1u64..40,
    ) {
        let mut idx = PartialIndex::new(1024);
        for &(key, ttl) in &entries {
            let ki = u32::from(key);
            idx.insert(
                ki,
                Key::of_index(ki),
                VersionedValue { version: 1, data: u64::from(key) },
                0,
                Ttl::Rounds(ttl),
            );
        }
        let visible_before: Vec<u8> =
            (0..=255u8).filter(|&k| idx.peek(u32::from(k), purge_at).is_some()).collect();
        let mut purged = Vec::new();
        idx.purge_expired_into(purge_at, &mut purged);
        purged.sort_unstable();
        purged.dedup();
        // Everything still visible must not be in the purged set…
        for k in &visible_before {
            prop_assert!(!purged.contains(&u32::from(*k)));
        }
        // …and after the purge, visibility is unchanged.
        for k in 0..=255u8 {
            let visible = idx.peek(u32::from(k), purge_at).is_some();
            prop_assert_eq!(visible, visible_before.contains(&k));
        }
    }

    /// The admission filter under any miss pattern: `Always` admits all;
    /// `SecondChance` admits at most every other miss of a key, and only
    /// when the repeat falls inside the window.
    #[test]
    fn admission_filter_properties(
        misses in prop::collection::vec((any::<u8>(), 0u64..100), 1..100),
        window in 1u64..30,
    ) {
        let mut always = AdmissionFilter::new(AdmissionPolicy::Always);
        let mut second =
            AdmissionFilter::new(AdmissionPolicy::SecondChance { window_rounds: window });
        let mut sorted = misses.clone();
        sorted.sort_by_key(|&(_, t)| t);

        let mut admitted_always = 0usize;
        let mut admitted_second = 0usize;
        let mut last_first_miss: std::collections::HashMap<u8, u64> = Default::default();
        for &(key, t) in &sorted {
            if always.on_miss(Key(u64::from(key)), t) {
                admitted_always += 1;
            }
            let admitted = second.on_miss(Key(u64::from(key)), t);
            if admitted {
                admitted_second += 1;
                let first = last_first_miss.remove(&key);
                prop_assert!(first.is_some(), "admission without a recorded first miss");
                prop_assert!(t - first.unwrap() <= window, "admission outside the window");
            } else {
                last_first_miss.insert(key, t);
            }
        }
        prop_assert_eq!(admitted_always, sorted.len());
        prop_assert!(admitted_second <= admitted_always / 2 + 1);
    }
}
