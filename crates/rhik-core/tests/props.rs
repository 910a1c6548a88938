//! Property tests: RHIK behaves exactly like a `HashMap<sig, ppa>` under
//! arbitrary insert/update/remove/lookup interleavings — across resizes,
//! cache evictions, and write-backs — and never needs more than one flash
//! read per lookup. `resize_migration_batch: 1` stretches every doubling
//! across as many operations as possible, so the interleavings routinely
//! land mid-migration (keys split between the frozen old directory and
//! the half-populated new one).

use proptest::prelude::*;
use rhik_core::{RecordTable, RhikConfig, RhikIndex, TableInsert};
use rhik_ftl::{Ftl, FtlConfig, IndexBackend};
use rhik_nand::{NandGeometry, Ppa};
use rhik_sigs::KeySignature;
use std::collections::HashMap;

fn mix(n: u64) -> u64 {
    let mut z = n.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn big_ftl() -> Ftl {
    Ftl::new(FtlConfig {
        geometry: NandGeometry {
            blocks: 512,
            pages_per_block: 8,
            page_size: 512,
            spare_size: 16,
            channels: 2,
        },
        ..FtlConfig::tiny()
    })
}

fn index() -> RhikIndex {
    RhikIndex::new(
        RhikConfig {
            initial_dir_bits: 0,
            hop_width: 16,
            occupancy_threshold: 0.6,
            dir_flush_interval: 64,
            resize_migration_batch: 1,
            ..Default::default()
        },
        512,
    )
}

#[derive(Clone, Debug)]
enum Op {
    Insert(u16, u8),
    Remove(u16),
    Lookup(u16),
    Flush,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (any::<u16>(), any::<u8>()).prop_map(|(k, p)| Op::Insert(k, p)),
        2 => any::<u16>().prop_map(Op::Remove),
        3 => any::<u16>().prop_map(Op::Lookup),
        1 => Just(Op::Flush),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn rhik_matches_hashmap(ops in proptest::collection::vec(op_strategy(), 1..400)) {
        let mut ftl = big_ftl();
        let mut idx = index();
        let mut model: HashMap<u64, Ppa> = HashMap::new();

        for op in ops {
            match op {
                Op::Insert(k, p) => {
                    let sig = KeySignature(mix(k as u64));
                    let ppa = Ppa::new(p as u32 % 512, p as u32 % 8);
                    match idx.insert(&mut ftl, sig, ppa) {
                        Ok(_) => {
                            model.insert(sig.0, ppa);
                        }
                        // The paper's legitimate abort: hop-range full. The
                        // index must stay consistent, the key is just not
                        // stored.
                        Err(rhik_ftl::IndexError::TableFull { .. }) => {}
                        Err(e) => prop_assert!(false, "insert failed: {e}"),
                    }
                }
                Op::Remove(k) => {
                    let sig = KeySignature(mix(k as u64));
                    let got = idx.remove(&mut ftl, sig).unwrap();
                    prop_assert_eq!(got, model.remove(&sig.0));
                }
                Op::Lookup(k) => {
                    let sig = KeySignature(mix(k as u64));
                    let got = idx.lookup(&mut ftl, sig).unwrap();
                    prop_assert_eq!(got, model.get(&sig.0).copied());
                }
                Op::Flush => {
                    idx.flush(&mut ftl).unwrap();
                }
            }
            prop_assert_eq!(idx.len(), model.len() as u64);
        }

        // Final sweep: every model key is present with the right value, and
        // no lookup ever needed more than one flash read.
        for (&raw, &ppa) in &model {
            prop_assert_eq!(idx.lookup(&mut ftl, KeySignature(raw)).unwrap(), Some(ppa));
        }
        prop_assert!(idx.stats().pct_lookups_within(1) > 100.0 - 1e-9);
    }

    /// The record table in isolation matches a HashMap for any op sequence.
    #[test]
    fn table_matches_hashmap(ops in proptest::collection::vec((any::<u8>(), any::<bool>()), 1..200)) {
        let mut t = RecordTable::new(60, 16);
        let mut model: HashMap<u64, Ppa> = HashMap::new();
        for (k, is_insert) in ops {
            let sig = KeySignature(mix(k as u64));
            let ppa = Ppa::new(k as u32, 0);
            if is_insert {
                match t.insert(sig, ppa) {
                    TableInsert::Inserted => {
                        prop_assert!(!model.contains_key(&sig.0));
                        model.insert(sig.0, ppa);
                    }
                    TableInsert::Updated { old } => {
                        prop_assert_eq!(Some(old), model.insert(sig.0, ppa));
                    }
                    TableInsert::Full => {
                        prop_assert!(!model.contains_key(&sig.0));
                    }
                }
            } else {
                prop_assert_eq!(t.remove(sig), model.remove(&sig.0));
            }
            t.check_invariants().map_err(|e| TestCaseError::fail(e.to_string()))?;
            prop_assert_eq!(t.len() as usize, model.len());
        }
        for (&raw, &ppa) in &model {
            prop_assert_eq!(t.lookup(KeySignature(raw)), Some(ppa));
        }
    }

    /// A table's page image round-trips arbitrary table states: viewing
    /// the bytes again sees the same records.
    #[test]
    fn table_page_roundtrip(keys in proptest::collection::hash_set(any::<u32>(), 0..40)) {
        let mut t = RecordTable::blank(60 * 17 + 7, 60, 16);
        for &k in &keys {
            let _ = t.insert(KeySignature(mix(k as u64)), Ppa::new(k % 100, k % 8));
        }
        let page = t.as_bytes().to_vec();
        let back = RecordTable::view(&page[..], 60, 16, t.len());
        prop_assert_eq!(back.iter().count() as u32, t.len());
        for (sig, ppa) in t.iter() {
            prop_assert_eq!(back.lookup(sig), Some(ppa));
        }
        back.check_invariants().map_err(|e| TestCaseError::fail(e.to_string()))?;
    }
}

/// Grow an index through many resizes with a tiny cache, then verify the
/// ≤1-read bound holds on a cold cache (the hard case for the guarantee).
#[test]
fn one_read_bound_cold_cache() {
    let mut ftl = big_ftl();
    let mut idx = index();
    const N: u64 = 2_000;
    for i in 0..N {
        idx.insert(&mut ftl, KeySignature(mix(i)), Ppa::new((i % 500) as u32, (i % 8) as u32))
            .unwrap();
    }
    idx.flush(&mut ftl).unwrap();
    assert!(idx.stats().resizes.len() >= 5, "resizes: {}", idx.stats().resizes.len());

    // Evict everything: walk keys until the cache only holds recent tables.
    let before = idx.stats().clone();
    for i in 0..N {
        assert!(
            idx.lookup(&mut ftl, KeySignature(mix(i))).unwrap().is_some(),
            "key {i} lost across {} resizes",
            idx.stats().resizes.len()
        );
    }
    let after = idx.stats();
    let lookups = after.lookups - before.lookups;
    let reads = after.metadata_flash_reads - before.metadata_flash_reads;
    assert!(reads <= lookups, "more than one read per lookup: {reads}/{lookups}");
    assert!(after.pct_lookups_within(1) > 100.0 - 1e-9);
}
