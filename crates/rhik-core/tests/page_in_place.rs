//! The record layer works on page bytes in place: probes read slots from the
//! cached page, updates patch it, and neither may ever touch a page image
//! the NAND model already holds. Also pins the mid-migration overflow
//! lookup that once read a superseded flash copy.

use proptest::prelude::*;
use rhik_core::{RecordTable, RhikConfig, RhikIndex};
use rhik_ftl::{Ftl, FtlConfig, IndexBackend, IndexError};
use rhik_nand::{NandGeometry, Ppa};
use rhik_sigs::KeySignature;
use std::collections::HashMap;

fn mix(n: u64) -> u64 {
    let mut z = n.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn ftl(page_size: u32, blocks: u32, cache_pages: usize) -> Ftl {
    Ftl::new(FtlConfig {
        geometry: NandGeometry {
            blocks,
            pages_per_block: 8,
            page_size,
            spare_size: 16,
            channels: 2,
        },
        cache_budget_bytes: cache_pages * page_size as usize,
        ..FtlConfig::tiny()
    })
}

/// Regression: a lookup routed to an un-split old slot read the overflow
/// page at an address captured before the primary was fetched. Fetching
/// the primary can evict and write back that very overflow page, so the
/// lookup read the superseded flash copy and cached it as clean; the split
/// then migrated the stale copy and keys vanished. Smallest failing case
/// of a sweep over seeds × cache sizes (hyper-local, hop width 8, one
/// slot migrated per operation).
#[test]
fn mid_migration_overflow_lookup_reads_current_copy() {
    let seed = 1u64;
    let key = |i: u64| KeySignature(mix((seed << 32) | i));
    let mut ftl = ftl(512, 1024, 6);
    let mut idx = RhikIndex::new(
        RhikConfig {
            initial_dir_bits: 0,
            dir_flush_interval: 1_000_000,
            hop_width: 8,
            resize_migration_batch: 1,
            hyper_local: true,
            ..Default::default()
        },
        512,
    );
    let mut model = HashMap::new();
    for i in 0..192u64 {
        let ppa = Ppa::new((i % 32) as u32, (i % 8) as u32);
        idx.insert(&mut ftl, key(i), ppa).unwrap();
        model.insert(key(i), ppa);
        if idx.resize_in_progress() {
            let earlier = key(mix(seed ^ (i << 20)) % (i + 1));
            assert_eq!(idx.lookup(&mut ftl, earlier).unwrap(), model.get(&earlier).copied());
            assert_eq!(idx.lookup(&mut ftl, key((1 << 31) | i)).unwrap(), None);
        }
    }
    while idx.maintain_step(&mut ftl).unwrap() {}
    for (sig, ppa) in &model {
        assert_eq!(idx.lookup(&mut ftl, *sig).unwrap(), Some(*ppa), "key lost");
    }
}

/// A cached record page can share its buffer with the NAND model's stored
/// image. Updating it must copy first: the flash image at the old address
/// stays byte-identical however the page reached flash.
#[test]
fn in_place_updates_never_touch_flash_images() {
    // One-page cache, two tables: touching one table evicts the other.
    let mut ftl = ftl(512, 64, 1);
    let mut idx = RhikIndex::new(
        RhikConfig {
            initial_dir_bits: 1,
            occupancy_threshold: 1.0,
            dir_flush_interval: 1_000_000,
            hop_width: 16,
            ..Default::default()
        },
        512,
    );
    let mut keys = [Vec::new(), Vec::new()];
    for i in 0..40u64 {
        let sig = KeySignature(mix(i));
        keys[(sig.0 & 1) as usize].push(sig);
    }
    let mut model = HashMap::new();
    let mut next = [0usize; 2];
    let mut put = |idx: &mut RhikIndex, ftl: &mut Ftl, slot: usize| {
        let sig = keys[slot][next[slot]];
        next[slot] += 1;
        let ppa = Ppa::new(next[slot] as u32, slot as u32);
        idx.insert(ftl, sig, ppa).unwrap();
        model.insert(sig, ppa);
    };
    let flash_image = |idx: &RhikIndex, ftl: &Ftl, slot: u32| {
        let ppa = idx.directory().entry(slot).table_ppa.expect("persisted");
        (ppa, ftl.peek_page(ppa).expect("programmed").0)
    };

    // 1. By flush: the drained page stays cached, sharing its buffer.
    put(&mut idx, &mut ftl, 0);
    idx.flush(&mut ftl).unwrap();
    let (ppa, image) = flash_image(&idx, &ftl, 0);
    put(&mut idx, &mut ftl, 0);
    assert_eq!(ftl.peek_page(ppa).unwrap().0, image, "flush image changed");
    assert_ne!(ftl.cache_ref().peek(idx.directory().cache_key(0)).unwrap(), &image);

    // 2. By a dirty eviction: the write-back hands the buffer to flash; the
    //    next update reads it back in and must not edit it there.
    put(&mut idx, &mut ftl, 1); // evicts and writes back table 0
    let (ppa, image) = flash_image(&idx, &ftl, 0);
    put(&mut idx, &mut ftl, 0);
    assert_eq!(ftl.peek_page(ppa).unwrap().0, image, "evicted image changed");

    // 3. By a read-miss install: a lookup caches the flash buffer itself.
    let probe = keys[1][0];
    assert!(idx.lookup(&mut ftl, probe).unwrap().is_some()); // evicts table 0
    let (ppa, image) = flash_image(&idx, &ftl, 1);
    assert!(ftl.cache_ref().peek(idx.directory().cache_key(1)).is_some());
    put(&mut idx, &mut ftl, 1);
    assert_eq!(ftl.peek_page(ppa).unwrap().0, image, "read-miss image changed");

    for (sig, ppa) in &model {
        assert_eq!(idx.lookup(&mut ftl, *sig).unwrap(), Some(*ppa));
    }
}

/// The page bytes of `slot`'s table as the index currently sees them: the
/// cached copy, else the flash copy, else `None` (never persisted: empty).
fn table_page(idx: &RhikIndex, ftl: &Ftl, slot: u32) -> Option<Vec<u8>> {
    let key = idx.directory().cache_key(slot);
    if let Some(page) = ftl.cache_ref().peek(key) {
        return Some(page.to_vec());
    }
    let ppa = idx.directory().entry(slot).table_ppa?;
    Some(ftl.peek_page(ppa).expect("programmed").0.to_vec())
}

/// Drive an index of `R`-slot tables with hop width `H` (one table until
/// a full one forces a doubling; aborts not absorbed) with `ops` against a
/// `HashMap` model.
fn page_backed_table_matches_model(
    page_size: u32,
    hop_width: u32,
    ops: &[(u16, u8)],
) -> Result<(), TestCaseError> {
    let records = RhikConfig::records_per_table(page_size);
    let mut ftl = ftl(page_size, 128, 4);
    let mut idx = RhikIndex::new(
        RhikConfig {
            initial_dir_bits: 0,
            occupancy_threshold: 1.0,
            dir_flush_interval: 1_000_000,
            hop_width,
            stop_the_world: true,
            ..Default::default()
        },
        page_size,
    );
    let key_space = records as u64 * 3 / 2;
    let mut model: HashMap<KeySignature, Ppa> = HashMap::new();
    for (i, &(k, kind)) in ops.iter().enumerate() {
        let sig = KeySignature(mix(k as u64 % key_space));
        match kind {
            0..=3 => idx.flush(&mut ftl).unwrap(),
            4..=35 => prop_assert_eq!(idx.remove(&mut ftl, sig).unwrap(), model.remove(&sig)),
            _ => {
                let ppa = Ppa::new(i as u32 % 1000, kind as u32 % 8);
                let slot = idx.directory().slot_of(sig);
                let before = table_page(&idx, &ftl, slot);
                match idx.insert(&mut ftl, sig, ppa) {
                    Ok(_) => {
                        model.insert(sig, ppa);
                    }
                    Err(IndexError::TableFull { .. }) => {
                        prop_assert!(!model.contains_key(&sig), "updates never abort");
                        let after = table_page(&idx, &ftl, slot);
                        prop_assert!(after == before, "Full changed the page");
                    }
                    Err(e) => return Err(TestCaseError::fail(e.to_string())),
                }
            }
        }
        let mut total = 0;
        for slot in 0..idx.directory().len() as u32 {
            let len = idx.directory().entry(slot).records;
            total += len as usize;
            match table_page(&idx, &ftl, slot) {
                Some(page) => RecordTable::view(&page[..], records, hop_width, len)
                    .check_invariants()
                    .map_err(|e| TestCaseError::fail(e.to_string()))?,
                None => prop_assert_eq!(len, 0),
            }
        }
        prop_assert_eq!(total, model.len());
    }
    for (sig, ppa) in &model {
        prop_assert_eq!(idx.lookup(&mut ftl, *sig).unwrap(), Some(*ppa));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 1 } else { 24 }))]

    /// R = 30 (512 B pages) × H ∈ {4, 30}: a 30-slot table cannot have a
    /// hop width of 32, so its widest neighborhood is the whole table.
    #[test]
    fn small_page_table_matches_hashmap(
        ops in proptest::collection::vec((any::<u16>(), any::<u8>()), 1..400)
    ) {
        for hop_width in [4, 30] {
            page_backed_table_matches_model(512, hop_width, &ops)?;
        }
    }
}

// R = 1927 (32 KiB pages). H = 4 aborts from ~25 % occupancy; H = 32
// only near ~94 %, so its sequences are long enough to fill the table.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 1 } else { 4 }))]

    #[test]
    fn paper_page_h4_table_matches_hashmap(
        ops in proptest::collection::vec((any::<u16>(), any::<u8>()), 800..1600)
    ) {
        page_backed_table_matches_model(32 * 1024, 4, &ops)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 1 } else { 2 }))]

    #[test]
    fn paper_page_h32_table_matches_hashmap(
        ops in proptest::collection::vec(
            (any::<u16>(), any::<u8>()),
            if cfg!(miri) { 1..50 } else { 3500..5000 },
        )
    ) {
        page_backed_table_matches_model(32 * 1024, 32, &ops)?;
    }
}
