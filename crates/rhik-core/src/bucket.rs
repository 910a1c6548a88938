//! One record-layer hash table — page-sized, hopscotch-hashed (§IV-A1).
//!
//! "To handle index-local collisions and achieve high index occupancy in
//! the record layer hash tables, by default RHIK employs Hopscotch hashing
//! with hopinfo size 32. [...] Suppose an empty record slot can not be
//! found within these confines. In that case, an uncorrectable error is
//! returned, and the operation is aborted."
//!
//! Every table holds exactly `R` slots (Eq. 1) so it fills one flash page.
//! All tables share one *fixed* hash function mapping a signature to its
//! home slot; the directory layer has already consumed the low signature
//! bits, so the home hash mixes the full signature.
//!
//! A [`RecordTable`] is a view over the page image itself: slot `i` is the
//! packed [`IndexRecord`] at byte `17 i`. A probe reads the home slot's
//! hopinfo and at most `H` slots straight from the (cached) page bytes; an
//! insert, update or remove rewrites only the slots it touches. Nothing is
//! decoded or encoded whole, so a table's page image *is* its encoding.
//! The record count is not stored on the page — the directory entry owns
//! it and passes it in.

use bytes::{Bytes, BytesMut};
use rhik_audit::InvariantViolation;
use rhik_nand::Ppa;
use rhik_sigs::KeySignature;

use crate::record::IndexRecord;

const REC: usize = IndexRecord::PACKED_LEN;

/// Result of a table-local insert.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TableInsert {
    Inserted,
    Updated {
        old: Ppa,
    },
    /// No slot reachable within the hop width — the paper's uncorrectable
    /// abort. The page is left byte-for-byte unchanged.
    Full,
}

/// A fixed-size hopscotch hash table laid over one flash-page image `P`:
/// `&[u8]` to probe a cached page, `&mut [u8]` to update it in place, or
/// an owned [`BytesMut`] for a table under construction.
#[derive(Debug)]
pub struct RecordTable<P = BytesMut> {
    page: P,
    records: u32,
    hop_width: u32,
    len: u32,
    /// Hopscotch displacement steps inserts took through this view
    /// (telemetry drains it per operation).
    displacements: u64,
    /// Whether an insert or remove has changed the page.
    modified: bool,
}

impl RecordTable {
    /// Fresh empty table of exactly `records` slots (Eq. 1).
    pub fn new(records: u32, hop_width: u32) -> Self {
        Self::blank(records as usize * REC, records, hop_width)
    }

    /// Fresh empty table on a zero-padded `page_size`-byte page image.
    pub fn blank(page_size: usize, records: u32, hop_width: u32) -> Self {
        let mut table = Self::view(BytesMut::zeroed(page_size), records, hop_width, 0);
        for slot in table.page[..records as usize * REC].chunks_exact_mut(REC) {
            IndexRecord::empty().encode_into(slot);
        }
        table
    }

    /// The page image, ready to program.
    pub fn into_page(self) -> Bytes {
        self.page.freeze()
    }

    /// Run `op` on the table stored in `page`, in place. A page whose
    /// buffer is shared — the NAND model keeps the very buffer it returned
    /// from a read, or was handed on write-back — is copied once first, so
    /// flash images never change under the model. Returns `op`'s result,
    /// the table's new length and whether the page changed.
    pub fn update_page<T>(
        page: &mut Bytes,
        records: u32,
        hop_width: u32,
        len: u32,
        op: impl FnOnce(&mut RecordTable<&mut [u8]>) -> T,
    ) -> (T, u32, bool) {
        let mut buf = std::mem::take(page)
            .try_into_mut()
            .unwrap_or_else(|shared| BytesMut::from(&shared[..]));
        let mut table = RecordTable::view(&mut buf[..], records, hop_width, len);
        let out = op(&mut table);
        let (len, modified) = (table.len, table.modified);
        *page = buf.freeze();
        (out, len, modified)
    }
}

impl<P: AsRef<[u8]>> RecordTable<P> {
    /// View `page` as a table of `records` slots holding `len` records
    /// (the directory's count).
    pub fn view(page: P, records: u32, hop_width: u32, len: u32) -> Self {
        assert!(records > 0, "table needs at least one slot");
        assert!((1..=32).contains(&hop_width), "hop width must be 1..=32");
        assert!(hop_width <= records, "hop width cannot exceed table size");
        assert!(page.as_ref().len() >= records as usize * REC, "table exceeds page");
        RecordTable { page, records, hop_width, len, displacements: 0, modified: false }
    }

    /// Hopscotch displacement steps inserts took through this view.
    #[inline]
    pub fn displacements(&self) -> u64 {
        self.displacements
    }

    /// Records currently stored.
    #[inline]
    pub fn len(&self) -> u32 {
        self.len
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total slots `R`.
    #[inline]
    pub fn capacity(&self) -> u32 {
        self.records
    }

    /// Occupancy fraction in [0, 1].
    #[inline]
    pub fn occupancy(&self) -> f64 {
        self.len as f64 / self.records as f64
    }

    /// The page image this table lives in.
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        self.page.as_ref()
    }

    /// The record layer's fixed hash: home slot for `sig`.
    ///
    /// Fibonacci multiplicative mix over the full signature — independent
    /// of the directory's low-bit selection, identical across all tables
    /// ("a fixed hash function for all hash tables in the record layer").
    #[inline]
    pub fn home_slot(&self, sig: KeySignature) -> u32 {
        let mixed = sig.0.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        ((mixed >> 24) % self.records as u64) as u32
    }

    #[inline]
    fn at(&self, base: u32, dist: u32) -> usize {
        ((base + dist) % self.records) as usize
    }

    #[inline]
    fn slot(&self, i: usize) -> IndexRecord {
        IndexRecord::decode(&self.page.as_ref()[i * REC..(i + 1) * REC])
    }

    /// Slot holding `sig` within its home's hop neighborhood, with its
    /// distance from home: reads the home hopinfo and ≤ H slots.
    fn find(&self, home: u32, sig: KeySignature) -> Option<(usize, u32)> {
        let mut hops = self.slot(home as usize).hopinfo;
        while hops != 0 {
            let d = hops.trailing_zeros();
            let idx = self.at(home, d);
            let rec = self.slot(idx);
            if rec.is_occupied() && rec.sig == sig {
                return Some((idx, d));
            }
            hops &= hops - 1;
        }
        None
    }

    /// Look up `sig`; probes only the home bucket's hop neighborhood, so
    /// cost is bounded by the hop width.
    pub fn lookup(&self, sig: KeySignature) -> Option<Ppa> {
        let (idx, _) = self.find(self.home_slot(sig), sig)?;
        Some(self.slot(idx).ppa())
    }

    /// Iterate over stored `(signature, ppa)` pairs (migration, GC).
    pub fn iter(&self) -> impl Iterator<Item = (KeySignature, Ppa)> + '_ {
        (0..self.records as usize)
            .map(|i| self.slot(i))
            .filter(|s| s.is_occupied())
            .map(|s| (s.sig, s.ppa()))
    }

    /// Internal consistency check (tests and the device auditor): every
    /// hopinfo bit points at an occupied slot homed at that bucket, every
    /// occupied slot is covered by exactly one hopinfo bit of its home,
    /// and the occupied count equals the length the directory passed in.
    /// Violations carry structured context (slot, home, signature) so
    /// callers can assert on the failure class.
    #[doc(hidden)]
    pub fn check_invariants(&self) -> Result<(), InvariantViolation> {
        let cap = self.records;
        let mut covered = vec![false; cap as usize];
        for home in 0..cap {
            let mut hops = self.slot(home as usize).hopinfo;
            while hops != 0 {
                let d = hops.trailing_zeros();
                if d >= self.hop_width {
                    return Err(InvariantViolation::HopBitOutOfRange {
                        home,
                        bit: d,
                        hop_width: self.hop_width,
                    });
                }
                let idx = self.at(home, d);
                let slot = self.slot(idx);
                if !slot.is_occupied() {
                    return Err(InvariantViolation::HopBitTargetsEmptySlot {
                        home,
                        bit: d,
                        slot: idx as u32,
                    });
                }
                if self.home_slot(slot.sig) != home {
                    return Err(InvariantViolation::MisHomedRecord {
                        slot: idx as u32,
                        home,
                        sig: slot.sig.0,
                    });
                }
                if covered[idx] {
                    return Err(InvariantViolation::SlotCoveredTwice {
                        slot: idx as u32,
                        sig: slot.sig.0,
                    });
                }
                covered[idx] = true;
                hops &= hops - 1;
            }
        }
        let covered_count = covered.iter().filter(|&&c| c).count() as u32;
        let occupied = self.iter().count() as u32;
        if covered_count != occupied || occupied != self.len {
            return Err(InvariantViolation::CoverageMismatch {
                covered: covered_count,
                occupied,
                len: self.len,
            });
        }
        Ok(())
    }
}

impl<P: AsRef<[u8]> + AsMut<[u8]>> RecordTable<P> {
    #[inline]
    fn write(&mut self, i: usize, rec: IndexRecord) {
        rec.encode_into(&mut self.page.as_mut()[i * REC..(i + 1) * REC]);
    }

    /// Write `rec` to slot `i`, logging the slot's prior image to `undo`.
    fn write_logged(&mut self, undo: &mut Vec<(usize, IndexRecord)>, i: usize, rec: IndexRecord) {
        undo.push((i, self.slot(i)));
        self.write(i, rec);
    }

    /// Insert or update `sig → ppa`.
    pub fn insert(&mut self, sig: KeySignature, ppa: Ppa) -> TableInsert {
        let home = self.home_slot(sig);

        // Update in place if the signature is already present.
        if let Some((idx, _)) = self.find(home, sig) {
            let mut rec = self.slot(idx);
            let old = rec.ppa();
            rec.set(sig, ppa);
            self.write(idx, rec);
            self.modified = true;
            return TableInsert::Updated { old };
        }

        if self.len == self.capacity() {
            return TableInsert::Full;
        }

        // Linear-probe for an empty slot starting at home.
        let Some(mut free_dist) =
            (0..self.records).find(|&d| !self.slot(self.at(home, d)).is_occupied())
        else {
            return TableInsert::Full;
        };

        // Hopscotch displacement: while the free slot is out of hop range,
        // move an earlier-homed record into it to pull the hole closer.
        // The moves are logged so an abort can restore the page exactly.
        let mut undo = Vec::new();
        while free_dist >= self.hop_width {
            match self.pull_hole_closer(&mut undo, home, free_dist) {
                Some(new_dist) => {
                    free_dist = new_dist;
                    self.displacements += 1;
                }
                None => {
                    while let Some((i, rec)) = undo.pop() {
                        self.write(i, rec);
                    }
                    return TableInsert::Full;
                }
            }
        }

        let idx = self.at(home, free_dist);
        let mut rec = self.slot(idx);
        rec.set(sig, ppa);
        self.write(idx, rec);
        let mut home_rec = self.slot(home as usize);
        home_rec.hopinfo |= 1 << free_dist;
        self.write(home as usize, home_rec);
        self.len += 1;
        self.modified = true;
        TableInsert::Inserted
    }

    /// Classic hopscotch displacement step: the hole sits `free_dist` slots
    /// after `home`. Find a record in the window of `hop_width - 1` slots
    /// before the hole that may legally move into it (the hole stays within
    /// its own home's hop range), move it, and return the hole's new
    /// distance from `home`.
    fn pull_hole_closer(
        &mut self,
        undo: &mut Vec<(usize, IndexRecord)>,
        home: u32,
        free_dist: u32,
    ) -> Option<u32> {
        let cap = self.records;
        let hole_abs = (home + free_dist) % cap;
        // Candidate positions: hole - (hop_width - 1) .. hole, in order, so
        // the hole moves as far back as possible per step.
        for back in (1..self.hop_width).rev() {
            let cand_abs = (hole_abs + cap - back) % cap;
            // The candidate's home must be able to reach the hole: distance
            // from the candidate's home to the hole < hop_width. Find the
            // candidate's home (the one whose hopinfo bit covers it) by
            // scanning the homes that could own it.
            for hd in (back..self.hop_width).rev() {
                let cand_home = (cand_abs + cap - (hd - back)) % cap;
                // distance from cand_home to candidate is hd - back;
                // distance from cand_home to hole is hd.
                let cand_dist = hd - back;
                if self.slot(cand_home as usize).hopinfo & (1 << cand_dist) == 0 {
                    continue;
                }
                let cand = self.slot(cand_abs as usize);
                // Verify this record really homes here (hopinfo bits are
                // authoritative, but be defensive about aliasing).
                if !cand.is_occupied() || self.home_slot(cand.sig) != cand_home {
                    continue;
                }
                // Move candidate into the hole.
                let mut hole = self.slot(hole_abs as usize);
                hole.sig = cand.sig;
                hole.ppa_raw = cand.ppa_raw;
                self.write_logged(undo, hole_abs as usize, hole);
                let mut vacated = cand;
                vacated.clear();
                self.write_logged(undo, cand_abs as usize, vacated);
                let mut owner = self.slot(cand_home as usize);
                owner.hopinfo = (owner.hopinfo & !(1 << cand_dist)) | (1 << hd);
                self.write_logged(undo, cand_home as usize, owner);
                // The hole is now at the candidate's old position.
                return Some((cand_abs + cap - home) % cap);
            }
        }
        None
    }

    /// Remove `sig`, returning its PPA.
    pub fn remove(&mut self, sig: KeySignature) -> Option<Ppa> {
        let home = self.home_slot(sig);
        let (idx, d) = self.find(home, sig)?;
        let mut rec = self.slot(idx);
        let ppa = rec.ppa();
        rec.clear();
        self.write(idx, rec);
        let mut home_rec = self.slot(home as usize);
        home_rec.hopinfo &= !(1 << d);
        self.write(home as usize, home_rec);
        self.len -= 1;
        self.modified = true;
        Some(ppa)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig(n: u64) -> KeySignature {
        KeySignature(n)
    }

    fn ppa(n: u32) -> Ppa {
        Ppa::new(n, 0)
    }

    #[test]
    fn insert_lookup_remove() {
        let mut t = RecordTable::new(30, 8);
        assert_eq!(t.insert(sig(1), ppa(10)), TableInsert::Inserted);
        assert_eq!(t.lookup(sig(1)), Some(ppa(10)));
        assert_eq!(t.lookup(sig(2)), None);
        assert_eq!(t.remove(sig(1)), Some(ppa(10)));
        assert_eq!(t.lookup(sig(1)), None);
        assert_eq!(t.remove(sig(1)), None);
        assert!(t.is_empty());
        t.check_invariants().unwrap();
    }

    #[test]
    fn update_replaces_ppa() {
        let mut t = RecordTable::new(30, 8);
        t.insert(sig(5), ppa(1));
        assert_eq!(t.insert(sig(5), ppa(2)), TableInsert::Updated { old: ppa(1) });
        assert_eq!(t.lookup(sig(5)), Some(ppa(2)));
        assert_eq!(t.len(), 1);
        t.check_invariants().unwrap();
    }

    #[test]
    fn fills_to_high_occupancy() {
        // Hopscotch with H=32 should fill a small table near-completely.
        let mut t = RecordTable::new(64, 32);
        let mut inserted = 0;
        for i in 0..64u64 {
            if t.insert(sig(i.wrapping_mul(0x1234_5678_9abc_def1)), ppa(i as u32))
                == TableInsert::Inserted
            {
                inserted += 1;
            }
        }
        assert!(inserted >= 60, "only {inserted}/64 inserted");
        t.check_invariants().unwrap();
    }

    #[test]
    fn full_table_aborts_cleanly() {
        let mut t = RecordTable::new(8, 8);
        let mut stored = Vec::new();
        for i in 0..100u64 {
            let s = sig(i.wrapping_mul(0x9e37_79b9) + 1);
            match t.insert(s, ppa(i as u32)) {
                TableInsert::Inserted => stored.push((s, ppa(i as u32))),
                TableInsert::Full => break,
                TableInsert::Updated { .. } => {}
            }
        }
        assert_eq!(t.len() as usize, stored.len());
        // Everything that reported success is still retrievable.
        for (s, p) in stored {
            assert_eq!(t.lookup(s), Some(p));
        }
        t.check_invariants().unwrap();
    }

    #[test]
    fn displacement_rescues_distant_holes() {
        // Force many keys into the same home so the free slot drifts out of
        // hop range and displacement must kick in. With capacity 64 and
        // H=4, colliding keys exercise pull_hole_closer quickly.
        let mut t = RecordTable::new(64, 4);
        let mut ok = 0;
        for i in 0..48u64 {
            if t.insert(sig(i * 7 + 3), ppa(i as u32)) == TableInsert::Inserted {
                ok += 1;
            }
            t.check_invariants().unwrap();
        }
        assert!(ok > 30, "inserted {ok}");
        for i in 0..48u64 {
            if t.lookup(sig(i * 7 + 3)).is_some() {
                assert_eq!(t.lookup(sig(i * 7 + 3)), Some(ppa(i as u32)));
            }
        }
    }

    #[test]
    fn page_image_is_the_encoding() {
        let mut t = RecordTable::blank(512, 30, 16);
        for i in 0..20u64 {
            t.insert(sig(i * 31 + 7), ppa(i as u32));
        }
        let len = t.len();
        let expect: Vec<_> = t.iter().collect();
        let page = t.into_page();
        assert_eq!(page.len(), 512);
        assert!(page[30 * IndexRecord::PACKED_LEN..].iter().all(|&b| b == 0), "tail stays zero");
        let back = RecordTable::view(&page[..], 30, 16, len);
        assert_eq!(back.iter().collect::<Vec<_>>(), expect);
        for (s, p) in expect {
            assert_eq!(back.lookup(s), Some(p));
        }
        back.check_invariants().unwrap();
        // A view told the wrong length fails the coverage check.
        assert!(RecordTable::view(&page[..], 30, 16, len + 1).check_invariants().is_err());
    }

    #[test]
    fn full_leaves_page_byte_identical() {
        // A narrow hop width makes inserts run displacement chains that
        // end in an abort; each abort must undo every move it made.
        let mut t = RecordTable::new(64, 4);
        let mut undone = 0;
        for i in 0..200u64 {
            let before = t.as_bytes().to_vec();
            let steps = t.displacements();
            let s = sig(i.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x5555);
            if t.insert(s, ppa(i as u32)) == TableInsert::Full {
                assert_eq!(t.as_bytes(), &before[..], "Full changed the page");
                undone += (t.displacements() > steps) as u32;
            }
            t.check_invariants().unwrap();
        }
        assert!(undone > 0, "no abort had displacement moves to undo");
    }

    #[test]
    fn update_page_copies_shared_buffers_only() {
        let mut t = RecordTable::blank(512, 30, 8);
        t.insert(sig(1), ppa(1));
        let mut page = t.into_page();
        let flash_image = page.clone();
        let (out, len, modified) =
            RecordTable::update_page(&mut page, 30, 8, 1, |t| t.insert(sig(2), ppa(2)));
        assert_eq!((out, len, modified), (TableInsert::Inserted, 2, true));
        assert_ne!(page, flash_image, "the update landed on a private copy");
        assert_eq!(RecordTable::view(&flash_image[..], 30, 8, 1).lookup(sig(2)), None);

        let at = page.as_ptr();
        let (_, len, modified) =
            RecordTable::update_page(&mut page, 30, 8, 2, |t| t.remove(sig(3)));
        assert_eq!((len, modified), (2, false));
        let (_, len, _) = RecordTable::update_page(&mut page, 30, 8, 2, |t| t.remove(sig(1)));
        assert_eq!(len, 1);
        assert_eq!(page.as_ptr(), at, "a uniquely owned page is edited in place");
    }

    #[test]
    fn occupancy_math() {
        let mut t = RecordTable::new(10, 8);
        assert_eq!(t.occupancy(), 0.0);
        t.insert(sig(1), ppa(1));
        t.insert(sig(2), ppa(2));
        assert!((t.occupancy() - 0.2).abs() < 1e-12);
        assert_eq!(t.capacity(), 10);
    }

    #[test]
    fn iter_yields_all_records() {
        let mut t = RecordTable::new(30, 16);
        let mut expect = std::collections::HashMap::new();
        for i in 0..15u64 {
            let s = sig(i * 1_000_003);
            if t.insert(s, ppa(i as u32)) == TableInsert::Inserted {
                expect.insert(s, ppa(i as u32));
            }
        }
        let got: std::collections::HashMap<_, _> = t.iter().collect();
        assert_eq!(got, expect);
    }

    #[test]
    #[should_panic(expected = "hop width cannot exceed")]
    fn hop_wider_than_table_rejected() {
        RecordTable::new(8, 16);
    }

    #[test]
    fn lookup_cost_bounded_by_hop_width() {
        // The lookup only inspects slots flagged in one hopinfo word, i.e.
        // ≤ hop_width probes; verify indirectly: a signature whose home
        // bucket has empty hopinfo is answered without scanning.
        let t = RecordTable::new(64, 32);
        assert_eq!(t.lookup(sig(12345)), None);
    }
}
