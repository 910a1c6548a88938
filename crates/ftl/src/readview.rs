//! Generation-published directory: the lock-free get path's only DRAM
//! index state.
//!
//! The RHIK directory lives behind the shard writer lock. To let gets
//! reach a record table without that lock, the index publishes a copy of
//! the directory's *addresses* as immutable generation snapshots behind an
//! atomic pointer ([`sync::GenCell`]): a [`GenSnapshot`] is one
//! [`sync::SeqWord`] per directory slot, holding where the slot's record
//! table can be read ([`TableAddr`]) under that slot's seqlock. Nothing
//! per key is kept: the records stay in their page, cached or on flash.
//!
//! A reader takes `(version, address)` for its signature's slot
//! ([`ReadView::begin`]), probes the record page — in the shard's page
//! cache, or read from flash on a miss — then reads the data page and
//! [`validates`](SlotRead::validate) the slot. Writers, already
//! serialized by the shard lock, open the slot's bracket around every
//! change to the table's contents or address: an in-place record update,
//! a write-back or relocation that moves the table, a doubling split. A
//! doubling publishes a whole new slot array with one atomic swap and
//! leaves the old array's seqlocks odd forever, so a reader still holding
//! it can never validate; the old array is reclaimed through the epoch
//! domain.

use std::sync::Arc;

use rhik_nand::Ppa;

use crate::sync::{EpochDomain, GenCell, SeqWord};
use crate::traits::LookupTally;

/// Where a lock-free reader finds a slot's record table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TableAddr {
    /// The slot has no table: every lookup misses without a read.
    Empty,
    /// The flash copy at this address is current (the page cache may
    /// hold the same bytes).
    Flash(Ppa),
    /// Only the cached page is current (dirty, or never written): a
    /// reader that misses the cache must fall back.
    Cached,
    /// Not servable without the shard lock (an overflow table, or a
    /// slot a doubling already split): readers always fall back.
    Unavailable,
}

const EMPTY: u64 = u64::MAX;
const CACHED: u64 = u64::MAX - 1;
const UNAVAILABLE: u64 = u64::MAX - 2;

impl TableAddr {
    fn encode(self) -> u64 {
        match self {
            TableAddr::Empty => EMPTY,
            TableAddr::Cached => CACHED,
            TableAddr::Unavailable => UNAVAILABLE,
            TableAddr::Flash(ppa) => (u64::from(ppa.block) << 32) | u64::from(ppa.page),
        }
    }

    fn decode(word: u64) -> Self {
        match word {
            EMPTY => TableAddr::Empty,
            CACHED => TableAddr::Cached,
            UNAVAILABLE => TableAddr::Unavailable,
            w => TableAddr::Flash(Ppa::new((w >> 32) as u32, w as u32)),
        }
    }
}

/// One published generation: the table address of every directory slot.
pub struct GenSnapshot {
    /// Cache key of slot 0; slot `s` files its table under `key_base | s`.
    key_base: u64,
    bits: u32,
    slots: Box<[SeqWord]>,
}

impl GenSnapshot {
    /// A generation of `1 << bits` slots whose tables are cached under
    /// `key_base | slot`, with the given addresses in slot order.
    pub fn new(key_base: u64, bits: u32, addrs: impl IntoIterator<Item = TableAddr>) -> Self {
        let slots: Box<[SeqWord]> = addrs.into_iter().map(|a| SeqWord::new(a.encode())).collect();
        assert_eq!(slots.len(), 1usize << bits, "one address per directory slot");
        assert_eq!(key_base & 0xffff_ffff, 0, "slot numbers occupy the key's low 32 bits");
        GenSnapshot { key_base, bits, slots }
    }

    /// Directory bits of this generation.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// The slot whose table is cached under `key`, if `key` belongs to
    /// this generation.
    pub fn slot_of_key(&self, key: u64) -> Option<usize> {
        let slot = (key & 0xffff_ffff) as usize;
        (key & !0xffff_ffff == self.key_base && slot < self.slots.len()).then_some(slot)
    }

    /// Open `slot`'s write bracket: readers overlapping it fail
    /// validation. Writers are serialized by the shard lock.
    pub fn write_begin(&self, slot: usize) {
        self.slots[slot].write_begin();
    }

    /// Publish `addr` for `slot` and close its bracket.
    pub fn write_end(&self, slot: usize, addr: TableAddr) {
        self.slots[slot].write_end(addr.encode());
    }

    /// DRAM this generation pins: one seqlocked word per slot.
    pub fn dram_bytes(&self) -> u64 {
        (std::mem::size_of::<Self>() + std::mem::size_of_val(&*self.slots)) as u64
    }
}

/// A slot read begun by [`ReadView::begin`]: the table's cache key and
/// address, and what the reader needs to validate afterwards.
pub struct SlotRead {
    snapshot: Arc<GenSnapshot>,
    slot: usize,
    version: u64,
    /// Cache key of the slot's record table.
    pub key: u64,
    /// Where the table could be read when the read began.
    pub addr: TableAddr,
}

impl SlotRead {
    /// True iff no writer touched the slot since the read began — what
    /// the reader saw of the table (and the data page it led to) was
    /// current at one instant.
    pub fn validate(&self) -> bool {
        self.snapshot.slots[self.slot].validate(self.version)
    }
}

/// The published directory of one shard, shared by the index (writer
/// side) and the shard's lock-free readers, with the readers' lookup
/// counters.
pub struct ReadView {
    domain: EpochDomain,
    snapshot: GenCell<GenSnapshot>,
    tally: LookupTally,
}

impl ReadView {
    /// A view publishing `first`. The writer keeps its own handle on the
    /// generation to bracket slot updates on.
    pub fn new(first: Arc<GenSnapshot>) -> Self {
        ReadView {
            domain: EpochDomain::new(),
            snapshot: GenCell::new(first),
            tally: LookupTally::default(),
        }
    }

    /// The currently published generation.
    pub fn snapshot(&self) -> Arc<GenSnapshot> {
        self.snapshot.load(&self.domain)
    }

    /// Epoch domain backing this view (diagnostics/tests).
    pub fn domain(&self) -> &EpochDomain {
        &self.domain
    }

    /// Lookups the lock-free readers completed, awaiting
    /// [`crate::IndexStats::absorb`].
    pub fn tally(&self) -> &LookupTally {
        &self.tally
    }

    /// Begin a lock-free read of `sig`'s slot: pin, load the generation,
    /// take the slot's version and address. `None` while a writer holds
    /// the slot (the caller falls back to the locked path).
    pub fn begin(&self, sig: u64) -> Option<SlotRead> {
        let snapshot = self.snapshot.load(&self.domain);
        let slot = (sig & ((1u64 << snapshot.bits) - 1)) as usize;
        let (version, word) = snapshot.slots[slot].read()?;
        let key = snapshot.key_base | slot as u64;
        Some(SlotRead { snapshot, slot, version, key, addr: TableAddr::decode(word) })
    }

    /// Replace the published generation by `next` (a doubling completed)
    /// and return it: the writer brackets its later slot updates on the
    /// returned handle. Every slot of the old generation is left
    /// mid-write first: later writes go to `next` only, so a reader still
    /// holding the old generation must never validate against it again.
    pub fn publish(&self, next: GenSnapshot) -> Arc<GenSnapshot> {
        for slot in self.snapshot().slots.iter() {
            slot.write_begin();
        }
        let next = Arc::new(next);
        self.snapshot.publish(&self.domain, Arc::clone(&next));
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(bits: u32) -> (ReadView, Arc<GenSnapshot>) {
        let first = Arc::new(GenSnapshot::new(0, bits, (0..1 << bits).map(|_| TableAddr::Empty)));
        (ReadView::new(Arc::clone(&first)), first)
    }

    #[test]
    fn addresses_roundtrip_through_the_word() {
        for addr in [
            TableAddr::Empty,
            TableAddr::Cached,
            TableAddr::Unavailable,
            TableAddr::Flash(Ppa::new(0, 0)),
            TableAddr::Flash(Ppa::new(7, 255)),
        ] {
            assert_eq!(TableAddr::decode(addr.encode()), addr);
        }
    }

    #[test]
    fn reads_validate_until_a_write_bracket_opens() {
        let (view, writer) = view(2);
        let read = view.begin(6).expect("no writer active");
        assert_eq!((read.key, read.addr), (2, TableAddr::Empty));
        assert!(read.validate());
        writer.write_begin(2);
        assert!(view.begin(6).is_none(), "an open bracket turns readers away");
        assert!(!read.validate());
        writer.write_end(2, TableAddr::Flash(Ppa::new(3, 4)));
        assert!(!read.validate(), "a closed bracket still invalidates earlier reads");
        let read = view.begin(6).unwrap();
        assert_eq!(read.addr, TableAddr::Flash(Ppa::new(3, 4)));
        assert!(read.validate());
        // Other slots are untouched.
        assert!(view.begin(5).unwrap().validate());
    }

    #[test]
    fn publishing_a_generation_strands_old_readers() {
        let (view, old) = view(1);
        let read = view.begin(1).unwrap();
        let base = 1u64 << 32;
        let next = view.publish(GenSnapshot::new(
            base,
            2,
            (0..4).map(|s| TableAddr::Flash(Ppa::new(s, 0))),
        ));
        assert!(Arc::ptr_eq(&next, &view.snapshot()), "publish returns the published generation");
        assert!(!read.validate(), "old generation must never validate again");
        assert_eq!(old.slot_of_key(1), Some(1));
        assert_eq!(next.slot_of_key(1), None, "keys of another generation have no slot");
        assert_eq!(next.slot_of_key(base | 3), Some(3));
        assert_eq!(next.slot_of_key(base | 4), None);
        let read = view.begin(7).unwrap();
        assert_eq!((read.key, read.addr), (base | 3, TableAddr::Flash(Ppa::new(3, 0))));
        assert!(read.validate());
        assert!(next.dram_bytes() < old.dram_bytes() * 3);
    }

    #[test]
    fn concurrent_reads_during_doublings_never_validate_a_stale_generation() {
        let (view, _) = view(1);
        let view = Arc::new(view);
        std::thread::scope(|scope| {
            for _ in 0..3 {
                let view = Arc::clone(&view);
                scope.spawn(move || {
                    for sig in 0..400u64 {
                        if let Some(read) = view.begin(sig) {
                            let bits = read.snapshot.bits();
                            if read.validate() {
                                // A validated read's generation is the
                                // published one, or the doubling that
                                // replaced it began after the check.
                                assert!(view.snapshot().bits() >= bits);
                            }
                        }
                    }
                });
            }
            let view = Arc::clone(&view);
            scope.spawn(move || {
                for bits in 2u32..8 {
                    let base = u64::from(bits) << 32;
                    view.publish(GenSnapshot::new(
                        base,
                        bits,
                        (0..1 << bits).map(|_| TableAddr::Empty),
                    ));
                }
            });
        });
        view.domain().quiesce();
        assert_eq!(view.snapshot().bits(), 7);
    }
}
