//! Lock-free lookups over the published directory: take the signature's
//! slot from the [`ReadView`], probe the slot's record page in place with
//! the locked path's [`RecordTable`] code — in the shard's page cache, or
//! read from flash as one charged read that is not installed — and hand
//! back the head page with the slot read to validate once the caller has
//! read the data page. Whatever the published address cannot settle is
//! [`ReadLookup::Contended`]: the caller takes the locked path.

use std::sync::Arc;

use rhik_ftl::{MediaReader, ReadView, SharedPageCache, SlotRead, TableAddr};
use rhik_nand::Ppa;
use rhik_sigs::KeySignature;

use crate::bucket::RecordTable;
use crate::record::IndexRecord;

/// Outcome of one lock-free lookup.
pub enum ReadLookup {
    /// The slot's table answered: `head` is the pair's head page, or
    /// `None` if the table holds no record for the signature. Valid only
    /// if `slot` still validates after the caller's data-page reads.
    Done { head: Option<Ppa>, index_reads: u64, slot: SlotRead },
    /// Take the locked path; `index_reads` flash reads were spent.
    Contended { index_reads: u64 },
}

/// One shard's lock-free view of its RHIK index ([`crate::RhikIndex::reader`]).
pub struct IndexReader {
    view: Arc<ReadView>,
    pages: SharedPageCache,
    media: MediaReader,
    records: u32,
    hop_width: u32,
}

impl IndexReader {
    pub(crate) fn new(
        view: Arc<ReadView>,
        pages: SharedPageCache,
        media: MediaReader,
        (records, hop_width): (u32, u32),
    ) -> Self {
        IndexReader { view, pages, media, records, hop_width }
    }

    /// Look `sig` up: at most one flash read, of the record page, and
    /// only when the page cache does not hold it.
    pub fn lookup(&self, sig: KeySignature) -> ReadLookup {
        let Some(slot) = self.view.begin(sig.0) else {
            return ReadLookup::Contended { index_reads: 0 };
        };
        let flash = match slot.addr {
            TableAddr::Empty => return ReadLookup::Done { head: None, index_reads: 0, slot },
            TableAddr::Unavailable => return ReadLookup::Contended { index_reads: 0 },
            TableAddr::Cached => None,
            TableAddr::Flash(ppa) => Some(ppa),
        };
        // A page read where a writer already moved the table from may be
        // anything, even too short: validation rejects it, after the probe.
        let table_bytes = self.records as usize * IndexRecord::PACKED_LEN;
        let probe = |page: &[u8]| {
            (page.len() >= table_bytes)
                .then(|| RecordTable::view(page, self.records, self.hop_width, 0).lookup(sig))
        };
        let (found, index_reads) = match self.pages.probe(slot.key, probe) {
            Some(found) => (found, 0),
            None => {
                let Some(ppa) = flash else { return ReadLookup::Contended { index_reads: 0 } };
                let Ok((page, _)) = self.media.read_page(ppa) else {
                    return ReadLookup::Contended { index_reads: 0 };
                };
                (probe(&page), 1)
            }
        };
        match found {
            Some(head) => ReadLookup::Done { head, index_reads, slot },
            None => ReadLookup::Contended { index_reads },
        }
    }

    /// The media handle data pages are read through.
    pub fn media(&self) -> &MediaReader {
        &self.media
    }

    /// Count one completed (validated) lookup into the index's
    /// statistics.
    pub fn note_lookup(&self, index_reads: u64) {
        self.view.tally().note(index_reads);
    }
}
