//! Record-layer pages served through the FTL's DRAM page cache, shared by
//! every index built from [`RecordTable`]s (RHIK and the hash baselines).
//!
//! A probe reads the slots it needs straight from the cached page; an
//! update patches the cached page in place and marks it dirty. A miss reads
//! the page from flash once (the ≤ 1-read bound) and installs it, writing
//! back whatever the install evicts.
//!
//! An index with lock-free readers publishes each table's address per
//! directory slot; an update runs inside that slot's seqlock bracket
//! ([`TableStore::slot_begin`] / [`TableStore::slot_end`]) so a reader
//! probing the same page never validates across it.

use bytes::Bytes;
use rhik_ftl::{Ftl, IndexError, IndexStats};
use rhik_nand::Ppa;
use rhik_sigs::KeySignature;

use crate::bucket::RecordTable;

/// An index's bookkeeping for its record pages, addressed by cache key.
/// Implementors say where each table lives and how many records it holds;
/// the provided methods do the cache and flash work.
pub trait TableStore {
    /// `(R, H)`: slots per table (Eq. 1) and hop width.
    fn table_shape(&self) -> (u32, u32);

    /// Flash address of the table under `key`, or `None` while it has never
    /// been persisted. Looked up afresh for every fetch: installing a page
    /// can evict — and write back, moving — any other page, so an address
    /// read before an install may be stale after it.
    fn table_ppa(&self, key: u64) -> Option<Ppa>;

    /// Records the table under `key` holds (the directory's count).
    fn table_len(&self, key: u64) -> u32;

    /// Record the new count of a table an update changed.
    fn set_table_len(&mut self, key: u64, len: u32);

    /// Persist a page the cache evicted (`dirty` says whether it must be).
    fn write_back(
        &mut self,
        ftl: &mut Ftl,
        key: u64,
        data: Bytes,
        dirty: bool,
    ) -> Result<(), IndexError>;

    fn index_stats_mut(&mut self) -> &mut IndexStats;

    /// Open the seqlock bracket of the published directory slot serving
    /// the table under `key`. `None` (the default) when nothing is
    /// published for it.
    fn slot_begin(&self, _key: u64) -> Option<usize> {
        None
    }

    /// Publish the table's address as it now stands and close a bracket
    /// [`slot_begin`](Self::slot_begin) opened.
    fn slot_end(&self, _slot: Option<usize>, _key: u64) {}

    /// Cache `page` under `key`, writing back whatever the insert evicts.
    fn install(
        &mut self,
        ftl: &mut Ftl,
        key: u64,
        page: Bytes,
        dirty: bool,
    ) -> Result<(), IndexError> {
        let evicted = ftl.cache().insert(key, page, dirty);
        for ev in evicted {
            self.write_back(ftl, ev.key, ev.data, ev.dirty)?;
        }
        Ok(())
    }

    /// The page of the table under `key` and the flash reads fetching it
    /// took: 0 on a cache hit, 1 on a miss (the page is then installed
    /// clean). `None` for a table that was never persisted and is not
    /// cached — it is empty.
    fn fetch_page(&mut self, ftl: &mut Ftl, key: u64) -> Result<Option<(Bytes, u64)>, IndexError> {
        let cached = ftl.cache().get(key);
        if let Some(page) = cached {
            return Ok(Some((page, 0)));
        }
        let Some(ppa) = self.table_ppa(key) else { return Ok(None) };
        let page = ftl.read_index_page(ppa)?;
        self.index_stats_mut().metadata_flash_reads += 1;
        self.install(ftl, key, page.clone(), false)?;
        Ok(Some((page, 1)))
    }

    /// Probe the table under `key` for `sig`; returns the hit and the flash
    /// reads it took (≤ 1). A cached page is probed where it lies, under
    /// the cache lock; a miss probes the page read from flash, then
    /// installs it clean.
    fn probe_table(
        &mut self,
        ftl: &mut Ftl,
        key: u64,
        sig: KeySignature,
    ) -> Result<(Option<Ppa>, u64), IndexError> {
        let (records, hop_width) = self.table_shape();
        let len = self.table_len(key);
        let probe = |page: &[u8]| RecordTable::view(page, records, hop_width, len).lookup(sig);
        if let Some(hit) = ftl.cache().get_mut(key).map(|(page, _)| probe(page)) {
            return Ok((hit, 0));
        }
        let Some(ppa) = self.table_ppa(key) else { return Ok((None, 0)) };
        let page = ftl.read_index_page(ppa)?;
        self.index_stats_mut().metadata_flash_reads += 1;
        let hit = probe(&page);
        self.install(ftl, key, page, false)?;
        Ok((hit, 1))
    }

    /// Run `op` on the table under `key`, in place on its cached page. A
    /// miss reads the page from flash (or starts a blank one for a table
    /// never persisted) and installs it — dirty if `op` changed it. A
    /// change marks the page dirty and updates the table's count. The
    /// change happens inside the table's slot bracket; flash reads and
    /// write-backs of evicted pages stay outside it.
    fn update_table<T>(
        &mut self,
        ftl: &mut Ftl,
        key: u64,
        op: impl FnOnce(&mut RecordTable<&mut [u8]>) -> T,
    ) -> Result<T, IndexError> {
        let (records, hop_width) = self.table_shape();
        let len = self.table_len(key);
        let slot = self.slot_begin(key);
        let mut cache = ftl.cache();
        if let Some((page, dirty)) = cache.get_mut(key) {
            let (out, len, modified) = RecordTable::update_page(page, records, hop_width, len, op);
            *dirty |= modified;
            drop(cache);
            if modified {
                self.set_table_len(key, len);
            }
            self.slot_end(slot, key);
            return Ok(out);
        }
        drop(cache);
        // Readers that miss the cache read the flash copy, which stays
        // current until the changed page is published as cached below.
        self.slot_end(slot, key);
        let flash = match self.table_ppa(key) {
            Some(ppa) => {
                let page = ftl.read_index_page(ppa)?;
                self.index_stats_mut().metadata_flash_reads += 1;
                Some(page)
            }
            None => None,
        };
        let mut page = match &flash {
            Some(page) => page.clone(),
            None => {
                let page_size = ftl.geometry().page_size as usize;
                RecordTable::blank(page_size, records, hop_width).into_page()
            }
        };
        let (out, len, modified) = RecordTable::update_page(&mut page, records, hop_width, len, op);
        if modified {
            let slot = self.slot_begin(key);
            self.set_table_len(key, len);
            self.slot_end(slot, key);
            self.install(ftl, key, page, true)?;
        } else if let Some(flash) = flash {
            // Unchanged: cache the flash buffer itself, not a copy.
            self.install(ftl, key, flash, false)?;
        }
        Ok(out)
    }
}
