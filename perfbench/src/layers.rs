//! Each layer's public counters, read from outside the program. A
//! [`LayerSnap`] is taken before and after a measured phase; the per-layer
//! metrics are the differences.

use rhik_core::RhikIndex;
use rhik_ftl::IndexBackend;
use rhik_kvssd::{CacheStats, DeviceStats, LatencyHistogram, ShardedKvssd};

/// Counters of one moment, summed over shards where a layer is per shard.
/// Every shard owns its own NAND array model (blocks are leased from one
/// pool), so summing the arrays' counters counts each media op once.
#[derive(Clone, Default)]
pub struct LayerSnap {
    pub device: DeviceStats,
    pub device_secs: f64,
    pub get_lat: LatencyHistogram,
    pub put_lat: LatencyHistogram,
    pub lockfree_gets: u64,
    pub lockfree_fallbacks: u64,
    pub lockfree_pages: u64,
    pub commit_batches: u64,
    pub commit_puts: u64,
    pub hot: CacheStats,
    // ftl
    pub page_cache_hits: u64,
    pub page_cache_misses: u64,
    pub page_cache_dirty_evictions: u64,
    pub data_page_reads: u64,
    pub index_page_programs: u64,
    pub gc_runs: u64,
    pub gc_relocated: u64,
    pub block_erases: u64,
    // nand
    pub nand_reads: u64,
    pub nand_programs: u64,
    pub nand_bytes_programmed: u64,
    // rhik-core
    pub lookups: u64,
    pub metadata_reads: u64,
    pub metadata_programs: u64,
    pub zero_flash_lookups: u64,
    pub reads_histo: [u64; 16],
    pub insert_aborts: u64,
    /// `(media_ns, max_step_media_ns)` of every completed resize.
    pub resizes: Vec<(u64, u64)>,
    pub dram_bytes: u64,
    pub keys: u64,
}

impl LayerSnap {
    pub fn take(dev: &ShardedKvssd<RhikIndex>) -> Self {
        let mut s = LayerSnap {
            device: dev.stats(),
            device_secs: dev.device_elapsed_secs(),
            get_lat: dev.get_latencies(),
            put_lat: dev.put_latencies(),
            hot: dev.hot_cache_stats().unwrap_or_default(),
            ..Default::default()
        };
        let lf = dev.lockfree_read_stats();
        s.lockfree_gets = lf.gets;
        s.lockfree_fallbacks = lf.fallbacks;
        s.lockfree_pages = lf.pages_read;
        let gc = dev.group_commit_stats();
        s.commit_batches = gc.batches;
        s.commit_puts = gc.batched_puts;
        for shard in 0..dev.shard_count() {
            dev.with_shard(shard, |d| {
                let cache = d.ftl().cache_ref().stats();
                s.page_cache_hits += cache.hits;
                s.page_cache_misses += cache.misses;
                s.page_cache_dirty_evictions += cache.dirty_evictions;
                let ftl = d.ftl().stats();
                s.data_page_reads += ftl.data_page_reads;
                s.index_page_programs += ftl.index_page_programs;
                s.gc_runs += ftl.gc_runs;
                s.gc_relocated += ftl.gc_relocated_pairs;
                s.block_erases += ftl.block_erases;
                let nand = d.ftl().nand_stats();
                s.nand_reads += nand.page_reads;
                s.nand_programs += nand.page_programs;
                s.nand_bytes_programmed += nand.bytes_programmed;
                let index = d.index().stats();
                s.lookups += index.lookups;
                s.metadata_reads += index.metadata_flash_reads;
                s.metadata_programs += index.metadata_flash_programs;
                s.zero_flash_lookups += index.zero_flash_lookups;
                for (acc, n) in s.reads_histo.iter_mut().zip(index.reads_per_lookup_histo) {
                    *acc += n;
                }
                s.insert_aborts += index.insert_aborts;
                s.resizes
                    .extend(index.resizes.iter().map(|ev| (ev.media_ns, ev.max_step_media_ns)));
                s.dram_bytes += d.index().dram_bytes();
                s.keys += d.key_count();
            });
        }
        s
    }

    /// Highest flash-read count any index lookup needed, over the
    /// histogram's lifetime (the paper's bound is 1).
    pub fn max_reads_per_lookup(&self) -> u64 {
        max_bucket(&self.reads_histo)
    }
}

fn max_bucket(histo: &[u64; 16]) -> u64 {
    histo.iter().rposition(|&n| n > 0).map_or(0, |i| i as u64)
}

/// What changed between two snapshots of the same device.
pub struct LayerDiff<'a> {
    pub before: &'a LayerSnap,
    pub after: &'a LayerSnap,
}

impl LayerDiff<'_> {
    /// `after - before` of one counter.
    pub fn delta(&self, field: impl Fn(&LayerSnap) -> u64) -> f64 {
        (field(self.after) - field(self.before)) as f64
    }

    pub fn get_lat(&self) -> LatencyHistogram {
        self.after.get_lat.since(&self.before.get_lat)
    }

    pub fn put_lat(&self) -> LatencyHistogram {
        self.after.put_lat.since(&self.before.put_lat)
    }

    pub fn device_secs(&self) -> f64 {
        self.after.device_secs - self.before.device_secs
    }

    /// Worst lookup of this phase alone.
    pub fn max_reads_per_lookup(&self) -> u64 {
        let mut histo = [0u64; 16];
        for (i, h) in histo.iter_mut().enumerate() {
            *h = self.after.reads_histo[i] - self.before.reads_histo[i];
        }
        max_bucket(&histo)
    }
}
