//! The workloads: what each runs, on which device, and why.

use rhik_kvssd::DeviceConfig;
use rhik_nand::DeviceProfile;

/// How the clients reach the device.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Front {
    /// Client threads call `ShardedKvssd::get` / `put` in process.
    InProcess,
    /// One client thread drives pipelined connections to an
    /// `rhik_server::start` server over loopback.
    Resp,
}

#[derive(Clone, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub front: Front,
    /// Key population; divisible by `clients` (each key has one writer).
    pub keys: u32,
    pub value_len: usize,
    /// Client threads (in process) or connections (RESP).
    pub clients: u32,
    pub read_frac: f64,
    /// Zipf exponent of key popularity; `None` is uniform.
    pub zipf: Option<f64>,
    /// Untimed ops per client before measuring (caches fill, GC starts).
    pub warmup_ops: u64,
    pub cfg: DeviceConfig,
}

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 2] = ["kv-zipf-read", "kv-uniform-write"];

/// Workloads that run by name but are not in `BENCHMARK.json`: their
/// run-to-run spread on a shared 2-core host is wider than any bound the
/// benchmark may set (see README.md).
pub const UNGATED: [&str; 1] = ["resp-pipelined"];

pub fn spec(name: &str) -> Option<Spec> {
    let paper = |page_cache: usize| {
        DeviceConfig::paper(512 << 20, page_cache).with_shards(4).with_hot_cache(1 << 20)
    };
    match name {
        "kv-zipf-read" => Some(Spec {
            name: "kv-zipf-read",
            front: Front::InProcess,
            keys: 200_000,
            value_len: 120,
            clients: 2,
            read_frac: 0.95,
            zipf: Some(0.99),
            warmup_ops: 100_000,
            // The whole record layer (4 shards x 64 tables x 32 KiB) fits
            // the index-page cache, so puts dirty cached pages instead of
            // forcing write-backs: GC stays idle, as this workload intends.
            // With a 2 MiB cache every put wrote back a 32 KiB page and GC
            // storms made throughput bimodal (see README.md).
            cfg: paper(12 << 20),
        }),
        "kv-uniform-write" => Some(Spec {
            name: "kv-uniform-write",
            front: Front::InProcess,
            keys: 100_000,
            value_len: 1024,
            clients: 1,
            read_frac: 0.20,
            zipf: None,
            // Past the first GC runs, so the measured mix is steady.
            warmup_ops: 150_000,
            cfg: paper(12 << 20),
        }),
        // Small pages and a cached hot set keep the device cheap, so the
        // server's own per-op work dominates. The simulated profile costs
        // no wall time; the KVEMU-like one keeps device-clock metrics
        // meaningful (the instant profile reads ~1 ns per op).
        "resp-pipelined" => Some(Spec {
            name: "resp-pipelined",
            front: Front::Resp,
            keys: 4_000,
            value_len: 120,
            clients: 2,
            read_frac: 0.90,
            zipf: Some(0.99),
            warmup_ops: 20_000,
            cfg: DeviceConfig::small()
                .with_profile(DeviceProfile::kvemu_like())
                .with_shards(4)
                .with_hot_cache(512 << 10),
        }),
        _ => None,
    }
}

impl Spec {
    /// The same workload with `1/factor` of the keys and warm-up, for the
    /// benchmark's self-tests (the device stays the same).
    pub fn scaled_down(mut self, factor: u32) -> Self {
        self.keys = (self.keys / factor / self.clients).max(1) * self.clients;
        self.warmup_ops /= factor as u64;
        self
    }
}
