//! The reference model every output is checked against: per key, the
//! highest write sequence issued and the highest acknowledged. A key has a
//! single writer (see [`crate::gen::OpStream`]), so a read that starts
//! after version `a` was acknowledged and ends before version `i` was
//! issued must return a version in `a..=i`, byte for byte.

use std::sync::atomic::{AtomicU32, Ordering::SeqCst};
use std::sync::Mutex;

use crate::gen::Keyspace;

/// Outcome of checking one read.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Check {
    Ok,
    /// Wrong bytes, a version outside the allowed window, or a miss for
    /// an acknowledged key.
    Wrong,
}

pub struct Versions {
    issued: Vec<AtomicU32>,
    acked: Vec<AtomicU32>,
    /// Versions whose write returned an error: they may or may not have
    /// landed, so a later read of exactly that version is not wrong.
    failed: Mutex<Vec<(u32, u32)>>,
}

impl Versions {
    /// Every key starts preloaded: version 1 issued and acknowledged.
    pub fn new(n: u32) -> Self {
        Versions {
            issued: (0..n).map(|_| AtomicU32::new(1)).collect(),
            acked: (0..n).map(|_| AtomicU32::new(1)).collect(),
            failed: Mutex::new(Vec::new()),
        }
    }

    /// Issue the next version of `id` (caller is its single writer).
    pub fn issue(&self, id: u32) -> u32 {
        let seq = self.issued[id as usize].load(SeqCst) + 1;
        self.issued[id as usize].store(seq, SeqCst);
        seq
    }

    pub fn ack(&self, id: u32, seq: u32) {
        self.acked[id as usize].store(seq, SeqCst);
    }

    /// Version 1 of `id` was never acknowledged: its preload put failed.
    pub fn preload_failed(&self, id: u32) {
        self.acked[id as usize].store(0, SeqCst);
        self.fail(id, 1);
    }

    pub fn fail(&self, id: u32, seq: u32) {
        self.failed.lock().expect("model lock poisoned by a panicked client").push((id, seq));
    }

    pub fn acked(&self, id: u32) -> u32 {
        self.acked[id as usize].load(SeqCst)
    }

    pub fn issued(&self, id: u32) -> u32 {
        self.issued[id as usize].load(SeqCst)
    }

    /// Check a read of `id` that began after version `lo` was acknowledged
    /// and completed while at most version `hi` was issued.
    pub fn check_window(
        &self,
        ks: &Keyspace,
        id: u32,
        lo: u32,
        hi: u32,
        got: Option<&[u8]>,
    ) -> Check {
        match got {
            None if lo == 0 => Check::Ok,
            None => Check::Wrong,
            Some(bytes) => match ks.decode(id, bytes) {
                Some(seq) if seq >= lo && seq <= hi => Check::Ok,
                _ => Check::Wrong,
            },
        }
    }

    /// Check the final read of `id` with no writes in flight: it must be
    /// the last acknowledged version, or a later one whose write failed.
    pub fn check_final(&self, ks: &Keyspace, id: u32, got: Option<&[u8]>) -> Check {
        let acked = self.acked(id);
        let decoded = got.map(|bytes| ks.decode(id, bytes));
        match decoded {
            None if acked == 0 => Check::Ok,
            Some(Some(seq)) if seq == acked => Check::Ok,
            Some(Some(seq)) if seq > acked => {
                let failed = self.failed.lock().expect("model lock poisoned by a panicked client");
                if failed.contains(&(id, seq)) {
                    Check::Ok
                } else {
                    Check::Wrong
                }
            }
            _ => Check::Wrong,
        }
    }
}
