//! Host-visible command structures: single commands, compound batches, and
//! iterator sessions.
//!
//! §II-A notes that "Samsung's NVMe command interface for KVSSD can be
//! inefficient at times" and cites Kim et al.'s proposal of "coalescing of
//! multiple KV API requests into a single NVMe compound command" \[8\].
//! [`KvssdDevice::execute_batch`] implements that coalescing: one
//! command-processing overhead is charged for the whole compound instead
//! of one per request.
//!
//! Iterator *sessions* model the Samsung log-structured iterator (§II-A):
//! `iterate_open` snapshots the matching candidates, `iterate_next` pages
//! through them, `iterate_close` releases the session.

use bytes::Bytes;
use rhik_ftl::IndexBackend;
use rhik_nand::Ppa;
use rhik_sigs::KeySignature;

use crate::device::KvssdDevice;
use crate::error::KvError;
use crate::Result;

/// One KV request inside a compound command.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Command {
    Put { key: Vec<u8>, value: Vec<u8> },
    Get { key: Vec<u8> },
    Delete { key: Vec<u8> },
    Exist { key: Vec<u8> },
}

/// Outcome of one request inside a compound command.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CommandResult {
    Stored,
    Value(Option<Bytes>),
    Deleted,
    Exists(bool),
    Error(KvError),
}

/// Handle to an open iterator session.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IterHandle(pub(crate) usize);

/// An open iterator session: a snapshot of candidate records to page
/// through. (Like the Samsung iterator, concurrent mutations after `open`
/// are not reflected.)
pub(crate) struct IterSession {
    pub(crate) prefix: Vec<u8>,
    pub(crate) candidates: Vec<(KeySignature, Ppa)>,
    pub(crate) pos: usize,
}

impl<I: IndexBackend> KvssdDevice<I> {
    /// Execute a compound command: every request runs back-to-back with a
    /// *single* command-processing overhead for the whole batch (Kim et
    /// al.'s coalescing, \[8\]). Individual request failures are reported
    /// per-slot; they do not abort the batch.
    pub fn execute_batch(&mut self, commands: &[Command]) -> Vec<CommandResult> {
        self.begin_compound();
        let mut results = Vec::with_capacity(commands.len());
        for cmd in commands {
            let result = match cmd {
                Command::Put { key, value } => match self.put(key, value) {
                    Ok(()) => CommandResult::Stored,
                    Err(e) => CommandResult::Error(e),
                },
                Command::Get { key } => match self.get(key) {
                    Ok(v) => CommandResult::Value(v),
                    Err(e) => CommandResult::Error(e),
                },
                Command::Delete { key } => match self.delete(key) {
                    Ok(()) => CommandResult::Deleted,
                    Err(e) => CommandResult::Error(e),
                },
                Command::Exist { key } => match self.exist(key) {
                    Ok(r) => CommandResult::Exists(r.probably_exists),
                    Err(e) => CommandResult::Error(e),
                },
            };
            results.push(result);
        }
        self.end_compound();
        results
    }

    /// Open an iterator session over keys with `prefix` (§II-A's iterate
    /// command; §VI's integrated iterator support). Returns a handle for
    /// [`KvssdDevice::iterate_next`].
    pub fn iterate_open(&mut self, prefix: &[u8]) -> Result<IterHandle> {
        let mut candidates = Vec::new();
        self.scan_for_iterate(&mut candidates)?;
        if prefix.len() >= 4 {
            if let Some(bucket) = self.hasher_ref().prefix_bucket(prefix) {
                candidates.retain(|(sig, _)| (sig.0 >> 32) as u32 == bucket);
            }
        }
        let session = IterSession { prefix: prefix.to_vec(), candidates, pos: 0 };
        let slot = self.alloc_iter_slot(session);
        Ok(IterHandle(slot))
    }

    /// Fetch up to `count` more keys from an open session. An empty vector
    /// means the session is exhausted.
    pub fn iterate_next(&mut self, handle: IterHandle, count: usize) -> Result<Vec<Bytes>> {
        let mut out = Vec::new();
        loop {
            if out.len() >= count {
                break;
            }
            let Some((sig, head, prefix)) = self.iter_peek(handle)? else { break };
            self.iter_advance(handle)?;
            if let Some((stored_key, _, _)) = self.read_head(sig, head)? {
                if stored_key.starts_with(&prefix) {
                    out.push(stored_key);
                }
            }
        }
        Ok(out)
    }

    /// Close an iterator session.
    pub fn iterate_close(&mut self, handle: IterHandle) -> Result<()> {
        self.free_iter_slot(handle.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DeviceConfig;
    use rhik_nand::DeviceProfile;

    #[test]
    fn batch_executes_all_and_reports_per_slot() {
        let mut dev = KvssdDevice::rhik(DeviceConfig::small());
        let results = dev.execute_batch(&[
            Command::Put { key: b"a".to_vec(), value: b"1".to_vec() },
            Command::Put { key: b"b".to_vec(), value: b"2".to_vec() },
            Command::Get { key: b"a".to_vec() },
            Command::Delete { key: b"missing".to_vec() },
            Command::Exist { key: b"b".to_vec() },
        ]);
        assert_eq!(results.len(), 5);
        assert_eq!(results[0], CommandResult::Stored);
        assert_eq!(results[1], CommandResult::Stored);
        assert_eq!(results[2], CommandResult::Value(Some(Bytes::from_static(b"1"))));
        assert_eq!(results[3], CommandResult::Error(KvError::KeyNotFound));
        assert_eq!(results[4], CommandResult::Exists(true));
    }

    #[test]
    fn batching_amortizes_command_overhead() {
        let run = |batched: bool| {
            let mut dev =
                KvssdDevice::rhik(DeviceConfig::small().with_profile(DeviceProfile::kvemu_like()));
            let cmds: Vec<Command> = (0..64u64)
                .map(|i| Command::Put {
                    key: format!("batch-{i:04}").into_bytes(),
                    value: vec![0u8; 64],
                })
                .collect();
            if batched {
                for r in dev.execute_batch(&cmds) {
                    assert!(!matches!(r, CommandResult::Error(_)));
                }
            } else {
                for c in &cmds {
                    if let Command::Put { key, value } = c {
                        dev.put(key, value).unwrap();
                    }
                }
            }
            dev.elapsed_secs()
        };
        let single = run(false);
        let compound = run(true);
        assert!(
            compound < single,
            "compound ({compound}s) should beat per-command overhead ({single}s)"
        );
    }

    #[test]
    fn iterator_session_pages_through() {
        let mut dev = KvssdDevice::rhik(DeviceConfig::small());
        for i in 0..25u64 {
            dev.put(format!("iter:{i:03}").as_bytes(), b"v").unwrap();
        }
        dev.put(b"other:x", b"v").unwrap();

        let h = dev.iterate_open(b"iter:").unwrap();
        let mut seen = Vec::new();
        loop {
            let batch = dev.iterate_next(h, 7).unwrap();
            if batch.is_empty() {
                break;
            }
            assert!(batch.len() <= 7);
            seen.extend(batch);
        }
        dev.iterate_close(h).unwrap();
        seen.sort();
        assert_eq!(seen.len(), 25);
        assert_eq!(&seen[0][..], b"iter:000");

        // Closed handle rejects further use.
        assert!(dev.iterate_next(h, 1).is_err());
        assert!(dev.iterate_close(h).is_err());
    }

    #[test]
    fn concurrent_sessions_are_independent() {
        let mut dev = KvssdDevice::rhik(DeviceConfig::small());
        for i in 0..10u64 {
            dev.put(format!("a:{i}").as_bytes(), b"v").unwrap();
            dev.put(format!("b:{i}").as_bytes(), b"v").unwrap();
        }
        let ha = dev.iterate_open(b"a:").unwrap();
        let hb = dev.iterate_open(b"b:").unwrap();
        let a1 = dev.iterate_next(ha, 4).unwrap();
        let b1 = dev.iterate_next(hb, 100).unwrap();
        let a2 = dev.iterate_next(ha, 100).unwrap();
        assert_eq!(a1.len() + a2.len(), 10);
        assert_eq!(b1.len(), 10);
        dev.iterate_close(ha).unwrap();
        dev.iterate_close(hb).unwrap();
        // Slot reuse after close.
        let hc = dev.iterate_open(b"a:").unwrap();
        assert_eq!(dev.iterate_next(hc, 100).unwrap().len(), 10);
        dev.iterate_close(hc).unwrap();
    }
}
