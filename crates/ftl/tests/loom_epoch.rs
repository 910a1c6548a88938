#![cfg(loom)]
//! Loom models of the lock-free read-path primitives: epoch-based
//! reclamation ([`EpochDomain`] + [`GenCell`]), the [`SeqLock`], and the
//! per-slot seqlock protocol of the published directory ([`ReadView`])
//! they compose into. These pin down what the sharded device's lock-free
//! get relies on: a validated read observed a stable published state —
//! no record update, table write-back or doubling overlapped it — and
//! retired generations are reclaimed only after every reader unpinned.
//!
//! Run with: `RUSTFLAGS="--cfg loom" cargo test -p rhik-ftl --release loom_`

use loom::sync::{Arc, Mutex};
use loom::thread;
use rhik_ftl::sync::atomic::{AtomicU64, Ordering};
use rhik_ftl::sync::{EpochDomain, GenCell, SeqLock};
use rhik_ftl::{GenSnapshot, ReadView, TableAddr};
use rhik_nand::Ppa;

/// A `GenCell` load racing publishes returns some *whole* published
/// value — the two halves always agree — and once all threads are done
/// and quiescent, every retired generation has been reclaimed.
#[test]
fn loom_gencell_publish_load_never_tears() {
    loom::model(|| {
        let domain = Arc::new(EpochDomain::new());
        let cell = Arc::new(GenCell::new(std::sync::Arc::new((0u64, 0u64))));

        let publisher = {
            let (domain, cell) = (Arc::clone(&domain), Arc::clone(&cell));
            thread::spawn(move || {
                for i in 1..=3u64 {
                    cell.publish(&domain, std::sync::Arc::new((i, i)));
                }
            })
        };
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let (domain, cell) = (Arc::clone(&domain), Arc::clone(&cell));
                thread::spawn(move || {
                    for _ in 0..4 {
                        let v = cell.load(&domain);
                        assert_eq!(v.0, v.1, "torn generation observed");
                        thread::yield_now();
                    }
                })
            })
            .collect();

        publisher.join().unwrap();
        for r in readers {
            r.join().unwrap();
        }
        domain.quiesce();
        domain.try_reclaim();
        assert_eq!(domain.garbage_len(), 0, "retired generations leaked");
        assert_eq!(*cell.load(&domain), (3, 3));
    });
}

/// Reclamation never runs while any thread is pinned: garbage retired
/// under an active pin stays queued until the pin drops, and an `Arc`
/// cloned out of a `GenCell` keeps its data alive past both the pin and
/// the reclaim.
#[test]
fn loom_epoch_reclaim_waits_for_pins() {
    loom::model(|| {
        let domain = Arc::new(EpochDomain::new());
        let cell = Arc::new(GenCell::new(std::sync::Arc::new(7u64)));

        // Reader: pin, grab the current value, unpin — then keep using
        // the Arc after the writer has retired and reclaimed.
        let reader = {
            let (domain, cell) = (Arc::clone(&domain), Arc::clone(&cell));
            thread::spawn(move || {
                let held = cell.load(&domain);
                thread::yield_now();
                *held
            })
        };
        let writer = {
            let (domain, cell) = (Arc::clone(&domain), Arc::clone(&cell));
            thread::spawn(move || {
                cell.publish(&domain, std::sync::Arc::new(8u64));
            })
        };
        let seen = reader.join().unwrap();
        assert!(seen == 7 || seen == 8, "reader saw a value never published: {seen}");
        writer.join().unwrap();

        // Deterministic half: a live pin blocks reclamation outright.
        let pin = domain.pin();
        domain.retire(Box::new(0xdeadu64));
        assert!(!domain.quiescent());
        assert_eq!(domain.try_reclaim(), 0, "reclaimed under an active pin");
        assert!(domain.garbage_len() > 0);
        drop(pin);
        assert!(domain.try_reclaim() > 0, "quiescent garbage must reclaim");
        assert_eq!(domain.garbage_len(), 0);
    });
}

/// The seqlock read protocol never validates a torn write: a reader that
/// passes `read_begin`/`read_validate` saw both halves of the writer's
/// paired stores, or neither.
#[test]
fn loom_seqlock_readers_never_validate_torn_writes() {
    loom::model(|| {
        struct Pair {
            seq: SeqLock,
            a: AtomicU64,
            b: AtomicU64,
        }
        let pair =
            Arc::new(Pair { seq: SeqLock::new(), a: AtomicU64::new(0), b: AtomicU64::new(0) });

        let writer = {
            let pair = Arc::clone(&pair);
            thread::spawn(move || {
                for i in 1..=2u64 {
                    pair.seq.write_begin();
                    pair.a.store(i, Ordering::SeqCst);
                    thread::yield_now();
                    pair.b.store(i, Ordering::SeqCst);
                    pair.seq.write_end();
                }
            })
        };
        let reader = {
            let pair = Arc::clone(&pair);
            thread::spawn(move || {
                for _ in 0..4 {
                    let Some(begin) = pair.seq.read_begin() else {
                        thread::yield_now();
                        continue;
                    };
                    let a = pair.a.load(Ordering::SeqCst);
                    let b = pair.b.load(Ordering::SeqCst);
                    if pair.seq.read_validate(begin) {
                        assert_eq!(a, b, "validated read observed a torn write");
                    }
                }
            })
        };
        writer.join().unwrap();
        reader.join().unwrap();
        assert_eq!(pair.a.load(Ordering::SeqCst), 2);
        assert_eq!(pair.b.load(Ordering::SeqCst), 2);
    });
}

/// The world one directory slot's readers see: the page cache's copy of
/// the slot's record table (its one record's head page), record tables
/// on flash, and data pages on flash. `GARBAGE` marks erased media.
/// `gen` is the writer's handle on the generation it published, which
/// it brackets its slot updates on (as `RhikIndex` does).
struct Slot {
    view: ReadView,
    gen: std::sync::Arc<GenSnapshot>,
    cache: Mutex<Option<u64>>,
    tables: [AtomicU64; 3],
    data: [AtomicU64; PAGES],
    started: AtomicU64,
}

const GARBAGE: u64 = u64::MAX;

/// Data pages in a slot model; pages past those a model names start
/// erased.
const PAGES: usize = 16;

/// Lock-free gets each slot model's reader attempts while the writer runs.
const READS: usize = 32;

/// The model's data pages: `named` first, the rest erased.
fn pages(named: &[u64]) -> [u64; PAGES] {
    let mut data = [GARBAGE; PAGES];
    data[..named.len()].copy_from_slice(named);
    data
}

impl Slot {
    /// One slot published at `addr`.
    fn new(addr: TableAddr, cache: Option<u64>, tables: [u64; 3], data: [u64; PAGES]) -> Self {
        let gen = std::sync::Arc::new(GenSnapshot::new(0, 0, [addr]));
        Slot {
            view: ReadView::new(std::sync::Arc::clone(&gen)),
            gen,
            cache: Mutex::new(cache),
            tables: tables.map(AtomicU64::new),
            data: data.map(AtomicU64::new),
            started: AtomicU64::new(0),
        }
    }

    /// Line the writer and the reader up so their steps overlap.
    fn start(&self) {
        self.started.fetch_add(1, Ordering::SeqCst);
        while self.started.load(Ordering::SeqCst) < 2 {
            thread::yield_now();
        }
    }

    /// One lock-free get of signature 0, as the device runs it: slot,
    /// record page (cache, else flash), data page, validate. `Some` only
    /// for a validated read.
    fn get(&self) -> Option<u64> {
        let read = self.view.begin(0)?;
        thread::yield_now();
        let head = match (read.addr, *self.cache.lock().unwrap()) {
            (TableAddr::Empty | TableAddr::Unavailable, _) => return None,
            (_, Some(head)) => head,
            (TableAddr::Flash(ppa), None) => self.tables[ppa.page as usize].load(Ordering::SeqCst),
            (TableAddr::Cached, None) => return None,
        };
        thread::yield_now();
        let value = match self.data.get(head as usize) {
            Some(page) => page.load(Ordering::SeqCst),
            None => GARBAGE,
        };
        read.validate().then_some(value)
    }
}

/// A probe that overlaps an in-place record update never validates: the
/// update writes the new pair, repoints the cached record inside the
/// slot's bracket, and garbage collection then erases the old pair — a
/// reader that probed the old record must not return its erased page.
#[test]
fn loom_slot_probe_never_validates_across_a_record_mutation() {
    loom::model(|| {
        let slot = Arc::new(Slot::new(
            TableAddr::Flash(Ppa::new(0, 0)),
            Some(1),
            [1, GARBAGE, GARBAGE],
            pages(&[GARBAGE, 10]),
        ));
        let writer = {
            let slot = Arc::clone(&slot);
            thread::spawn(move || {
                let gen = std::sync::Arc::clone(&slot.gen);
                slot.start();
                for new in 2..PAGES as u64 {
                    slot.data[new as usize].store(10 * new, Ordering::SeqCst);
                    gen.write_begin(0);
                    *slot.cache.lock().unwrap() = Some(new);
                    gen.write_end(0, TableAddr::Cached);
                    slot.data[new as usize - 1].store(GARBAGE, Ordering::SeqCst);
                }
            })
        };
        let reader = {
            let slot = Arc::clone(&slot);
            thread::spawn(move || {
                slot.start();
                for _ in 0..READS {
                    if let Some(value) = slot.get() {
                        assert!(value != GARBAGE, "validated read returned an erased page");
                    }
                }
            })
        };
        writer.join().unwrap();
        reader.join().unwrap();
        assert_eq!(slot.get(), Some(150), "a quiet read after the updates must validate");
    });
}

/// A dirty record page is published as cache-only, so a reader that
/// misses it while it is being written back falls back instead of
/// reading the stale flash copy; once the write-back publishes the new
/// table, reads validate again. Garbage collection then relocates that
/// table and erases the copy the write-back made: a reader still holding
/// its address never validates.
#[test]
fn loom_slot_probe_never_validates_across_a_write_back() {
    loom::model(|| {
        // The update to value 20 committed before the reader started:
        // the flash table still names the old pair, the cache the new.
        let slot = Arc::new(Slot::new(
            TableAddr::Cached,
            Some(2),
            [1, GARBAGE, GARBAGE],
            pages(&[GARBAGE, 10, 20]),
        ));
        let writer = {
            let slot = Arc::clone(&slot);
            thread::spawn(move || {
                let gen = std::sync::Arc::clone(&slot.gen);
                slot.start();
                let page = slot.cache.lock().unwrap().take().expect("dirty page cached");
                thread::yield_now();
                slot.tables[1].store(page, Ordering::SeqCst);
                gen.write_begin(0);
                gen.write_end(0, TableAddr::Flash(Ppa::new(0, 1)));
                thread::yield_now();
                let page = slot.tables[1].load(Ordering::SeqCst);
                slot.tables[2].store(page, Ordering::SeqCst);
                gen.write_begin(0);
                gen.write_end(0, TableAddr::Flash(Ppa::new(0, 2)));
                slot.tables[1].store(GARBAGE, Ordering::SeqCst);
            })
        };
        let reader = {
            let slot = Arc::clone(&slot);
            thread::spawn(move || {
                slot.start();
                for _ in 0..READS {
                    if let Some(value) = slot.get() {
                        assert_eq!(value, 20, "validated read saw {value:#x}");
                    }
                }
            })
        };
        writer.join().unwrap();
        reader.join().unwrap();
        assert_eq!(slot.get(), Some(20), "relocated table must be readable");
    });
}

/// A doubling withdraws the old slot before its records move, publishes
/// the new slot array, and only then lets mutations and garbage
/// collection touch what the old generation pointed at: a reader still
/// holding the old generation never validates after that.
#[test]
fn loom_slot_probe_never_validates_across_a_doubling() {
    loom::model(|| {
        let slot = Arc::new(Slot::new(
            TableAddr::Flash(Ppa::new(0, 0)),
            None,
            [1, GARBAGE, GARBAGE],
            pages(&[GARBAGE, 10]),
        ));
        let writer = {
            let slot = Arc::clone(&slot);
            thread::spawn(move || {
                let old = std::sync::Arc::clone(&slot.gen);
                slot.start();
                old.write_begin(0);
                old.write_end(0, TableAddr::Unavailable);
                slot.tables[1].store(1, Ordering::SeqCst); // the split copy
                let next = GenSnapshot::new(
                    1 << 32,
                    1,
                    [TableAddr::Flash(Ppa::new(0, 1)), TableAddr::Empty],
                );
                let next = slot.view.publish(next);
                thread::yield_now();
                // A put in the doubled directory, then GC of the old
                // table and the superseded pair.
                slot.data[2].store(20, Ordering::SeqCst);
                next.write_begin(0);
                slot.tables[1].store(2, Ordering::SeqCst);
                next.write_end(0, TableAddr::Flash(Ppa::new(0, 1)));
                slot.tables[0].store(GARBAGE, Ordering::SeqCst);
                slot.data[1].store(GARBAGE, Ordering::SeqCst);
            })
        };
        let reader = {
            let slot = Arc::clone(&slot);
            thread::spawn(move || {
                slot.start();
                for _ in 0..READS {
                    if let Some(value) = slot.get() {
                        assert!(value == 10 || value == 20, "validated read saw {value:#x}");
                    }
                }
            })
        };
        writer.join().unwrap();
        reader.join().unwrap();
        assert_eq!(slot.get(), Some(20));
        slot.view.domain().quiesce();
        assert_eq!(slot.view.domain().garbage_len(), 0, "retired generation leaked");
    });
}
