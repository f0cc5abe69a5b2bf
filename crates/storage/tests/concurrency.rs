//! Storage-layer concurrency: the buffer pool and WAL under parallel
//! access from many threads.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use sbdms_storage::disk::{DiskManager, IoKind};
use sbdms_storage::services::StorageEngine;
use sbdms_storage::BufferPool;

fn engine(name: &str, frames: usize) -> StorageEngine {
    let dir = std::env::temp_dir()
        .join("sbdms-storage-concurrency")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    StorageEngine::open(&dir, frames).unwrap()
}

#[test]
fn parallel_page_mutation_is_consistent() {
    let engine = engine("mutate", 8);
    let buffer = engine.buffer.clone();
    // Each thread owns one page and hammers it; a tiny pool forces
    // constant eviction traffic between threads.
    let pages: Vec<u64> = (0..6).map(|_| buffer.new_page().unwrap()).collect();
    let mut handles = Vec::new();
    for (t, &page) in pages.iter().enumerate() {
        let buffer = buffer.clone();
        handles.push(std::thread::spawn(move || {
            let mut slots = Vec::new();
            for i in 0..200usize {
                let record = format!("t{t}-i{i}");
                let slot = buffer
                    .try_with_page_mut(page, |p| p.insert(record.as_bytes()))
                    .unwrap();
                slots.push((slot, record));
                if i % 3 == 0 {
                    let (slot, expected) = &slots[i / 3];
                    let got = buffer
                        .with_page(page, |p| p.get(*slot).map(|r| r.to_vec()))
                        .unwrap()
                        .unwrap();
                    assert_eq!(got, expected.as_bytes());
                }
                if i % 7 == 0 && slots.len() > 2 {
                    let (slot, _) = slots.remove(0);
                    buffer.try_with_page_mut(page, |p| p.delete(slot)).unwrap();
                }
            }
            slots
        }));
    }
    let mut total = 0;
    for (h, &page) in handles.into_iter().zip(&pages) {
        let slots = h.join().unwrap();
        for (slot, expected) in &slots {
            let got = buffer
                .with_page(page, |p| p.get(*slot).map(|r| r.to_vec()))
                .unwrap()
                .unwrap();
            assert_eq!(got, expected.as_bytes());
        }
        total += slots.len();
    }
    assert!(total > 0);
    // Everything survives a flush + refetch cycle.
    buffer.flush_all().unwrap();
    for &page in &pages {
        let n = buffer.with_page(page, |p| p.live_records()).unwrap();
        assert!(n > 0);
    }
}

#[test]
fn parallel_wal_appends_all_recorded() {
    let engine = engine("wal", 4);
    let wal = engine.wal.clone();
    let threads = 6;
    let per_thread = 300;
    let mut handles = Vec::new();
    for t in 0..threads {
        let wal = wal.clone();
        handles.push(std::thread::spawn(move || {
            for i in 0..per_thread {
                let payload = format!("t{t}-{i}");
                wal.append((t % 200) as u8, payload.as_bytes()).unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    wal.sync().unwrap();
    let records = wal.records().unwrap();
    assert_eq!(records.len(), threads * per_thread);
    // LSNs are strictly increasing and frames are intact.
    for w in records.windows(2) {
        assert!(w[1].lsn > w[0].lsn);
    }
    // Per-thread payload counts are complete (no lost appends).
    for t in 0..threads {
        let count = records
            .iter()
            .filter(|r| r.payload.starts_with(format!("t{t}-").as_bytes()))
            .count();
        assert_eq!(count, per_thread, "thread {t}");
    }
}

#[test]
fn buffer_resize_under_concurrent_readers() {
    let engine = engine("resize", 32);
    let buffer = engine.buffer.clone();
    let pages: Vec<u64> = (0..24)
        .map(|i| {
            let p = buffer.new_page().unwrap();
            buffer
                .try_with_page_mut(p, |page| page.insert(format!("p{i}").as_bytes()).map(|_| ()))
                .unwrap();
            p
        })
        .collect();
    buffer.flush_all().unwrap();

    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let mut readers = Vec::new();
    for _ in 0..4 {
        let buffer = buffer.clone();
        let pages = pages.clone();
        let stop = stop.clone();
        readers.push(std::thread::spawn(move || {
            let mut i = 0usize;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                i += 1;
                let page = pages[i % pages.len()];
                let n = buffer.with_page(page, |p| p.live_records()).unwrap();
                assert_eq!(n, 1);
            }
        }));
    }
    // Resize repeatedly while readers hammer.
    for capacity in [8usize, 16, 4, 32, 12] {
        buffer.resize(capacity).unwrap();
        assert_eq!(buffer.stats().capacity, capacity);
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    for r in readers {
        r.join().unwrap();
    }
}

fn sharded_pool(name: &str, capacity: usize, shards: usize) -> BufferPool {
    let dir = std::env::temp_dir().join("sbdms-storage-concurrency");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{name}-{}.db", std::process::id()));
    let _ = std::fs::remove_file(&path);
    BufferPool::new_sharded(Arc::new(DiskManager::open(path).unwrap()), capacity, shards)
}

/// A blocked disk read of one page must not stall a cached read of
/// another: no pool- or shard-wide lock may be held across `DiskManager`
/// I/O. Uses a single shard so the guarantee comes from the per-frame
/// latch, not merely from stripe separation.
#[test]
fn blocked_io_does_not_stall_cached_reads() {
    let pool = Arc::new(sharded_pool("stall", 2, 1));
    let a = pool.new_page().unwrap();
    let b = pool.new_page().unwrap();
    let c = pool.new_page().unwrap();
    for (page, tag) in [(a, "a"), (b, "b"), (c, "c")] {
        pool.with_page_mut(page, |p| p.insert(tag.as_bytes()).unwrap())
            .unwrap();
    }
    pool.flush_all().unwrap();
    // Capacity 2: touching c then b leaves {c, b} resident and a cold.
    pool.with_page(c, |_| ()).unwrap();
    pool.with_page(b, |_| ()).unwrap();

    // Stall the next disk read of `a` until released.
    let (started_tx, started_rx) = mpsc::channel::<()>();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let release_rx = Mutex::new(release_rx);
    let armed = AtomicBool::new(true);
    pool.disk().set_io_hook(Some(Arc::new(move |kind, id| {
        if kind == IoKind::Read && id == a && armed.swap(false, Ordering::SeqCst) {
            started_tx.send(()).unwrap();
            release_rx.lock().unwrap().recv().unwrap();
        }
    })));

    let reader = {
        let pool = pool.clone();
        std::thread::spawn(move || {
            pool.with_page(a, |p| p.get(0).unwrap().to_vec()).unwrap()
        })
    };
    started_rx
        .recv_timeout(Duration::from_secs(5))
        .expect("cold read of a should reach the disk");

    // While a's I/O is parked, the cached page b must stay readable.
    let data = pool.with_page(b, |p| p.get(0).unwrap().to_vec()).unwrap();
    assert_eq!(data, b"b");

    release_tx.send(()).unwrap();
    assert_eq!(reader.join().unwrap(), b"a");
    pool.disk().set_io_hook(None);
}

/// Stress the sharded pool: concurrent writers, readers, per-page and
/// pool-wide flushes across shards, with constant eviction pressure
/// (more pages than frames). No write may be lost and every pin must be
/// released.
#[test]
fn sharded_pool_stress_no_lost_writes() {
    let pool = Arc::new(sharded_pool("stress", 16, 4));
    let threads = 8usize;
    let pages_per_thread = 4usize;
    let iterations = 150usize;

    // Each thread owns its pages; 32 pages over 16 frames keeps every
    // shard evicting while other shards serve hits.
    let pages: Vec<Vec<u64>> = (0..threads)
        .map(|_| {
            (0..pages_per_thread)
                .map(|_| pool.new_page().unwrap())
                .collect()
        })
        .collect();

    let mut handles = Vec::new();
    for (t, mine) in pages.iter().enumerate() {
        let pool = pool.clone();
        let mine = mine.clone();
        handles.push(std::thread::spawn(move || {
            let mut written: Vec<(u64, u16, String)> = Vec::new();
            for i in 0..iterations {
                let page = mine[i % mine.len()];
                let record = format!("t{t}-i{i}");
                let slot = pool
                    .try_with_page_mut(page, |p| p.insert(record.as_bytes()))
                    .unwrap();
                written.push((page, slot, record));
                match i % 5 {
                    0 => pool.flush_page(page).unwrap(),
                    1 => {
                        let (vp, vs, expected) = &written[i / 2];
                        let got = pool
                            .with_page(*vp, |p| p.get(*vs).map(|r| r.to_vec()))
                            .unwrap()
                            .unwrap();
                        assert_eq!(&got, expected.as_bytes(), "thread {t} iter {i}");
                    }
                    2 => pool.flush_all().unwrap(),
                    _ => {}
                }
            }
            written
        }));
    }

    let mut total = 0usize;
    for h in handles {
        let written = h.join().unwrap();
        for (page, slot, expected) in &written {
            let got = pool
                .with_page(*page, |p| p.get(*slot).map(|r| r.to_vec()))
                .unwrap()
                .unwrap();
            assert_eq!(&got, expected.as_bytes(), "lost write on page {page}");
        }
        total += written.len();
    }
    assert_eq!(total, threads * iterations);

    let stats = pool.stats();
    assert_eq!(stats.pinned, 0, "all pins released: {stats:?}");
    assert!(stats.evictions > 0, "32 pages over 16 frames must evict");
    assert_eq!(stats.shards, 4);

    // And everything survives a final flush + reopen-free verification.
    pool.flush_all().unwrap();
    let per_shard = pool.shard_stats();
    assert_eq!(per_shard.len(), 4);
    assert!(per_shard.iter().filter(|s| s.resident > 0).count() > 1);
}
