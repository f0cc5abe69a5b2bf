//! The traced run's instruments, all outside the program: a counting,
//! timing wrapper of the public `StorageBackend` seam, and an in-memory
//! span log written out when the run ends.

use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use sbdms::kernel::error::Result;
use sbdms::storage::{BackendFile, FileBackend, StorageBackend};

/// Reads and syncs of one backend file, with their busy time.
#[derive(Default)]
pub struct FileCounters {
    pub reads: AtomicU64,
    pub read_ns: AtomicU64,
    pub syncs: AtomicU64,
    pub sync_ns: AtomicU64,
}

/// A plain copy of [`FileCounters`] at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct FileSnapshot {
    pub reads: u64,
    pub read_ns: u64,
    pub syncs: u64,
    pub sync_ns: u64,
}

impl FileCounters {
    pub fn snapshot(&self) -> FileSnapshot {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        FileSnapshot {
            reads: get(&self.reads),
            read_ns: get(&self.read_ns),
            syncs: get(&self.syncs),
            sync_ns: get(&self.sync_ns),
        }
    }
}

/// [`FileBackend`] with every file wrapped in a [`CountingFile`]. The
/// storage engine opens `data.db` and `wal.log`.
pub struct CountingBackend {
    inner: FileBackend,
    pub data: Arc<FileCounters>,
    pub wal: Arc<FileCounters>,
}

impl CountingBackend {
    pub fn new(root: &Path) -> CountingBackend {
        CountingBackend {
            inner: FileBackend::new(root),
            data: Arc::default(),
            wal: Arc::default(),
        }
    }
}

impl StorageBackend for CountingBackend {
    fn open(&self, name: &str) -> Result<Arc<dyn BackendFile>> {
        let counters = match name {
            "data.db" => self.data.clone(),
            "wal.log" => self.wal.clone(),
            _ => Arc::default(),
        };
        Ok(Arc::new(CountingFile {
            inner: self.inner.open(name)?,
            counters,
        }))
    }
}

struct CountingFile {
    inner: Arc<dyn BackendFile>,
    counters: Arc<FileCounters>,
}

fn elapsed_ns(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

impl BackendFile for CountingFile {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        let start = Instant::now();
        let out = self.inner.read_at(offset, buf);
        self.counters
            .read_ns
            .fetch_add(elapsed_ns(start), Ordering::Relaxed);
        self.counters.reads.fetch_add(1, Ordering::Relaxed);
        out
    }

    fn write_at(&self, offset: u64, data: &[u8]) -> Result<()> {
        self.inner.write_at(offset, data)
    }

    fn len(&self) -> Result<u64> {
        self.inner.len()
    }

    fn set_len(&self, len: u64) -> Result<()> {
        self.inner.set_len(len)
    }

    fn sync(&self) -> Result<()> {
        let start = Instant::now();
        let out = self.inner.sync();
        self.counters
            .sync_ns
            .fetch_add(elapsed_ns(start), Ordering::Relaxed);
        self.counters.syncs.fetch_add(1, Ordering::Relaxed);
        out
    }
}

/// One timed call at a layer boundary. Spans of one statement share
/// `stmt`; `parent` links a call to the call that contains it.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub stmt: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn micros(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// The in-memory span log.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Allocate a span id before the call runs, so children can name it
    /// as their parent.
    pub fn open(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Time `f` as span `id` (from [`Tracer::open`]).
    pub fn record<R>(
        &self,
        id: u64,
        name: &'static str,
        parent: Option<u64>,
        stmt: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.spans.lock().expect("span log poisoned").push(Span {
            id,
            parent,
            stmt,
            name,
            start_ns,
            end_ns,
        });
        out
    }

    /// [`Tracer::record`] under a fresh id.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        stmt: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open();
        self.record(id, name, parent, stmt, f)
    }

    /// Duration of the recorded span `id`, in microseconds.
    pub fn micros_of(&self, id: u64) -> f64 {
        let spans = self.spans.lock().expect("span log poisoned");
        spans
            .iter()
            .rev()
            .find(|s| s.id == id)
            .map_or(f64::NAN, Span::micros)
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span log poisoned").clone()
    }

    /// Durations of every span called `name`, in microseconds.
    pub fn micros(&self, name: &str) -> Vec<f64> {
        let spans = self.spans.lock().expect("span log poisoned");
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::micros)
            .collect()
    }

    /// Write every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"stmt\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.stmt,
                s.name,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}
