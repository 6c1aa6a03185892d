//! A counting, timing [`Vfs`] over any inner file system.
//!
//! Every call is forwarded unchanged — bytes, offsets and errors — and
//! bracketed by a clock read; appends, syncs and positional reads are
//! counted, their bytes summed, and, when a tracer is attached, each
//! one is a span under whatever store call made it.

use crate::trace::{span, Tracer};
use geostreams_store::{Vfs, VfsFile};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Calls, bytes and busy time of one kind of file operation.
#[derive(Debug, Default)]
pub struct OpCounter {
    calls: AtomicU64,
    bytes: AtomicU64,
    busy_ns: AtomicU64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpTotals {
    pub calls: u64,
    pub bytes: u64,
    pub busy_ns: u64,
}

impl OpCounter {
    fn record(&self, bytes: usize, started: Instant) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        self.busy_ns.fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    pub fn totals(&self) -> OpTotals {
        OpTotals {
            calls: self.calls.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            busy_ns: self.busy_ns.load(Ordering::Relaxed),
        }
    }
}

#[derive(Debug, Default)]
pub struct VfsCounters {
    pub append: OpCounter,
    pub sync: OpCounter,
    pub read: OpCounter,
}

pub struct TracingVfs {
    inner: Arc<dyn Vfs>,
    counters: Arc<VfsCounters>,
    tracer: Option<Arc<Tracer>>,
}

impl std::fmt::Debug for TracingVfs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TracingVfs").field("inner", &self.inner).finish()
    }
}

impl TracingVfs {
    pub fn new(inner: Arc<dyn Vfs>, tracer: Option<Arc<Tracer>>) -> TracingVfs {
        TracingVfs { inner, counters: Arc::new(VfsCounters::default()), tracer }
    }

    pub fn counters(&self) -> Arc<VfsCounters> {
        Arc::clone(&self.counters)
    }

    fn wrap(&self, file: Box<dyn VfsFile>) -> Box<dyn VfsFile> {
        Box::new(TracingFile {
            inner: file,
            counters: Arc::clone(&self.counters),
            tracer: self.tracer.clone(),
        })
    }
}

struct TracingFile {
    inner: Box<dyn VfsFile>,
    counters: Arc<VfsCounters>,
    tracer: Option<Arc<Tracer>>,
}

impl VfsFile for TracingFile {
    fn append(&mut self, buf: &[u8]) -> std::io::Result<()> {
        let _span = span(self.tracer.as_deref(), "store.vfs_append");
        let started = Instant::now();
        let result = self.inner.append(buf);
        self.counters.append.record(buf.len(), started);
        result
    }

    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
        let _span = span(self.tracer.as_deref(), "store.vfs_read");
        let started = Instant::now();
        let result = self.inner.read_exact_at(buf, offset);
        self.counters.read.record(buf.len(), started);
        result
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }

    fn sync(&mut self) -> std::io::Result<()> {
        let _span = span(self.tracer.as_deref(), "store.vfs_sync");
        let started = Instant::now();
        let result = self.inner.sync();
        self.counters.sync.record(0, started);
        result
    }
}

impl Vfs for TracingVfs {
    fn create_new(&self, path: &Path) -> std::io::Result<Box<dyn VfsFile>> {
        self.inner.create_new(path).map(|f| self.wrap(f))
    }

    fn open_read(&self, path: &Path) -> std::io::Result<Box<dyn VfsFile>> {
        self.inner.open_read(path).map(|f| self.wrap(f))
    }

    fn open_append(&self, path: &Path) -> std::io::Result<Box<dyn VfsFile>> {
        self.inner.open_append(path).map(|f| self.wrap(f))
    }

    fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
        let _span = span(self.tracer.as_deref(), "store.vfs_read");
        let started = Instant::now();
        let result = self.inner.read(path);
        self.counters.read.record(result.as_ref().map_or(0, Vec::len), started);
        result
    }

    fn truncate(&self, path: &Path, len: u64) -> std::io::Result<()> {
        self.inner.truncate(path, len)
    }

    fn remove_file(&self, path: &Path) -> std::io::Result<()> {
        self.inner.remove_file(path)
    }

    fn len(&self, path: &Path) -> std::io::Result<u64> {
        self.inner.len(path)
    }

    fn create_dir_all(&self, path: &Path) -> std::io::Result<()> {
        self.inner.create_dir_all(path)
    }

    fn read_dir_names(&self, dir: &Path) -> std::io::Result<Vec<String>> {
        self.inner.read_dir_names(dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::Fnv;
    use geostreams_core::model::{GeoStream, DEFAULT_CHUNK_BUDGET};
    use geostreams_satsim::goes_like;
    use geostreams_store::{Archive, ArchiveConfig, StdVfs};
    use std::path::PathBuf;

    fn tmp(tag: &str) -> PathBuf {
        // Inside `bench/out`, which is ignored and the benchmark's own.
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("out/test-vfs-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create test dir");
        dir
    }

    #[test]
    fn bytes_offsets_and_errors_pass_through_unchanged() {
        let dir = tmp("raw");
        let vfs = TracingVfs::new(Arc::new(StdVfs), None);
        let path = dir.join("file");
        let mut file = vfs.create_new(&path).expect("create");
        file.append(b"hello ").expect("append");
        file.append(b"world").expect("append");
        file.flush().expect("flush");
        file.sync().expect("sync");
        let mut buf = [0u8; 5];
        file.read_exact_at(&mut buf, 6).expect("read at offset");
        assert_eq!(&buf, b"world");
        assert_eq!(vfs.read(&path).expect("read whole"), b"hello world");
        assert_eq!(vfs.len(&path).expect("len"), 11);

        // Errors come back as the inner file system made them.
        let past_end = file.read_exact_at(&mut buf, 100).expect_err("reads past the end");
        assert_eq!(past_end.kind(), std::io::ErrorKind::UnexpectedEof);
        let exists = vfs.create_new(&path).err().expect("file exists");
        assert_eq!(exists.kind(), std::io::ErrorKind::AlreadyExists);
        let missing = vfs.open_read(&dir.join("missing")).err().expect("no such file");
        assert_eq!(missing.kind(), std::io::ErrorKind::NotFound);

        let c = vfs.counters();
        assert_eq!(c.append.totals().calls, 2);
        assert_eq!(c.append.totals().bytes, 11);
        assert_eq!(c.sync.totals().calls, 1);
        // The failed read is a call too; only the two good ones moved bytes
        // the caller asked for: 5 at the offset, 11 whole, 5 refused.
        assert_eq!(c.read.totals().calls, 3);
        assert_eq!(c.read.totals().bytes, 5 + 11 + 5);
        let _ = std::fs::remove_dir_all(dir);
    }

    /// Ingests two sectors and returns the segment bytes on disk and the
    /// digest of a full replay.
    fn archive_digest(dir: &std::path::Path, wrap: bool) -> (u64, Fnv) {
        let mut cfg = ArchiveConfig::new(dir);
        if wrap {
            cfg.vfs = Arc::new(TracingVfs::new(Arc::new(StdVfs), Some(Arc::new(Tracer::new()))));
        }
        let archive = Archive::create(cfg).expect("create archive");
        let mut stream = goes_like(96, 48, 9).band_stream(0, 2);
        let band = stream.schema().band;
        archive.bind_band(stream.schema()).expect("bind");
        while let Some(item) = stream.next_chunk(DEFAULT_CHUNK_BUDGET) {
            archive.ingest_chunk(band, &item).expect("ingest");
        }
        archive.flush().expect("flush");
        let mut fnv = Fnv::default();
        let mut replay = archive.replay(band, None, None, None).expect("replay");
        while let Some(item) = replay.next_chunk(DEFAULT_CHUNK_BUDGET) {
            fnv.item(&item);
        }
        let stats = archive.stats();
        (stats.bytes_written + stats.wal_bytes, fnv)
    }

    #[test]
    fn archive_is_identical_with_and_without_the_wrapper() {
        let (plain_dir, wrapped_dir) = (tmp("plain"), tmp("wrapped"));
        let plain = archive_digest(&plain_dir, false);
        let wrapped = archive_digest(&wrapped_dir, true);
        assert_eq!(plain, wrapped);
        assert!(plain.0 > 0);
        // Same files, same bytes.
        let mut names: Vec<_> = std::fs::read_dir(&plain_dir)
            .expect("list")
            .map(|e| e.expect("entry").file_name())
            .collect();
        names.sort();
        assert!(!names.is_empty());
        for name in names {
            let a = std::fs::read(plain_dir.join(&name)).expect("plain file");
            let b = std::fs::read(wrapped_dir.join(&name)).expect("wrapped file");
            assert_eq!(a, b, "{name:?}");
        }
        let _ = std::fs::remove_dir_all(plain_dir);
        let _ = std::fs::remove_dir_all(wrapped_dir);
    }
}
