//! The store's virtual file system: every byte the archive reads or
//! writes goes through the [`Vfs`] trait, so the whole durability story
//! is testable under injected disk faults.
//!
//! Two implementations ship:
//!
//! * [`StdVfs`] — the production path over `std::fs` (this module is
//!   the **only** place in `crates/store` allowed to touch `std::fs`;
//!   the geolint `raw-file-io-in-store` rule enforces that).
//! * [`ChaosVfs`] — a SplitMix64-seeded fault injector mirroring
//!   `satsim::faults`: same seed ⇒ same faults. It models
//!   - **crash points**: after a global budget of `crash_at_byte`
//!     written bytes, the write in flight is cut short (a torn write)
//!     and every later write, flush, or fsync fails — the moral
//!     equivalent of `kill -9` at byte N;
//!   - **short writes**: a write persists only a prefix and errors;
//!   - **fsync failures**: `sync` reports an error while the data may
//!     or may not be durable;
//!   - **bit flips**: a written buffer is silently corrupted by one
//!     flipped bit (detected later by CRC, never at write time).
//!
//! Reads are never faulted: corruption is injected at write time so
//! the damage is *durable*, exactly like a real medium error, and so
//! repeated reads of the same file stay deterministic.

use std::fs;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError};

/// One open file handle behind the [`Vfs`].
pub trait VfsFile: Send + Sync {
    /// Appends the whole buffer at the end of the file. On error, a
    /// *prefix* of the buffer may have been persisted (torn write).
    fn append(&mut self, buf: &[u8]) -> std::io::Result<()>;
    /// Reads exactly `buf.len()` bytes at `offset`.
    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> std::io::Result<()>;
    /// Flushes user-space buffers to the OS.
    fn flush(&mut self) -> std::io::Result<()>;
    /// Forces OS buffers to the medium (fsync).
    fn sync(&mut self) -> std::io::Result<()>;
}

/// File-system operations the archive needs, fault-injectable.
pub trait Vfs: Send + Sync + std::fmt::Debug {
    /// Creates a new file, failing if it already exists.
    fn create_new(&self, path: &Path) -> std::io::Result<Box<dyn VfsFile>>;
    /// Opens an existing file for reading (positional reads only).
    fn open_read(&self, path: &Path) -> std::io::Result<Box<dyn VfsFile>>;
    /// Opens an existing file for appending.
    fn open_append(&self, path: &Path) -> std::io::Result<Box<dyn VfsFile>>;
    /// Reads a whole file.
    fn read(&self, path: &Path) -> std::io::Result<Vec<u8>>;
    /// Truncates (or extends with zeros) a file to `len` bytes.
    fn truncate(&self, path: &Path, len: u64) -> std::io::Result<()>;
    /// Deletes a file.
    fn remove_file(&self, path: &Path) -> std::io::Result<()>;
    /// File length in bytes.
    fn len(&self, path: &Path) -> std::io::Result<u64>;
    /// Creates a directory and its parents.
    fn create_dir_all(&self, path: &Path) -> std::io::Result<()>;
    /// File names (not paths) inside a directory; missing directory
    /// reads as empty.
    fn read_dir_names(&self, dir: &Path) -> std::io::Result<Vec<String>>;
}

/// The production VFS over `std::fs`.
#[derive(Debug, Default, Clone)]
pub struct StdVfs;

struct StdFile {
    file: fs::File,
}

impl VfsFile for StdFile {
    fn append(&mut self, buf: &[u8]) -> std::io::Result<()> {
        self.file.write_all(buf)
    }

    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
        std::os::unix::fs::FileExt::read_exact_at(&self.file, buf, offset)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.file.flush()
    }

    fn sync(&mut self) -> std::io::Result<()> {
        self.file.sync_data()
    }
}

impl Vfs for StdVfs {
    fn create_new(&self, path: &Path) -> std::io::Result<Box<dyn VfsFile>> {
        let file = fs::OpenOptions::new().create_new(true).write(true).read(true).open(path)?;
        Ok(Box::new(StdFile { file }))
    }

    fn open_read(&self, path: &Path) -> std::io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(StdFile { file: fs::File::open(path)? }))
    }

    fn open_append(&self, path: &Path) -> std::io::Result<Box<dyn VfsFile>> {
        let mut file = fs::OpenOptions::new().write(true).read(true).open(path)?;
        file.seek(SeekFrom::End(0))?;
        Ok(Box::new(StdFile { file }))
    }

    fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
        let mut out = Vec::new();
        fs::File::open(path)?.read_to_end(&mut out)?;
        Ok(out)
    }

    fn truncate(&self, path: &Path, len: u64) -> std::io::Result<()> {
        let file = fs::OpenOptions::new().write(true).open(path)?;
        file.set_len(len)
    }

    fn remove_file(&self, path: &Path) -> std::io::Result<()> {
        fs::remove_file(path)
    }

    fn len(&self, path: &Path) -> std::io::Result<u64> {
        Ok(fs::metadata(path)?.len())
    }

    fn create_dir_all(&self, path: &Path) -> std::io::Result<()> {
        fs::create_dir_all(path)
    }

    fn read_dir_names(&self, dir: &Path) -> std::io::Result<Vec<String>> {
        let mut out = Vec::new();
        let entries = match fs::read_dir(dir) {
            Ok(e) => e,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(out),
            Err(e) => return Err(e),
        };
        for entry in entries {
            if let Some(name) = entry?.file_name().to_str() {
                out.push(name.to_string());
            }
        }
        out.sort();
        Ok(out)
    }
}

/// Fault plan for a [`ChaosVfs`]. Probabilities are per write (or per
/// fsync); the crash budget is global across all files.
#[derive(Debug, Clone)]
pub struct DiskFaultPlan {
    /// Seed for the SplitMix64 draw stream.
    pub seed: u64,
    /// Simulated `kill -9`: the write that crosses this many total
    /// written bytes is torn at the boundary, and every later write or
    /// sync fails. `None` disables crashing.
    pub crash_at_byte: Option<u64>,
    /// Probability a write persists only a prefix and errors.
    pub short_write_prob: f64,
    /// Probability an fsync reports failure.
    pub fsync_fail_prob: f64,
    /// Probability a written buffer has one bit silently flipped.
    pub bit_flip_prob: f64,
}

impl DiskFaultPlan {
    /// A benign plan (no faults) with a seed.
    pub fn seeded(seed: u64) -> DiskFaultPlan {
        DiskFaultPlan {
            seed,
            crash_at_byte: None,
            short_write_prob: 0.0,
            fsync_fail_prob: 0.0,
            bit_flip_prob: 0.0,
        }
    }

    /// Crash (torn write + dead disk) once `n` total bytes were written.
    pub fn with_crash_at(mut self, n: u64) -> DiskFaultPlan {
        self.crash_at_byte = Some(n);
        self
    }

    /// Short-write probability per write call.
    pub fn with_short_writes(mut self, p: f64) -> DiskFaultPlan {
        self.short_write_prob = p;
        self
    }

    /// Fsync-failure probability per sync call.
    pub fn with_fsync_failures(mut self, p: f64) -> DiskFaultPlan {
        self.fsync_fail_prob = p;
        self
    }

    /// Bit-flip probability per write call.
    pub fn with_bit_flips(mut self, p: f64) -> DiskFaultPlan {
        self.bit_flip_prob = p;
        self
    }
}

/// Counters of faults a [`ChaosVfs`] actually injected.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DiskFaultStats {
    /// Write calls observed.
    pub writes: u64,
    /// Bytes actually persisted.
    pub bytes_written: u64,
    /// Writes cut short by the crash point (at most 1).
    pub torn_writes: u64,
    /// Transient short writes injected.
    pub short_writes: u64,
    /// Fsync failures injected.
    pub fsync_failures: u64,
    /// Bits flipped (silent corruption events).
    pub bit_flips: u64,
    /// True once the crash point has fired.
    pub crashed: bool,
}

struct ChaosState {
    plan: DiskFaultPlan,
    rng: u64,
    stats: DiskFaultStats,
}

/// SplitMix64 step — the same avalanche as `satsim::faults`, so the
/// disk fault stream has the familiar determinism contract: same seed
/// ⇒ same faults, regardless of wall clock or thread timing (the
/// archive serializes all writes under its lock).
#[inline]
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[inline]
fn roll(state: &mut u64) -> f64 {
    (splitmix(state) >> 11) as f64 / (1u64 << 53) as f64
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn crash_err() -> std::io::Error {
    std::io::Error::other("injected crash: disk is gone")
}

/// Shared handle onto a [`ChaosVfs`]'s injected-fault counters.
#[derive(Clone)]
pub struct DiskFaultProbe {
    state: Arc<Mutex<ChaosState>>,
}

impl DiskFaultProbe {
    /// Snapshot of the counters.
    pub fn stats(&self) -> DiskFaultStats {
        lock(&self.state).stats.clone()
    }
}

/// A [`Vfs`] that injects deterministic disk faults around [`StdVfs`].
pub struct ChaosVfs {
    inner: StdVfs,
    state: Arc<Mutex<ChaosState>>,
}

impl std::fmt::Debug for ChaosVfs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = lock(&self.state);
        f.debug_struct("ChaosVfs").field("plan", &st.plan).field("stats", &st.stats).finish()
    }
}

impl ChaosVfs {
    /// Builds a chaos VFS over the real file system.
    pub fn new(plan: DiskFaultPlan) -> ChaosVfs {
        let rng = plan.seed ^ 0x6A09_E667_F3BC_C909;
        ChaosVfs {
            inner: StdVfs,
            state: Arc::new(Mutex::new(ChaosState { plan, rng, stats: DiskFaultStats::default() })),
        }
    }

    /// A probe that stays readable after the VFS moved into an archive.
    pub fn probe(&self) -> DiskFaultProbe {
        DiskFaultProbe { state: Arc::clone(&self.state) }
    }

    /// Decides the fate of one write of `len` bytes.
    fn plan_write(&self, len: usize) -> WriteFate {
        let mut st = lock(&self.state);
        st.stats.writes += 1;
        if st.stats.crashed {
            return WriteFate::Dead;
        }
        if let Some(at) = st.plan.crash_at_byte {
            let written = st.stats.bytes_written;
            if written + len as u64 > at {
                let keep = at.saturating_sub(written) as usize;
                st.stats.crashed = true;
                st.stats.torn_writes += 1;
                st.stats.bytes_written += keep as u64;
                return WriteFate::Torn(keep);
            }
        }
        let short = st.plan.short_write_prob > 0.0 && {
            let mut rng = st.rng;
            let hit = roll(&mut rng) < st.plan.short_write_prob;
            st.rng = rng;
            hit
        };
        if short {
            let mut rng = st.rng;
            let keep = if len == 0 { 0 } else { (splitmix(&mut rng) as usize) % len };
            st.rng = rng;
            st.stats.short_writes += 1;
            st.stats.bytes_written += keep as u64;
            return WriteFate::Short(keep);
        }
        let flip = st.plan.bit_flip_prob > 0.0 && {
            let mut rng = st.rng;
            let hit = roll(&mut rng) < st.plan.bit_flip_prob;
            st.rng = rng;
            hit
        };
        st.stats.bytes_written += len as u64;
        if flip && len > 0 {
            let mut rng = st.rng;
            let bit = (splitmix(&mut rng) as usize) % (len * 8);
            st.rng = rng;
            st.stats.bit_flips += 1;
            return WriteFate::Flip(bit);
        }
        WriteFate::Clean
    }

    fn plan_sync(&self) -> std::io::Result<()> {
        let mut st = lock(&self.state);
        if st.stats.crashed {
            return Err(crash_err());
        }
        if st.plan.fsync_fail_prob > 0.0 {
            let mut rng = st.rng;
            let hit = roll(&mut rng) < st.plan.fsync_fail_prob;
            st.rng = rng;
            if hit {
                st.stats.fsync_failures += 1;
                return Err(std::io::Error::other("injected fsync failure"));
            }
        }
        Ok(())
    }

    fn crashed(&self) -> bool {
        lock(&self.state).stats.crashed
    }
}

enum WriteFate {
    Clean,
    /// Persist only this prefix, then fail (transient).
    Short(usize),
    /// Persist only this prefix; the disk is dead afterwards.
    Torn(usize),
    /// Persist everything with one bit flipped at this buffer bit index.
    Flip(usize),
    /// The disk is already dead.
    Dead,
}

struct ChaosFile {
    inner: Box<dyn VfsFile>,
    vfs_state: Arc<Mutex<ChaosState>>,
}

impl ChaosFile {
    fn chaos(&self) -> ChaosVfs {
        ChaosVfs { inner: StdVfs, state: Arc::clone(&self.vfs_state) }
    }
}

impl VfsFile for ChaosFile {
    fn append(&mut self, buf: &[u8]) -> std::io::Result<()> {
        match self.chaos().plan_write(buf.len()) {
            WriteFate::Clean => self.inner.append(buf),
            WriteFate::Short(keep) => {
                self.inner.append(&buf[..keep])?;
                Err(std::io::Error::other(format!(
                    "injected short write: {keep} of {} bytes persisted",
                    buf.len()
                )))
            }
            WriteFate::Torn(keep) => {
                self.inner.append(&buf[..keep])?;
                let _ = self.inner.flush();
                Err(crash_err())
            }
            WriteFate::Flip(bit) => {
                let mut corrupted = buf.to_vec();
                corrupted[bit / 8] ^= 1 << (bit % 8);
                self.inner.append(&corrupted)
            }
            WriteFate::Dead => Err(crash_err()),
        }
    }

    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
        self.inner.read_exact_at(buf, offset)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        if self.chaos().crashed() {
            return Err(crash_err());
        }
        self.inner.flush()
    }

    fn sync(&mut self) -> std::io::Result<()> {
        self.inner.flush()?;
        self.chaos().plan_sync()?;
        self.inner.sync()
    }
}

impl Vfs for ChaosVfs {
    fn create_new(&self, path: &Path) -> std::io::Result<Box<dyn VfsFile>> {
        if self.crashed() {
            return Err(crash_err());
        }
        let inner = self.inner.create_new(path)?;
        Ok(Box::new(ChaosFile { inner, vfs_state: Arc::clone(&self.state) }))
    }

    fn open_read(&self, path: &Path) -> std::io::Result<Box<dyn VfsFile>> {
        let inner = self.inner.open_read(path)?;
        Ok(Box::new(ChaosFile { inner, vfs_state: Arc::clone(&self.state) }))
    }

    fn open_append(&self, path: &Path) -> std::io::Result<Box<dyn VfsFile>> {
        if self.crashed() {
            return Err(crash_err());
        }
        let inner = self.inner.open_append(path)?;
        Ok(Box::new(ChaosFile { inner, vfs_state: Arc::clone(&self.state) }))
    }

    fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
        self.inner.read(path)
    }

    fn truncate(&self, path: &Path, len: u64) -> std::io::Result<()> {
        if self.crashed() {
            return Err(crash_err());
        }
        self.inner.truncate(path, len)
    }

    fn remove_file(&self, path: &Path) -> std::io::Result<()> {
        if self.crashed() {
            return Err(crash_err());
        }
        self.inner.remove_file(path)
    }

    fn len(&self, path: &Path) -> std::io::Result<u64> {
        self.inner.len(path)
    }

    fn create_dir_all(&self, path: &Path) -> std::io::Result<()> {
        if self.crashed() {
            return Err(crash_err());
        }
        self.inner.create_dir_all(path)
    }

    fn read_dir_names(&self, dir: &Path) -> std::io::Result<Vec<String>> {
        self.inner.read_dir_names(dir)
    }
}

/// CRC-32 (IEEE 802.3, reflected) — the checksum framing every segment
/// record carries, and the per-tile payload checksum verified at read
/// time.
pub fn crc32(data: &[u8]) -> u32 {
    // Nibble-driven table, built once.
    static TABLE: std::sync::OnceLock<[u32; 16]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = [0u32; 16];
        for (i, slot) in t.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..4 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            }
            *slot = c;
        }
        t
    });
    let mut crc = !0u32;
    for &b in data {
        crc = table[((crc ^ u32::from(b)) & 0x0F) as usize] ^ (crc >> 4);
        crc = table[((crc ^ (u32::from(b) >> 4)) & 0x0F) as usize] ^ (crc >> 4);
    }
    !crc
}

/// Convenience: CRC over several slices without concatenating them.
pub fn crc32_parts(parts: &[&[u8]]) -> u32 {
    let mut buf = Vec::with_capacity(parts.iter().map(|p| p.len()).sum());
    for p in parts {
        buf.extend_from_slice(p);
    }
    crc32(&buf)
}

/// Joins a directory and file name (helper so callers hold `PathBuf`s
/// without touching `std::fs`).
pub fn join(dir: &Path, name: &str) -> PathBuf {
    dir.join(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("gs-vfs-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn crc32_matches_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn std_vfs_round_trips() {
        let dir = tmp("std");
        let vfs = StdVfs;
        let path = dir.join("a.bin");
        let mut f = vfs.create_new(&path).unwrap();
        f.append(b"hello ").unwrap();
        f.append(b"world").unwrap();
        f.sync().unwrap();
        assert_eq!(vfs.read(&path).unwrap(), b"hello world");
        let mut buf = [0u8; 5];
        vfs.open_read(&path).unwrap().read_exact_at(&mut buf, 6).unwrap();
        assert_eq!(&buf, b"world");
        vfs.truncate(&path, 5).unwrap();
        assert_eq!(vfs.len(&path).unwrap(), 5);
        assert_eq!(vfs.read_dir_names(&dir).unwrap(), vec!["a.bin".to_string()]);
        vfs.remove_file(&path).unwrap();
        assert!(vfs.read_dir_names(&dir).unwrap().is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn chaos_crash_point_tears_the_write_then_kills_the_disk() {
        let dir = tmp("crash");
        let vfs = ChaosVfs::new(DiskFaultPlan::seeded(1).with_crash_at(10));
        let probe = vfs.probe();
        let path = dir.join("seg.bin");
        let mut f = vfs.create_new(&path).unwrap();
        f.append(b"0123456").unwrap(); // 7 bytes, under budget
        let err = f.append(b"89abcdef").unwrap_err(); // crosses byte 10
        assert!(err.to_string().contains("crash"));
        assert!(f.append(b"x").is_err(), "disk must stay dead");
        assert!(f.sync().is_err());
        let stats = probe.stats();
        assert!(stats.crashed);
        assert_eq!(stats.torn_writes, 1);
        assert_eq!(stats.bytes_written, 10);
        // Exactly the pre-crash bytes are on disk: the full first
        // append plus a 3-byte torn prefix of the second.
        assert_eq!(StdVfs.read(&path).unwrap(), b"012345689a");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn chaos_bit_flips_are_silent_and_deterministic() {
        let write_once = || {
            let dir = tmp("flip");
            let vfs = ChaosVfs::new(DiskFaultPlan::seeded(99).with_bit_flips(1.0));
            let path = dir.join("f.bin");
            let mut f = vfs.create_new(&path).unwrap();
            f.append(&[0u8; 64]).unwrap(); // flips exactly one bit, silently
            drop(f);
            let data = StdVfs.read(&path).unwrap();
            std::fs::remove_dir_all(&dir).unwrap();
            data
        };
        let a = write_once();
        let b = write_once();
        assert_eq!(a, b, "same seed must flip the same bit");
        assert_eq!(a.iter().map(|b| b.count_ones()).sum::<u32>(), 1);
    }

    #[test]
    fn chaos_short_writes_persist_a_prefix() {
        let dir = tmp("short");
        let vfs = ChaosVfs::new(DiskFaultPlan::seeded(7).with_short_writes(1.0));
        let path = dir.join("s.bin");
        let mut f = vfs.create_new(&path).unwrap();
        assert!(f.append(&[1u8; 32]).is_err());
        let stats = vfs.probe().stats();
        assert_eq!(stats.short_writes, 1);
        assert!(!stats.crashed, "short writes are transient, not fatal");
        assert!(StdVfs.len(&path).unwrap() < 32);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
