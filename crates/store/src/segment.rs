//! On-disk segment files: append-only record logs holding compressed
//! tiles, the metadata needed to rebuild the index from disk, and the
//! commit records that make each segment its own write-ahead log.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! "GSSTORE2"                                  8-byte magic
//! record*                                     until EOF
//!
//! record   := kind:u8 len:u32 crc:u32 body[len]
//! crc      := CRC-32 (IEEE) over kind ++ len ++ body
//! kind 0   := SectorMeta — serde_json(SectorInfo)
//! kind 1   := Tile       — TileHeader(60 bytes) ++ payload
//! kind 2   := BandMeta   — serde_json(StreamSchema)
//! kind 3   := Commit     — count:u16 (band:u16 sector:u64 frame:u64)*
//! ```
//!
//! Every record is checksummed, and tile headers additionally carry a
//! CRC of the payload alone so the replay path can verify a tile read
//! positionally (without re-reading the record framing). Every segment
//! is self-describing: the band schema and the open sector's metadata
//! are re-emitted at the head of each new segment, so after
//! segment-granular eviction the surviving files still rebuild a
//! complete index ([`scan_segment`]).
//!
//! A `Commit` seals every record before it in the same file: a write
//! that never reached the medium ends the CRC-valid prefix ahead of
//! any later commit, so recovery trusts a segment exactly up to the end
//! of the last commit inside its valid prefix.
//!
//! [`scan_segment`] never fails on damaged bytes: it reads the longest
//! valid prefix and reports what it had to stop at (torn tail, CRC
//! mismatch), leaving the recovery policy to [`crate::archive`]. It
//! does fail on a file whose magic is not this format's: such a file
//! is refused, never truncated or removed.

use crate::codec::Codec;
use crate::vfs::{crc32, crc32_parts, Vfs, VfsFile};
use geostreams_core::model::{SectorInfo, StreamSchema};
use geostreams_core::{CoreError, Result};
use geostreams_geo::CellBox;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// Magic bytes opening every segment file.
pub const MAGIC: &[u8; 8] = b"GSSTORE2";

/// Record kind tags.
const KIND_SECTOR: u8 = 0;
const KIND_TILE: u8 = 1;
const KIND_BAND: u8 = 2;
const KIND_COMMIT: u8 = 3;

/// When a commit forces the segment to the medium.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FsyncPolicy {
    /// fsync the segment at every commit (default): a crash loses at
    /// most the open group, even through power failure.
    OnCommit,
    /// fsync only when a segment rolls. Fastest; an OS crash can lose
    /// any bytes still in the page cache, but recovery still never
    /// serves a torn or corrupt record.
    Never,
}

/// Per-band high-water mark carried by commit records: the last frame
/// of `band` sealed by the commit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct BandWatermark {
    /// Spectral band.
    pub band: u16,
    /// Scan sector of the frame.
    pub sector: u64,
    /// Frame id.
    pub frame: u64,
}

/// Bytes of record framing before the body: kind, length, CRC.
pub const RECORD_HEADER_BYTES: usize = 9;

/// Size of the fixed [`TileHeader`] encoding.
pub const TILE_HEADER_BYTES: usize = 60;

/// Fixed-size header of a tile record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TileHeader {
    /// Spectral band of the owning stream.
    pub band: u16,
    /// Scan sector the tile's frame belongs to.
    pub sector_id: u64,
    /// Frame the tile belongs to.
    pub frame_id: u64,
    /// Frame timestamp (sector id under sector-id semantics).
    pub timestamp: i64,
    /// Stripe index: the tile covers columns
    /// `[tile_x * tile_width, …)` of the sector lattice.
    pub tile_x: u32,
    /// Exact cell range the tile covers (frame rows × stripe columns).
    pub cells: CellBox,
    /// Payload codec.
    pub codec: Codec,
    /// True when the payload is a keyframe (no delta predecessor).
    pub keyframe: bool,
    /// Number of present (delivered) cells.
    pub n_points: u32,
    /// Payload length in bytes.
    pub payload_len: u32,
    /// CRC-32 of the payload bytes alone, verified on every read.
    pub payload_crc: u32,
}

impl TileHeader {
    fn encode(&self) -> [u8; TILE_HEADER_BYTES] {
        let mut b = [0u8; TILE_HEADER_BYTES];
        b[0..2].copy_from_slice(&self.band.to_le_bytes());
        b[2..10].copy_from_slice(&self.sector_id.to_le_bytes());
        b[10..18].copy_from_slice(&self.frame_id.to_le_bytes());
        b[18..26].copy_from_slice(&self.timestamp.to_le_bytes());
        b[26..30].copy_from_slice(&self.tile_x.to_le_bytes());
        b[30..34].copy_from_slice(&self.cells.col_min.to_le_bytes());
        b[34..38].copy_from_slice(&self.cells.row_min.to_le_bytes());
        b[38..42].copy_from_slice(&self.cells.col_max.to_le_bytes());
        b[42..46].copy_from_slice(&self.cells.row_max.to_le_bytes());
        b[46] = self.codec.to_u8();
        b[47] = u8::from(self.keyframe);
        b[48..52].copy_from_slice(&self.n_points.to_le_bytes());
        b[52..56].copy_from_slice(&self.payload_len.to_le_bytes());
        b[56..60].copy_from_slice(&self.payload_crc.to_le_bytes());
        b
    }

    fn parse(b: &[u8]) -> Result<TileHeader> {
        if b.len() < TILE_HEADER_BYTES {
            return Err(CoreError::Storage("short tile header".into()));
        }
        let u16le = |i: usize| u16::from_le_bytes([b[i], b[i + 1]]);
        let u32le = |i: usize| u32::from_le_bytes([b[i], b[i + 1], b[i + 2], b[i + 3]]);
        let u64le = |i: usize| {
            u64::from_le_bytes([
                b[i],
                b[i + 1],
                b[i + 2],
                b[i + 3],
                b[i + 4],
                b[i + 5],
                b[i + 6],
                b[i + 7],
            ])
        };
        Ok(TileHeader {
            band: u16le(0),
            sector_id: u64le(2),
            frame_id: u64le(10),
            timestamp: u64le(18) as i64,
            tile_x: u32le(26),
            cells: CellBox::new(u32le(30), u32le(34), u32le(38), u32le(42)),
            codec: Codec::from_u8(b[46])?,
            keyframe: b[47] != 0,
            n_points: u32le(48),
            payload_len: u32le(52),
            payload_crc: u32le(56),
        })
    }
}

fn io_err(op: &str, path: &Path, e: std::io::Error) -> CoreError {
    CoreError::Storage(format!("{op} {}: {e}", path.display()))
}

/// Path of segment `id` inside `dir`.
pub fn segment_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("segment-{id:06}.seg"))
}

/// Parses a segment id back out of a file name.
pub fn parse_segment_id(name: &str) -> Option<u64> {
    name.strip_prefix("segment-")?.strip_suffix(".seg")?.parse().ok()
}

/// Frames one record: `kind len crc body`, CRC over everything but the
/// CRC field itself.
pub fn encode_record(kind: u8, body: &[&[u8]]) -> Result<Vec<u8>> {
    let len: usize = body.iter().map(|b| b.len()).sum();
    let len32 =
        u32::try_from(len).map_err(|_| CoreError::Storage("segment record over 4 GiB".into()))?;
    let mut rec = Vec::with_capacity(RECORD_HEADER_BYTES + len);
    rec.push(kind);
    rec.extend_from_slice(&len32.to_le_bytes());
    rec.extend_from_slice(&[0u8; 4]);
    for b in body {
        rec.extend_from_slice(b);
    }
    let crc = crc32_parts(&[&rec[..5], &rec[RECORD_HEADER_BYTES..]]);
    rec[5..RECORD_HEADER_BYTES].copy_from_slice(&crc.to_le_bytes());
    Ok(rec)
}

/// Encodes a sector-metadata record.
pub fn encode_sector_record(info: &SectorInfo) -> Result<Vec<u8>> {
    let json = serde_json::to_vec(info)
        .map_err(|e| CoreError::Storage(format!("encode sector meta: {e}")))?;
    encode_record(KIND_SECTOR, &[&json])
}

/// Encodes a band-schema record.
pub fn encode_band_record(schema: &StreamSchema) -> Result<Vec<u8>> {
    let json = serde_json::to_vec(schema)
        .map_err(|e| CoreError::Storage(format!("encode band meta: {e}")))?;
    encode_record(KIND_BAND, &[&json])
}

/// Encodes a tile record, filling in the payload length and CRC.
/// Returns the record bytes and the payload's offset *within* them.
pub fn encode_tile_record(header: &TileHeader, payload: &[u8]) -> Result<(Vec<u8>, u64)> {
    let mut h = *header;
    h.payload_len = u32::try_from(payload.len())
        .map_err(|_| CoreError::Storage("tile payload over 4 GiB".into()))?;
    h.payload_crc = crc32(payload);
    let rec = encode_record(KIND_TILE, &[&h.encode(), payload])?;
    Ok((rec, (RECORD_HEADER_BYTES + TILE_HEADER_BYTES) as u64))
}

/// Encodes a commit record sealing every record before it.
pub fn encode_commit_record(watermarks: &[BandWatermark]) -> Result<Vec<u8>> {
    let count = u16::try_from(watermarks.len())
        .map_err(|_| CoreError::Storage("commit record over 65535 bands".into()))?;
    let mut body = Vec::with_capacity(2 + watermarks.len() * 18);
    body.extend_from_slice(&count.to_le_bytes());
    for w in watermarks {
        body.extend_from_slice(&w.band.to_le_bytes());
        body.extend_from_slice(&w.sector.to_le_bytes());
        body.extend_from_slice(&w.frame.to_le_bytes());
    }
    encode_record(KIND_COMMIT, &[&body])
}

fn parse_commit(body: &[u8]) -> Option<Vec<BandWatermark>> {
    let u16at = |i: usize| Some(u16::from_le_bytes(body.get(i..i + 2)?.try_into().ok()?));
    let u64at = |i: usize| Some(u64::from_le_bytes(body.get(i..i + 8)?.try_into().ok()?));
    let count = usize::from(u16at(0)?);
    if body.len() != 2 + count * 18 {
        return None;
    }
    (0..count)
        .map(|i| {
            let at = 2 + i * 18;
            Some(BandWatermark { band: u16at(at)?, sector: u64at(at + 2)?, frame: u64at(at + 10)? })
        })
        .collect()
}

/// Appends records to one segment file through the [`Vfs`].
pub struct SegmentWriter {
    file: Box<dyn VfsFile>,
    path: PathBuf,
    id: u64,
    bytes: u64,
}

impl SegmentWriter {
    /// Creates segment `id` in `dir` and writes the magic.
    pub fn create(vfs: &dyn Vfs, dir: &Path, id: u64) -> Result<SegmentWriter> {
        let path = segment_path(dir, id);
        let file = vfs.create_new(&path).map_err(|e| io_err("create", &path, e))?;
        let mut w = SegmentWriter { file, path, id, bytes: 0 };
        w.append_raw(MAGIC)?;
        Ok(w)
    }

    /// Appends pre-encoded bytes, returning the offset they start at.
    pub fn append_raw(&mut self, rec: &[u8]) -> Result<u64> {
        let at = self.bytes;
        match self.file.append(rec) {
            Ok(()) => {
                self.bytes += rec.len() as u64;
                Ok(at)
            }
            Err(e) => {
                // A torn write may have persisted a prefix; the tracked
                // length is now a lower bound only. Recovery re-scans.
                Err(io_err("append", &self.path, e))
            }
        }
    }

    /// Segment id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Bytes written so far (= current file size).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Flushes buffered writes to the OS.
    pub fn flush(&mut self) -> Result<()> {
        self.file.flush().map_err(|e| io_err("flush", &self.path, e))
    }

    /// Forces written bytes to the medium.
    pub fn sync(&mut self) -> Result<()> {
        self.file.sync().map_err(|e| io_err("sync", &self.path, e))
    }
}

/// One record recovered by [`scan_segment`].
pub enum Record {
    /// Sector metadata.
    Sector(SectorInfo),
    /// Band schema metadata.
    Band(StreamSchema),
    /// A tile: parsed header plus the file offset of its payload.
    Tile {
        /// Parsed fixed header.
        header: TileHeader,
        /// Offset of the payload within the segment file.
        payload_offset: u64,
    },
    /// Seals every record before it; carries the per-band watermarks.
    Commit(Vec<BandWatermark>),
}

/// What [`scan_segment`] found: the longest valid record prefix, the
/// committed part of it, and an account of any damage after it.
pub struct SegmentScan {
    /// Records of the valid prefix, in file order.
    pub records: Vec<Record>,
    /// Byte length of the valid prefix (magic + whole records).
    pub valid_len: u64,
    /// Byte length up to the end of the last `Commit` in the valid
    /// prefix (0 when it holds none): what recovery keeps.
    pub committed_len: u64,
    /// How many of `records` lie inside `committed_len` (the last one
    /// is that commit).
    pub committed_records: usize,
    /// Bytes after the valid prefix (torn or corrupt); `file length -
    /// valid_len`.
    pub discarded_bytes: u64,
    /// True when the scan stopped at an incomplete trailing record
    /// (the classic crash signature).
    pub torn_tail: bool,
    /// Number of structurally complete records rejected by CRC or
    /// parse failure (0 or 1 — the scan stops at the first).
    pub corrupt_records: u64,
}

/// Reads the longest valid record prefix of a segment file. Damage
/// never turns into an error: a torn tail, CRC mismatch, or
/// unparseable body stops the scan and is reported in the returned
/// [`SegmentScan`] so the archive can truncate. A file shorter than the
/// magic that is a prefix of it (torn at birth) scans as an empty
/// prefix. A failure to read the file, or a magic that is not this
/// format's (an older format or a foreign file), is an error naming
/// the file.
pub fn scan_segment(vfs: &dyn Vfs, path: &Path) -> Result<SegmentScan> {
    let data = vfs.read(path).map_err(|e| io_err("read", path, e))?;
    let mut scan = SegmentScan {
        records: Vec::new(),
        valid_len: MAGIC.len() as u64,
        committed_len: 0,
        committed_records: 0,
        discarded_bytes: 0,
        torn_tail: false,
        corrupt_records: 0,
    };
    if data.len() < MAGIC.len() && MAGIC.starts_with(&data) {
        scan.valid_len = 0;
        scan.discarded_bytes = data.len() as u64;
        scan.torn_tail = !data.is_empty();
        return Ok(scan);
    }
    if !data.starts_with(MAGIC) {
        return Err(CoreError::Storage(format!(
            "{}: not a {} segment; refusing to open it (the file is left untouched)",
            path.display(),
            String::from_utf8_lossy(MAGIC)
        )));
    }
    let mut at = MAGIC.len();
    while at < data.len() {
        let Some(hdr) = data.get(at..at + RECORD_HEADER_BYTES) else {
            scan.torn_tail = true;
            break;
        };
        let kind = hdr[0];
        let len = u32::from_le_bytes([hdr[1], hdr[2], hdr[3], hdr[4]]) as usize;
        let crc = u32::from_le_bytes([hdr[5], hdr[6], hdr[7], hdr[8]]);
        let body_at = at + RECORD_HEADER_BYTES;
        let Some(body) = data.get(body_at..body_at + len) else {
            scan.torn_tail = true;
            break;
        };
        if crc32_parts(&[&hdr[..5], body]) != crc {
            scan.corrupt_records += 1;
            break;
        }
        let Some(rec) = parse_body(kind, body, body_at) else {
            // CRC passed but the body does not parse — corruption
            // beyond what framing can model (or a future format).
            scan.corrupt_records += 1;
            break;
        };
        let is_commit = matches!(rec, Record::Commit(_));
        scan.records.push(rec);
        at = body_at + len;
        scan.valid_len = at as u64;
        if is_commit {
            scan.committed_len = scan.valid_len;
            scan.committed_records = scan.records.len();
        }
    }
    scan.discarded_bytes = data.len() as u64 - scan.valid_len;
    Ok(scan)
}

fn parse_body(kind: u8, body: &[u8], body_at: usize) -> Option<Record> {
    match kind {
        KIND_SECTOR => {
            let info: SectorInfo = serde_json::from_slice(body).ok()?;
            Some(Record::Sector(info))
        }
        KIND_BAND => {
            let schema: StreamSchema = serde_json::from_slice(body).ok()?;
            Some(Record::Band(schema))
        }
        KIND_TILE => {
            let header = TileHeader::parse(body).ok()?;
            if body.len() != TILE_HEADER_BYTES + header.payload_len as usize {
                return None;
            }
            Some(Record::Tile { header, payload_offset: (body_at + TILE_HEADER_BYTES) as u64 })
        }
        KIND_COMMIT => parse_commit(body).map(Record::Commit),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::StdVfs;
    use geostreams_core::model::Timestamp;
    use geostreams_geo::{Crs, LatticeGeoref, Rect};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("gs-store-seg-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_header() -> TileHeader {
        TileHeader {
            band: 1,
            sector_id: 4,
            frame_id: 9,
            timestamp: 4,
            tile_x: 0,
            cells: CellBox::new(0, 0, 7, 0),
            codec: Codec::Quant16,
            keyframe: true,
            n_points: 8,
            payload_len: 4,
            payload_crc: 0,
        }
    }

    #[test]
    fn tile_header_round_trips() {
        let h = TileHeader {
            band: 3,
            sector_id: 11,
            frame_id: 0xDEAD_BEEF,
            timestamp: -5,
            tile_x: 2,
            cells: CellBox::new(128, 7, 191, 7),
            codec: Codec::LosslessF32,
            keyframe: true,
            n_points: 64,
            payload_len: 123,
            payload_crc: 0xABCD_EF01,
        };
        assert_eq!(TileHeader::parse(&h.encode()).unwrap(), h);
    }

    #[test]
    fn write_then_scan_recovers_records_up_to_the_last_commit() {
        let dir = tmp_dir("roundtrip");
        let lattice = LatticeGeoref::north_up(Crs::LatLon, Rect::new(0.0, 0.0, 1.0, 1.0), 8, 8);
        let sector = SectorInfo {
            sector_id: 4,
            lattice,
            band: 1,
            organization: geostreams_core::Organization::RowByRow,
            timestamp: Timestamp::new(4),
        };
        let schema = StreamSchema::new("t", Crs::LatLon);
        let header = sample_header();
        let watermarks = vec![
            BandWatermark { band: 1, sector: 4, frame: 9 },
            BandWatermark { band: 2, sector: 5, frame: 40 },
        ];
        let vfs = StdVfs;
        let mut w = SegmentWriter::create(&vfs, &dir, 0).unwrap();
        w.append_raw(&encode_band_record(&schema).unwrap()).unwrap();
        w.append_raw(&encode_sector_record(&sector).unwrap()).unwrap();
        let (tile, payload_in_rec) = encode_tile_record(&header, &[1, 2, 3, 4]).unwrap();
        let payload_at = w.append_raw(&tile).unwrap() + payload_in_rec;
        w.append_raw(&encode_commit_record(&watermarks).unwrap()).unwrap();
        let committed_len = w.bytes();
        // A valid record the next commit never sealed.
        w.append_raw(&encode_band_record(&schema).unwrap()).unwrap();
        w.flush().unwrap();

        let scan = scan_segment(&vfs, &segment_path(&dir, 0)).unwrap();
        assert_eq!((scan.discarded_bytes, scan.corrupt_records, scan.torn_tail), (0, 0, false));
        assert_eq!(scan.valid_len, w.bytes());
        assert_eq!((scan.committed_len, scan.committed_records), (committed_len, 4));
        assert_eq!(scan.records.len(), 5);
        assert!(matches!(&scan.records[0], Record::Band(s) if s.name == "t"));
        assert!(matches!(&scan.records[1], Record::Sector(s) if s.sector_id == 4));
        match &scan.records[2] {
            Record::Tile { header: h, payload_offset } => {
                assert_eq!(h.band, header.band);
                assert_eq!(h.payload_crc, crc32(&[1, 2, 3, 4]));
                assert_eq!(*payload_offset, payload_at);
                let data = std::fs::read(segment_path(&dir, 0)).unwrap();
                assert_eq!(&data[*payload_offset as usize..][..4], &[1, 2, 3, 4]);
            }
            _ => unreachable!(),
        }
        assert!(matches!(&scan.records[3], Record::Commit(wms) if *wms == watermarks));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn foreign_magic_is_refused_and_a_torn_magic_scans_empty() {
        let dir = tmp_dir("magic");
        let path = dir.join("segment-000000.seg");
        for foreign in [&b"GSSTORE1junkjunk"[..], b"NOTSTOREjunkjunk", b"GSX"] {
            std::fs::write(&path, foreign).unwrap();
            let Err(CoreError::Storage(msg)) = scan_segment(&StdVfs, &path) else {
                panic!("{foreign:?} must be refused");
            };
            assert!(msg.contains("segment-000000.seg"), "{msg}");
        }
        for torn in [&b""[..], b"GSST"] {
            std::fs::write(&path, torn).unwrap();
            let scan = scan_segment(&StdVfs, &path).unwrap();
            assert_eq!((scan.valid_len, scan.committed_len), (0, 0));
            assert_eq!(scan.discarded_bytes, torn.len() as u64);
            assert!(scan.records.is_empty());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_stops_the_scan_and_is_reported() {
        let dir = tmp_dir("torn");
        let vfs = StdVfs;
        let mut w = SegmentWriter::create(&vfs, &dir, 0).unwrap();
        let rec = encode_band_record(&StreamSchema::new("t", Crs::LatLon)).unwrap();
        w.append_raw(&rec).unwrap();
        let good_len = w.bytes();
        // A second record, torn mid-body.
        w.append_raw(&rec[..rec.len() - 3]).unwrap();
        w.flush().unwrap();

        let scan = scan_segment(&vfs, &segment_path(&dir, 0)).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.valid_len, good_len);
        assert_eq!(scan.discarded_bytes, rec.len() as u64 - 3);
        assert!(scan.torn_tail);
        assert_eq!(scan.corrupt_records, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bit_flip_fails_record_crc_and_unseals_the_commit_after_it() {
        let dir = tmp_dir("flip");
        let vfs = StdVfs;
        let mut w = SegmentWriter::create(&vfs, &dir, 0).unwrap();
        let (tile, _) = encode_tile_record(&sample_header(), &[9, 9, 9, 9]).unwrap();
        w.append_raw(&tile).unwrap();
        let commit = encode_commit_record(&[]).unwrap();
        w.append_raw(&commit).unwrap();
        w.flush().unwrap();
        drop(w);
        let path = segment_path(&dir, 0);
        let mut data = std::fs::read(&path).unwrap();
        let at = data.len() - commit.len() - 2;
        data[at] ^= 0x40; // flip one payload bit
        std::fs::write(&path, &data).unwrap();

        let scan = scan_segment(&vfs, &path).unwrap();
        assert!(scan.records.is_empty());
        assert_eq!(scan.corrupt_records, 1);
        assert_eq!(scan.valid_len, MAGIC.len() as u64);
        assert_eq!(scan.committed_len, 0, "damage before a commit unseals it");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn segment_names_parse() {
        assert_eq!(parse_segment_id("segment-000042.seg"), Some(42));
        assert_eq!(parse_segment_id("segment-x.seg"), None);
        assert_eq!(parse_segment_id("other.txt"), None);
    }
}
