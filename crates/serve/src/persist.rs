//! Crash-safe append-only journals: length-prefixed, checksummed frames
//! with truncated-tail recovery.
//!
//! A journal file is an 8-byte magic header followed by frames:
//!
//! ```text
//! "ETPNJNL\x01" [u32 len][u64 fnv1a-64(payload)][payload] …
//! ```
//!
//! All integers are little-endian. On open the file is scanned from the
//! start; the longest prefix of frames whose lengths are in bounds and
//! whose checksums verify is recovered, and the file is truncated back to
//! exactly that prefix so the next append lands on a clean boundary. A
//! crash mid-append (SIGKILL, power loss) therefore loses at most the
//! frame being written, never the journal.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use etpn_core::bytes::{put_u128, put_u32, put_u64, DecodeError, Reader};

/// Journal magic: identifies the format and pins the frame layout version.
pub const MAGIC: &[u8; 8] = b"ETPNJNL\x01";

/// Frames larger than this are rejected as corruption rather than
/// attempted: a flipped high bit in a length prefix must not trigger a
/// gigabyte allocation.
pub const MAX_FRAME: usize = 1 << 28;

/// FNV-1a 64-bit over `bytes` — the per-frame payload checksum.
pub fn checksum64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// What [`Journal::open`] found on disk.
#[derive(Clone, Debug, Default)]
pub struct Recovery {
    /// Payloads of every checksum-valid frame, in append order.
    pub frames: Vec<Vec<u8>>,
    /// Bytes discarded from the tail (0 on a clean shutdown).
    pub truncated: u64,
    /// The file predates this open (false for a newly created journal).
    pub existed: bool,
}

/// An open append-only journal. Every [`Journal::append`] writes one
/// complete frame and flushes it to the OS; [`Journal::sync`] additionally
/// forces it to stable storage.
#[derive(Debug)]
pub struct Journal {
    file: File,
    path: PathBuf,
}

impl Journal {
    /// Open (or create) the journal at `path`, recover the valid frame
    /// prefix, and truncate any corrupt or incomplete tail.
    pub fn open(path: &Path) -> io::Result<(Journal, Recovery)> {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let (frames, valid_end) = scan(&bytes);
        let recovery = Recovery {
            frames: frames.into_iter().map(<[u8]>::to_vec).collect(),
            truncated: (bytes.len() - valid_end) as u64,
            existed: !bytes.is_empty(),
        };
        if valid_end == 0 {
            file.set_len(0)?;
            file.seek(SeekFrom::Start(0))?;
            file.write_all(MAGIC)?;
        } else if recovery.truncated > 0 {
            file.set_len(valid_end as u64)?;
        }
        file.seek(SeekFrom::End(0))?;
        file.sync_all()?;
        Ok((
            Journal {
                file,
                path: path.to_path_buf(),
            },
            recovery,
        ))
    }

    /// Append one frame. The frame is flushed to the OS before returning,
    /// so a process kill after `append` never loses it (an OS crash can;
    /// call [`Journal::sync`] at barriers that must survive power loss).
    pub fn append(&mut self, payload: &[u8]) -> io::Result<()> {
        if payload.len() > MAX_FRAME {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("journal frame of {} bytes exceeds MAX_FRAME", payload.len()),
            ));
        }
        let mut frame = Vec::with_capacity(12 + payload.len());
        put_u32(&mut frame, payload.len() as u32);
        put_u64(&mut frame, checksum64(payload));
        frame.extend_from_slice(payload);
        self.file.write_all(&frame)?;
        self.file.flush()
    }

    /// Force everything appended so far to stable storage.
    pub fn sync(&mut self) -> io::Result<()> {
        self.file.sync_all()
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Prefix tag for journal payloads carrying a request trace id.
const TRACE_TAG: &[u8; 4] = b"TRC1";

/// Wrap a journal payload with the trace id of the request that produced
/// it: `"TRC1"` + 16 little-endian id bytes + payload. Recovery forensics
/// can then attribute every recovered frame to a request.
pub fn stamp_trace_frame(trace_id: u128, payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(TRACE_TAG.len() + 16 + payload.len());
    frame.extend_from_slice(TRACE_TAG);
    put_u128(&mut frame, trace_id);
    frame.extend_from_slice(payload);
    frame
}

/// Split a journal payload written by [`stamp_trace_frame`] back into
/// `(trace_id, payload)`. Frames written before trace stamping existed (or
/// by other producers) have no tag and come back as `(None, frame)`.
pub fn split_trace_frame(frame: &[u8]) -> (Option<u128>, &[u8]) {
    let mut r = Reader::new(frame);
    if r.take(TRACE_TAG.len()) == Ok(TRACE_TAG) {
        if let Ok(id) = r.u128() {
            return (Some(id), &frame[r.pos()..]);
        }
    }
    (None, frame)
}

/// Decode a journal image: the payloads of its longest prefix of
/// complete, checksum-valid frames, and the byte length of that prefix
/// (0 when the magic header is missing or foreign).
pub fn scan(bytes: &[u8]) -> (Vec<&[u8]>, usize) {
    let mut r = Reader::new(bytes);
    if r.take(MAGIC.len()) != Ok(MAGIC) {
        return (Vec::new(), 0);
    }
    let mut frames = Vec::new();
    let mut end = r.pos();
    while let Ok(payload) = read_frame(&mut r) {
        frames.push(payload);
        end = r.pos();
    }
    (frames, end)
}

/// Read one frame; fails where the bytes do not form a complete,
/// checksum-valid frame.
fn read_frame<'a>(r: &mut Reader<'a>) -> Result<&'a [u8], DecodeError> {
    let len = r.u32()? as usize;
    if len > MAX_FRAME {
        return Err(r.error(format!("frame of {len} bytes exceeds MAX_FRAME")));
    }
    let sum = r.u64()?;
    let payload = r.take(len)?;
    if checksum64(payload) != sum {
        return Err(r.error("frame checksum mismatch"));
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("etpn-serve-persist-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("j.journal")
    }

    #[test]
    fn fresh_journal_recovers_empty() {
        let p = tmp("fresh");
        let (_j, rec) = Journal::open(&p).unwrap();
        assert!(rec.frames.is_empty());
        assert!(!rec.existed);
        assert_eq!(rec.truncated, 0);
    }

    #[test]
    fn appended_frames_recover_in_order() {
        let p = tmp("order");
        {
            let (mut j, _) = Journal::open(&p).unwrap();
            j.append(b"one").unwrap();
            j.append(b"").unwrap();
            j.append(b"three").unwrap();
            j.sync().unwrap();
        }
        let (_j, rec) = Journal::open(&p).unwrap();
        assert!(rec.existed);
        assert_eq!(rec.truncated, 0);
        assert_eq!(
            rec.frames,
            vec![b"one".to_vec(), Vec::new(), b"three".to_vec()]
        );
    }

    #[test]
    fn truncated_tail_is_dropped_and_file_repaired() {
        let p = tmp("trunc");
        {
            let (mut j, _) = Journal::open(&p).unwrap();
            j.append(b"keep me").unwrap();
            j.append(b"torn frame").unwrap();
        }
        let full = std::fs::read(&p).unwrap();
        // Cut mid-way through the second frame.
        std::fs::write(&p, &full[..full.len() - 4]).unwrap();
        let (mut j, rec) = Journal::open(&p).unwrap();
        assert_eq!(rec.frames, vec![b"keep me".to_vec()]);
        assert!(rec.truncated > 0);
        // The file was truncated to the valid prefix: a new append and
        // reopen recover cleanly.
        j.append(b"after repair").unwrap();
        drop(j);
        let (_j, rec) = Journal::open(&p).unwrap();
        assert_eq!(
            rec.frames,
            vec![b"keep me".to_vec(), b"after repair".to_vec()]
        );
        assert_eq!(rec.truncated, 0);
    }

    #[test]
    fn corrupt_byte_invalidates_only_the_tail() {
        let p = tmp("flip");
        {
            let (mut j, _) = Journal::open(&p).unwrap();
            j.append(b"alpha").unwrap();
            j.append(b"beta").unwrap();
        }
        let mut bytes = std::fs::read(&p).unwrap();
        let n = bytes.len();
        bytes[n - 1] ^= 0xFF; // corrupt the last payload byte
        std::fs::write(&p, &bytes).unwrap();
        let (_j, rec) = Journal::open(&p).unwrap();
        assert_eq!(rec.frames, vec![b"alpha".to_vec()]);
        assert!(rec.truncated > 0);
    }

    #[test]
    fn foreign_header_starts_fresh() {
        let p = tmp("foreign");
        std::fs::write(&p, b"not a journal at all").unwrap();
        let (mut j, rec) = Journal::open(&p).unwrap();
        assert!(rec.frames.is_empty());
        assert_eq!(rec.truncated, 20);
        j.append(b"new era").unwrap();
        drop(j);
        let (_j, rec) = Journal::open(&p).unwrap();
        assert_eq!(rec.frames, vec![b"new era".to_vec()]);
    }

    #[test]
    fn trace_frames_round_trip_and_tolerate_bare_payloads() {
        let id = 0x0123_4567_89ab_cdef_fedc_ba98_7654_3210u128;
        let stamped = stamp_trace_frame(id, b"payload bytes");
        assert_eq!(
            split_trace_frame(&stamped),
            (Some(id), &b"payload bytes"[..])
        );
        // Pre-stamping frames pass through untouched.
        assert_eq!(split_trace_frame(b"bare"), (None, &b"bare"[..]));
        // A short frame that happens to start with the tag is still bare.
        assert_eq!(split_trace_frame(b"TRC1xy"), (None, &b"TRC1xy"[..]));
        // Empty payloads survive the round trip.
        let stamped = stamp_trace_frame(7, b"");
        assert_eq!(split_trace_frame(&stamped), (Some(7), &b""[..]));
    }

    #[test]
    fn absurd_length_prefix_is_corruption_not_allocation() {
        let p = tmp("hugelen");
        {
            let (mut j, _) = Journal::open(&p).unwrap();
            j.append(b"ok").unwrap();
        }
        let mut bytes = std::fs::read(&p).unwrap();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 8]);
        std::fs::write(&p, &bytes).unwrap();
        let (_j, rec) = Journal::open(&p).unwrap();
        assert_eq!(rec.frames, vec![b"ok".to_vec()]);
    }
}
