//! On-disk binary column format (`.abcol`).
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! offset 0   magic      8 bytes   b"ABAECOL\0"
//! offset 8   version    u32       currently 1
//! offset 12  n_cols     u32
//! offset 16  n_rows     u64
//! offset 24  directory  n_cols entries, each:
//!              name_len   u32
//!              name       name_len bytes (UTF-8)
//!              type_tag   u8   (0=f64 1=i64 2=bool 3=str 4=dict)
//!              role_tag   u8   (0=statistic 1=label 2=proxy 3=group 4=text)
//!              _pad       2 bytes (zero)
//!              seg_off    u64  (absolute file offset, 8-byte aligned)
//!              seg_len    u64  (bytes)
//! then       segments   each 8-byte aligned, layout per type below
//! ```
//!
//! Per-type segment layouts:
//!
//! * `f64` / `i64` — `n_rows` raw 8-byte values.
//! * `bool` — `ceil(n_rows / 64)` `u64` words, canonical (tail bits zero).
//! * `str` — `u64 bytes_len`, then `n_rows + 1` `u32` offsets, padding to
//!   8-byte alignment, then the UTF-8 arena.
//! * `dict` — `u64 dict_len`, then `dict_len` strings (each `u32 len` +
//!   bytes, no alignment), padding to 8 bytes, then `n_rows` `u32` codes,
//!   padding to 8 bytes, then the validity bitmap words.
//!
//! The directory-of-offsets design is mmap-friendly: a reader can map the
//! file and bind each column to an aligned, self-contained byte range
//! without touching the others. (This build loads via `fs::read` — no mmap
//! dependency is available — but the layout keeps that door open.)
//!
//! Readers never panic on hostile input: every failure is a typed
//! [`BinError`].

use super::bitmap::Bitmap;
use super::column::{Column, F64Column, I64Column, StrColumn};
use super::dict::DictColumn;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// File magic: identifies an ABae columnar file.
pub const MAGIC: [u8; 8] = *b"ABAECOL\0";
/// Current (and only) format version.
pub const VERSION: u32 = 1;

/// Semantic role of a column inside a [`crate::Table`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnRole {
    /// The aggregated statistic (`f64`).
    Statistic,
    /// A predicate's ground-truth labels (`bool`).
    Label,
    /// A predicate's proxy scores (`f64`, in `[0, 1]`).
    Proxy,
    /// The group key (`dict`).
    Group,
    /// Text payloads (`str`).
    Text,
}

impl ColumnRole {
    fn tag(self) -> u8 {
        match self {
            ColumnRole::Statistic => 0,
            ColumnRole::Label => 1,
            ColumnRole::Proxy => 2,
            ColumnRole::Group => 3,
            ColumnRole::Text => 4,
        }
    }

    fn from_tag(t: u8) -> Option<Self> {
        Some(match t {
            0 => ColumnRole::Statistic,
            1 => ColumnRole::Label,
            2 => ColumnRole::Proxy,
            3 => ColumnRole::Group,
            4 => ColumnRole::Text,
            _ => return None,
        })
    }
}

/// A named, role-tagged column — the unit the file format stores.
#[derive(Debug, Clone, PartialEq)]
pub struct NamedColumn {
    /// Column name (predicate name for label/proxy, joined key names for
    /// group, `"statistic"`/`"text"` otherwise).
    pub name: String,
    /// Semantic role inside a table.
    pub role: ColumnRole,
    /// The data.
    pub column: Column,
}

/// Typed failure when reading a columnar file. Hostile input surfaces as
/// one of these — never a panic.
#[derive(Debug)]
pub enum BinError {
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The version field is not one this reader understands.
    UnsupportedVersion(u32),
    /// The file ends before a declared structure does.
    Truncated {
        /// What was being decoded when the bytes ran out.
        context: &'static str,
    },
    /// A structurally invalid field (bad tag, misaligned or overlapping
    /// segment, non-canonical bitmap, out-of-range dictionary code, …).
    Corrupt {
        /// What invariant was violated.
        context: &'static str,
    },
    /// An underlying I/O failure.
    Io(io::Error),
}

impl std::fmt::Display for BinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BinError::BadMagic => write!(f, "not an ABae columnar file (bad magic)"),
            BinError::UnsupportedVersion(v) => {
                write!(f, "unsupported columnar format version {v} (reader speaks {VERSION})")
            }
            BinError::Truncated { context } => write!(f, "truncated file while reading {context}"),
            BinError::Corrupt { context } => write!(f, "corrupt columnar file: {context}"),
            BinError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for BinError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BinError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for BinError {
    fn from(e: io::Error) -> Self {
        BinError::Io(e)
    }
}

fn type_tag(c: &Column) -> u8 {
    match c {
        Column::F64(_) => 0,
        Column::I64(_) => 1,
        Column::Bool(_) => 2,
        Column::Str(_) => 3,
        Column::Dict(_) => 4,
    }
}

fn pad_to_8(buf: &mut Vec<u8>) {
    while buf.len() % 8 != 0 {
        buf.push(0);
    }
}

fn encode_segment(c: &Column) -> Vec<u8> {
    let mut seg = Vec::new();
    match c {
        Column::F64(col) => {
            for v in col.as_slice() {
                seg.extend_from_slice(&v.to_le_bytes());
            }
        }
        Column::I64(col) => {
            for v in col.as_slice() {
                seg.extend_from_slice(&v.to_le_bytes());
            }
        }
        Column::Bool(col) => {
            for w in col.bitmap().words() {
                seg.extend_from_slice(&w.to_le_bytes());
            }
        }
        Column::Str(col) => {
            seg.extend_from_slice(&(col.bytes().len() as u64).to_le_bytes());
            for off in col.offsets() {
                seg.extend_from_slice(&off.to_le_bytes());
            }
            pad_to_8(&mut seg);
            seg.extend_from_slice(col.bytes());
        }
        Column::Dict(col) => {
            seg.extend_from_slice(&(col.dict().len() as u64).to_le_bytes());
            for s in col.dict() {
                seg.extend_from_slice(&(s.len() as u32).to_le_bytes());
                seg.extend_from_slice(s.as_bytes());
            }
            pad_to_8(&mut seg);
            for code in col.codes() {
                seg.extend_from_slice(&code.to_le_bytes());
            }
            pad_to_8(&mut seg);
            for w in col.validity().words() {
                seg.extend_from_slice(&w.to_le_bytes());
            }
        }
    }
    seg
}

/// Serializes columns to the versioned binary layout.
///
/// # Panics
/// Panics if columns disagree on length (callers hold table-validated
/// columns) or a name exceeds `u32::MAX` bytes.
pub fn encode_columns(columns: &[NamedColumn]) -> Vec<u8> {
    let n_rows = columns.first().map_or(0, |c| c.column.len());
    for c in columns {
        // abae-lint: allow(no_panic_decode) -- write path, documented "# Panics": encoding caller-validated in-memory columns, not hostile bytes
        assert_eq!(c.column.len(), n_rows, "column {} length mismatch", c.name);
    }

    // Directory size is data-dependent (names), so lay it out first.
    let mut dir_len = 0usize;
    for c in columns {
        dir_len += 4 + c.name.len() + 1 + 1 + 2 + 8 + 8;
    }
    let mut seg_off = 24 + dir_len;
    seg_off += (8 - seg_off % 8) % 8; // first segment 8-byte aligned

    let segments: Vec<Vec<u8>> = columns.iter().map(|c| encode_segment(&c.column)).collect();

    let mut buf = Vec::new();
    buf.extend_from_slice(&MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    // abae-lint: allow(no_panic_decode) -- write path, documented "# Panics": in-memory column counts/names exceeding u32 are caller bugs
    buf.extend_from_slice(&u32::try_from(columns.len()).expect("column count fits u32").to_le_bytes());
    buf.extend_from_slice(&(n_rows as u64).to_le_bytes());
    let mut off = seg_off;
    for (c, seg) in columns.iter().zip(&segments) {
        // abae-lint: allow(no_panic_decode) -- write path, documented "# Panics": see above
        buf.extend_from_slice(&u32::try_from(c.name.len()).expect("name fits u32").to_le_bytes());
        buf.extend_from_slice(c.name.as_bytes());
        buf.push(type_tag(&c.column));
        buf.push(c.role.tag());
        buf.extend_from_slice(&[0, 0]);
        buf.extend_from_slice(&(off as u64).to_le_bytes());
        buf.extend_from_slice(&(seg.len() as u64).to_le_bytes());
        off += seg.len() + (8 - seg.len() % 8) % 8;
    }
    pad_to_8(&mut buf);
    debug_assert_eq!(buf.len(), seg_off);
    for seg in &segments {
        buf.extend_from_slice(seg);
        pad_to_8(&mut buf);
    }
    buf
}

/// Numbers this process's temp files, so concurrent writers never share one.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Writes columns to `path` atomically: the bytes go to a temp file beside
/// `path`, named by the process id and a process-wide counter, which is then
/// renamed over `path`. Concurrent writers to one path each rename a
/// complete file, so a reader sees one of them whole. A failed write removes
/// its temp file.
pub fn write_columns(path: &Path, columns: &[NamedColumn]) -> Result<(), BinError> {
    let bytes = encode_columns(columns);
    let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let tmp = path.with_extension(format!("abcol.{}.{seq}.tmp", std::process::id()));
    let written = write_and_rename(&tmp, path, &bytes);
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    Ok(written?)
}

fn write_and_rename(tmp: &Path, path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut f = std::fs::File::create(tmp)?;
    f.write_all(bytes)?;
    f.sync_all()?;
    std::fs::rename(tmp, path)
}

/// Bounds-checked little-endian cursor over the loaded file.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], BinError> {
        let end = self.pos.checked_add(n).ok_or(BinError::Corrupt { context })?;
        let s = self.buf.get(self.pos..end).ok_or(BinError::Truncated { context })?;
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self, context: &'static str) -> Result<u8, BinError> {
        self.take(1, context)?.first().copied().ok_or(BinError::Truncated { context })
    }

    fn u32(&mut self, context: &'static str) -> Result<u32, BinError> {
        Ok(u32::from_le_bytes(arr(self.take(4, context)?, context)?))
    }

    fn u64(&mut self, context: &'static str) -> Result<u64, BinError> {
        Ok(u64::from_le_bytes(arr(self.take(8, context)?, context)?))
    }
}

/// Fixed-width slice-to-array conversion. The callers always hand over a
/// slice of the right width (`take`/`chunks_exact` guarantee it), but the
/// decode path's contract is *never panic* — even on an internal logic
/// bug, a width mismatch surfaces as a typed error.
fn arr<const N: usize>(b: &[u8], context: &'static str) -> Result<[u8; N], BinError> {
    b.try_into().map_err(|_| BinError::Corrupt { context })
}

/// Decodes a packed array of fixed-width little-endian values.
fn le_values<const N: usize, T>(
    b: &[u8],
    context: &'static str,
    from_le: impl Fn([u8; N]) -> T,
) -> Result<Vec<T>, BinError> {
    b.chunks_exact(N).map(|c| Ok(from_le(arr(c, context)?))).collect()
}

fn usize_of(v: u64, context: &'static str) -> Result<usize, BinError> {
    usize::try_from(v).map_err(|_| BinError::Corrupt { context })
}

/// Segment-size arithmetic over a hostile, unvalidated element count. A
/// plain `n * width` panics under overflow checks (and wraps in release);
/// either breaks the never-panic decode contract, so the overflow itself
/// must surface as a typed error.
fn seg_bytes(n: usize, width: usize, context: &'static str) -> Result<usize, BinError> {
    n.checked_mul(width).ok_or(BinError::Corrupt { context })
}

fn decode_segment(
    seg: &[u8],
    tag: u8,
    n_rows: usize,
) -> Result<Column, BinError> {
    let mut cur = Cursor { buf: seg, pos: 0 };
    match tag {
        0 => {
            let b = cur.take(seg_bytes(n_rows, 8, "f64 segment")?, "f64 segment")?;
            let vals = le_values(b, "f64 segment", f64::from_le_bytes)?;
            Ok(Column::F64(F64Column::from(vals)))
        }
        1 => {
            let b = cur.take(seg_bytes(n_rows, 8, "i64 segment")?, "i64 segment")?;
            let vals = le_values(b, "i64 segment", i64::from_le_bytes)?;
            Ok(Column::I64(I64Column::from(vals)))
        }
        2 => {
            let n_words = n_rows.div_ceil(64);
            let b = cur.take(seg_bytes(n_words, 8, "bool segment")?, "bool segment")?;
            let words = le_values(b, "bool segment", u64::from_le_bytes)?;
            let bm = Bitmap::from_words(words, n_rows)
                .ok_or(BinError::Corrupt { context: "non-canonical bool bitmap" })?;
            Ok(Column::Bool(bm.into()))
        }
        3 => {
            let bytes_len = usize_of(cur.u64("str arena length")?, "str arena length")?;
            let n_offs = n_rows.checked_add(1).ok_or(BinError::Corrupt { context: "str offsets" })?;
            let offs_bytes = cur.take(seg_bytes(n_offs, 4, "str offsets")?, "str offsets")?;
            let offsets = le_values(offs_bytes, "str offsets", u32::from_le_bytes)?;
            cur.pos += (8 - cur.pos % 8) % 8;
            let arena = cur.take(bytes_len, "str arena")?.to_vec();
            StrColumn::from_parts(offsets, arena)
                .map(Column::Str)
                .ok_or(BinError::Corrupt { context: "invalid str offsets or non-UTF-8 arena" })
        }
        4 => {
            let dict_len = usize_of(cur.u64("dict size")?, "dict size")?;
            // Guard against absurd declared sizes before allocating.
            if dict_len > seg.len() {
                return Err(BinError::Corrupt { context: "dictionary larger than segment" });
            }
            let mut dict = Vec::with_capacity(dict_len);
            for _ in 0..dict_len {
                let len = usize_of(u64::from(cur.u32("dict entry length")?), "dict entry length")?;
                let b = cur.take(len, "dict entry")?;
                let s = std::str::from_utf8(b)
                    .map_err(|_| BinError::Corrupt { context: "non-UTF-8 dictionary entry" })?;
                dict.push(s.to_string());
            }
            cur.pos += (8 - cur.pos % 8) % 8;
            let codes_bytes = cur.take(seg_bytes(n_rows, 4, "dict codes")?, "dict codes")?;
            let codes = le_values(codes_bytes, "dict codes", u32::from_le_bytes)?;
            cur.pos += (8 - cur.pos % 8) % 8;
            let n_words = n_rows.div_ceil(64);
            let b = cur.take(seg_bytes(n_words, 8, "dict validity")?, "dict validity")?;
            let words = le_values(b, "dict validity", u64::from_le_bytes)?;
            let validity = Bitmap::from_words(words, n_rows)
                .ok_or(BinError::Corrupt { context: "non-canonical dict validity bitmap" })?;
            DictColumn::from_parts(dict, codes, validity)
                .map(Column::Dict)
                .ok_or(BinError::Corrupt { context: "dictionary code out of range" })
        }
        _ => Err(BinError::Corrupt { context: "unknown column type tag" }),
    }
}

/// Decodes a byte buffer in the versioned binary layout.
pub fn decode_columns(buf: &[u8]) -> Result<Vec<NamedColumn>, BinError> {
    let mut cur = Cursor { buf, pos: 0 };
    if cur.take(8, "magic")? != MAGIC {
        return Err(BinError::BadMagic);
    }
    let version = cur.u32("version")?;
    if version != VERSION {
        return Err(BinError::UnsupportedVersion(version));
    }
    let n_cols = cur.u32("column count")? as usize;
    let n_rows = usize_of(cur.u64("row count")?, "row count")?;
    // A directory entry is ≥ 24 bytes; reject declared counts the file
    // cannot possibly hold before allocating.
    if n_cols.saturating_mul(24) > buf.len() {
        return Err(BinError::Truncated { context: "column directory" });
    }

    struct DirEntry {
        name: String,
        type_tag: u8,
        role: ColumnRole,
        off: usize,
        len: usize,
    }
    let mut dir = Vec::with_capacity(n_cols);
    for _ in 0..n_cols {
        let name_len = cur.u32("column name length")? as usize;
        let name_bytes = cur.take(name_len, "column name")?;
        let name = std::str::from_utf8(name_bytes)
            .map_err(|_| BinError::Corrupt { context: "non-UTF-8 column name" })?
            .to_string();
        let type_tag = cur.u8("column type tag")?;
        let role_tag = cur.u8("column role tag")?;
        let role = ColumnRole::from_tag(role_tag)
            .ok_or(BinError::Corrupt { context: "unknown column role tag" })?;
        cur.take(2, "directory padding")?;
        let off = usize_of(cur.u64("segment offset")?, "segment offset")?;
        let len = usize_of(cur.u64("segment length")?, "segment length")?;
        if off % 8 != 0 {
            return Err(BinError::Corrupt { context: "misaligned segment offset" });
        }
        let end = off.checked_add(len).ok_or(BinError::Corrupt { context: "segment bounds" })?;
        if end > buf.len() {
            return Err(BinError::Truncated { context: "column segment" });
        }
        if off < 24 {
            return Err(BinError::Corrupt { context: "segment overlaps header" });
        }
        dir.push(DirEntry { name, type_tag, role, off, len });
    }

    let mut out = Vec::with_capacity(n_cols);
    for e in dir {
        // Bounds were validated while reading the directory, but the
        // never-panic contract holds regardless of that logic being right.
        let end = e.off.checked_add(e.len).ok_or(BinError::Corrupt { context: "segment bounds" })?;
        let seg = buf.get(e.off..end).ok_or(BinError::Truncated { context: "column segment" })?;
        let column = decode_segment(seg, e.type_tag, n_rows)?;
        debug_assert_eq!(column.len(), n_rows);
        out.push(NamedColumn { name: e.name, role: e.role, column });
    }
    Ok(out)
}

/// Loads a columnar file from disk.
pub fn read_columns(path: &Path) -> Result<Vec<NamedColumn>, BinError> {
    let buf = std::fs::read(path)?;
    decode_columns(&buf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::columnar::column::BoolColumn;

    fn sample_columns() -> Vec<NamedColumn> {
        vec![
            NamedColumn {
                name: "statistic".into(),
                role: ColumnRole::Statistic,
                column: Column::F64(F64Column::from(vec![1.5, -2.0, 0.0, 3.25, 4.0])),
            },
            NamedColumn {
                name: "label:spam".into(),
                role: ColumnRole::Label,
                column: Column::Bool(BoolColumn::from(vec![true, false, true, true, false])),
            },
            NamedColumn {
                name: "group".into(),
                role: ColumnRole::Group,
                column: Column::Dict(DictColumn::encode([
                    Some("a"),
                    Some("b"),
                    None,
                    Some("a"),
                    Some("c"),
                ])),
            },
            NamedColumn {
                name: "text".into(),
                role: ColumnRole::Text,
                column: Column::Str(["hi", "", "wörld", "x", "yz"].iter().collect()),
            },
            NamedColumn {
                name: "ints".into(),
                role: ColumnRole::Statistic,
                column: Column::I64(I64Column::from(vec![-1, 0, 7, i64::MAX, i64::MIN])),
            },
        ]
    }

    #[test]
    fn encode_decode_roundtrip() {
        let cols = sample_columns();
        let bytes = encode_columns(&cols);
        assert_eq!(&bytes[..8], &MAGIC);
        let back = decode_columns(&bytes).unwrap();
        assert_eq!(back, cols);
    }

    #[test]
    fn empty_table_roundtrip() {
        let cols = vec![NamedColumn {
            name: "statistic".into(),
            role: ColumnRole::Statistic,
            column: Column::F64(F64Column::from(vec![])),
        }];
        let back = decode_columns(&encode_columns(&cols)).unwrap();
        assert_eq!(back, cols);
    }

    #[test]
    fn file_roundtrip() {
        let cols = sample_columns();
        let dir = std::env::temp_dir().join("abae_colfile_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.abcol");
        write_columns(&path, &cols).unwrap();
        let back = read_columns(&path).unwrap();
        assert_eq!(back, cols);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn concurrent_writers_to_one_path_never_collide() {
        let dir = std::env::temp_dir().join(format!("abae_colfile_race_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.abcol");
        let table = |writer: usize, i: usize| {
            vec![NamedColumn {
                name: "statistic".into(),
                role: ColumnRole::Statistic,
                column: Column::F64(F64Column::from(vec![writer as f64, i as f64])),
            }]
        };
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for writer in 0..4 {
                let (path, table, start) = (&path, &table, &start);
                s.spawn(move || {
                    start.wait();
                    for i in 0..20 {
                        write_columns(path, &table(writer, i)).expect("every write succeeds");
                    }
                });
            }
        });
        let back = read_columns(&path).unwrap();
        assert!((0..4).any(|w| (0..20).any(|i| back == table(w, i))), "{back:?}");
        let files: Vec<_> = std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().file_name()).collect();
        assert_eq!(files, vec![std::ffi::OsString::from("t.abcol")], "no temp file is left");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = encode_columns(&sample_columns());
        bytes[0] = b'X';
        assert!(matches!(decode_columns(&bytes), Err(BinError::BadMagic)));
    }

    #[test]
    fn wrong_version_rejected() {
        let mut bytes = encode_columns(&sample_columns());
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(decode_columns(&bytes), Err(BinError::UnsupportedVersion(99))));
    }

    #[test]
    fn truncation_anywhere_is_typed_not_panic() {
        let bytes = encode_columns(&sample_columns());
        for cut in 0..bytes.len() {
            let err = decode_columns(&bytes[..cut]).expect_err("truncated must fail");
            assert!(
                matches!(err, BinError::Truncated { .. } | BinError::BadMagic),
                "cut at {cut}: unexpected {err:?}"
            );
        }
    }

    #[test]
    fn corrupt_tail_bit_rejected() {
        let cols = vec![NamedColumn {
            name: "b".into(),
            role: ColumnRole::Label,
            column: Column::Bool(BoolColumn::from(vec![true, false, true])),
        }];
        let mut bytes = encode_columns(&cols);
        // The single bool segment is the last 8 bytes; set a bit beyond len.
        let n = bytes.len();
        bytes[n - 1] |= 0x80;
        assert!(matches!(decode_columns(&bytes), Err(BinError::Corrupt { .. })));
    }

    #[test]
    fn corrupt_type_tag_rejected() {
        let cols = vec![NamedColumn {
            name: "s".into(),
            role: ColumnRole::Statistic,
            column: Column::F64(F64Column::from(vec![1.0])),
        }];
        let mut bytes = encode_columns(&cols);
        // type_tag sits right after name_len(4) + name(1) in the directory.
        let tag_pos = 24 + 4 + 1;
        bytes[tag_pos] = 42;
        assert!(matches!(
            decode_columns(&bytes),
            Err(BinError::Corrupt { context: "unknown column type tag" })
        ));
    }
}
