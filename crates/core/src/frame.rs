//! The one sealed-byte codec behind every durable artefact and wire message
//! in the workspace (DESIGN.md §16).
//!
//! Four mechanisms, each defined here and nowhere else:
//!
//! * the **sealed frame** `[kind u8][len u64 LE][payload][FNV-1a u64 LE]`,
//!   whose checksum covers kind, length and payload — sealed into a `Vec`
//!   ([`seal`], [`seal_into`]) or streamed into a writer without copying
//!   the payload ([`write_frame`]), verified one at a time ([`open`]) or
//!   walked from the front of a `magic‖frame*` file, holding one frame at
//!   a time, to its last good frame ([`Walk`]);
//! * the **sealed trailer** `payload‖[magic]‖len u64 LE‖FNV-1a u64 LE`
//!   ([`seal_trailer`], [`open_trailer`]);
//! * the **field codec**: little-endian `put_*` writers and one
//!   bounds-checked [`Reader`] for the fixed-width layouts, LEB128
//!   ([`put_uvar`], [`Reader::uvar`]) for the integers of [`Wire`] — the
//!   bytes of each type in a run snapshot, with
//!   [`wire_struct!`](crate::wire_struct) and
//!   [`wire_enum!`](crate::wire_enum) declaring a type and its layout from
//!   one list;
//! * the **atomic write**: temp sibling, fsync, rename ([`write_atomic`]).
//!
//! Every failure is a typed [`Damage`] (offset and [`Reason`]); no input —
//! a forged length included — panics or allocates beyond its own size.
//! Each crate keeps its own magic, frame kinds, payload layouts and error
//! enum, and converts [`Damage`] into that enum once.

use std::collections::VecDeque;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, BufReader, Read, Write};
use std::path::{Path, PathBuf};

use crate::fnv::{fnv1a, fnv1a_update, FNV_OFFSET};

/// Bytes ahead of a frame's payload: kind and length.
const HEAD: usize = 1 + 8;
/// Bytes a sealed frame adds to its payload: head plus checksum.
pub const OVERHEAD: usize = HEAD + 8;

/// Why sealed bytes were refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reason {
    /// The file or trailer does not carry the expected magic.
    BadMagic,
    /// The bytes end before the head, payload or checksum they promise —
    /// a torn write, or a length field forged past the end.
    Truncated,
    /// The stated length disagrees with the bytes present.
    LengthMismatch,
    /// The stored FNV-1a does not match the bytes it covers.
    Checksum,
    /// A payload field runs past the end of the payload.
    Overrun,
    /// A payload decoded with bytes left over.
    Trailing,
    /// A string field is not UTF-8.
    Utf8,
    /// A field holds a value its type has no meaning for: a flag byte that
    /// is neither 0 nor 1, an enum tag no variant carries.
    BadValue,
}

impl Reason {
    /// Whether the seal verified and the damage is in the payload's own
    /// layout (a [`Reader`] failure), as opposed to the seal around it.
    pub fn in_payload(self) -> bool {
        matches!(self, Reason::Overrun | Reason::Trailing | Reason::Utf8 | Reason::BadValue)
    }
}

/// Typed damage report: where the first untrustworthy byte sits and why.
/// For a [`Walk`] the offset is the end of the last good frame — the
/// length [`Damage::truncate`] cuts the file back to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Damage {
    /// Byte offset into the buffer or file that was being read.
    pub offset: usize,
    /// What is wrong there.
    pub reason: Reason,
}

impl Damage {
    /// Cut the file at `path` back to the damage offset. Not synced:
    /// a lost truncation is simply redone by the next recovery.
    pub fn truncate(&self, path: &Path) -> io::Result<()> {
        OpenOptions::new().write(true).open(path)?.set_len(self.offset as u64)
    }
}

impl fmt::Display for Damage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let why = match self.reason {
            Reason::BadMagic => "bad or missing magic",
            Reason::Truncated => "bytes end before the sealed length",
            Reason::LengthMismatch => "stated length does not match the bytes present",
            Reason::Checksum => "checksum mismatch",
            Reason::Overrun => "field runs past the end of the payload",
            Reason::Trailing => "trailing bytes after the payload",
            Reason::Utf8 => "string is not utf-8",
            Reason::BadValue => "field holds a value its type does not have",
        };
        write!(f, "{why} at offset {}", self.offset)
    }
}

impl std::error::Error for Damage {}

// --- sealed frames --------------------------------------------------------

/// Stream one sealed frame into `w`: the checksum folds over the head and
/// the payload (identical to hashing their concatenation), so the frame is
/// never materialized and the payload never copied.
pub fn write_frame(w: &mut impl Write, kind: u8, payload: &[u8]) -> io::Result<()> {
    let mut head = [0u8; HEAD];
    head[0] = kind;
    head[1..].copy_from_slice(&(payload.len() as u64).to_le_bytes());
    let sum = fnv1a_update(fnv1a_update(FNV_OFFSET, &head), payload);
    w.write_all(&head)?;
    w.write_all(payload)?;
    w.write_all(&sum.to_le_bytes())
}

/// Append one sealed frame to `out`.
pub fn seal_into(out: &mut Vec<u8>, kind: u8, payload: &[u8]) {
    write_frame(out, kind, payload).expect("writing to a Vec cannot fail");
}

/// Seal `payload` into a self-verifying frame, in one allocation.
pub fn seal(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(OVERHEAD + payload.len());
    seal_into(&mut out, kind, payload);
    out
}

/// Verify the frame starting at `pos`; returns its kind, payload and the
/// offset just past its checksum.
fn frame_at(bytes: &[u8], pos: usize) -> Result<(u8, &[u8], usize), Damage> {
    let fail = |reason| Err(Damage { offset: pos, reason });
    let rest = &bytes[pos..];
    if rest.len() < HEAD {
        return fail(Reason::Truncated);
    }
    let len = u64::from_le_bytes(rest[1..HEAD].try_into().expect("8 bytes"));
    let sealed = match usize::try_from(len).ok().and_then(|n| n.checked_add(HEAD)) {
        Some(n) if n.checked_add(8).is_some_and(|total| total <= rest.len()) => n,
        _ => return fail(Reason::Truncated),
    };
    let stored = u64::from_le_bytes(rest[sealed..sealed + 8].try_into().expect("8 bytes"));
    if fnv1a(&rest[..sealed]) != stored {
        return fail(Reason::Checksum);
    }
    Ok((rest[0], &rest[HEAD..sealed], pos + sealed + 8))
}

/// Verify that `frame` is exactly one sealed frame; returns its kind and
/// payload.
pub fn open(frame: &[u8]) -> Result<(u8, &[u8]), Damage> {
    let (kind, payload, end) = frame_at(frame, 0)?;
    if end != frame.len() {
        return Err(Damage { offset: end, reason: Reason::LengthMismatch });
    }
    Ok((kind, payload))
}

/// A walk over a `magic‖frame*` file from its front to its last good
/// frame, reading one frame at a time into one reused buffer: what it
/// holds is the current frame, never the file. Every seal is verified as
/// it is read. A forged length is refused against the bytes that remain
/// before anything is allocated.
pub struct Walk<R> {
    src: R,
    /// Bytes of `src` not yet read.
    left: u64,
    /// Offset of the next frame.
    pos: usize,
    /// The payload of the frame [`Walk::next_frame`] returned last.
    payload: Vec<u8>,
    damage: Option<Damage>,
}

impl Walk<BufReader<File>> {
    /// Walk the file at `path`. The outer error is the file's; the inner
    /// one is a missing magic — a file that is not of this format at all.
    pub fn open(path: &Path, magic: &[u8]) -> io::Result<Result<Self, Damage>> {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        Walk::new(BufReader::new(file), len, magic)
    }
}

impl<R: Read> Walk<R> {
    /// Walk the `len` bytes of `src`, which must start with `magic`.
    pub fn new(mut src: R, len: u64, magic: &[u8]) -> io::Result<Result<Self, Damage>> {
        let mut head = vec![0; magic.len()];
        let short = len < magic.len() as u64;
        if !short {
            src.read_exact(&mut head)?;
        }
        if short || head != magic {
            return Ok(Err(Damage { offset: 0, reason: Reason::BadMagic }));
        }
        let (left, pos) = (len - magic.len() as u64, magic.len());
        Ok(Ok(Walk { src, left, pos, payload: Vec::new(), damage: None }))
    }

    /// The next sealed frame's kind and payload; `None` at the end of the
    /// bytes, and at the first frame that does not verify, which
    /// [`Walk::damage`] then reports. Nothing after it can be trusted —
    /// framing itself is gone — so the walk ends there.
    pub fn next_frame(&mut self) -> io::Result<Option<(u8, &[u8])>> {
        if self.left == 0 || self.damage.is_some() {
            return Ok(None);
        }
        match self.read_frame()? {
            Ok(kind) => Ok(Some((kind, &self.payload))),
            Err(reason) => {
                self.damage = Some(Damage { offset: self.pos, reason });
                Ok(None)
            }
        }
    }

    /// Read the frame at `pos` into `payload` and verify it: its kind, or
    /// why it is refused.
    fn read_frame(&mut self) -> io::Result<Result<u8, Reason>> {
        if self.left < HEAD as u64 {
            return Ok(Err(Reason::Truncated));
        }
        let mut head = [0u8; HEAD];
        self.src.read_exact(&mut head)?;
        let len = u64::from_le_bytes(head[1..].try_into().expect("8 bytes"));
        let sealed = match usize::try_from(len).ok().and_then(|n| n.checked_add(OVERHEAD)) {
            Some(n) if n as u64 <= self.left => n,
            _ => return Ok(Err(Reason::Truncated)),
        };
        let mut sum = [0u8; 8];
        self.payload.resize(sealed - OVERHEAD, 0);
        self.src.read_exact(&mut self.payload)?;
        self.src.read_exact(&mut sum)?;
        if fnv1a_update(fnv1a_update(FNV_OFFSET, &head), &self.payload) != u64::from_le_bytes(sum) {
            return Ok(Err(Reason::Checksum));
        }
        self.left -= sealed as u64;
        self.pos += sealed;
        Ok(Ok(head[0]))
    }

    /// The torn or corrupted tail the walk stopped at, when there is one:
    /// the caller drops it with [`Damage::truncate`] before appending again.
    pub fn damage(&self) -> Option<Damage> {
        self.damage
    }
}

// --- sealed trailer -------------------------------------------------------

/// Close `buf` with the trailer `magic‖len‖FNV-1a`, both over the bytes
/// already in it. `magic` may be empty.
pub fn seal_trailer(buf: &mut Vec<u8>, magic: &[u8]) {
    let (len, sum) = (buf.len() as u64, fnv1a(buf));
    buf.extend_from_slice(magic);
    put_u64(buf, len);
    put_u64(buf, sum);
}

/// Verify the trailer [`seal_trailer`] wrote and return the payload.
pub fn open_trailer<'a>(data: &'a [u8], magic: &[u8]) -> Result<&'a [u8], Damage> {
    let Some(at) = data.len().checked_sub(magic.len() + 16) else {
        return Err(Damage { offset: data.len(), reason: Reason::Truncated });
    };
    let fail = |reason| Err(Damage { offset: at, reason });
    let (payload, trailer) = data.split_at(at);
    let Some(fields) = trailer.strip_prefix(magic) else { return fail(Reason::BadMagic) };
    let mut r = Reader::new(fields);
    if r.u64()? != payload.len() as u64 {
        return fail(Reason::LengthMismatch);
    }
    if r.u64()? != fnv1a(payload) {
        return fail(Reason::Checksum);
    }
    Ok(payload)
}

// --- field codec ------------------------------------------------------------

/// Append `v`, little-endian.
#[inline]
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Append `v`, little-endian.
#[inline]
pub fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append `v`, little-endian.
#[inline]
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append `v`, little-endian.
#[inline]
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append the IEEE-754 bits of `v`, little-endian.
#[inline]
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// Append `v` as unsigned LEB128: seven bits a byte, low group first, the
/// high bit set on every byte but the last — one byte below 128, ten at
/// most.
#[inline]
pub fn put_uvar(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// `u64` length, then the bytes.
#[inline]
pub fn put_bytes(out: &mut Vec<u8>, v: &[u8]) {
    put_u64(out, v.len() as u64);
    out.extend_from_slice(v);
}

/// `u32` length, then the UTF-8 bytes.
#[inline]
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// A bounds-checked cursor over a payload. Every overrun is a typed
/// [`Damage`], never a panic — a payload that decodes past its end is
/// damaged by definition.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn fail<T>(&self, reason: Reason) -> Result<T, Damage> {
        Err(Damage { offset: self.pos, reason })
    }

    /// The next `n` raw bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], Damage> {
        if self.buf.len() - self.pos < n {
            return self.fail(Reason::Overrun);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// The next little-endian `u8`.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, Damage> {
        Ok(self.take(1)?[0])
    }

    /// The next little-endian `u16`.
    #[inline]
    pub fn u16(&mut self) -> Result<u16, Damage> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2 bytes")))
    }

    /// The next little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, Damage> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    /// The next little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, Damage> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// The counterpart of [`put_f64`].
    #[inline]
    pub fn f64(&mut self) -> Result<f64, Damage> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// The counterpart of [`put_uvar`], strict: each value has one
    /// encoding. One longer than its value needs (a last byte of 0 after
    /// the first) or wider than 64 bits (a tenth byte above 1) is
    /// [`Reason::BadValue`], and one the payload cuts off is
    /// [`Reason::Overrun`], both at the value's first byte.
    #[inline]
    pub fn uvar(&mut self) -> Result<u64, Damage> {
        let start = self.pos;
        let mut v = 0;
        for (i, &b) in self.buf[start..].iter().take(10).enumerate() {
            v |= u64::from(b & 0x7F) << (7 * i);
            if b < 0x80 {
                if (b == 0 && i > 0) || (i == 9 && b > 1) {
                    return self.bad_value(0);
                }
                self.pos += i + 1;
                return Ok(v);
            }
        }
        // Ten bytes that all continue, or the payload ended mid-value.
        self.fail(if self.buf.len() - start >= 10 { Reason::BadValue } else { Reason::Overrun })
    }

    /// A [`Reader::uvar`] that must fit `T`; one too wide for it is
    /// [`Reason::BadValue`] at its first byte.
    #[inline]
    pub fn uvar_as<T: TryFrom<u64>>(&mut self) -> Result<T, Damage> {
        let start = self.pos;
        let v = self.uvar()?;
        T::try_from(v).or_else(|_| self.bad_value(self.pos - start))
    }

    /// A [`Reader::uvar`] count or length about to drive a loop or an
    /// allocation, bounded as [`Reader::len`] is.
    #[inline]
    pub fn count(&mut self) -> Result<usize, Damage> {
        let n = self.uvar()?;
        self.bounded(n)
    }

    /// A [`Reader::count`], then that many raw bytes.
    #[inline]
    pub fn blob(&mut self) -> Result<&'a [u8], Damage> {
        let n = self.count()?;
        self.take(n)
    }

    /// A count or length about to drive a loop or an allocation. Every
    /// counted item occupies at least one byte, so the count is bounded by
    /// the bytes actually remaining and a forged prefix cannot ask for a
    /// multi-gigabyte `Vec` before the overrun is noticed.
    #[inline]
    fn bounded(&self, n: u64) -> Result<usize, Damage> {
        match usize::try_from(n) {
            Ok(n) if n <= self.buf.len() - self.pos => Ok(n),
            _ => self.fail(Reason::Overrun),
        }
    }

    /// A bounded `u64` count, read from the payload (not this reader's own
    /// length; see [`Reader::len32`] for the `u32` form).
    #[allow(clippy::len_without_is_empty)]
    #[inline]
    pub fn len(&mut self) -> Result<usize, Damage> {
        let n = self.u64()?;
        self.bounded(n)
    }

    /// A bounded `u32` count.
    #[inline]
    pub fn len32(&mut self) -> Result<usize, Damage> {
        let n = self.u32()?;
        self.bounded(n.into())
    }

    /// The counterpart of [`put_bytes`].
    #[inline]
    pub fn bytes(&mut self) -> Result<&'a [u8], Damage> {
        let n = self.len()?;
        self.take(n)
    }

    /// The counterpart of [`put_str`].
    pub fn str(&mut self) -> Result<String, Damage> {
        let n = self.len32()?;
        let at = Damage { offset: self.pos, reason: Reason::Utf8 };
        String::from_utf8(self.take(n)?.to_vec()).map_err(|_| at)
    }

    /// The damage to report when the last `width` bytes read hold a value
    /// their type has no meaning for: [`Reason::BadValue`] at the offset of
    /// the first of them.
    pub fn bad_value<T>(&self, width: usize) -> Result<T, Damage> {
        Err(Damage { offset: self.pos - width, reason: Reason::BadValue })
    }

    /// Assert the payload was consumed exactly — trailing bytes mean the
    /// producer and consumer disagree about the format.
    pub fn done(&self) -> Result<(), Damage> {
        if self.pos != self.buf.len() {
            return self.fail(Reason::Trailing);
        }
        Ok(())
    }
}

// --- the bytes of each persisted type ---------------------------------------

/// One type's bytes in a run snapshot (format 2), both directions. Every
/// layout decision of that format is an impl of this trait: `u32`, `u64`
/// and `usize` as LEB128 ([`put_uvar`]), `f64` as its bits at full width,
/// `bool` and the arm of an `Option` one byte that must be 0 or 1, a
/// sequence a [`Reader::count`]-bounded LEB128 count then its items, a
/// `String` a LEB128 length then its UTF-8 bytes, arrays and tuples their
/// items in order. Structs and enums get theirs from
/// [`wire_struct!`](crate::wire_struct) and [`wire_enum!`](crate::wire_enum),
/// so a type's fields are listed once.
pub trait Wire: Sized {
    /// Append this value's bytes to `out`.
    fn put(&self, out: &mut Vec<u8>);
    /// Read one value; a value the type does not have is
    /// [`Reason::BadValue`] at the offending value's own offset.
    fn get(r: &mut Reader) -> Result<Self, Damage>;
}

macro_rules! wire_uvar {
    ($($ty:ty),*) => {$(
        impl Wire for $ty {
            #[inline]
            fn put(&self, out: &mut Vec<u8>) {
                put_uvar(out, *self as u64);
            }
            #[inline]
            fn get(r: &mut Reader) -> Result<Self, Damage> {
                r.uvar_as()
            }
        }
    )*};
}

wire_uvar!(u32, u64, usize);

impl Wire for f64 {
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        put_f64(out, *self);
    }
    #[inline]
    fn get(r: &mut Reader) -> Result<Self, Damage> {
        r.f64()
    }
}

impl Wire for bool {
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        put_u8(out, *self as u8);
    }
    #[inline]
    fn get(r: &mut Reader) -> Result<Self, Damage> {
        match r.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => r.bad_value(1),
        }
    }
}

impl<T: Wire> Wire for Option<T> {
    fn put(&self, out: &mut Vec<u8>) {
        self.is_some().put(out);
        if let Some(v) = self {
            v.put(out);
        }
    }
    fn get(r: &mut Reader) -> Result<Self, Damage> {
        Ok(if bool::get(r)? { Some(T::get(r)?) } else { None })
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self, out: &mut Vec<u8>) {
        self.len().put(out);
        for v in self {
            v.put(out);
        }
    }
    fn get(r: &mut Reader) -> Result<Self, Damage> {
        // Not `collect`: through a `Result` it loses the size hint.
        let n = r.count()?;
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(T::get(r)?);
        }
        Ok(items)
    }
}

impl<T: Wire> Wire for VecDeque<T> {
    fn put(&self, out: &mut Vec<u8>) {
        self.len().put(out);
        for v in self {
            v.put(out);
        }
    }
    fn get(r: &mut Reader) -> Result<Self, Damage> {
        Vec::get(r).map(VecDeque::from)
    }
}

impl Wire for String {
    fn put(&self, out: &mut Vec<u8>) {
        self.len().put(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn get(r: &mut Reader) -> Result<Self, Damage> {
        let bytes = r.blob()?;
        let at = Damage { offset: r.pos - bytes.len(), reason: Reason::Utf8 };
        String::from_utf8(bytes.to_vec()).map_err(|_| at)
    }
}

impl<T: Wire + Copy + Default, const N: usize> Wire for [T; N] {
    fn put(&self, out: &mut Vec<u8>) {
        for v in self {
            v.put(out);
        }
    }
    fn get(r: &mut Reader) -> Result<Self, Damage> {
        let mut items = [T::default(); N];
        for v in &mut items {
            *v = T::get(r)?;
        }
        Ok(items)
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
        self.2.put(out);
    }
    fn get(r: &mut Reader) -> Result<Self, Damage> {
        Ok((A::get(r)?, B::get(r)?, C::get(r)?))
    }
}

/// Declare a struct and its [`Wire`] bytes from one field list: the fields
/// in declaration order, nothing between them. A one-field tuple struct is
/// its field's bytes. Attributes, visibilities and one type parameter pass
/// through to the declaration.
#[macro_export]
macro_rules! wire_struct {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident $(<$param:ident>)? {
            $($(#[$fmeta:meta])* $fvis:vis $field:ident: $ty:ty),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name $(<$param>)? {
            $($(#[$fmeta])* $fvis $field: $ty,)*
        }

        impl $(<$param: $crate::frame::Wire>)? $crate::frame::Wire for $name $(<$param>)? {
            fn put(&self, out: &mut Vec<u8>) {
                $($crate::frame::Wire::put(&self.$field, out);)*
            }
            fn get(r: &mut $crate::frame::Reader) -> Result<Self, $crate::frame::Damage> {
                Ok($name { $($field: $crate::frame::Wire::get(r)?,)* })
            }
        }
    };
    ($(#[$meta:meta])* $vis:vis struct $name:ident($fvis:vis $ty:ty);) => {
        $(#[$meta])*
        $vis struct $name($fvis $ty);

        impl $crate::frame::Wire for $name {
            #[inline]
            fn put(&self, out: &mut Vec<u8>) {
                $crate::frame::Wire::put(&self.0, out);
            }
            #[inline]
            fn get(r: &mut $crate::frame::Reader) -> Result<Self, $crate::frame::Damage> {
                $crate::frame::Wire::get(r).map($name)
            }
        }
    };
}

/// Declare an enum and its [`Wire`] bytes from one variant list: per
/// variant a one-byte tag literal, then its fields in order. A tag no
/// variant carries is [`Reason::BadValue`] at the tag's offset.
#[macro_export]
macro_rules! wire_enum {
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident {
            $(
                $(#[$vmeta:meta])*
                $tag:literal => $variant:ident $({ $($field:ident: $ty:ty),* $(,)? })?
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis enum $name {
            $($(#[$vmeta])* $variant $({ $($field: $ty,)* })?,)*
        }

        impl $crate::frame::Wire for $name {
            fn put(&self, out: &mut Vec<u8>) {
                match self {
                    $($name::$variant $({ $($field,)* })? => {
                        $crate::frame::put_u8(out, $tag);
                        $($($crate::frame::Wire::put($field, out);)*)?
                    })*
                }
            }
            fn get(r: &mut $crate::frame::Reader) -> Result<Self, $crate::frame::Damage> {
                Ok(match r.u8()? {
                    $($tag => $name::$variant $({ $($field: $crate::frame::Wire::get(r)?,)* })?,)*
                    _ => return r.bad_value(1),
                })
            }
        }
    };
}

// --- atomic write ---------------------------------------------------------

/// The `.tmp` sibling [`write_atomic`] goes through.
pub fn temp_sibling(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Write `bytes` to `path` through a fsynced temp sibling and an atomic
/// rename: a crash at any byte leaves either the previous file or the
/// complete new one, never a torn hybrid. A failed write removes its temp.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = temp_sibling(path);
    let write = || {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        std::fs::rename(&tmp, path)
    };
    write().inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streamed_and_materialized_seals_are_the_same_bytes() {
        let mut streamed = Vec::new();
        write_frame(&mut streamed, 7, b"payload").unwrap();
        assert_eq!(streamed, seal(7, b"payload"));
        assert_eq!(streamed.len(), OVERHEAD + 7);
        assert_eq!(open(&streamed).unwrap(), (7, &b"payload"[..]));
        // The checksum covers the kind and length bytes too.
        assert_eq!(streamed[16..], fnv1a(&streamed[..16]).to_le_bytes());
    }

    #[test]
    fn open_demands_exactly_one_frame() {
        let mut two = seal(1, b"a");
        assert_eq!(open(&two[..5]).unwrap_err().reason, Reason::Truncated);
        two.extend_from_slice(&seal(1, b"b"));
        assert_eq!(
            open(&two).unwrap_err(),
            Damage { offset: OVERHEAD + 1, reason: Reason::LengthMismatch }
        );
    }

    #[test]
    fn scan_stops_at_the_damage_and_truncation_leaves_a_clean_file() {
        let path = std::env::temp_dir().join(format!("sciflow-frame-{}", std::process::id()));
        let mut bytes = b"MAGIC".to_vec();
        seal_into(&mut bytes, 1, b"first");
        seal_into(&mut bytes, 2, b"second");
        let sealed = bytes.len();
        bytes.extend_from_slice(&[2, 9, 9, 9]);
        std::fs::write(&path, &bytes).unwrap();

        let (frames, damage) = walk_all(&bytes, b"MAGIC").unwrap();
        assert_eq!(frames, [(1, b"first".to_vec()), (2, b"second".to_vec())]);
        let damage = damage.expect("the tear is reported");
        assert_eq!(damage, Damage { offset: sealed, reason: Reason::Truncated });
        damage.truncate(&path).unwrap();
        let mut walk = Walk::open(&path, b"MAGIC").unwrap().unwrap();
        while walk.next_frame().unwrap().is_some() {}
        assert_eq!(walk.damage(), None, "nothing but sealed frames is left");
        assert_eq!(std::fs::metadata(&path).unwrap().len(), sealed as u64);
        let other = Walk::open(&path, b"OTHER").unwrap().map(|_| ());
        assert_eq!(other.unwrap_err().reason, Reason::BadMagic);
        std::fs::remove_file(&path).unwrap();
    }

    /// Every frame of a walk over `bytes`, and where it stopped.
    fn walk_all(bytes: &[u8], magic: &[u8]) -> Result<WalkedFrames, Damage> {
        let mut walk = Walk::new(bytes, bytes.len() as u64, magic).unwrap()?;
        let mut frames = Vec::new();
        while let Some((kind, payload)) = walk.next_frame().unwrap() {
            frames.push((kind, payload.to_vec()));
        }
        Ok((frames, walk.damage()))
    }

    type WalkedFrames = (Vec<(u8, Vec<u8>)>, Option<Damage>);

    #[test]
    fn walk_ends_at_the_first_frame_that_does_not_verify() {
        let mut bytes = b"M".to_vec();
        seal_into(&mut bytes, 1, b"kept");
        let second = bytes.len();
        seal_into(&mut bytes, 2, b"flipped");
        seal_into(&mut bytes, 3, b"sealed, but after the damage");
        bytes[second + HEAD] ^= 1;
        let (frames, damage) = walk_all(&bytes, b"M").unwrap();
        assert_eq!(frames, [(1, b"kept".to_vec())]);
        assert_eq!(damage, Some(Damage { offset: second, reason: Reason::Checksum }));
        // A length forged past the bytes that remain, or to overflow, is a
        // tear at its frame: refused before the payload buffer grows.
        for forged in [u64::MAX, u64::MAX - OVERHEAD as u64 + 1, (bytes.len() - second) as u64] {
            let mut bytes = bytes.clone();
            bytes[second + 1..second + HEAD].copy_from_slice(&forged.to_le_bytes());
            let damage = walk_all(&bytes, b"M").unwrap().1;
            assert_eq!(damage, Some(Damage { offset: second, reason: Reason::Truncated }));
        }
        for short in [&b""[..], b"MAG"] {
            assert_eq!(walk_all(short, b"MAGIC").unwrap_err().reason, Reason::BadMagic);
        }
        assert_eq!(walk_all(b"MAGIC", b"MAGIC").unwrap(), (vec![], None), "no frames at all");
    }

    #[test]
    fn trailer_roundtrips_with_and_without_magic() {
        for magic in [&b"SEAL"[..], &[]] {
            let mut buf = b"payload".to_vec();
            seal_trailer(&mut buf, magic);
            assert_eq!(buf.len(), 7 + magic.len() + 16);
            assert_eq!(open_trailer(&buf, magic).unwrap(), b"payload");
            assert_eq!(open_trailer(&buf[..10], magic).unwrap_err().reason, Reason::Truncated);
        }
    }

    #[test]
    fn reader_rejects_overruns_and_oversized_lengths() {
        let mut out = Vec::new();
        put_u32(&mut out, 7);
        let mut r = Reader::new(&out);
        assert_eq!(r.u32().unwrap(), 7);
        assert_eq!(r.u64().unwrap_err(), Damage { offset: 4, reason: Reason::Overrun });
        // Absurd length prefixes are refused before anything is allocated.
        let mut out = Vec::new();
        put_u64(&mut out, u64::MAX);
        assert_eq!(Reader::new(&out).len().unwrap_err().reason, Reason::Overrun);
        assert_eq!(Reader::new(&out).len32().unwrap_err().reason, Reason::Overrun);
        assert_eq!(Reader::new(&out).bytes().unwrap_err().reason, Reason::Overrun);
        assert_eq!(Reader::new(&out).str().unwrap_err().reason, Reason::Overrun);
        assert_eq!(Reader::new(&out).done().unwrap_err().reason, Reason::Trailing);
    }

    // --- Wire ---------------------------------------------------------------

    fn bytes_of<T: Wire>(v: &T) -> Vec<u8> {
        let mut out = Vec::new();
        v.put(&mut out);
        out
    }

    /// `get` of exactly the bytes `put` wrote.
    fn back<T: Wire>(v: &T) -> T {
        let bytes = bytes_of(v);
        let mut r = Reader::new(&bytes);
        let got = T::get(&mut r).expect("what put wrote, get reads");
        r.done().expect("and reads all of it");
        got
    }

    fn damage_of<T: Wire + fmt::Debug>(bytes: &[u8]) -> Damage {
        T::get(&mut Reader::new(bytes)).expect_err("damaged bytes")
    }

    crate::wire_struct! {
        #[derive(Debug, Clone, Copy, PartialEq, Default)]
        struct Micros(u64);
    }

    crate::wire_struct! {
        /// Every kind of field a persisted struct has.
        #[derive(Debug, PartialEq)]
        struct Sample<T> {
            id: u32,
            at: Micros,
            live: bool,
            tail: Option<T>,
            widths: Vec<u32>,
            name: String,
        }
    }

    crate::wire_enum! {
        #[derive(Debug, PartialEq)]
        enum Shape {
            /// Tags are the format; declaration order is not.
            7 => Dot,
            2 => Line { from: u32, to: u32 },
            3 => Tagged { at: Micros, label: Option<u64> },
        }
    }

    /// Integers by example: the LEB128 bytes of each value, at the edges of
    /// one, two, five and ten bytes.
    const UVARS: [(u64, &[u8]); 6] = [
        (0, &[0]),
        (1, &[1]),
        (127, &[0x7F]),
        (128, &[0x80, 0x01]),
        (u32::MAX as u64, &[0xFF, 0xFF, 0xFF, 0xFF, 0x0F]),
        (u64::MAX, &[0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01]),
    ];

    #[test]
    fn wire_scalars_roundtrip_at_zero_one_and_their_maximum() {
        for (v, leb) in UVARS {
            assert_eq!(back(&v), v);
            assert_eq!(bytes_of(&v), leb);
            assert_eq!(back(&Micros(v)), Micros(v));
            assert_eq!(bytes_of(&Micros(v)), leb, "a newtype is its field");
            let n = v as usize;
            assert_eq!((back(&n), bytes_of(&n)), (n, leb.to_vec()), "usize is a u64");
            if let Ok(v) = u32::try_from(v) {
                assert_eq!((back(&v), bytes_of(&v)), (v, leb.to_vec()), "u32 is a u64");
            }
        }
        for v in [0.0, 1.0, f64::MAX, -0.0, f64::INFINITY] {
            assert_eq!(back(&v).to_bits(), v.to_bits());
            assert_eq!(bytes_of(&v), v.to_bits().to_le_bytes());
        }
        assert_eq!((bytes_of(&false), bytes_of(&true)), (vec![0], vec![1]));
        assert_eq!((back(&false), back(&true)), (false, true));
    }

    #[test]
    fn wire_sequences_roundtrip_empty_one_and_many() {
        for v in [vec![], vec![9u32], vec![0, 1, u32::MAX]] {
            assert_eq!(back(&v), v);
            let items: usize = v.iter().map(|i| bytes_of(i).len()).sum();
            assert_eq!(bytes_of(&v).len(), 1 + items, "the count, then the items");
            let deque = VecDeque::from(v.clone());
            assert_eq!(back(&deque), deque);
            assert_eq!(bytes_of(&deque), bytes_of(&v), "a deque is front-to-back");
        }
        for v in [String::new(), "a".to_string(), "snapshot ∎ 1".to_string(), "x".repeat(128)] {
            assert_eq!(back(&v), v);
            let as_bytes = [bytes_of(&v.len()), v.as_bytes().to_vec()].concat();
            assert_eq!(bytes_of(&v), as_bytes, "the length, then the bytes");
        }
        for v in [None, Some(0), Some(1), Some(u64::MAX)] {
            assert_eq!(back(&v), v);
            assert_eq!(bytes_of(&v).len(), 1 + v.map_or(0, |v| bytes_of(&v).len()));
        }
        for v in [[0; 4], [1, 2, 3, u64::MAX]] {
            assert_eq!(back(&v), v);
            let items: usize = v.iter().map(|i| bytes_of(i).len()).sum();
            assert_eq!(bytes_of(&v).len(), items, "an array has no count");
        }
        let triple = (Micros(5), 6u64, 7u32);
        assert_eq!(back(&triple), triple);
        assert_eq!(bytes_of(&triple), [5, 6, 7]);
        assert_eq!(back(&vec![Some(vec![triple]), None]), vec![Some(vec![triple]), None]);
    }

    #[test]
    fn wire_refuses_values_a_type_does_not_have_at_their_own_offset() {
        let bad = |offset| Damage { offset, reason: Reason::BadValue };
        assert_eq!(damage_of::<bool>(&[2]), bad(0));
        assert_eq!(damage_of::<Option<u32>>(&[2, 0]), bad(0));
        assert_eq!(damage_of::<(u64, bool, u32)>(&[0x80, 0x01, 0xFF, 0]), bad(2));
        // An enum tag no variant carries; tag 7 then an unknown inner tag.
        assert_eq!(damage_of::<Shape>(&[1]), bad(0));
        assert_eq!(damage_of::<Shape>(&[0]), bad(0));
        assert_eq!(damage_of::<(Shape, Shape, Shape)>(&[7, 7, 9]), bad(2));
        assert!(Reason::BadValue.in_payload());
        // Each integer has one encoding: overlong ones (a trailing zero
        // group), eleven bytes, a tenth byte above 1 and a value past its
        // type are refused at the value's first byte.
        let ten = UVARS[5].1;
        let eleven = [&[0xFF; 10][..], &[0x01]].concat();
        let past_u64 = [&ten[..9], &[0x02]].concat();
        for overlong in [&[0x80, 0x00][..], &[0xFF, 0x80, 0x00], &eleven, &past_u64] {
            let at_one = [&[1][..], overlong].concat();
            assert_eq!(damage_of::<[u64; 2]>(&at_one), bad(1), "{overlong:?}");
            assert_eq!(damage_of::<[u32; 2]>(&at_one), bad(1), "{overlong:?}");
            assert_eq!(damage_of::<[usize; 2]>(&at_one), bad(1), "{overlong:?}");
        }
        let mut past_u32 = Vec::new();
        put_uvar(&mut past_u32, u64::from(u32::MAX) + 1);
        assert_eq!(damage_of::<Option<u32>>(&[&[1][..], &past_u32].concat()), bad(1));
        assert_eq!(damage_of::<Vec<u32>>(&[1, 0x80, 0x80, 0x80, 0x80, 0x10]), bad(1));
        // Strings are strict, and say where the bytes start.
        let mut bytes = bytes_of(&"ab".to_string());
        bytes[2] = 0xFF;
        assert_eq!(damage_of::<String>(&bytes), Damage { offset: 1, reason: Reason::Utf8 });
        // A value cut short is an overrun at its first byte; a varint cut
        // mid-value too.
        let overrun = |offset| Damage { offset, reason: Reason::Overrun };
        assert_eq!(damage_of::<u64>(&[]), overrun(0));
        assert_eq!(damage_of::<u64>(&ten[..9]), overrun(0));
        assert_eq!(damage_of::<[u32; 2]>(&[5, 0x80]), overrun(1));
        assert_eq!(damage_of::<Option<u32>>(&[1, 0xFF, 0xFF]), overrun(1));
        assert_eq!(damage_of::<f64>(&[1, 2, 3]), overrun(0));
    }

    /// A forged count is refused by [`Reader::count`] against the bytes
    /// that remain, before `with_capacity` sees it.
    #[test]
    fn wire_forged_counts_are_overruns_before_anything_is_allocated() {
        let items = vec![Micros(300), Micros(301)];
        assert_eq!(bytes_of(&items), [2, 0xAC, 0x02, 0xAD, 0x02]);
        for count in [u64::MAX, 5, 3] {
            let mut bytes = Vec::new();
            put_uvar(&mut bytes, count);
            let after_count = bytes.len();
            bytes.extend_from_slice(&bytes_of(&items)[1..]);
            // 4 bytes remain after the count: 5 is `remaining + 1`; 3 fits
            // the bound and overruns on the third item instead.
            let at = if count == 3 { 5 } else { after_count };
            let overrun = Damage { offset: at, reason: Reason::Overrun };
            assert_eq!(damage_of::<Vec<Micros>>(&bytes), overrun, "count {count}");
            assert_eq!(damage_of::<VecDeque<Micros>>(&bytes), overrun, "count {count}");
            if count != 3 {
                assert_eq!(damage_of::<String>(&bytes), overrun, "length {count}");
            }
        }
        // A count the payload cuts off mid-varint.
        for cut in [&[0x80][..], &[0xFF, 0xFF]] {
            let overrun = Damage { offset: 0, reason: Reason::Overrun };
            assert_eq!(damage_of::<Vec<Micros>>(cut), overrun);
            assert_eq!(damage_of::<String>(cut), overrun);
        }
    }

    /// Format 2 by example: the bytes of one `wire_struct!` and one
    /// `wire_enum!`. If this fails the layout rules changed: do not update
    /// the literals; fix the code.
    #[test]
    fn byte_pin_wire_struct_and_enum() {
        let sample = Sample {
            id: 0x0102_0304,
            at: Micros(5),
            live: true,
            tail: Some(Shape::Line { from: 1, to: 2 }),
            widths: vec![7, 8],
            name: "ok".to_string(),
        };
        let want = [
            &[0x84, 0x86, 0x88, 0x08][..], // id: u32, LEB128
            &[5],                          // at: a newtype over u64
            &[1],                          // live
            &[1],                          // tail: Some ...
            &[2],                          // ... tag of Line
            &[1, 2],                       // ... from, to
            &[2],                          // widths: count
            &[7, 8],                       // ... the items
            &[2],                          // name: length
            b"ok",                         // ... the bytes
        ]
        .concat();
        assert_eq!(bytes_of(&sample), want);
        assert_eq!(back(&sample), sample);
        assert_eq!(bytes_of(&Shape::Dot), [7]);
        let tagged = Shape::Tagged { at: Micros(9), label: None };
        assert_eq!(bytes_of(&tagged), [3, 9, 0]);
        assert_eq!(back(&tagged), tagged);
        let empty: Sample<Shape> = Sample {
            id: 0,
            at: Micros(0),
            live: false,
            tail: None,
            widths: vec![],
            name: String::new(),
        };
        assert_eq!(bytes_of(&empty), [0; 6]);
        assert_eq!(back(&empty), empty);
    }
}
