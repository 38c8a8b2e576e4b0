//! Versioned binary checkpoint format and canonical state hashing.
//!
//! The checkpoint/restore subsystem (`System::snapshot` / `System::restore`
//! in `overhaul-core`) needs a serialization format that is *byte-stable*:
//! the same simulation state must always encode to the same bytes, because
//! the canonical state hash — the value record/replay uses to detect
//! divergence — is a hash of the encoded state. This module provides that
//! format:
//!
//! * [`Enc`] / [`Dec`] — a little-endian binary writer/reader pair with
//!   explicit error reporting ([`SnapshotError`]), no self-description and
//!   no framing overhead beyond length prefixes. [`Enc::digest`] opens the
//!   encoder in *digest mode*, which writes the same field list with each
//!   [`Hashed`] component as its 8-byte digest and each ledger as its chain
//!   anchors: the bytes `System::state_hash` hashes.
//! * [`Hashed`] — a state component carrying a cached digest of its
//!   encoding, dropped whenever the component is borrowed mutably.
//! * [`Pack`] — the codec trait. Implementations exist for primitives,
//!   strings, `Option`/`Vec`/`VecDeque`/`BTreeMap`/`BTreeSet`, fixed-size
//!   arrays, and tuples. `HashMap`s are encoded *sorted by key* so the
//!   encoding never depends on hasher iteration order; maps and sets
//!   decode only strictly ascending keys, the form they encode to.
//!   Sequences encode their items through [`Pack::pack_all`] /
//!   [`Pack::unpack_all`], which `u8` overrides, so byte buffers are
//!   copied whole.
//! * `impl_pack!` / `impl_pack_newtype!` — macros deriving field-wise
//!   `Pack` for structs; invoked inside the defining module so private
//!   fields stay private.
//! * [`Snapshot`] — the versioned container: a magic tag, a format version,
//!   a *state* section (hashed; everything replay must reproduce) and an
//!   *aux* section (serialized but unhashed; observability state such as the
//!   trace buffer and the metrics registry).
//! * [`hash64`] — the canonical 64-bit hash behind state hashes and ledger
//!   seals: one 128-bit multiply-fold per 8-byte word, stable across
//!   platforms and dependency-free.
//! * [`intern`] — re-leaks strings restored from a snapshot into
//!   `&'static str`, for trace span names whose live form is static.
//!
//! Derived caches (the kernel's verdict cache, netlink dup-suppression
//! sets) are deliberately *not* representable here: restore rebuilds them,
//! so a restore is also a coherence check of every cache rebuild path.

use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::fmt;
use std::hash::Hash;
use std::ops::{Deref, DerefMut};
use std::sync::Mutex;

use crate::ids::{Fd, Pid, Uid};
use crate::ledger::LedgerError;
use crate::time::{SimDuration, Timestamp};

/// Magic tag opening every serialized snapshot (`OVSN`).
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"OVSN";

/// Current snapshot format version. Bumped on any encoding change;
/// [`Snapshot::from_bytes`] rejects versions it does not understand.
pub const SNAPSHOT_VERSION: u32 = 5;

/// Why decoding a snapshot failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The input ended before the expected data.
    Truncated,
    /// The input does not start with [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// The input's format version is not supported by this build.
    UnsupportedVersion(u32),
    /// An enum discriminant or constrained value was out of range.
    BadValue(&'static str),
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// Bytes remained after the last expected field.
    TrailingBytes(usize),
    /// A decoded ledger's entries do not chain from its base head.
    BrokenChain(LedgerError),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::BadMagic => write!(f, "missing OVSN magic"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot version {v}")
            }
            SnapshotError::BadValue(what) => write!(f, "invalid encoded value: {what}"),
            SnapshotError::BadUtf8 => write!(f, "invalid UTF-8 in encoded string"),
            SnapshotError::TrailingBytes(n) => {
                write!(f, "{n} trailing bytes after the last field")
            }
            SnapshotError::BrokenChain(err) => write!(f, "broken ledger chain: {err}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// A little-endian binary encoder.
#[derive(Debug, Clone, Default)]
pub struct Enc {
    buf: Vec<u8>,
    /// `Some` in digest mode: the one buffer every [`Hashed`] component
    /// without a cached digest encodes through.
    scratch: Option<Vec<u8>>,
}

impl Enc {
    /// An empty encoder.
    pub fn new() -> Self {
        Enc::default()
    }

    /// An empty encoder in digest mode: a [`Hashed`] field writes its
    /// 8-byte digest and a ledger its chain anchors instead of their
    /// encodings. The result is hashed, never decoded.
    pub fn digest() -> Self {
        Enc {
            buf: Vec::new(),
            scratch: Some(Vec::new()),
        }
    }

    /// Whether this encoder is in digest mode ([`Enc::digest`]).
    pub(crate) fn is_digest(&self) -> bool {
        self.scratch.is_some()
    }

    /// Truncates to empty, keeping the allocation. Hot loops (ledger
    /// sealing) reuse one encoder instead of allocating per record.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// The bytes written so far.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing was written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the encoder, returning the written bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Writes one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes raw bytes, unframed (the caller writes any length prefix).
    pub fn put_slice(&mut self, s: &[u8]) {
        self.buf.extend_from_slice(s);
    }
}

/// A little-endian binary decoder over a byte slice.
#[derive(Debug)]
pub struct Dec<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// A decoder positioned at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Dec { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Reads `n` raw bytes.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] if fewer than `n` bytes remain.
    pub fn take_slice(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Truncated);
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] at end of input.
    pub fn take_u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take_slice(1)?[0])
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] if fewer than 4 bytes remain.
    pub fn take_u32(&mut self) -> Result<u32, SnapshotError> {
        let s = self.take_slice(4)?;
        Ok(u32::from_le_bytes(s.try_into().expect("4-byte slice")))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] if fewer than 8 bytes remain.
    pub fn take_u64(&mut self) -> Result<u64, SnapshotError> {
        let s = self.take_slice(8)?;
        Ok(u64::from_le_bytes(s.try_into().expect("8-byte slice")))
    }

    /// Asserts the input was fully consumed.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::TrailingBytes`] if any bytes remain.
    pub fn finish(self) -> Result<(), SnapshotError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(SnapshotError::TrailingBytes(n)),
        }
    }
}

/// The snapshot codec: a byte-stable, field-wise binary encoding.
pub trait Pack: Sized {
    /// Appends this value's encoding to `enc`.
    fn pack(&self, enc: &mut Enc);

    /// Decodes one value from `dec`.
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`] raised by malformed or truncated input.
    fn unpack(dec: &mut Dec<'_>) -> Result<Self, SnapshotError>;

    /// Appends the encodings of `items` in order, with no count: the body
    /// of a `Vec`, `VecDeque` or array. The default packs each item; a
    /// type whose sequence encodes to the items' raw bytes overrides it
    /// with one copy, writing the same bytes.
    fn pack_all(items: &[Self], enc: &mut Enc) {
        for item in items {
            item.pack(enc);
        }
    }

    /// Decodes `len` items written by [`Pack::pack_all`]. The caller
    /// bounds `len` before calling, since the default reserves room for
    /// `len` items up front.
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`] raised by malformed or truncated input.
    fn unpack_all(dec: &mut Dec<'_>, len: usize) -> Result<Vec<Self>, SnapshotError> {
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(Self::unpack(dec)?);
        }
        Ok(out)
    }
}

/// Byte sequences (window pixels, file data, IPC buffers) copy whole: a
/// byte encodes as itself, so the sequence body is the bytes verbatim.
impl Pack for u8 {
    fn pack(&self, enc: &mut Enc) {
        enc.put_u8(*self);
    }
    fn unpack(dec: &mut Dec<'_>) -> Result<Self, SnapshotError> {
        dec.take_u8()
    }
    fn pack_all(items: &[u8], enc: &mut Enc) {
        enc.put_slice(items);
    }
    fn unpack_all(dec: &mut Dec<'_>, len: usize) -> Result<Vec<u8>, SnapshotError> {
        Ok(dec.take_slice(len)?.to_vec())
    }
}

impl Pack for u16 {
    fn pack(&self, enc: &mut Enc) {
        enc.put_u32(u32::from(*self));
    }
    fn unpack(dec: &mut Dec<'_>) -> Result<Self, SnapshotError> {
        u16::try_from(dec.take_u32()?).map_err(|_| SnapshotError::BadValue("u16"))
    }
}

impl Pack for u32 {
    fn pack(&self, enc: &mut Enc) {
        enc.put_u32(*self);
    }
    fn unpack(dec: &mut Dec<'_>) -> Result<Self, SnapshotError> {
        dec.take_u32()
    }
}

impl Pack for u64 {
    fn pack(&self, enc: &mut Enc) {
        enc.put_u64(*self);
    }
    fn unpack(dec: &mut Dec<'_>) -> Result<Self, SnapshotError> {
        dec.take_u64()
    }
}

impl Pack for usize {
    fn pack(&self, enc: &mut Enc) {
        enc.put_u64(*self as u64);
    }
    fn unpack(dec: &mut Dec<'_>) -> Result<Self, SnapshotError> {
        usize::try_from(dec.take_u64()?).map_err(|_| SnapshotError::BadValue("usize"))
    }
}

impl Pack for i32 {
    fn pack(&self, enc: &mut Enc) {
        enc.put_u32(*self as u32);
    }
    fn unpack(dec: &mut Dec<'_>) -> Result<Self, SnapshotError> {
        Ok(dec.take_u32()? as i32)
    }
}

impl Pack for i64 {
    fn pack(&self, enc: &mut Enc) {
        enc.put_u64(*self as u64);
    }
    fn unpack(dec: &mut Dec<'_>) -> Result<Self, SnapshotError> {
        Ok(dec.take_u64()? as i64)
    }
}

impl Pack for bool {
    fn pack(&self, enc: &mut Enc) {
        enc.put_u8(u8::from(*self));
    }
    fn unpack(dec: &mut Dec<'_>) -> Result<Self, SnapshotError> {
        match dec.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapshotError::BadValue("bool")),
        }
    }
}

impl Pack for char {
    fn pack(&self, enc: &mut Enc) {
        enc.put_u32(*self as u32);
    }
    fn unpack(dec: &mut Dec<'_>) -> Result<Self, SnapshotError> {
        char::from_u32(dec.take_u32()?).ok_or(SnapshotError::BadValue("char"))
    }
}

impl Pack for f64 {
    fn pack(&self, enc: &mut Enc) {
        enc.put_u64(self.to_bits());
    }
    fn unpack(dec: &mut Dec<'_>) -> Result<Self, SnapshotError> {
        Ok(f64::from_bits(dec.take_u64()?))
    }
}

impl Pack for String {
    fn pack(&self, enc: &mut Enc) {
        enc.put_u64(self.len() as u64);
        enc.put_slice(self.as_bytes());
    }
    fn unpack(dec: &mut Dec<'_>) -> Result<Self, SnapshotError> {
        let len = usize::unpack(dec)?;
        let bytes = dec.take_slice(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| SnapshotError::BadUtf8)
    }
}

impl<T: Pack> Pack for Option<T> {
    fn pack(&self, enc: &mut Enc) {
        match self {
            None => enc.put_u8(0),
            Some(v) => {
                enc.put_u8(1);
                v.pack(enc);
            }
        }
    }
    fn unpack(dec: &mut Dec<'_>) -> Result<Self, SnapshotError> {
        match dec.take_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::unpack(dec)?)),
            _ => Err(SnapshotError::BadValue("option tag")),
        }
    }
}

impl<T: Pack> Pack for Vec<T> {
    fn pack(&self, enc: &mut Enc) {
        enc.put_u64(self.len() as u64);
        T::pack_all(self, enc);
    }
    fn unpack(dec: &mut Dec<'_>) -> Result<Self, SnapshotError> {
        let len = usize::unpack(dec)?;
        // Guard allocations against corrupt length prefixes: every element
        // encodes to at least one byte.
        if len > dec.remaining() {
            return Err(SnapshotError::Truncated);
        }
        T::unpack_all(dec, len)
    }
}

impl<T: Pack> Pack for VecDeque<T> {
    fn pack(&self, enc: &mut Enc) {
        enc.put_u64(self.len() as u64);
        let (front, back) = self.as_slices();
        T::pack_all(front, enc);
        T::pack_all(back, enc);
    }
    fn unpack(dec: &mut Dec<'_>) -> Result<Self, SnapshotError> {
        Ok(Vec::<T>::unpack(dec)?.into())
    }
}

/// Decodes a map's entries, accepting only the form maps encode to:
/// keys strictly ascending. A repeated or out-of-order key is a
/// [`SnapshotError::BadValue`], never a silent overwrite, so every decoded
/// map re-encodes to the bytes it came from.
fn unpack_map_entries<K: Pack + Ord, V: Pack>(
    dec: &mut Dec<'_>,
) -> Result<Vec<(K, V)>, SnapshotError> {
    let entries = Vec::<(K, V)>::unpack(dec)?;
    if entries.windows(2).any(|pair| pair[0].0 >= pair[1].0) {
        return Err(SnapshotError::BadValue("map keys not ascending"));
    }
    Ok(entries)
}

impl<K: Pack + Ord, V: Pack> Pack for BTreeMap<K, V> {
    fn pack(&self, enc: &mut Enc) {
        enc.put_u64(self.len() as u64);
        for (k, v) in self {
            k.pack(enc);
            v.pack(enc);
        }
    }
    fn unpack(dec: &mut Dec<'_>) -> Result<Self, SnapshotError> {
        Ok(unpack_map_entries(dec)?.into_iter().collect())
    }
}

impl<T: Pack + Ord> Pack for BTreeSet<T> {
    fn pack(&self, enc: &mut Enc) {
        enc.put_u64(self.len() as u64);
        for item in self {
            item.pack(enc);
        }
    }
    fn unpack(dec: &mut Dec<'_>) -> Result<Self, SnapshotError> {
        let items = Vec::<T>::unpack(dec)?;
        if items.windows(2).any(|pair| pair[0] >= pair[1]) {
            return Err(SnapshotError::BadValue("set items not ascending"));
        }
        Ok(items.into_iter().collect())
    }
}

/// `HashMap`s encode *sorted by key*: hasher iteration order must never
/// leak into snapshot bytes (it would break hash stability across runs).
impl<K: Pack + Ord + Eq + Hash, V: Pack> Pack for HashMap<K, V> {
    fn pack(&self, enc: &mut Enc) {
        enc.put_u64(self.len() as u64);
        let mut keys: Vec<&K> = self.keys().collect();
        keys.sort();
        for k in keys {
            k.pack(enc);
            self[k].pack(enc);
        }
    }
    fn unpack(dec: &mut Dec<'_>) -> Result<Self, SnapshotError> {
        Ok(unpack_map_entries(dec)?.into_iter().collect())
    }
}

impl<T: Pack, const N: usize> Pack for [T; N] {
    fn pack(&self, enc: &mut Enc) {
        T::pack_all(self, enc);
    }
    fn unpack(dec: &mut Dec<'_>) -> Result<Self, SnapshotError> {
        T::unpack_all(dec, N)?
            .try_into()
            .map_err(|_| SnapshotError::BadValue("array length"))
    }
}

impl<A: Pack, B: Pack> Pack for (A, B) {
    fn pack(&self, enc: &mut Enc) {
        self.0.pack(enc);
        self.1.pack(enc);
    }
    fn unpack(dec: &mut Dec<'_>) -> Result<Self, SnapshotError> {
        Ok((A::unpack(dec)?, B::unpack(dec)?))
    }
}

impl<A: Pack, B: Pack, C: Pack> Pack for (A, B, C) {
    fn pack(&self, enc: &mut Enc) {
        self.0.pack(enc);
        self.1.pack(enc);
        self.2.pack(enc);
    }
    fn unpack(dec: &mut Dec<'_>) -> Result<Self, SnapshotError> {
        Ok((A::unpack(dec)?, B::unpack(dec)?, C::unpack(dec)?))
    }
}

impl Pack for Timestamp {
    fn pack(&self, enc: &mut Enc) {
        enc.put_u64(self.as_millis());
    }
    fn unpack(dec: &mut Dec<'_>) -> Result<Self, SnapshotError> {
        Ok(Timestamp::from_millis(dec.take_u64()?))
    }
}

impl Pack for SimDuration {
    fn pack(&self, enc: &mut Enc) {
        enc.put_u64(self.as_millis());
    }
    fn unpack(dec: &mut Dec<'_>) -> Result<Self, SnapshotError> {
        Ok(SimDuration::from_millis(dec.take_u64()?))
    }
}

impl Pack for Pid {
    fn pack(&self, enc: &mut Enc) {
        enc.put_u32(self.as_raw());
    }
    fn unpack(dec: &mut Dec<'_>) -> Result<Self, SnapshotError> {
        Ok(Pid::from_raw(dec.take_u32()?))
    }
}

impl Pack for Uid {
    fn pack(&self, enc: &mut Enc) {
        enc.put_u32(self.as_raw());
    }
    fn unpack(dec: &mut Dec<'_>) -> Result<Self, SnapshotError> {
        Ok(Uid::from_raw(dec.take_u32()?))
    }
}

impl Pack for Fd {
    fn pack(&self, enc: &mut Enc) {
        enc.put_u32(self.as_raw());
    }
    fn unpack(dec: &mut Dec<'_>) -> Result<Self, SnapshotError> {
        Ok(Fd::from_raw(dec.take_u32()?))
    }
}

/// Derives field-wise [`Pack`] for a struct with named fields. Invoke in
/// the module that defines the struct so private fields resolve; fields
/// encode in the listed order, which becomes part of the snapshot format.
#[macro_export]
macro_rules! impl_pack {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::snapshot::Pack for $ty {
            fn pack(&self, enc: &mut $crate::snapshot::Enc) {
                $($crate::snapshot::Pack::pack(&self.$field, enc);)+
            }
            fn unpack(
                dec: &mut $crate::snapshot::Dec<'_>,
            ) -> Result<Self, $crate::snapshot::SnapshotError> {
                $(let $field = $crate::snapshot::Pack::unpack(dec)?;)+
                Ok(Self { $($field),+ })
            }
        }
    };
}

/// Derives [`Pack`] for a single-field tuple struct (newtype). Invoke in
/// the defining module so the `.0` field resolves.
#[macro_export]
macro_rules! impl_pack_newtype {
    ($ty:ty, $inner:ty) => {
        impl $crate::snapshot::Pack for $ty {
            fn pack(&self, enc: &mut $crate::snapshot::Enc) {
                $crate::snapshot::Pack::pack(&self.0, enc);
            }
            fn unpack(
                dec: &mut $crate::snapshot::Dec<'_>,
            ) -> Result<Self, $crate::snapshot::SnapshotError> {
                Ok(Self(<$inner as $crate::snapshot::Pack>::unpack(dec)?))
            }
        }
    };
}

/// A state component with a cached digest: [`hash64`] of its encoding.
///
/// Digest-mode encoders ([`Enc::digest`]) write the digest instead of the
/// encoding, computing it only when the cell is empty. Every mutable
/// borrow goes through [`DerefMut`], which empties the cell, so only a
/// component borrowed mutably since the last state hash is encoded again.
/// A decoded component starts with no digest, so a missed invalidation
/// shows up as a live hash that differs from the restored machine's.
///
/// Components that change without a `&mut` borrow (the shared clock)
/// must not be wrapped.
pub struct Hashed<T> {
    value: T,
    digest: Cell<Option<u64>>,
}

impl<T> Hashed<T> {
    /// Wraps `value` with no digest yet.
    pub fn new(value: T) -> Self {
        Hashed {
            value,
            digest: Cell::new(None),
        }
    }
}

impl<T> Deref for Hashed<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> DerefMut for Hashed<T> {
    fn deref_mut(&mut self) -> &mut T {
        *self.digest.get_mut() = None;
        &mut self.value
    }
}

impl<T: fmt::Debug> fmt::Debug for Hashed<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.value.fmt(f)
    }
}

impl<T: Pack> Pack for Hashed<T> {
    fn pack(&self, enc: &mut Enc) {
        let Some(scratch) = enc.scratch.as_mut() else {
            return self.value.pack(enc);
        };
        let digest = self.digest.get().unwrap_or_else(|| {
            // The full encoding goes through the digest-mode encoder's one
            // scratch buffer, so a state hash allocates once for all its
            // components.
            let mut full = Enc {
                buf: std::mem::take(scratch),
                scratch: None,
            };
            full.buf.clear();
            self.value.pack(&mut full);
            let digest = hash64(&full.buf);
            *scratch = full.buf;
            self.digest.set(Some(digest));
            digest
        });
        enc.put_u64(digest);
    }
    fn unpack(dec: &mut Dec<'_>) -> Result<Self, SnapshotError> {
        Ok(Hashed::new(T::unpack(dec)?))
    }
}

/// A versioned checkpoint of one simulated machine.
///
/// Two sections:
///
/// * **state** — everything record/replay must reproduce byte-for-byte:
///   kernel, display manager, clock, RNG positions, fault-plan schedule.
///   The machine's state hash commits to exactly this content.
/// * **aux** — observability state that restore carries forward but that is
///   *not* part of the canonical state: the trace buffer prefix and the
///   metrics registry (some histograms observe on derived-cache misses, so
///   they are legitimately not a pure function of the event history after
///   a restore).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    version: u32,
    state: Vec<u8>,
    aux: Vec<u8>,
}

impl Snapshot {
    /// Wraps encoded state and aux sections under the current version.
    pub fn new(state: Vec<u8>, aux: Vec<u8>) -> Self {
        Snapshot {
            version: SNAPSHOT_VERSION,
            state,
            aux,
        }
    }

    /// The format version this snapshot was encoded under.
    pub fn version(&self) -> u32 {
        self.version
    }

    /// The canonical state section.
    pub fn state(&self) -> &[u8] {
        &self.state
    }

    /// The auxiliary (unhashed) section.
    pub fn aux(&self) -> &[u8] {
        &self.aux
    }

    /// Total serialized size, including the header and length prefixes.
    pub fn total_bytes(&self) -> usize {
        SNAPSHOT_MAGIC.len() + 4 + 8 + self.state.len() + 8 + self.aux.len()
    }

    /// Serializes the snapshot: magic, version, then both sections
    /// length-prefixed.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut enc = Enc::new();
        enc.put_slice(&SNAPSHOT_MAGIC);
        enc.put_u32(self.version);
        enc.put_u64(self.state.len() as u64);
        enc.put_slice(&self.state);
        enc.put_u64(self.aux.len() as u64);
        enc.put_slice(&self.aux);
        enc.into_bytes()
    }

    /// Parses a serialized snapshot.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::BadMagic`], [`SnapshotError::UnsupportedVersion`],
    /// [`SnapshotError::Truncated`], or [`SnapshotError::TrailingBytes`]
    /// for malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut dec = Dec::new(bytes);
        if dec.take_slice(SNAPSHOT_MAGIC.len())? != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = dec.take_u32()?;
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        let state_len = usize::unpack(&mut dec)?;
        let state = dec.take_slice(state_len)?.to_vec();
        let aux_len = usize::unpack(&mut dec)?;
        let aux = dec.take_slice(aux_len)?.to_vec();
        dec.finish()?;
        Ok(Snapshot {
            version,
            state,
            aux,
        })
    }
}

/// The multiplier of [`hash64`]'s fold: ⌊2^64 / φ⌋ for the golden ratio
/// φ, which is odd.
const HASH_K: u64 = 0x9e37_79b9_7f4a_7c15;

/// One absorb step of [`hash64`]: `(h ^ w)·K` as a full 128-bit product,
/// its high half folded onto its low half.
#[inline(always)]
fn fold(h: u64, w: u64) -> u64 {
    let product = u128::from(h ^ w) * u128::from(HASH_K);
    (product as u64) ^ ((product >> 64) as u64)
}

/// The canonical 64-bit hash: ledger seals, chain heads, state hashes and
/// the fleet's sketch hash all use it. Stable across platforms and runs.
///
/// The state starts at the input length, XORed with `K` so that the empty
/// input does not hash to 0 (the product's fixed point). Each 8-byte
/// little-endian word `w` is absorbed as `h = lo ^ hi` of the 128-bit
/// product `(h ^ w)·K`; a short tail word is zero-padded, and one more
/// fold of `h` alone finishes the hash.
///
/// The high half carries every bit of `h ^ w` back into the low bits, so
/// a flipped input bit spreads through the whole state before the next
/// word arrives, and a flip in a later word cancels it only by chance. A
/// plain wrapping `(h ^ w)·K` keeps a bit-63 flip as a lone bit-63 flip,
/// which the same bit of the next word cancels on every input.
#[inline]
pub fn hash64(bytes: &[u8]) -> u64 {
    let mut h = HASH_K ^ bytes.len() as u64;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let word: [u8; 8] = word.try_into().expect("chunks_exact yields 8 bytes");
        h = fold(h, u64::from_le_bytes(word));
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut padded = [0u8; 8];
        padded[..tail.len()].copy_from_slice(tail);
        h = fold(h, u64::from_le_bytes(padded));
    }
    fold(h, 0)
}

/// The intern table backing [`intern`]. Bounded in practice: only trace
/// span/field names pass through here, and those come from a fixed set of
/// instrumentation sites.
static INTERNED: Mutex<BTreeMap<String, &'static str>> = Mutex::new(BTreeMap::new());

/// Returns a `&'static str` equal to `s`, leaking at most one copy per
/// distinct string. Used when restoring trace nodes, whose names are
/// `&'static str` in live form.
pub fn intern(s: &str) -> &'static str {
    let mut table = INTERNED.lock().expect("intern table lock");
    if let Some(&existing) = table.get(s) {
        return existing;
    }
    let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
    table.insert(s.to_owned(), leaked);
    leaked
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Pack + PartialEq + std::fmt::Debug>(value: T) {
        let mut enc = Enc::new();
        value.pack(&mut enc);
        let bytes = enc.into_bytes();
        let mut dec = Dec::new(&bytes);
        let back = T::unpack(&mut dec).expect("unpack");
        dec.finish().expect("no trailing bytes");
        assert_eq!(back, value);
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(0u8);
        roundtrip(255u8);
        roundtrip(0o755u16);
        roundtrip(7u32);
        roundtrip(u64::MAX);
        roundtrip(usize::MAX as u64);
        roundtrip(-5i32);
        roundtrip(-9i64);
        roundtrip(true);
        roundtrip('δ');
        roundtrip(0.25f64);
        roundtrip(String::from("mic"));
        roundtrip(String::new());
    }

    #[test]
    fn containers_roundtrip() {
        roundtrip(Some(3u64));
        roundtrip(Option::<u64>::None);
        roundtrip(vec![1u64, 2, 3]);
        roundtrip(VecDeque::from(vec![String::from("a"), String::from("b")]));
        roundtrip(BTreeMap::from([(1u32, String::from("x"))]));
        roundtrip(BTreeSet::from([9u64, 4]));
        roundtrip([1u64, 2, 3]);
        roundtrip((1u32, String::from("pair")));
        roundtrip((1u32, 2u64, false));
    }

    #[test]
    fn sim_ids_and_time_roundtrip() {
        roundtrip(Pid::from_raw(42));
        roundtrip(Uid::ROOT);
        roundtrip(Fd::from_raw(3));
        roundtrip(Timestamp::from_millis(1_500));
        roundtrip(SimDuration::from_secs(2));
    }

    #[test]
    fn hashmap_encoding_is_key_sorted() {
        // Same contents inserted in different orders must encode the same.
        let mut a = HashMap::new();
        a.insert(3u64, 30u64);
        a.insert(1u64, 10u64);
        a.insert(2u64, 20u64);
        let mut b = HashMap::new();
        b.insert(2u64, 20u64);
        b.insert(1u64, 10u64);
        b.insert(3u64, 30u64);
        let (mut ea, mut eb) = (Enc::new(), Enc::new());
        a.pack(&mut ea);
        b.pack(&mut eb);
        assert_eq!(ea.bytes(), eb.bytes());
        roundtrip(a);
    }

    #[test]
    fn maps_and_sets_reject_repeated_or_descending_keys() {
        // Entries encoded as written: a count, then each key (and value).
        fn encoded(keys: &[u64], with_values: bool) -> Vec<u8> {
            let mut enc = Enc::new();
            enc.put_u64(keys.len() as u64);
            for &k in keys {
                k.pack(&mut enc);
                if with_values {
                    k.pack(&mut enc);
                }
            }
            enc.into_bytes()
        }
        fn decode<T: Pack>(bytes: &[u8]) -> Result<(), SnapshotError> {
            T::unpack(&mut Dec::new(bytes)).map(drop)
        }
        let map_err = Err(SnapshotError::BadValue("map keys not ascending"));
        let set_err = Err(SnapshotError::BadValue("set items not ascending"));
        for keys in [[4u64, 4], [5, 4]] {
            let map = encoded(&keys, true);
            assert_eq!(decode::<BTreeMap<u64, u64>>(&map), map_err, "{keys:?}");
            assert_eq!(decode::<HashMap<u64, u64>>(&map), map_err, "{keys:?}");
            let set = encoded(&keys, false);
            assert_eq!(decode::<BTreeSet<u64>>(&set), set_err, "{keys:?}");
        }
        assert_eq!(
            decode::<BTreeMap<u64, u64>>(&encoded(&[4, 5], true)),
            Ok(())
        );
        assert_eq!(decode::<HashMap<u64, u64>>(&encoded(&[4, 5], true)), Ok(()));
        assert_eq!(decode::<BTreeSet<u64>>(&encoded(&[4, 5], false)), Ok(()));
    }

    /// `len` bytes that are not all equal.
    fn byte_run(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 37 + 11) as u8).collect()
    }

    /// A deque whose ring buffer wrapped: both halves of `as_slices` are
    /// non-empty.
    fn wrapped_deque() -> VecDeque<u8> {
        let mut deque = VecDeque::from(byte_run(5));
        deque.push_front(0xfe);
        deque.push_front(0xfd);
        let (front, back) = deque.as_slices();
        assert!(!front.is_empty() && !back.is_empty(), "{deque:?}");
        deque
    }

    /// Writes `bytes` as the per-element sequence codec does: a `u64`
    /// count, then one `put_u8` per byte.
    fn put_bytes_one_by_one(enc: &mut Enc, bytes: &[u8]) {
        enc.put_u64(bytes.len() as u64);
        for &b in bytes {
            enc.put_u8(b);
        }
    }

    fn assert_layout<T: Pack + PartialEq + std::fmt::Debug>(value: T, reference: &Enc) {
        let mut enc = Enc::new();
        value.pack(&mut enc);
        assert_eq!(enc.bytes(), reference.bytes(), "{value:?}");
        roundtrip(value);
    }

    #[test]
    fn byte_sequences_keep_the_per_byte_layout() {
        for len in [0, 1, 7, 8, 9, 4_099] {
            let mut reference = Enc::new();
            put_bytes_one_by_one(&mut reference, &byte_run(len));
            assert_layout(byte_run(len), &reference);
        }

        let deque = wrapped_deque();
        let mut reference = Enc::new();
        put_bytes_one_by_one(&mut reference, &deque.iter().copied().collect::<Vec<u8>>());
        assert_layout(deque, &reference);

        // Arrays carry no count.
        assert_layout([0u8; 0], &Enc::new());
        let mut reference = Enc::new();
        for b in [9u8, 8, 7, 6, 5] {
            reference.put_u8(b);
        }
        assert_layout([9u8, 8, 7, 6, 5], &reference);

        let mut reference = Enc::new();
        reference.put_u8(1);
        put_bytes_one_by_one(&mut reference, &byte_run(9));
        assert_layout(Some(byte_run(9)), &reference);

        let nested = vec![byte_run(0), byte_run(3), byte_run(9)];
        let mut reference = Enc::new();
        reference.put_u64(3);
        for bytes in &nested {
            put_bytes_one_by_one(&mut reference, bytes);
        }
        assert_layout(nested, &reference);

        let map = BTreeMap::from([(1u32, byte_run(2)), (7, byte_run(0)), (40, byte_run(9))]);
        let mut reference = Enc::new();
        reference.put_u64(3);
        for (key, bytes) in &map {
            reference.put_u32(*key);
            put_bytes_one_by_one(&mut reference, bytes);
        }
        assert_layout(map, &reference);
    }

    #[test]
    fn truncated_input_is_an_error_not_a_panic() {
        fn assert_every_cut_fails<T: Pack>(value: T) {
            let mut enc = Enc::new();
            value.pack(&mut enc);
            let bytes = enc.into_bytes();
            let name = std::any::type_name::<T>();
            for cut in 0..bytes.len() {
                let mut dec = Dec::new(&bytes[..cut]);
                assert!(T::unpack(&mut dec).is_err(), "{name} cut at {cut}");
            }
        }
        assert_every_cut_fails(vec![1u64; 4]);
        assert_every_cut_fails(byte_run(13));
        assert_every_cut_fails(wrapped_deque());
    }

    #[test]
    fn corrupt_length_prefix_is_rejected() {
        let mut enc = Enc::new();
        enc.put_u64(u64::MAX); // absurd element count
        let bytes = enc.into_bytes();
        let mut dec = Dec::new(&bytes);
        assert_eq!(Vec::<u8>::unpack(&mut dec), Err(SnapshotError::Truncated));
    }

    #[test]
    fn bad_enum_tags_are_rejected() {
        let mut dec = Dec::new(&[7]);
        assert_eq!(bool::unpack(&mut dec), Err(SnapshotError::BadValue("bool")));
        let mut dec = Dec::new(&[9, 0, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(
            Option::<u64>::unpack(&mut dec),
            Err(SnapshotError::BadValue("option tag"))
        );
    }

    #[test]
    fn snapshot_container_roundtrips() {
        let snap = Snapshot::new(vec![1, 2, 3], vec![4, 5]);
        let bytes = snap.to_bytes();
        assert_eq!(bytes.len(), snap.total_bytes());
        let back = Snapshot::from_bytes(&bytes).expect("parse");
        assert_eq!(back, snap);
        assert_eq!(back.version(), SNAPSHOT_VERSION);
    }

    #[test]
    fn snapshot_rejects_bad_magic_version_and_trailing() {
        let snap = Snapshot::new(vec![1], vec![]);
        let good = snap.to_bytes();

        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert_eq!(
            Snapshot::from_bytes(&bad_magic),
            Err(SnapshotError::BadMagic)
        );

        // 4 is the retired format whose state section held the machine's
        // boot configuration beside its owners' copies.
        for version in [4, 99] {
            let mut bad_version = good.clone();
            bad_version[4] = version;
            assert_eq!(
                Snapshot::from_bytes(&bad_version),
                Err(SnapshotError::UnsupportedVersion(u32::from(version)))
            );
        }

        let mut trailing = good.clone();
        trailing.push(0);
        assert_eq!(
            Snapshot::from_bytes(&trailing),
            Err(SnapshotError::TrailingBytes(1))
        );

        assert_eq!(
            Snapshot::from_bytes(&good[..good.len() - 1]),
            Err(SnapshotError::Truncated)
        );
    }

    /// [`hash64`] of `value` written in digest mode.
    fn digest_hash<T: Pack>(value: &T) -> u64 {
        let mut enc = Enc::digest();
        value.pack(&mut enc);
        hash64(enc.bytes())
    }

    #[test]
    fn hashed_writes_its_digest_only_in_digest_mode() {
        let value = (String::from("mic"), vec![1u64, 2, 3]);
        let mut full = Enc::new();
        value.pack(&mut full);
        let hashed = Hashed::new(value.clone());

        // Full mode: the encoding, byte for byte, and no digest cached.
        let mut enc = Enc::new();
        hashed.pack(&mut enc);
        assert_eq!(enc.bytes(), full.bytes());
        assert_eq!(hashed.digest.get(), None);

        // Digest mode: the 8-byte hash of that encoding, then cached.
        let mut enc = Enc::digest();
        hashed.pack(&mut enc);
        assert_eq!(enc.bytes(), hash64(full.bytes()).to_le_bytes());
        assert_eq!(hashed.digest.get(), Some(hash64(full.bytes())));
        roundtrip_hashed(&hashed);
    }

    /// A decoded component re-encodes to its bytes and starts cold.
    fn roundtrip_hashed<T: Pack + PartialEq + std::fmt::Debug>(hashed: &Hashed<T>) {
        let mut enc = Enc::new();
        hashed.pack(&mut enc);
        let back = Hashed::<T>::unpack(&mut Dec::new(enc.bytes())).expect("unpack");
        assert_eq!(*back, **hashed);
        assert_eq!(back.digest.get(), None);
    }

    #[test]
    fn a_mutable_borrow_drops_the_digest() {
        let mut hashed = Hashed::new(vec![7u64]);
        let before = digest_hash(&hashed);
        assert_eq!(hashed.len(), 1, "shared borrows keep the digest");
        assert!(hashed.digest.get().is_some());
        hashed.push(8);
        assert_eq!(hashed.digest.get(), None);
        let after = digest_hash(&hashed);
        assert_ne!(after, before);
        assert_eq!(after, digest_hash(&Hashed::new(vec![7u64, 8])));
    }

    #[test]
    fn digest_mode_reuses_one_scratch_buffer_across_fields() {
        // Two cold components and a plain field between them: each digest
        // is its own encoding's hash, whatever the scratch held before.
        let a = Hashed::new(vec![String::from("long enough to grow the buffer"); 4]);
        let b = Hashed::new(3u32);
        let mut enc = Enc::digest();
        a.pack(&mut enc);
        9u8.pack(&mut enc);
        b.pack(&mut enc);
        let mut expected = Enc::new();
        hash64(&{
            let mut e = Enc::new();
            a.value.pack(&mut e);
            e.into_bytes()
        })
        .pack(&mut expected);
        9u8.pack(&mut expected);
        hash64(&3u32.to_le_bytes()).pack(&mut expected);
        assert_eq!(enc.bytes(), expected.bytes());
        assert!(enc.is_digest() && !Enc::new().is_digest());
    }

    #[test]
    fn hash64_matches_pinned_vectors() {
        // Inputs 0..n as bytes, for lengths around the word boundaries and
        // the 44 bytes of a sealed verdict. The values come from an
        // independent arbitrary-precision implementation of the same
        // definition.
        let pinned: [(u8, u64); 7] = [
            (0, 0xbe8c_ab64_4efd_da51),
            (1, 0x5675_2ffa_865a_6efb),
            (7, 0xc064_46f3_de66_b9d5),
            (8, 0xe200_e66f_1602_6bc2),
            (9, 0x11dc_0843_0f35_8a04),
            (16, 0x5009_4683_10b4_0458),
            (44, 0x8cdb_303f_709b_e604),
        ];
        for (len, expected) in pinned {
            let input: Vec<u8> = (0..len).collect();
            assert_eq!(hash64(&input), expected, "{len}-byte input");
        }
        assert_eq!(crate::ledger::GENESIS_HEAD, hash64(&[]));
        // Zero padding never aliases: the length seeds the state.
        let zeros: BTreeSet<u64> = (0..=16).map(|len| hash64(&vec![0; len])).collect();
        assert_eq!(zeros.len(), 17, "zero-filled inputs of lengths 0..=16");
    }

    #[test]
    fn intern_deduplicates_and_preserves_content() {
        let a = intern("kernel.decide.test-intern");
        let b = intern("kernel.decide.test-intern");
        assert_eq!(a, "kernel.decide.test-intern");
        assert!(std::ptr::eq(a, b), "same leaked allocation");
    }

    #[test]
    fn impl_pack_macro_derives_fieldwise_codec() {
        #[derive(Debug, PartialEq)]
        struct Probe {
            a: u64,
            b: String,
            c: Option<bool>,
        }
        impl_pack!(Probe { a, b, c });

        #[derive(Debug, PartialEq)]
        struct Wrapped(u32);
        impl_pack_newtype!(Wrapped, u32);

        roundtrip(Probe {
            a: 7,
            b: "x".into(),
            c: Some(true),
        });
        roundtrip(Wrapped(9));
    }

    // -----------------------------------------------------------------
    // Adversarial bytes: restore is a parser of untrusted input. Whatever
    // the corruption — bit flips, truncation, lying section lengths — the
    // decode path must return an error (or a benign value), never panic.
    // -----------------------------------------------------------------

    /// A value exercising every codec shape: nested collections, strings,
    /// tagged options, floats, chars, maps with structured values.
    type Nested = (
        (Vec<String>, BTreeMap<u32, Vec<u64>>),
        (Option<(bool, char, f64)>, VecDeque<i64>),
    );

    fn nested_fixture() -> Nested {
        (
            (
                vec!["mic".into(), "cam δ=2000".into(), String::new()],
                BTreeMap::from([(1, vec![9u64, 8, 7]), (200, vec![]), (3, vec![u64::MAX])]),
            ),
            (
                Some((true, 'δ', 0.25)),
                VecDeque::from(vec![-4i64, 0, i64::MAX]),
            ),
        )
    }

    fn nested_snapshot_bytes() -> Vec<u8> {
        let mut enc = Enc::new();
        nested_fixture().pack(&mut enc);
        Snapshot::new(enc.into_bytes(), vec![0xAA, 0xBB]).to_bytes()
    }

    /// Full decode pipeline on arbitrary bytes; returns instead of
    /// panicking, or the calling test fails.
    fn decode_all(bytes: &[u8]) -> Result<Nested, SnapshotError> {
        let snap = Snapshot::from_bytes(bytes)?;
        let mut dec = Dec::new(snap.state());
        let value = Nested::unpack(&mut dec)?;
        dec.finish()?;
        Ok(value)
    }

    #[test]
    fn every_single_bit_flip_decodes_without_panic() {
        // Exhaustive over the whole container encoding: each flipped bit
        // either still parses (flips inside string payloads or hash-free
        // aux bytes are benign) or errors cleanly.
        let good = nested_snapshot_bytes();
        assert!(decode_all(&good).is_ok());
        for byte in 0..good.len() {
            for bit in 0..8 {
                let mut evil = good.clone();
                evil[byte] ^= 1 << bit;
                let outcome = std::panic::catch_unwind(|| decode_all(&evil).is_ok());
                assert!(
                    outcome.is_ok(),
                    "decode panicked with bit {bit} of byte {byte} flipped"
                );
            }
        }
    }

    #[test]
    fn every_truncation_point_is_an_error_not_a_panic() {
        let good = nested_snapshot_bytes();
        for cut in 0..good.len() {
            let outcome = std::panic::catch_unwind(|| decode_all(&good[..cut]));
            match outcome {
                Ok(result) => assert!(result.is_err(), "truncation at {cut} accepted"),
                Err(_) => panic!("decode panicked on truncation at {cut}"),
            }
        }
    }

    #[test]
    fn random_multi_bit_corruption_never_panics() {
        // Seeded fuzz sweep: 1–16 simultaneous bit flips per round. Rounds
        // are deterministic (SimRng), so any failure is a stable repro.
        let good = nested_snapshot_bytes();
        for round in 0..2_000u64 {
            let mut rng = crate::rng::SimRng::stream(0x5eed, round);
            let mut evil = good.clone();
            let flips = rng.range(1, 17);
            for _ in 0..flips {
                let byte = rng.range(0, evil.len() as u64) as usize;
                let bit = rng.range(0, 8) as u32;
                evil[byte] ^= 1 << bit;
            }
            let outcome = std::panic::catch_unwind(|| decode_all(&evil).is_ok());
            assert!(outcome.is_ok(), "decode panicked in fuzz round {round}");
        }
    }

    #[test]
    fn section_length_lies_are_rejected() {
        let good = nested_snapshot_bytes();
        let state_len_at = SNAPSHOT_MAGIC.len() + 4;

        // State section claims more bytes than the buffer holds.
        let mut evil = good.clone();
        evil[state_len_at..state_len_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(Snapshot::from_bytes(&evil), Err(SnapshotError::Truncated));

        // State section claims slightly more than it has: the aux length
        // field is then read out of stolen bytes — framing must still fail,
        // not panic.
        let mut evil = good.clone();
        let real_len = u64::from_le_bytes(evil[state_len_at..state_len_at + 8].try_into().unwrap());
        evil[state_len_at..state_len_at + 8].copy_from_slice(&(real_len + 3).to_le_bytes());
        assert!(Snapshot::from_bytes(&evil).is_err());

        // State section claims zero bytes: everything shifts, trailing
        // bytes remain. Must be a clean error.
        let mut evil = good.clone();
        evil[state_len_at..state_len_at + 8].copy_from_slice(&0u64.to_le_bytes());
        assert!(Snapshot::from_bytes(&evil).is_err());

        // A length lie *inside* the state section: first field is the
        // Vec<String> count. Inflate it.
        let snap = Snapshot::from_bytes(&good).unwrap();
        let mut state = snap.state().to_vec();
        state[..8].copy_from_slice(&(1u64 << 40).to_le_bytes());
        let mut dec = Dec::new(&state);
        assert_eq!(Nested::unpack(&mut dec), Err(SnapshotError::Truncated));
    }

    #[test]
    fn corrupt_state_flips_the_canonical_hash() {
        // Corruption that *does* parse must still be caught one layer up:
        // the digest-mode hash of the state it decodes to moves, although
        // the decoded component starts with no cached digest.
        let good = nested_snapshot_bytes();
        let snap = Snapshot::from_bytes(&good).unwrap();
        let decode = |state: &[u8]| Hashed::<Nested>::unpack(&mut Dec::new(state)).unwrap();
        let original_hash = digest_hash(&decode(snap.state()));
        let mut state = snap.state().to_vec();
        *state.last_mut().unwrap() ^= 0x01;
        assert_ne!(digest_hash(&decode(&state)), original_hash);
    }
}
