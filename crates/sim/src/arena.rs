//! Dense-id arena storage and string interning for the decide hot path.
//!
//! The original decide path resolved every lookup through `BTreeMap`s keyed
//! by full identifiers (pids, window ids, device path strings). This module
//! provides the two primitives that replace them:
//!
//! * [`Slab`] — a generation-checked slot arena. Values live at dense
//!   `u32` indices; each slot carries a generation counter bumped on free,
//!   so a stale [`SlotId`] held across a reuse can never alias a different
//!   occupant. Lookup is one bounds check, one generation compare, and one
//!   array index — no tree walk, no hashing.
//! * [`Interner`] — an append-only string intern table mapping each
//!   distinct string to a stable [`Sym`]. The hot path moves only the
//!   `u32` symbol; the string is resolved once at the edges (rendering,
//!   serialization).
//!
//! Both structures are deterministic: ids and symbols are assigned in
//! insertion order, so identical event histories produce identical ids on
//! every run. Neither participates in the snapshot codec directly: owners
//! serialize their contents in a canonical order (tasks by pid, windows
//! bottom to top, device paths sorted), each key written once, and
//! rebuild the arena/intern state on decode, so slot indices and
//! generations never reach a state hash.

use std::collections::HashMap;

/// A generation-checked handle into a [`Slab`].
///
/// `index` addresses the slot; `gen` must match the slot's current
/// generation for the handle to dereference. A handle to a freed (and
/// possibly reused) slot fails the generation check and behaves exactly
/// like a missing entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SlotId {
    index: u32,
    gen: u32,
}

impl SlotId {
    /// Builds a handle from raw parts (used by tests and by owners that
    /// reconstruct arenas on snapshot decode).
    pub const fn new(index: u32, gen: u32) -> Self {
        SlotId { index, gen }
    }

    /// The dense slot index.
    pub const fn index(self) -> u32 {
        self.index
    }

    /// The generation this handle was issued under.
    pub const fn gen(self) -> u32 {
        self.gen
    }
}

#[derive(Debug, Clone)]
struct Slot<T> {
    gen: u32,
    value: Option<T>,
}

/// A slot arena with generation-checked dense `u32` ids.
///
/// Freed slots go on a free list and are reused with a bumped generation,
/// so the arena stays dense under churn while stale ids stay invalid.
#[derive(Debug, Clone)]
pub struct Slab<T> {
    slots: Vec<Slot<T>>,
    free: Vec<u32>,
    len: usize,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Slab<T> {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
            len: 0,
        }
    }

    /// Inserts `value`, returning its generation-checked id. Reuses the
    /// most recently freed slot if one exists, else appends.
    pub fn insert(&mut self, value: T) -> SlotId {
        self.len += 1;
        if let Some(index) = self.free.pop() {
            let slot = &mut self.slots[index as usize];
            debug_assert!(slot.value.is_none());
            slot.value = Some(value);
            SlotId {
                index,
                gen: slot.gen,
            }
        } else {
            let index = self.slots.len() as u32;
            self.slots.push(Slot {
                gen: 0,
                value: Some(value),
            });
            SlotId { index, gen: 0 }
        }
    }

    /// Removes the value at `id`, bumping the slot generation so `id` (and
    /// any copy of it) is dead from now on. Returns `None` if `id` was
    /// already stale.
    pub fn remove(&mut self, id: SlotId) -> Option<T> {
        let slot = self.slots.get_mut(id.index as usize)?;
        if slot.gen != id.gen {
            return None;
        }
        let value = slot.value.take()?;
        slot.gen = slot.gen.wrapping_add(1);
        self.free.push(id.index);
        self.len -= 1;
        Some(value)
    }

    /// Shared access; fails the generation check like a missing key.
    pub fn get(&self, id: SlotId) -> Option<&T> {
        let slot = self.slots.get(id.index as usize)?;
        if slot.gen != id.gen {
            return None;
        }
        slot.value.as_ref()
    }

    /// Mutable access; fails the generation check like a missing key.
    pub fn get_mut(&mut self, id: SlotId) -> Option<&mut T> {
        let slot = self.slots.get_mut(id.index as usize)?;
        if slot.gen != id.gen {
            return None;
        }
        slot.value.as_mut()
    }

    /// Whether `id` currently dereferences.
    pub fn contains(&self, id: SlotId) -> bool {
        self.get(id).is_some()
    }

    /// Number of live values.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the arena holds no live values.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of slots ever allocated (live + free). Owners size parallel
    /// per-slot side tables off this.
    pub fn slot_capacity(&self) -> usize {
        self.slots.len()
    }

    /// Iterates live `(id, value)` pairs in slot-index order. Slot order
    /// is *not* key order — owners that need key-ordered traversal keep
    /// their own index.
    pub fn iter(&self) -> impl Iterator<Item = (SlotId, &T)> {
        self.slots.iter().enumerate().filter_map(|(i, slot)| {
            slot.value.as_ref().map(|v| {
                (
                    SlotId {
                        index: i as u32,
                        gen: slot.gen,
                    },
                    v,
                )
            })
        })
    }
}

/// An interned string id. `Sym`s are assigned densely in intern order and
/// are stable for the life of the [`Interner`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sym(u32);

impl Sym {
    /// Builds a symbol from its raw index (snapshot decode).
    pub const fn from_raw(raw: u32) -> Self {
        Sym(raw)
    }

    /// The dense index of this symbol.
    pub const fn as_raw(self) -> u32 {
        self.0
    }
}

/// An append-only string intern table.
///
/// Strings intern to dense [`Sym`]s in first-seen order; symbols are never
/// freed (paths are tiny and histories bounded), which keeps every issued
/// `Sym` valid forever.
#[derive(Debug, Clone, Default)]
pub struct Interner {
    strings: Vec<String>,
    index: HashMap<String, u32>,
}

impl Interner {
    /// Creates an empty intern table.
    pub fn new() -> Self {
        Interner::default()
    }

    /// Interns `s`, returning its symbol (existing or freshly assigned).
    pub fn intern(&mut self, s: &str) -> Sym {
        if let Some(&i) = self.index.get(s) {
            return Sym(i);
        }
        let i = self.strings.len() as u32;
        self.strings.push(s.to_string());
        self.index.insert(s.to_string(), i);
        Sym(i)
    }

    /// Looks up the symbol for `s` without interning it.
    pub fn lookup(&self, s: &str) -> Option<Sym> {
        self.index.get(s).map(|&i| Sym(i))
    }

    /// Resolves a symbol back to its string.
    ///
    /// # Panics
    /// Panics if `sym` was not issued by this interner.
    pub fn resolve(&self, sym: Sym) -> &str {
        &self.strings[sym.0 as usize]
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// Whether no strings have been interned.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut slab = Slab::new();
        let a = slab.insert("a");
        let b = slab.insert("b");
        assert_eq!(slab.get(a), Some(&"a"));
        assert_eq!(slab.get(b), Some(&"b"));
        assert_eq!(slab.len(), 2);
        assert_eq!(slab.remove(a), Some("a"));
        assert_eq!(slab.get(a), None);
        assert_eq!(slab.len(), 1);
    }

    #[test]
    fn stale_id_fails_generation_check_after_reuse() {
        let mut slab = Slab::new();
        let a = slab.insert(1u32);
        slab.remove(a);
        let b = slab.insert(2u32);
        // The slot was reused...
        assert_eq!(b.index(), a.index());
        // ...but the stale handle is dead in every API.
        assert_eq!(slab.get(a), None);
        assert_eq!(slab.get_mut(a), None);
        assert!(!slab.contains(a));
        assert_eq!(slab.remove(a), None);
        // The fresh handle works.
        assert_eq!(slab.get(b), Some(&2));
    }

    #[test]
    fn double_remove_is_none_and_len_stays_consistent() {
        let mut slab = Slab::new();
        let a = slab.insert(7u8);
        assert_eq!(slab.remove(a), Some(7));
        assert_eq!(slab.remove(a), None);
        assert_eq!(slab.len(), 0);
        assert!(slab.is_empty());
    }

    #[test]
    fn churn_reuses_slots_and_capacity_stays_bounded() {
        let mut slab = Slab::new();
        for round in 0..1000u32 {
            let id = slab.insert(round);
            assert_eq!(slab.remove(id), Some(round));
        }
        assert_eq!(slab.slot_capacity(), 1, "one slot reused 1000 times");
    }

    #[test]
    fn iter_yields_live_slots_in_index_order() {
        let mut slab = Slab::new();
        let a = slab.insert("a");
        let b = slab.insert("b");
        let c = slab.insert("c");
        slab.remove(b);
        let live: Vec<_> = slab.iter().collect();
        assert_eq!(live, vec![(a, &"a"), (c, &"c")]);
    }

    #[test]
    fn interner_is_idempotent_and_dense() {
        let mut interner = Interner::new();
        let mic = interner.intern("/dev/mic0");
        let cam = interner.intern("/dev/video0");
        assert_eq!(interner.intern("/dev/mic0"), mic);
        assert_ne!(mic, cam);
        assert_eq!(mic.as_raw(), 0);
        assert_eq!(cam.as_raw(), 1);
        assert_eq!(interner.resolve(mic), "/dev/mic0");
        assert_eq!(interner.lookup("/dev/video0"), Some(cam));
        assert_eq!(interner.lookup("/dev/none"), None);
        assert_eq!(interner.len(), 2);
    }

    #[test]
    fn interner_symbols_are_insertion_ordered_hence_deterministic() {
        let mut a = Interner::new();
        let mut b = Interner::new();
        for s in ["x", "y", "x", "z"] {
            assert_eq!(a.intern(s).as_raw(), b.intern(s).as_raw());
        }
    }
}
