//! The sensitive-device path map and the trusted udev helper (§IV-B,
//! *Device mediation*).
//!
//! Overhaul's `open` hook needs to know *which filesystem paths are
//! sensitive devices*, but "modern Linux distributions often make use of
//! dynamic device name assignments at runtime using frameworks such as
//! udev". The prototype therefore relies on "a trusted helper application,
//! owned by the superuser ... invoked in response to changes in the device
//! filesystem, (which) propagates these changes to the kernel via an
//! authenticated netlink channel."
//!
//! [`DeviceMap`] is the kernel-side map the helper maintains. Crucially,
//! mediation keys off this map — if the helper lags behind a rename, the
//! device is temporarily unmediated, which is the real design's failure
//! mode and is covered by tests.
//!
//! Paths are interned: each distinct path string is stored once in an
//! append-only [`Interner`] and the live mapping is a dense
//! `Vec<Option<DeviceId>>` indexed by [`Sym`]. Mediation-time lookups cost
//! one string hash plus an array index, and re-announced paths (the
//! helper replays events) never re-allocate. The snapshot encoding is
//! unchanged from the `BTreeMap<String, DeviceId>` layout it replaces, so
//! state hashes and ledger heads are unaffected.

use std::collections::{BTreeMap, BTreeSet};

use overhaul_sim::{Interner, Sym};

use crate::device::DeviceId;

/// Kernel-side map from device-node paths to sensitive devices.
#[derive(Debug, Clone, Default)]
pub struct DeviceMap {
    /// Every path ever announced, interned once. Symbols are never freed:
    /// device maps are tiny and the helper replays a bounded set of paths.
    paths: Interner,
    /// Live mapping, indexed by `Sym`. `None` marks a path that is known
    /// to the interner but not currently mapped.
    by_sym: Vec<Option<DeviceId>>,
    /// Number of `Some` entries in `by_sym`.
    mapped: usize,
    /// Devices whose old path was revoked while the helper's update about
    /// the new path is still in flight. A quarantined device is unreachable
    /// even at unmapped paths (fail closed) until a fresh mapping arrives.
    quarantined: BTreeSet<DeviceId>,
    /// Bumped on every mutation; folded into the kernel's global policy
    /// epoch so the verdict cache invalidates on map/quarantine changes.
    generation: u64,
}

impl DeviceMap {
    /// Creates an empty map.
    pub fn new() -> Self {
        DeviceMap::default()
    }

    /// The dense mapping cell for `path`, interning it if new.
    fn cell_mut(&mut self, path: &str) -> &mut Option<DeviceId> {
        let sym = self.paths.intern(path);
        let index = sym.as_raw() as usize;
        if index >= self.by_sym.len() {
            self.by_sym.resize(index + 1, None);
        }
        &mut self.by_sym[index]
    }

    /// The dense mapping cell for `path`, if the path was ever announced.
    fn cell(&self, path: &str) -> Option<&Option<DeviceId>> {
        let sym = self.paths.lookup(path)?;
        self.by_sym.get(sym.as_raw() as usize)
    }

    /// Registers `path` as the node of `device`, lifting any quarantine:
    /// a fresh helper-provided mapping is the all-clear.
    pub fn insert(&mut self, path: impl Into<String>, device: DeviceId) {
        self.quarantined.remove(&device);
        let cell = self.cell_mut(&path.into());
        if cell.replace(device).is_none() {
            self.mapped += 1;
        }
        self.generation += 1;
    }

    /// Removes a path mapping, returning the device it pointed to.
    pub fn remove(&mut self, path: &str) -> Option<DeviceId> {
        let sym = self.paths.lookup(path)?;
        let removed = self.by_sym.get_mut(sym.as_raw() as usize)?.take();
        if removed.is_some() {
            self.mapped -= 1;
            self.generation += 1;
        }
        removed
    }

    /// Revokes a path mapping and quarantines its device: the node moved
    /// and the helper's update for the new location has not arrived yet, so
    /// the device must stay unreachable in the meantime.
    pub fn revoke(&mut self, path: &str) -> Option<DeviceId> {
        let sym = self.paths.lookup(path)?;
        let device = self.by_sym.get_mut(sym.as_raw() as usize)?.take()?;
        self.mapped -= 1;
        self.quarantined.insert(device);
        self.generation += 1;
        Some(device)
    }

    /// Whether `device` is quarantined pending a helper update.
    pub fn is_quarantined(&self, device: DeviceId) -> bool {
        self.quarantined.contains(&device)
    }

    /// Applies a rename reported by the trusted helper. A rename of an
    /// unknown path is ignored (the helper may replay events). A completed
    /// rename lifts any quarantine on the device.
    pub fn rename(&mut self, old_path: &str, new_path: impl Into<String>) {
        let Some(sym) = self.paths.lookup(old_path) else {
            return;
        };
        let Some(device) = self
            .by_sym
            .get_mut(sym.as_raw() as usize)
            .and_then(Option::take)
        else {
            return;
        };
        self.quarantined.remove(&device);
        *self.cell_mut(&new_path.into()) = Some(device);
        self.generation += 1;
    }

    /// Monotone counter of map mutations (the device map's contribution to
    /// the global policy epoch).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The sensitive device at `path`, if the map knows one.
    #[inline]
    pub fn lookup(&self, path: &str) -> Option<DeviceId> {
        *self.cell(path)?
    }

    /// The symbol for `path`, if the path was ever announced to the map.
    /// Symbols are stable for the life of the map, so callers on hot paths
    /// can resolve a path to an integer once and compare integers after.
    pub fn sym_of(&self, path: &str) -> Option<Sym> {
        self.paths.lookup(path)
    }

    /// The sensitive device mapped at `sym`, if any. Array-indexed: the
    /// no-string-hash fast path for callers holding a [`Sym`].
    #[inline]
    pub fn lookup_sym(&self, sym: Sym) -> Option<DeviceId> {
        *self.by_sym.get(sym.as_raw() as usize)?
    }

    /// Whether `path` is currently mapped as sensitive.
    pub fn is_sensitive(&self, path: &str) -> bool {
        self.lookup(path).is_some()
    }

    /// The current path of `device`, if mapped.
    pub fn path_of(&self, device: DeviceId) -> Option<&str> {
        self.by_sym
            .iter()
            .position(|d| *d == Some(device))
            .map(|i| self.paths.resolve(Sym::from_raw(i as u32)))
    }

    /// The mapped `(path, device)` pairs in path order. Paths intern in
    /// announcement order, so this sorts the (tiny) live set on demand.
    fn sorted_pairs(&self) -> Vec<(&str, DeviceId)> {
        let mut pairs: Vec<(&str, DeviceId)> = self
            .by_sym
            .iter()
            .enumerate()
            .filter_map(|(i, dev)| dev.map(|d| (self.paths.resolve(Sym::from_raw(i as u32)), d)))
            .collect();
        pairs.sort_unstable_by_key(|(path, _)| *path);
        pairs
    }

    /// Iterates the mapped `(path, device)` pairs in path order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, DeviceId)> + '_ {
        self.sorted_pairs().into_iter()
    }

    /// Iterates the quarantined devices in id order.
    pub fn quarantined_iter(&self) -> impl Iterator<Item = DeviceId> + '_ {
        self.quarantined.iter().copied()
    }

    /// Number of mapped paths.
    pub fn len(&self) -> usize {
        self.mapped
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.mapped == 0
    }
}

impl DeviceMap {
    /// Rebuilds the interner + dense table from the external sorted-map
    /// shape (the snapshot decode path).
    fn from_sorted(
        by_path: BTreeMap<String, DeviceId>,
        quarantined: BTreeSet<DeviceId>,
        generation: u64,
    ) -> Self {
        let mut map = DeviceMap {
            quarantined,
            ..DeviceMap::default()
        };
        for (path, device) in by_path {
            *map.cell_mut(&path) = Some(device);
            map.mapped += 1;
        }
        map.generation = generation;
        map
    }
}

mod pack {
    //! Snapshot codec for the device map (including quarantine state and
    //! the policy-epoch generation counter). Encodes the sorted-pair
    //! `BTreeMap` layout the pre-interning map used, byte for byte, so
    //! `state_hash` and every committed snapshot stay valid; the interner
    //! and dense table are rebuilt on decode.

    use std::collections::{BTreeMap, BTreeSet};

    use overhaul_sim::{Dec, Enc, Pack, SnapshotError};

    use super::DeviceMap;
    use crate::device::DeviceId;

    impl Pack for DeviceMap {
        fn pack(&self, enc: &mut Enc) {
            enc.put_u64(self.mapped as u64);
            for (path, device) in self.iter() {
                enc.put_u64(path.len() as u64);
                enc.put_slice(path.as_bytes());
                device.pack(enc);
            }
            self.quarantined.pack(enc);
            enc.put_u64(self.generation);
        }

        fn unpack(dec: &mut Dec<'_>) -> Result<Self, SnapshotError> {
            let by_path = BTreeMap::<String, DeviceId>::unpack(dec)?;
            let quarantined = BTreeSet::<DeviceId>::unpack(dec)?;
            let generation = dec.take_u64()?;
            Ok(DeviceMap::from_sorted(by_path, quarantined, generation))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use overhaul_sim::{Enc, Pack};

    #[test]
    fn insert_and_lookup() {
        let mut map = DeviceMap::new();
        map.insert("/dev/video0", DeviceId::from_raw(1));
        assert_eq!(map.lookup("/dev/video0"), Some(DeviceId::from_raw(1)));
        assert!(map.is_sensitive("/dev/video0"));
        assert!(!map.is_sensitive("/dev/null"));
    }

    #[test]
    fn rename_moves_mapping() {
        let mut map = DeviceMap::new();
        map.insert("/dev/video0", DeviceId::from_raw(1));
        map.rename("/dev/video0", "/dev/video1");
        assert_eq!(map.lookup("/dev/video0"), None);
        assert_eq!(map.lookup("/dev/video1"), Some(DeviceId::from_raw(1)));
    }

    #[test]
    fn rename_of_unknown_path_is_ignored() {
        let mut map = DeviceMap::new();
        map.rename("/dev/ghost", "/dev/real");
        assert!(map.is_empty());
    }

    #[test]
    fn remove_returns_device() {
        let mut map = DeviceMap::new();
        map.insert("/dev/snd", DeviceId::from_raw(2));
        assert_eq!(map.remove("/dev/snd"), Some(DeviceId::from_raw(2)));
        assert_eq!(map.remove("/dev/snd"), None);
    }

    #[test]
    fn revoke_quarantines_until_reinserted() {
        let mut map = DeviceMap::new();
        let dev = DeviceId::from_raw(4);
        map.insert("/dev/video0", dev);
        assert_eq!(map.revoke("/dev/video0"), Some(dev));
        assert!(map.is_quarantined(dev));
        assert_eq!(map.lookup("/dev/video0"), None);

        map.insert("/dev/video1", dev);
        assert!(!map.is_quarantined(dev), "fresh mapping lifts quarantine");
        assert_eq!(map.lookup("/dev/video1"), Some(dev));
    }

    #[test]
    fn revoke_of_unknown_path_quarantines_nothing() {
        let mut map = DeviceMap::new();
        assert_eq!(map.revoke("/dev/ghost"), None);
        assert!(!map.is_quarantined(DeviceId::from_raw(1)));
    }

    #[test]
    fn rename_lifts_quarantine() {
        let mut map = DeviceMap::new();
        let dev = DeviceId::from_raw(5);
        map.insert("/dev/a", dev);
        map.revoke("/dev/a");
        map.insert("/dev/a", dev); // helper re-announces the old path
        map.rename("/dev/a", "/dev/b");
        assert!(!map.is_quarantined(dev));
        assert_eq!(map.lookup("/dev/b"), Some(dev));
    }

    #[test]
    fn generation_bumps_on_every_mutation_only() {
        let mut map = DeviceMap::new();
        let dev = DeviceId::from_raw(7);
        assert_eq!(map.generation(), 0);
        map.insert("/dev/a", dev);
        assert_eq!(map.generation(), 1);
        map.revoke("/dev/a");
        assert_eq!(map.generation(), 2);
        // Revoking an unknown path changes nothing.
        map.revoke("/dev/ghost");
        assert_eq!(map.generation(), 2);
        map.insert("/dev/b", dev);
        map.rename("/dev/b", "/dev/c");
        assert_eq!(map.generation(), 4);
        map.rename("/dev/ghost", "/dev/real");
        assert_eq!(map.generation(), 4);
        assert_eq!(map.remove("/dev/c"), Some(dev));
        assert_eq!(map.generation(), 5);
        assert_eq!(map.remove("/dev/c"), None);
        assert_eq!(map.generation(), 5);
    }

    #[test]
    fn path_of_reverse_lookup() {
        let mut map = DeviceMap::new();
        map.insert("/dev/mic", DeviceId::from_raw(3));
        assert_eq!(map.path_of(DeviceId::from_raw(3)), Some("/dev/mic"));
        assert_eq!(map.path_of(DeviceId::from_raw(9)), None);
    }

    #[test]
    fn sym_lookup_is_stable_across_remap() {
        let mut map = DeviceMap::new();
        map.insert("/dev/video0", DeviceId::from_raw(1));
        let sym = map.sym_of("/dev/video0").expect("interned");
        assert_eq!(map.lookup_sym(sym), Some(DeviceId::from_raw(1)));
        map.remove("/dev/video0");
        assert_eq!(map.lookup_sym(sym), None, "sym survives, mapping gone");
        map.insert("/dev/video0", DeviceId::from_raw(2));
        assert_eq!(map.sym_of("/dev/video0"), Some(sym), "sym is stable");
        assert_eq!(map.lookup_sym(sym), Some(DeviceId::from_raw(2)));
    }

    #[test]
    fn pack_layout_matches_legacy_btreemap_encoding() {
        let mut map = DeviceMap::new();
        // Announce out of path order and churn so the dense table diverges
        // from sorted order; the encoding must still be the sorted one.
        map.insert("/dev/video9", DeviceId::from_raw(9));
        map.insert("/dev/audio", DeviceId::from_raw(2));
        map.insert("/dev/mic", DeviceId::from_raw(3));
        map.revoke("/dev/audio");
        map.rename("/dev/video9", "/dev/cam");

        let mut legacy_by_path = BTreeMap::new();
        for (path, dev) in map.iter() {
            legacy_by_path.insert(path.to_string(), dev);
        }
        let mut legacy = Enc::new();
        legacy_by_path.pack(&mut legacy);
        map.quarantined.pack(&mut legacy);
        legacy.put_u64(map.generation());

        let mut current = Enc::new();
        map.pack(&mut current);
        assert_eq!(current.bytes(), legacy.bytes());

        let mut dec = overhaul_sim::Dec::new(current.bytes());
        let restored = DeviceMap::unpack(&mut dec).expect("decode");
        dec.finish().expect("no trailing bytes");
        assert_eq!(restored.len(), map.len());
        assert_eq!(restored.generation(), map.generation());
        assert_eq!(
            restored.iter().collect::<Vec<_>>(),
            map.iter().collect::<Vec<_>>()
        );
        assert!(restored.is_quarantined(DeviceId::from_raw(2)));
    }
}
