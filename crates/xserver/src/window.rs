//! The window tree: stacking order, visibility tracking, and per-window
//! pixel contents and properties.
//!
//! Visibility matters to Overhaul's clickjacking defense: interaction
//! notifications are generated "only if the X client receiving the event
//! has a valid mapped window that has stayed visible above a predefined
//! time threshold" (§IV-A). A window counts as visible when it is mapped
//! and at most half of its area is occluded by windows stacked above it.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Range;

use overhaul_sim::{Slab, SlotId, Timestamp};

use crate::geometry::{Point, Rect};
use crate::protocol::{Atom, ClientId, XError};

/// Fraction of a window that may be covered before it stops counting as
/// visible (the clickjacking occlusion bound).
pub const OCCLUSION_LIMIT: f64 = 0.5;

/// Identifier of a window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WindowId(u64);

impl WindowId {
    /// Creates a `WindowId` from its raw value.
    pub const fn from_raw(raw: u64) -> Self {
        WindowId(raw)
    }

    /// The raw value.
    pub const fn as_raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for WindowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "win:{}", self.0)
    }
}

/// One window.
#[derive(Debug, Clone)]
pub struct Window {
    id: WindowId,
    owner: ClientId,
    rect: Rect,
    mapped: bool,
    visible_since: Option<Timestamp>,
    /// The drawn contents; `None` until the first `PutImage` or
    /// `CopyArea` into the window, which until then shows its fill.
    pixels: Option<Vec<u8>>,
    properties: BTreeMap<Atom, Vec<u8>>,
}

impl Window {
    /// Window id.
    pub fn id(&self) -> WindowId {
        self.id
    }

    /// Owning client.
    pub fn owner(&self) -> ClientId {
        self.owner
    }

    /// Geometry.
    pub fn rect(&self) -> Rect {
        self.rect
    }

    /// Whether the window is mapped.
    pub fn mapped(&self) -> bool {
        self.mapped
    }

    /// Since when the window has been continuously visible, if it is.
    pub fn visible_since(&self) -> Option<Timestamp> {
        self.visible_since
    }

    /// Pixel contents (row-major, 1 byte per pixel): the drawn bytes, or
    /// the window's fill repeated over its area if it was never drawn.
    pub fn pixels(&self) -> Cow<'_, [u8]> {
        match &self.pixels {
            Some(drawn) => Cow::Borrowed(drawn),
            None => Cow::Owned(vec![self.fill(); self.rect.area() as usize]),
        }
    }

    /// Writes columns `cols` of row `row` (window coordinates) into `dst`,
    /// which is `cols.len()` long, without building the whole window.
    pub(crate) fn copy_row(&self, row: usize, cols: Range<usize>, dst: &mut [u8]) {
        match &self.pixels {
            Some(drawn) => {
                let start = row * self.rect.width as usize;
                dst.copy_from_slice(&drawn[start + cols.start..start + cols.end]);
            }
            None => dst.fill(self.fill()),
        }
    }

    /// What an undrawn window shows: a per-window pixel value, stand-in
    /// for application rendering.
    fn fill(&self) -> u8 {
        (self.id.as_raw() % 251) as u8
    }

    /// A property's value.
    pub fn property(&self, atom: &Atom) -> Option<&[u8]> {
        self.properties.get(atom).map(Vec::as_slice)
    }
}

/// ```
/// use overhaul_sim::Timestamp;
/// use overhaul_xserver::geometry::{Point, Rect};
/// use overhaul_xserver::protocol::ClientId;
/// use overhaul_xserver::window::WindowTree;
///
/// let mut tree = WindowTree::new();
/// let window = tree.create(ClientId::from_raw(1), Rect::new(0, 0, 100, 100));
/// tree.map(window, Timestamp::from_millis(10)).unwrap();
/// assert_eq!(tree.topmost_at(Point::new(50, 50)), Some(window));
/// assert!(tree.is_visible(window));
/// ```
/// The window tree (flat stacking model: all top-level).
///
/// Windows live in a generation-checked [`Slab`]; window ids are issued
/// sequentially and never reused, so `by_id` — a dense vector indexed by
/// raw id — resolves an id to its arena slot with one bounds check.
/// Destroyed ids point at a `DEAD` sentinel forever, so a lookup for
/// one fails exactly like an unknown id.
#[derive(Debug, Clone, Default)]
pub struct WindowTree {
    arena: Slab<Window>,
    /// Arena slot of each issued id, indexed by `WindowId::as_raw` (index
    /// 0 is unused: ids start at 1). [`DEAD`] marks destroyed ids.
    by_id: Vec<SlotId>,
    /// Bottom-to-top stacking order of all windows (mapped or not; only
    /// mapped windows participate in occlusion and hit tests).
    stacking: Vec<WindowId>,
    next: u64,
}

/// Slot sentinel for destroyed (or never-issued) window ids. The slab can
/// never issue it: a slab that large would exceed address space.
const DEAD: SlotId = SlotId::new(u32::MAX, u32::MAX);

impl WindowTree {
    /// Creates an empty tree.
    pub fn new() -> Self {
        WindowTree::default()
    }

    /// The arena slot of `id`, if the window is alive.
    #[inline]
    fn slot_of(&self, id: WindowId) -> Option<SlotId> {
        let slot = *self.by_id.get(id.as_raw() as usize)?;
        (slot != DEAD).then_some(slot)
    }

    /// The live window `id`, if any.
    #[inline]
    fn window(&self, id: WindowId) -> Option<&Window> {
        self.arena.get(self.slot_of(id)?)
    }

    /// The live window `id`, mutably, if any.
    #[inline]
    fn window_mut(&mut self, id: WindowId) -> Option<&mut Window> {
        let slot = self.slot_of(id)?;
        self.arena.get_mut(slot)
    }

    /// Installs `window` into the arena and the dense id index.
    fn install(&mut self, window: Window) {
        let raw = window.id.as_raw() as usize;
        let slot = self.arena.insert(window);
        if raw >= self.by_id.len() {
            self.by_id.resize(raw + 1, DEAD);
        }
        self.by_id[raw] = slot;
    }

    /// The live windows in ascending id order (the order `BTreeMap`
    /// iteration used to give).
    fn windows_by_id(&self) -> impl Iterator<Item = &Window> {
        self.by_id
            .iter()
            .filter(|slot| **slot != DEAD)
            .filter_map(|slot| self.arena.get(*slot))
    }

    /// Creates an unmapped, undrawn window for `owner`. It stores no
    /// pixels until something is drawn into it.
    pub fn create(&mut self, owner: ClientId, rect: Rect) -> WindowId {
        self.next += 1;
        let id = WindowId(self.next);
        self.install(Window {
            id,
            owner,
            rect,
            mapped: false,
            visible_since: None,
            pixels: None,
            properties: BTreeMap::new(),
        });
        self.stacking.push(id);
        id
    }

    /// Looks up a window.
    pub fn get(&self, id: WindowId) -> Result<&Window, XError> {
        self.window(id).ok_or(XError::BadWindow)
    }

    fn get_mut(&mut self, id: WindowId) -> Result<&mut Window, XError> {
        self.window_mut(id).ok_or(XError::BadWindow)
    }

    /// Maps a window (also raises it, like most window managers do) and
    /// recomputes visibility.
    pub fn map(&mut self, id: WindowId, now: Timestamp) -> Result<(), XError> {
        self.get_mut(id)?.mapped = true;
        self.raise(id, now)?;
        Ok(())
    }

    /// Unmaps a window and recomputes visibility.
    pub fn unmap(&mut self, id: WindowId, now: Timestamp) -> Result<(), XError> {
        self.get_mut(id)?.mapped = false;
        self.recompute_visibility(now);
        Ok(())
    }

    /// Raises a window to the top of the stacking order.
    pub fn raise(&mut self, id: WindowId, now: Timestamp) -> Result<(), XError> {
        if self.slot_of(id).is_none() {
            return Err(XError::BadWindow);
        }
        self.stacking.retain(|w| *w != id);
        self.stacking.push(id);
        self.recompute_visibility(now);
        Ok(())
    }

    /// Destroys a window. The freed arena slot is recycled by the next
    /// `create` (under a new generation); the id itself is dead forever.
    pub fn destroy(&mut self, id: WindowId, now: Timestamp) -> Result<(), XError> {
        let slot = self.slot_of(id).ok_or(XError::BadWindow)?;
        self.arena.remove(slot);
        self.by_id[id.as_raw() as usize] = DEAD;
        self.stacking.retain(|w| *w != id);
        self.recompute_visibility(now);
        Ok(())
    }

    /// Destroys every window owned by `client` (client disconnect),
    /// returning how many were destroyed.
    pub fn destroy_all_for(&mut self, client: ClientId, now: Timestamp) -> usize {
        let doomed: Vec<WindowId> = self
            .windows_by_id()
            .filter(|w| w.owner == client)
            .map(|w| w.id)
            .collect();
        let count = doomed.len();
        for id in &doomed {
            if let Some(slot) = self.slot_of(*id) {
                self.arena.remove(slot);
                self.by_id[id.as_raw() as usize] = DEAD;
            }
        }
        self.stacking.retain(|w| !doomed.contains(w));
        self.recompute_visibility(now);
        count
    }

    /// Replaces a window's pixel contents.
    ///
    /// # Errors
    ///
    /// [`XError::BadValue`] if `data` does not match the window area.
    pub fn put_image(&mut self, id: WindowId, data: Vec<u8>) -> Result<(), XError> {
        let window = self.get_mut(id)?;
        if data.len() != window.rect.area() as usize {
            return Err(XError::BadValue);
        }
        window.pixels = Some(data);
        Ok(())
    }

    /// Stores a property.
    pub fn set_property(&mut self, id: WindowId, atom: Atom, data: Vec<u8>) -> Result<(), XError> {
        self.get_mut(id)?.properties.insert(atom, data);
        Ok(())
    }

    /// Reads a property, optionally deleting it.
    pub fn take_property(
        &mut self,
        id: WindowId,
        atom: &Atom,
        delete: bool,
    ) -> Result<Option<Vec<u8>>, XError> {
        let window = self.get_mut(id)?;
        if delete {
            Ok(window.properties.remove(atom))
        } else {
            Ok(window.properties.get(atom).cloned())
        }
    }

    /// Removes a property.
    pub fn delete_property(&mut self, id: WindowId, atom: &Atom) -> Result<(), XError> {
        self.get_mut(id)?.properties.remove(atom);
        Ok(())
    }

    /// The topmost mapped window containing `p` (pointer hit test).
    pub fn topmost_at(&self, p: Point) -> Option<WindowId> {
        self.stacking
            .iter()
            .rev()
            .find(|id| {
                self.window(**id)
                    .map(|w| w.mapped && w.rect.contains(p))
                    .unwrap_or(false)
            })
            .copied()
    }

    /// Whether `id` is currently visible (mapped and not occluded past the
    /// limit).
    pub fn is_visible(&self, id: WindowId) -> bool {
        self.window(id)
            .map(|w| w.visible_since.is_some())
            .unwrap_or(false)
    }

    /// Whether `client` has any window that has been continuously visible
    /// since `threshold_start` or earlier — the clickjacking gate.
    pub fn client_has_stable_window(
        &self,
        client: ClientId,
        visible_since_at_most: Timestamp,
    ) -> bool {
        self.windows_by_id().any(|w| {
            w.owner == client
                && matches!(w.visible_since, Some(since) if since <= visible_since_at_most)
        })
    }

    /// Windows in bottom-to-top stacking order.
    pub fn stacking_order(&self) -> &[WindowId] {
        &self.stacking
    }

    /// Number of windows.
    pub fn len(&self) -> usize {
        self.arena.len()
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.arena.is_empty()
    }

    /// Recomputes `visible_since` for every window after a structural
    /// change at `now`. A window newly visible starts its clock at `now`;
    /// a window that stops being visible loses it.
    pub fn recompute_visibility(&mut self, now: Timestamp) {
        let order = self.stacking.clone();
        for (index, id) in order.iter().enumerate() {
            let Some(window) = self.window(*id) else {
                continue;
            };
            let visible = if !window.mapped || window.rect.area() == 0 {
                false
            } else {
                let covers: Vec<Rect> = order[index + 1..]
                    .iter()
                    .filter_map(|above| self.window(*above))
                    .filter(|w| w.mapped)
                    .map(|w| w.rect)
                    .collect();
                window.rect.coverage_by(&covers) <= OCCLUSION_LIMIT
            };
            let window = self.window_mut(*id).expect("exists");
            window.visible_since = match (visible, window.visible_since) {
                (true, Some(since)) => Some(since),
                (true, None) => Some(now),
                (false, _) => None,
            };
        }
    }
}

mod pack {
    //! Snapshot codec for the window tree: a `u64` window count, the
    //! windows in bottom-to-top stacking order, then the id counter
    //! `next`. The encoding order is the stacking order and each window
    //! carries its own id, so every id is written once; the slab, the
    //! dense id index and the stacking list are rebuilt on decode. An
    //! undrawn window's pixels pack as the `None` tag alone.

    use overhaul_sim::{impl_pack, impl_pack_newtype, Dec, Enc, Pack, SnapshotError};

    use super::{Window, WindowId, WindowTree};

    impl_pack_newtype!(WindowId, u64);
    impl_pack!(Window {
        id,
        owner,
        rect,
        mapped,
        visible_since,
        pixels,
        properties
    });

    impl Pack for WindowTree {
        fn pack(&self, enc: &mut Enc) {
            let stacked = || self.stacking.iter().filter_map(|id| self.window(*id));
            enc.put_u64(stacked().count() as u64);
            for window in stacked() {
                window.pack(enc);
            }
            enc.put_u64(self.next);
        }

        fn unpack(dec: &mut Dec<'_>) -> Result<Self, SnapshotError> {
            let windows = Vec::<Window>::unpack(dec)?;
            let next = dec.take_u64()?;
            let mut tree = WindowTree {
                next,
                ..WindowTree::default()
            };
            for window in windows {
                let id = window.id;
                // Ids are issued from 1 up to `next` and never reused.
                if id.as_raw() == 0 || id.as_raw() > next || tree.slot_of(id).is_some() {
                    return Err(SnapshotError::BadValue("window id"));
                }
                // Only geometry `CreateWindow` accepts: an undrawn window
                // stores no pixels, so nothing else bounds its area.
                if !window.rect.in_x11_range() {
                    return Err(SnapshotError::BadValue("window rect"));
                }
                // One drawn pixel per unit of area, as `put_image` keeps
                // it: root capture indexes the pixels by the rect.
                if window
                    .pixels
                    .as_ref()
                    .is_some_and(|drawn| drawn.len() as u64 != window.rect.area())
                {
                    return Err(SnapshotError::BadValue("window pixel count"));
                }
                tree.stacking.push(id);
                tree.install(window);
            }
            Ok(tree)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(ms: u64) -> Timestamp {
        Timestamp::from_millis(ms)
    }

    fn client(n: u32) -> ClientId {
        ClientId::from_raw(n)
    }

    #[test]
    fn created_window_is_unmapped_and_invisible() {
        let mut tree = WindowTree::new();
        let w = tree.create(client(1), Rect::new(0, 0, 100, 100));
        assert!(!tree.get(w).unwrap().mapped());
        assert!(!tree.is_visible(w));
    }

    #[test]
    fn map_makes_visible_and_starts_clock() {
        let mut tree = WindowTree::new();
        let w = tree.create(client(1), Rect::new(0, 0, 100, 100));
        tree.map(w, ts(40)).unwrap();
        assert_eq!(tree.get(w).unwrap().visible_since(), Some(ts(40)));
    }

    #[test]
    fn full_occlusion_clears_visibility() {
        let mut tree = WindowTree::new();
        let below = tree.create(client(1), Rect::new(0, 0, 100, 100));
        let above = tree.create(client(2), Rect::new(0, 0, 100, 100));
        tree.map(below, ts(0)).unwrap();
        tree.map(above, ts(10)).unwrap();
        assert!(
            !tree.is_visible(below),
            "fully covered window is not visible"
        );
        assert!(tree.is_visible(above));
    }

    #[test]
    fn partial_occlusion_below_limit_keeps_visibility() {
        let mut tree = WindowTree::new();
        let below = tree.create(client(1), Rect::new(0, 0, 100, 100));
        let above = tree.create(client(2), Rect::new(0, 0, 40, 100)); // 40% cover
        tree.map(below, ts(0)).unwrap();
        tree.map(above, ts(10)).unwrap();
        assert!(tree.is_visible(below));
        assert_eq!(
            tree.get(below).unwrap().visible_since(),
            Some(ts(0)),
            "visibility clock must not reset while still visible"
        );
    }

    #[test]
    fn raise_restores_visibility_with_fresh_clock() {
        let mut tree = WindowTree::new();
        let a = tree.create(client(1), Rect::new(0, 0, 100, 100));
        let b = tree.create(client(2), Rect::new(0, 0, 100, 100));
        tree.map(a, ts(0)).unwrap();
        tree.map(b, ts(10)).unwrap();
        assert!(!tree.is_visible(a));
        tree.raise(a, ts(500)).unwrap();
        assert_eq!(
            tree.get(a).unwrap().visible_since(),
            Some(ts(500)),
            "clock restarts"
        );
        assert!(!tree.is_visible(b));
    }

    #[test]
    fn topmost_at_honors_stacking_and_mapping() {
        let mut tree = WindowTree::new();
        let a = tree.create(client(1), Rect::new(0, 0, 100, 100));
        let b = tree.create(client(2), Rect::new(50, 50, 100, 100));
        tree.map(a, ts(0)).unwrap();
        tree.map(b, ts(0)).unwrap();
        assert_eq!(tree.topmost_at(Point::new(60, 60)), Some(b));
        assert_eq!(tree.topmost_at(Point::new(10, 10)), Some(a));
        assert_eq!(tree.topmost_at(Point::new(400, 400)), None);
        tree.unmap(b, ts(1)).unwrap();
        assert_eq!(tree.topmost_at(Point::new(60, 60)), Some(a));
    }

    #[test]
    fn client_stable_window_gate() {
        let mut tree = WindowTree::new();
        let w = tree.create(client(1), Rect::new(0, 0, 10, 10));
        tree.map(w, ts(1000)).unwrap();
        // Needs visible_since <= 500: mapped at 1000, so not stable yet.
        assert!(!tree.client_has_stable_window(client(1), ts(500)));
        assert!(tree.client_has_stable_window(client(1), ts(1000)));
        assert!(tree.client_has_stable_window(client(1), ts(2000)));
    }

    #[test]
    fn put_image_validates_size() {
        let mut tree = WindowTree::new();
        let w = tree.create(client(1), Rect::new(0, 0, 2, 2));
        assert_eq!(tree.put_image(w, vec![1, 2, 3]), Err(XError::BadValue));
        tree.put_image(w, vec![1, 2, 3, 4]).unwrap();
        assert_eq!(*tree.get(w).unwrap().pixels(), [1, 2, 3, 4]);
    }

    #[test]
    fn an_undrawn_window_stores_nothing_and_shows_its_fill() {
        let mut tree = WindowTree::new();
        let w = tree.create(client(1), Rect::new(0, 0, 3, 2));
        let mut row = [0; 2];
        let window = tree.get(w).unwrap();
        assert_eq!(window.pixels, None);
        assert!(matches!(window.pixels(), Cow::Owned(p) if p == [1; 6]));
        window.copy_row(1, 1..3, &mut row);
        assert_eq!(row, [1, 1]);

        tree.put_image(w, vec![0, 1, 2, 3, 4, 5]).unwrap();
        let window = tree.get(w).unwrap();
        assert!(matches!(window.pixels(), Cow::Borrowed(p) if p == [0, 1, 2, 3, 4, 5]));
        window.copy_row(1, 1..3, &mut row);
        assert_eq!(row, [4, 5]);
    }

    #[test]
    fn properties_round_trip_and_delete() {
        let mut tree = WindowTree::new();
        let w = tree.create(client(1), Rect::new(0, 0, 1, 1));
        tree.set_property(w, Atom::new("X"), b"v".to_vec()).unwrap();
        assert_eq!(
            tree.take_property(w, &Atom::new("X"), false).unwrap(),
            Some(b"v".to_vec())
        );
        assert_eq!(
            tree.take_property(w, &Atom::new("X"), true).unwrap(),
            Some(b"v".to_vec())
        );
        assert_eq!(tree.take_property(w, &Atom::new("X"), false).unwrap(), None);
    }

    #[test]
    fn destroy_all_for_client() {
        let mut tree = WindowTree::new();
        tree.create(client(1), Rect::new(0, 0, 1, 1));
        tree.create(client(1), Rect::new(0, 0, 1, 1));
        tree.create(client(2), Rect::new(0, 0, 1, 1));
        assert_eq!(tree.destroy_all_for(client(1), ts(0)), 2);
        assert_eq!(tree.len(), 1);
    }

    #[test]
    fn unmapping_occluder_restores_visibility_with_new_clock() {
        let mut tree = WindowTree::new();
        let below = tree.create(client(1), Rect::new(0, 0, 100, 100));
        let above = tree.create(client(2), Rect::new(0, 0, 100, 100));
        tree.map(below, ts(0)).unwrap();
        tree.map(above, ts(10)).unwrap();
        tree.unmap(above, ts(300)).unwrap();
        assert_eq!(tree.get(below).unwrap().visible_since(), Some(ts(300)));
    }

    #[test]
    fn unknown_window_is_bad_window() {
        let mut tree = WindowTree::new();
        assert_eq!(
            tree.map(WindowId::from_raw(99), ts(0)),
            Err(XError::BadWindow)
        );
    }

    #[test]
    fn destroyed_id_stays_dead_after_slot_reuse() {
        let mut tree = WindowTree::new();
        let a = tree.create(client(1), Rect::new(0, 0, 10, 10));
        tree.destroy(a, ts(0)).unwrap();
        // The next create recycles a's arena slot under a new generation...
        let b = tree.create(client(1), Rect::new(0, 0, 10, 10));
        assert_ne!(a, b, "window ids are never reused");
        // ...and the dead id must not resolve to the recycled slot.
        assert_eq!(tree.get(a).err(), Some(XError::BadWindow));
        assert!(tree.get(b).is_ok());
        assert_eq!(tree.len(), 1);
    }

    #[test]
    fn decode_rejects_duplicate_zero_and_unissued_window_ids() {
        use overhaul_sim::{Dec, Enc, Pack, SnapshotError};

        let mut tree = WindowTree::new();
        let a = tree.create(client(1), Rect::new(0, 0, 4, 4));
        let b = tree.create(client(2), Rect::new(1, 1, 4, 4));
        tree.map(b, ts(3)).unwrap();
        tree.raise(a, ts(5)).unwrap();
        let gone = tree.create(client(3), Rect::new(2, 2, 4, 4));
        tree.destroy(gone, ts(7)).unwrap();
        let encode = |windows: &[Window]| {
            let mut enc = Enc::new();
            windows.to_vec().pack(&mut enc);
            enc.put_u64(tree.next);
            enc.into_bytes()
        };
        let wa = tree.get(a).unwrap().clone();
        let wb = tree.get(b).unwrap().clone();

        // The tree encodes bottom to top, and decoding restores that order;
        // a destroyed id stays dead and re-encoding is a fixed point.
        let mut enc = Enc::new();
        tree.pack(&mut enc);
        assert_eq!(enc.bytes(), encode(&[wb.clone(), wa.clone()]));
        let restored = WindowTree::unpack(&mut Dec::new(enc.bytes())).expect("decode");
        assert_eq!(restored.stacking_order(), &[b, a]);
        assert_eq!(restored.get(gone).err(), Some(XError::BadWindow));
        let mut again = Enc::new();
        restored.pack(&mut again);
        assert_eq!(again.bytes(), enc.bytes());

        for windows in [
            vec![wb.clone(), wa.clone(), wa.clone()],
            vec![Window {
                id: WindowId(0),
                ..wa.clone()
            }],
            vec![Window {
                id: WindowId(tree.next + 1),
                ..wa.clone()
            }],
        ] {
            assert_eq!(
                WindowTree::unpack(&mut Dec::new(&encode(&windows))).err(),
                Some(SnapshotError::BadValue("window id"))
            );
        }
    }
}
