//! The one ring behind the ROB, the load queue and the store queue.
//!
//! These structures follow a *check-at-use* fault model: the pipeline keeps
//! authoritative shadow state (the real entries, [`Ring`]'s slots), writes a
//! packed image of each entry into the injectable array, and re-derives +
//! compares the image when the entry is consumed at commit. A mismatch
//! aborts the simulation with an integrity violation — the analogue of
//! gem5's dependence-graph check failures that make ROB/LQ/SQ faults
//! manifest 100 % as the paper's `PRE` class (§III.B). Faults in entries
//! that are free, squashed, or already committed are naturally benign.
//!
//! Slot validity is the ring bounds `[head, head + len)` (wrapping), not an
//! `Option` per slot: a dead slot holds whatever its last tenant left and is
//! never read.

use core::ops::{Index, IndexMut};

/// What a ring holds: a shadow entry that knows the packed image the
/// injectable array must hold for it.
pub trait Entry: Copy + PartialEq + Default {
    /// Packed bits per entry image.
    const IMAGE_BITS: u32;

    /// The image commit expects to find for this entry — derived here and
    /// nowhere else, so the side that writes it and the side that checks it
    /// cannot drift. `None` while there is nothing to check yet (a load or
    /// store that has not resolved its address).
    fn image(&self) -> Option<u128>;
}

/// Next index in a ring of `len` slots. A compare, not `%`: ring lengths are
/// run-time values, so a modulo here is a hardware divide on paths that run
/// several times per simulated cycle.
#[inline]
fn wrap_inc(i: usize, len: usize) -> usize {
    if i + 1 == len {
        0
    } else {
        i + 1
    }
}

/// Previous index in a ring of `len` slots.
#[inline]
fn wrap_dec(i: usize, len: usize) -> usize {
    if i == 0 {
        len - 1
    } else {
        i - 1
    }
}

/// A ring's live slots, oldest first ([`Ring::live`]). A named iterator
/// rather than a closure over a range: a load blocked on an older store
/// walks the store queue with it every cycle, and this form is the one that
/// compiles to the hand-written loop.
#[derive(Debug, Clone)]
pub struct Live {
    next: usize,
    left: usize,
    len: usize,
}

impl Iterator for Live {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let slot = self.next;
        self.next = wrap_inc(slot, self.len);
        Some(slot)
    }
}

/// A fixed-capacity age-ordered ring of shadow entries with their
/// fault-injectable packed images.
#[derive(Debug, Clone)]
pub struct Ring<T> {
    slots: Vec<T>,
    image: Vec<u128>,
    head: usize,
    tail: usize,
    count: usize,
}

impl<T: Entry> Ring<T> {
    /// An empty ring of `n` slots, images zeroed.
    pub fn new(n: u32) -> Self {
        const { assert!(T::IMAGE_BITS <= u128::BITS) };
        Ring {
            slots: vec![T::default(); n as usize],
            image: vec![0; n as usize],
            head: 0,
            tail: 0,
            count: 0,
        }
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether no entry is live.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Whether every slot is live.
    pub fn is_full(&self) -> bool {
        self.count == self.slots.len()
    }

    /// Slot of the oldest entry (of the next one to enter, when empty).
    #[inline]
    pub fn head(&self) -> usize {
        self.head
    }

    /// Slot of the youngest entry.
    #[inline]
    pub fn youngest(&self) -> Option<usize> {
        (self.count > 0).then(|| wrap_dec(self.tail, self.slots.len()))
    }

    /// Stores `entry` in slot `i` together with the image it derives, if it
    /// has one yet — from the value, before it goes to memory, so the slot
    /// is not read back.
    #[inline]
    pub fn set(&mut self, i: usize, entry: T) {
        if let Some(image) = entry.image() {
            debug_assert!(T::IMAGE_BITS == u128::BITS || image >> T::IMAGE_BITS == 0);
            self.image[i] = image;
        }
        self.slots[i] = entry;
    }

    /// Appends `entry` as the youngest and returns its slot.
    #[inline]
    pub fn push(&mut self, entry: T) -> usize {
        debug_assert!(!self.is_full(), "push into a full ring");
        let slot = self.tail;
        self.set(slot, entry);
        self.tail = wrap_inc(slot, self.slots.len());
        self.count += 1;
        slot
    }

    /// Retires the oldest entry and returns the slot it held.
    #[inline]
    pub fn pop_head(&mut self) -> usize {
        debug_assert!(self.count > 0, "pop from an empty ring");
        let slot = self.head;
        self.head = wrap_inc(slot, self.slots.len());
        self.count -= 1;
        slot
    }

    /// Squashes the youngest entry and returns the slot it held.
    #[inline]
    pub fn pop_tail(&mut self) -> usize {
        debug_assert!(self.count > 0, "pop from an empty ring");
        self.tail = wrap_dec(self.tail, self.slots.len());
        self.count -= 1;
        self.tail
    }

    /// Whether slot `i` holds a live entry: lies in `[head, head + len)`,
    /// wrapping.
    pub fn contains(&self, i: usize) -> bool {
        let age = if i >= self.head {
            i - self.head
        } else {
            i + self.slots.len() - self.head
        };
        age < self.count
    }

    /// The live slots, oldest first.
    #[inline]
    pub fn live(&self) -> Live {
        Live {
            next: self.head,
            left: self.count,
            len: self.slots.len(),
        }
    }

    /// The commit-side integrity check: slot `i`'s stored image is the one
    /// its entry derives (or the entry has nothing to check).
    #[inline]
    pub fn image_matches(&self, i: usize) -> bool {
        self.slots[i].image().is_none_or(|v| self.image[i] == v)
    }

    /// Flips bit `bit` of slot `cell`'s image.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is out of range.
    pub fn flip(&mut self, cell: usize, bit: u32) {
        debug_assert!(bit < T::IMAGE_BITS);
        self.image[cell] ^= 1 << bit;
    }

    /// Dead storage: the image of a slot outside the live ring, or whose
    /// entry has no image to check. Only `commit` reads an image, at the
    /// head and through [`Ring::image_matches`]; every path that gives a
    /// live entry an image (`dispatch` for the ROB, `issue_load` /
    /// `issue_store` as they resolve the address) stores the entry through
    /// [`Ring::set`], which rewrites the whole image slot with it.
    pub fn is_dead(&self, cell: usize, _bit: u32) -> bool {
        !(self.contains(cell) && self.slots[cell].image().is_some())
    }

    /// Copies this ring's live region `[head, head + len)` (wrapping) of a
    /// slot-indexed array from `src` into `dst`, leaving dead slots
    /// untouched — the cost scales with occupancy, not capacity.
    pub fn copy_live<U: Copy>(&self, dst: &mut [U], src: &[U]) {
        debug_assert_eq!(dst.len(), src.len());
        let first = self.count.min(src.len() - self.head);
        let rest = self.count - first;
        dst[self.head..self.head + first].copy_from_slice(&src[self.head..self.head + first]);
        dst[..rest].copy_from_slice(&src[..rest]);
    }

    /// Overwrites this ring with `src`'s state without reallocating: the
    /// bounds, the live entries only — dead slots are never read, so restore
    /// cost scales with occupancy — and the whole image, since faults may
    /// land in architecturally free slots.
    pub fn restore_from(&mut self, src: &Ring<T>) {
        #[rustfmt::skip]
        let Ring { slots, image, head, tail, count } = src;
        (self.head, self.tail, self.count) = (*head, *tail, *count);
        src.copy_live(&mut self.slots, slots);
        self.image.copy_from_slice(image);
    }

    /// A ring's share of
    /// [`Sim::converged_with`](crate::pipeline::Sim::converged_with): the
    /// bounds and the live entries exactly — so [`Ring::is_dead`] names the
    /// same slots in both machines — and the images where live.
    pub fn converged_with(&self, snap: &Ring<T>) -> bool {
        #[rustfmt::skip]
        let Ring { slots, image, head, tail, count } = self;
        // The live region, as `copy_live` walks it: up to the end of the
        // array, then the wrapped rest.
        let first = self.count.min(slots.len() - head);
        (head, tail, count, slots.len()) == (&snap.head, &snap.tail, &snap.count, snap.slots.len())
            && slots[*head..head + first] == snap.slots[*head..head + first]
            && slots[..count - first] == snap.slots[..count - first]
            && (image.iter().zip(&snap.image).enumerate())
                .all(|(i, (a, b))| a == b || self.is_dead(i, 0))
    }
}

impl<T> Index<usize> for Ring<T> {
    type Output = T;

    #[inline]
    fn index(&self, i: usize) -> &T {
        &self.slots[i]
    }
}

impl<T> IndexMut<usize> for Ring<T> {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut T {
        &mut self.slots[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avgi_rng::Rng;
    use std::collections::VecDeque;

    /// A queue-like entry: `checked` plays an LQ/SQ shadow's `resolved`.
    #[derive(Debug, Clone, Copy, PartialEq, Default)]
    struct E {
        id: u32,
        checked: bool,
    }

    impl Entry for E {
        const IMAGE_BITS: u32 = 33;

        fn image(&self) -> Option<u128> {
            (self.checked).then(|| u128::from(self.id) | 1 << 32)
        }
    }

    #[test]
    fn ring_arithmetic_wraps_without_modulo() {
        for len in [1usize, 2, 8, 64] {
            for i in 0..len {
                assert_eq!(wrap_inc(i, len), (i + 1) % len);
                assert_eq!(wrap_dec(i, len), (i + len - 1) % len);
            }
        }
    }

    /// What a ring must behave as: the live `(slot, entry)` pairs oldest
    /// first, and the image array.
    #[derive(Debug, Clone)]
    struct Model {
        cap: usize,
        head: usize,
        live: VecDeque<(usize, E)>,
        image: Vec<u128>,
    }

    impl Model {
        fn entry(&self, slot: usize) -> Option<E> {
            (self.live.iter().find(|(s, _)| *s == slot)).map(|(_, e)| *e)
        }

        fn is_dead(&self, slot: usize) -> bool {
            !self.entry(slot).is_some_and(|e| e.checked)
        }

        fn wraps(&self) -> bool {
            self.head + self.live.len() > self.cap
        }

        fn converged_with(&self, o: &Model) -> bool {
            (self.head, &self.live) == (o.head, &o.live)
                && (0..self.cap).all(|i| self.image[i] == o.image[i] || self.is_dead(i))
        }

        fn check(&self, ring: &Ring<E>, step: usize) {
            let ctx = format!("cap {} step {step}", self.cap);
            assert_eq!(ring.capacity(), self.cap, "{ctx}");
            assert_eq!(ring.len(), self.live.len(), "{ctx}");
            assert_eq!(ring.is_empty(), self.live.is_empty(), "{ctx}");
            assert_eq!(ring.is_full(), self.live.len() == self.cap, "{ctx}");
            assert_eq!(ring.head(), self.head, "{ctx}");
            assert_eq!(ring.youngest(), self.live.back().map(|(s, _)| *s), "{ctx}");
            let slots: Vec<usize> = self.live.iter().map(|(s, _)| *s).collect();
            assert_eq!(ring.live().collect::<Vec<_>>(), slots, "{ctx}");
            for i in 0..self.cap {
                let entry = self.entry(i);
                assert_eq!(ring.contains(i), entry.is_some(), "{ctx} slot {i}");
                assert_eq!(ring.is_dead(i, 0), self.is_dead(i), "{ctx} slot {i}");
                if let Some(e) = entry {
                    assert_eq!(ring[i], e, "{ctx} slot {i}");
                    let intact = e.image().is_none_or(|v| v == self.image[i]);
                    assert_eq!(ring.image_matches(i), intact, "{ctx} slot {i}");
                }
            }
        }
    }

    #[test]
    fn a_random_walk_matches_the_deque_model() {
        for (cap, seed) in [(1usize, 11u64), (2, 12), (63, 13), (64, 14)] {
            let mut rng = Rng::seed_from_u64(seed);
            let mut ring = Ring::<E>::new(cap as u32);
            let mut model = Model {
                cap,
                head: 0,
                live: VecDeque::new(),
                image: vec![0; cap],
            };
            let mut saved: Vec<(Ring<E>, Model)> = vec![(ring.clone(), model.clone())];
            let mut next_id = 0;
            let (mut fulls, mut empties, mut wraps, mut unwrapping_restores) = (0, 0, 0, 0);
            // Long stretches of mostly-pushing and mostly-popping, so the
            // ring runs full and runs dry at every capacity.
            for step in 0..12_000 {
                let filling = (step / 600) % 2 == 0;
                // A restore every 250th step: rarely enough for the level to
                // travel between them.
                let restore = step % 250 == 249;
                match if restore { 8 } else { rng.gen_range_usize(8) } {
                    0..=3 => {
                        let push = rng.gen_bool(if filling { 0.8 } else { 0.2 });
                        if push && !ring.is_full() {
                            next_id += 1;
                            let e = E {
                                id: next_id,
                                checked: rng.gen_bool(0.5),
                            };
                            let slot = ring.push(e);
                            assert_eq!(slot, (model.head + model.live.len()) % cap);
                            model.live.push_back((slot, e));
                            if e.checked {
                                model.image[slot] = e.image().unwrap();
                            }
                        } else if !push && !ring.is_empty() {
                            if rng.gen_bool(0.7) {
                                assert_eq!(
                                    Some(ring.pop_head()),
                                    model.live.pop_front().map(|l| l.0)
                                );
                                model.head = (model.head + 1) % cap;
                            } else {
                                assert_eq!(
                                    Some(ring.pop_tail()),
                                    model.live.pop_back().map(|l| l.0)
                                );
                            }
                        }
                    }
                    // Resolve: an unchecked live entry gets its image.
                    4 => {
                        if let Some(l) = model.live.iter_mut().find(|l| !l.1.checked) {
                            l.1.checked = true;
                            ring.set(l.0, l.1);
                            model.image[l.0] = l.1.image().unwrap();
                        }
                    }
                    5..=6 => {
                        let (cell, bit) = (rng.gen_range_usize(cap), rng.gen_range_u64(33) as u32);
                        ring.flip(cell, bit);
                        model.image[cell] ^= 1 << bit;
                    }
                    7 if rng.gen_bool(0.2) => {
                        saved.truncate(11);
                        saved.insert(0, (ring.clone(), model.clone()));
                    }
                    8 => {
                        let (src, src_model) = rng.choose(&saved);
                        unwrapping_restores += usize::from(src_model.wraps() && !model.wraps());
                        let side_src: Vec<usize> = (0..cap).map(|i| i + 1_000).collect();
                        let mut side = vec![0; cap];
                        src.copy_live(&mut side, &side_src);
                        for (i, &got) in side.iter().enumerate() {
                            assert_eq!(got, usize::from(src.contains(i)) * (i + 1_000));
                        }
                        ring.restore_from(src);
                        model = src_model.clone();
                        assert!(ring.converged_with(src), "cap {cap} step {step}");
                    }
                    _ => {
                        let (other, other_model) = rng.choose(&saved);
                        assert_eq!(
                            ring.converged_with(other),
                            model.converged_with(other_model),
                            "cap {cap} step {step}"
                        );
                    }
                }
                model.check(&ring, step);
                fulls += usize::from(ring.is_full());
                empties += usize::from(ring.is_empty());
                wraps += usize::from(model.wraps());
            }
            assert!(
                fulls > 0 && empties > 0,
                "cap {cap}: {fulls} full, {empties} empty"
            );
            if cap > 1 {
                assert!(wraps > 0, "cap {cap}: the live region never wrapped");
                assert!(
                    unwrapping_restores > 0,
                    "cap {cap}: no wrapped → unwrapped restore"
                );
            }
        }
    }

    /// A ring of 8 whose live region wraps: head 6, live slots 6 7 0 1 2
    /// (checked: 6, 0, 1), slots 3 4 5 retired or never used.
    fn mid_ring() -> Ring<E> {
        let mut r = Ring::<E>::new(8);
        for id in 1..=11 {
            let checked = ![8, 11].contains(&id);
            r.push(E { id, checked });
            if id <= 6 {
                r.pop_head();
            }
        }
        assert_eq!(r.live().collect::<Vec<_>>(), [6, 7, 0, 1, 2]);
        r
    }

    /// The ring's rows of `tests/whitebox/converged_with.rs`'s table: one
    /// bound at a time, which only this module can reach.
    #[test]
    fn each_bound_and_each_live_cell_is_compared_and_nothing_else() {
        let snap = mid_ring();
        let perturbed = |f: &dyn Fn(&mut Ring<E>)| {
            let mut r = snap.clone();
            f(&mut r);
            r.converged_with(&snap)
        };
        assert!(perturbed(&|_| ()));
        assert!(!perturbed(&|r| r.head = 7), "head");
        assert!(!perturbed(&|r| r.tail = 4), "tail");
        assert!(!perturbed(&|r| r.count = 4), "count");
        assert!(!perturbed(&|r| r.slots[6].id ^= 1), "live entry");
        assert!(!perturbed(&|r| r.slots[1].id ^= 1), "live entry, wrapped");
        assert!(!perturbed(&|r| r.slots[7].checked = true), "check bit");
        assert!(!perturbed(&|r| r.image[6] ^= 1), "image, live checked");
        assert!(!perturbed(&|r| r.image[0] ^= 1 << 32), "image, wrapped");
        assert!(perturbed(&|r| r.slots[5].id ^= 1), "retired entry");
        assert!(perturbed(&|r| r.slots[3].id ^= 1), "free entry");
        assert!(perturbed(&|r| r.image[5] ^= 1), "image, retired slot");
        assert!(perturbed(&|r| r.image[3] ^= 1), "image, free slot");
        assert!(perturbed(&|r| r.image[7] ^= 1), "image, live unchecked");
        assert!(perturbed(&|r| r.image[2] ^= 1), "image, wrapped unchecked");
    }

    #[test]
    fn any_single_bit_flip_of_a_checked_image_is_detected() {
        let base = mid_ring();
        for bit in 0..E::IMAGE_BITS {
            let mut r = base.clone();
            r.flip(0, bit);
            assert!(!r.image_matches(0), "flip of bit {bit} went undetected");
            r.flip(7, bit);
            assert!(r.image_matches(7), "an unchecked entry checks no image");
        }
    }
}
