//! Physical register file with rename map and free list.
//!
//! The *value* array is fault-injectable and authoritative: a flipped bit is
//! what a later reader receives. Rename map, ready bits, and the free list
//! are renaming control logic, outside the paper's storage fault model.
//!
//! Each register also carries the *waiter set* of the pipeline's wakeup
//! logic: the ROB slots whose instructions were dispatched while the
//! register's value was still outstanding. The write that produces the
//! value hands the set back, so the pipeline wakes exactly those slots
//! instead of polling every issue-queue entry every cycle.

use crate::config::SlotSet;

/// Physical register identifier.
pub type PhysReg = u16;

/// Physical register file + renaming state.
#[derive(Debug, Clone)]
pub struct RegFile {
    values: Vec<u32>,
    ready: Vec<bool>,
    // ROB slots waiting on each register's value. May hold stale bits: a
    // squash frees slots without unregistering them, so a consumer must
    // re-derive readiness from the slot's own operands, never from
    // membership alone.
    waiters: Vec<SlotSet>,
    rename: [PhysReg; avgi_isa::NUM_ARCH_REGS as usize],
    free: Vec<PhysReg>,
    // ACE instrumentation: writeback→last-read exposure per register.
    last_write: Vec<u64>,
    last_read: Vec<u64>,
    ace_cycles: u64,
}

impl RegFile {
    /// Creates a register file with `phys` physical registers; architectural
    /// register `i` starts mapped to physical register `i` with value 0.
    ///
    /// # Panics
    ///
    /// Panics if `phys` does not exceed the architectural register count.
    pub fn new(phys: u32) -> Self {
        let arch = avgi_isa::NUM_ARCH_REGS as u32;
        assert!(
            phys > arch,
            "need more physical than architectural registers"
        );
        let mut rename = [0; avgi_isa::NUM_ARCH_REGS as usize];
        for (i, r) in rename.iter_mut().enumerate() {
            *r = i as PhysReg;
        }
        // Free list as a stack; pop from the end. Reversed so low registers
        // are handed out first (deterministic, easier to debug).
        let free: Vec<PhysReg> = (arch as PhysReg..phys as PhysReg).rev().collect();
        RegFile {
            values: vec![0; phys as usize],
            ready: vec![true; phys as usize],
            waiters: vec![0; phys as usize],
            rename,
            free,
            last_write: vec![0; phys as usize],
            last_read: vec![0; phys as usize],
            ace_cycles: 0,
        }
    }

    /// Reads a physical register's value.
    pub fn read(&self, p: PhysReg) -> u32 {
        self.values[p as usize]
    }

    /// Reads a physical register's value, recording the read cycle for ACE
    /// instrumentation.
    pub fn read_at(&mut self, p: PhysReg, cycle: u64) -> u32 {
        let i = p as usize;
        self.last_read[i] = self.last_read[i].max(cycle);
        self.values[i]
    }

    /// Writes a physical register, marks it ready, and takes its waiter
    /// set: the ROB slots registered with [`RegFile::add_waiter`] since the
    /// register was allocated. The set may name slots that were squashed
    /// (and possibly reused) in the meantime; the caller re-checks each
    /// slot's actual operands. (ACE intervals are anchored at allocation,
    /// not at this write — see [`RegFile::alloc_at`].)
    pub fn write(&mut self, p: PhysReg, v: u32) -> SlotSet {
        let i = p as usize;
        self.values[i] = v;
        self.ready[i] = true;
        core::mem::take(&mut self.waiters[i])
    }

    /// Registers ROB slot `slot` as waiting for `p`'s value.
    pub fn add_waiter(&mut self, p: PhysReg, slot: usize) {
        debug_assert!(!self.ready[p as usize], "waiting on a produced value");
        self.waiters[p as usize] |= 1 << slot;
    }

    fn close_interval(&mut self, i: usize) {
        if self.last_read[i] > self.last_write[i] {
            self.ace_cycles += self.last_read[i] - self.last_write[i];
        }
    }

    /// Like [`RegFile::alloc`], additionally starting the register's ACE
    /// interval at `cycle`.
    ///
    /// ACE analysis counts a physical register as vulnerable from
    /// *allocation* (rename) to its value's last read — the standard
    /// conservative accounting. Fault injection shows flips landing between
    /// allocation and writeback are harmless (the writeback overwrites
    /// them); that slack is part of why ACE systematically overestimates
    /// SFI ground truth (the paper's Fig. 1).
    pub fn alloc_at(&mut self, cycle: u64) -> Option<PhysReg> {
        let p = self.alloc()?;
        let i = p as usize;
        self.close_interval(i); // the previous tenant's interval
        self.last_write[i] = cycle;
        self.last_read[i] = cycle;
        Some(p)
    }

    /// Closes all open ACE intervals and returns the total register ACE
    /// cycles of the run: per allocation, the cycles from rename to the
    /// value's last read, summed over registers.
    pub fn finalize_ace(&mut self) -> u64 {
        for i in 0..self.values.len() {
            self.close_interval(i);
            self.last_write[i] = self.last_read[i];
        }
        self.ace_cycles
    }

    /// Whether a physical register's value has been produced.
    pub fn is_ready(&self, p: PhysReg) -> bool {
        self.ready[p as usize]
    }

    /// Current physical mapping of an architectural register.
    pub fn lookup(&self, arch: u8) -> PhysReg {
        self.rename[arch as usize]
    }

    /// Allocates a free physical register (marked not-ready), or `None` when
    /// the free list is empty (dispatch must stall).
    pub fn alloc(&mut self) -> Option<PhysReg> {
        let p = self.free.pop()?;
        self.ready[p as usize] = false;
        // A register freed by a squash still lists its squashed consumers;
        // the new tenant starts with no waiters.
        self.waiters[p as usize] = 0;
        Some(p)
    }

    /// Points `arch` at `new`, returning the previous mapping.
    pub fn remap(&mut self, arch: u8, new: PhysReg) -> PhysReg {
        core::mem::replace(&mut self.rename[arch as usize], new)
    }

    /// Returns a register to the free list (commit frees the overwritten
    /// mapping; squash frees the speculative one).
    pub fn release(&mut self, p: PhysReg) {
        self.free.push(p);
    }

    /// Number of free physical registers.
    pub fn free_count(&self) -> usize {
        self.free.len()
    }

    /// Flips bit `bit` of physical register `p`'s value.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn flip(&mut self, p: usize, bit: u32) {
        self.values[p] ^= 1 << bit;
    }

    /// The slots currently registered as waiting on `p` (stale ones
    /// included), for the pipeline's wakeup tests.
    #[cfg(test)]
    pub(crate) fn waiters(&self, p: PhysReg) -> SlotSet {
        self.waiters[p as usize]
    }

    /// The last cycle `p` was read at, for the pipeline's ACE-stamp tests.
    #[cfg(test)]
    pub(crate) fn last_read(&self, p: PhysReg) -> u64 {
        self.last_read[p as usize]
    }

    /// Overwrites this register file with `src`'s state, reusing every
    /// existing allocation.
    pub fn restore_from(&mut self, src: &RegFile) {
        #[rustfmt::skip]
        let RegFile { values, ready, waiters, rename, free, last_write, last_read, ace_cycles } = src;
        debug_assert_eq!(self.values.len(), values.len());
        self.values.copy_from_slice(values);
        self.ready.copy_from_slice(ready);
        self.waiters.copy_from_slice(waiters);
        self.rename = *rename;
        self.free.clone_from(free);
        self.last_write.copy_from_slice(last_write);
        self.last_read.copy_from_slice(last_read);
        self.ace_cycles = *ace_cycles;
    }

    /// Dead storage: the value of a register that is on the free list or
    /// not ready. `alloc` (which clears `ready`) precedes the `write` that
    /// sets it, which precedes any operand read, and in-order commit frees a
    /// register only after its last reader has issued (a squash frees it
    /// together with every reader) — so such a value is never read, and
    /// `write` replaces all 32 bits before it can be.
    pub fn is_dead(&self, p: usize, _bit: u32) -> bool {
        !self.ready[p] || self.free.contains(&(p as PhysReg))
    }

    /// The register file's share of
    /// [`Sim::converged_with`](crate::pipeline::Sim::converged_with):
    /// renaming state exactly — so [`is_dead`](RegFile::is_dead)
    /// names the same registers in both machines — and values where live.
    pub fn converged_with(&self, snap: &RegFile) -> bool {
        #[rustfmt::skip]
        let RegFile {
            values, ready, waiters, rename, free,
            // ACE instrumentation: feeds `ExecStats::rf_ace_cycles` only.
            last_write: _, last_read: _, ace_cycles: _,
        } = self;
        (rename, free, ready, waiters) == (&snap.rename, &snap.free, &snap.ready, &snap.waiters)
            && (values.iter().zip(&snap.values).enumerate())
                .all(|(p, (a, b))| a == b || self.is_dead(p, 0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_identity_mapping() {
        let rf = RegFile::new(40);
        for a in 0..avgi_isa::NUM_ARCH_REGS {
            assert_eq!(rf.lookup(a), PhysReg::from(a));
        }
        assert_eq!(rf.free_count(), 40 - 24);
    }

    #[test]
    fn alloc_remap_release_cycle() {
        let mut rf = RegFile::new(26);
        let p = rf.alloc().unwrap();
        assert!(!rf.is_ready(p));
        let prev = rf.remap(3, p);
        assert_eq!(prev, 3);
        assert_eq!(rf.lookup(3), p);
        assert_eq!(rf.write(p, 99), 0, "nobody waited");
        assert!(rf.is_ready(p));
        assert_eq!(rf.read(p), 99);
        rf.release(prev);
        // Two free regs were consumed/released: allocator still works.
        assert!(rf.alloc().is_some());
        assert!(rf.alloc().is_some());
        assert!(rf.alloc().is_none(), "free list exhausted");
    }

    #[test]
    fn write_hands_back_the_waiters_once() {
        let mut rf = RegFile::new(26);
        let p = rf.alloc().unwrap();
        rf.add_waiter(p, 3);
        rf.add_waiter(p, 63);
        rf.add_waiter(p, 3);
        assert_eq!(rf.write(p, 1), (1 << 3) | (1 << 63));
        assert_eq!(rf.write(p, 2), 0, "the set is consumed by the write");
    }

    #[test]
    fn alloc_drops_waiters_left_by_a_squash() {
        let mut rf = RegFile::new(25);
        let p = rf.alloc().unwrap();
        rf.add_waiter(p, 7);
        rf.release(p); // squashed before its value was produced
        assert_eq!(rf.alloc_at(10), Some(p));
        assert_eq!(rf.write(p, 5), 0, "stale waiter survived reallocation");
    }

    #[test]
    fn restore_copies_the_waiters() {
        let mut src = RegFile::new(26);
        let p = src.alloc().unwrap();
        src.add_waiter(p, 11);
        let mut dst = RegFile::new(26);
        let q = dst.alloc().unwrap();
        dst.add_waiter(q, 40);
        dst.restore_from(&src);
        assert_eq!(dst.write(p, 0), 1 << 11);
    }

    #[test]
    fn flip_bit_corrupts_value() {
        let mut rf = RegFile::new(32);
        rf.write(5, 0b100);
        rf.flip(5, 2);
        assert_eq!(rf.read(5), 0);
        rf.flip(5, 31);
        assert_eq!(rf.read(5), 0x8000_0000);
    }
}
