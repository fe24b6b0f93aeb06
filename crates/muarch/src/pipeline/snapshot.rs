//! Snapshot, restore, compare: the three walks over the whole machine.
//!
//! [`Sim::restore_impl`] destructures its source and [`Sim::converged_with`]
//! destructures `self` *exhaustively* — no `..` — and every part does the
//! same for its own struct, so a field added to `Sim` or to a part does not
//! compile until it is filed in both walks, as state (restored, compared) or
//! as bookkeeping. Each walk is one line per part.

use super::{ring_order, RunScratch, Sim};
use std::sync::atomic::{AtomicU64, Ordering};

static NEXT_SNAPSHOT_ID: AtomicU64 = AtomicU64::new(1);

/// An immutable image of a [`Sim`] at one instant, taken with
/// [`Sim::snapshot`].
///
/// The unique snapshot id gates the journaled O(dirty) cache restore: a
/// scratch simulator remembers which snapshot it was last synchronised with
/// and only trusts its dirty-line journal against that same snapshot.
#[derive(Debug, Clone)]
pub struct Snapshot {
    sim: Sim,
    id: u64,
}

impl Snapshot {
    /// The cycle the snapshot was captured at (start-of-cycle state).
    pub fn cycle(&self) -> u64 {
        self.sim.cycle
    }

    /// Read access to the captured machine state.
    pub fn sim(&self) -> &Sim {
        &self.sim
    }

    /// Builds a scratch simulator synchronised with this snapshot, eligible
    /// for the fast journaled restore on subsequent
    /// [`Sim::restore_from`] calls.
    pub fn spawn(&self) -> Sim {
        let mut s = self.sim.clone();
        s.hier.rebase(self.id);
        s
    }
}

impl Sim {
    /// Captures an immutable image of the full machine state.
    ///
    /// The capture itself is a `Clone` (memory pages are copy-on-write
    /// shared, so it is far cheaper than a deep copy); the payoff is
    /// [`Sim::restore_from`], which rewinds a scratch simulator to the
    /// snapshot in O(dirty state) without allocating.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            sim: self.clone(),
            id: NEXT_SNAPSHOT_ID.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// Rewinds this simulator to `snap`'s state in place, reusing every
    /// existing allocation.
    ///
    /// Memory re-attaches to the snapshot's pages (CoW: only pages this
    /// simulator dirtied are re-pointed). Caches use their dirty-line
    /// journal when this simulator was last synchronised with the *same*
    /// snapshot (the common campaign case: one worker hammering one
    /// checkpoint), and fall back to a full — but still allocation-free —
    /// copy when switching checkpoints. A restored simulator behaves
    /// bit-identically to a fresh `snap.spawn()`.
    pub fn restore_from(&mut self, snap: &Snapshot) {
        self.restore_impl(&snap.sim, Some(snap.id));
    }

    /// Rewinds this simulator to the state of another *live* simulator —
    /// the shared-prefix fork primitive: a campaign batch advances one
    /// fault-free carrier, then forks each injected run off it at its
    /// injection cycle.
    ///
    /// There is no snapshot id to certify the dirty-line and dirty-page
    /// journals against, so caches and memory take the full (still
    /// allocation-free) restore path; subsequent [`Sim::restore_from`]
    /// calls also fall back to full copies until re-based on a snapshot.
    pub fn restore_from_sim(&mut self, src: &Sim) {
        self.restore_impl(src, None);
    }

    /// Both restores; `id` is the snapshot `src` belongs to, if any.
    fn restore_impl(&mut self, src: &Sim, id: Option<u64>) {
        #[rustfmt::skip] // one line per class, no `..`: see the module header
        let Sim {
            // Bookkeeping, not restored: the configuration is the same one
            // (asserted below); the stamps are re-issued from this arena's
            // generation.
            cfg: _, rob_stamp: _,
            // Scalars and latches, by assignment.
            cycle, seq_next, front, sched, output_addr, output_len,
            faults_next, first_inject_cycle, commit_index, first_deviation, stats,
            // Parts, each by its own restore.
            rf, rob, rob_finish, lq, sq, hier, pred, scratch,
        } = src;
        debug_assert_eq!(
            self.rob.capacity(),
            rob.capacity(),
            "restore across different configurations"
        );
        (self.cycle, self.seq_next, self.commit_index) = (*cycle, *seq_next, *commit_index);
        (self.front, self.sched) = (*front, *sched);
        (self.output_addr, self.output_len) = (*output_addr, *output_len);
        self.faults_next = *faults_next;
        (self.first_inject_cycle, self.first_deviation) = (*first_inject_cycle, *first_deviation);
        self.stats = *stats;
        // One bump-reset for every growable per-run buffer; the generation
        // bump invalidates any ROB index that survives the rewind.
        self.scratch.rewind_to(scratch);
        self.rf.restore_from(rf);
        self.rob.restore_from(rob);
        rob.copy_live(&mut self.rob_finish, rob_finish);
        for i in rob.live() {
            self.rob_stamp[i] = self.scratch.gen;
        }
        self.lq.restore_from(lq);
        self.sq.restore_from(sq);
        self.hier.restore_from(hier, id);
        self.pred.restore_from(pred);
    }

    /// Whether every bit that can influence this machine's future equals
    /// the snapshot's. The model is deterministic, so a machine for which
    /// this holds goes on, cycle for cycle, exactly as the snapshot's does:
    /// same commits at the same cycles, same outcome, same final cycle
    /// count, same output bytes.
    ///
    /// Compared is the *live* state, by one principle: storage whose own
    /// valid/ready bit says "unoccupied" is dead — never read, and wholly
    /// overwritten before it becomes occupied. Each application is one
    /// predicate on the part that owns the storage, carrying its argument,
    /// skipped by the part's own comparison and answered by
    /// [`Sim::dead_on_arrival`]:
    /// [`RegFile::is_dead`](crate::regfile::RegFile::is_dead),
    /// [`Cache::data_is_dead`](crate::cache::Cache::data_is_dead),
    /// [`Cache::dead_tag_bits`](crate::cache::Cache::dead_tag_bits),
    /// [`Tlb::dead_bits`](crate::tlb::Tlb::dead_bits) and
    /// [`Ring::is_dead`](crate::ring::Ring::is_dead). Everything else is
    /// compared whole — the rings' entries over the live region their bounds
    /// define, as the restore copies them, and `rob_finish` over the
    /// `executing` slots (`start_executing` writes a slot's finish cycle as
    /// it sets the bit; until then the entry holds whatever the slot's last
    /// tenant left).
    ///
    /// A fault still armed is a future the snapshot does not have, so
    /// either side holding one answers `false`. What a run *was* is not
    /// compared: a [`RunControl`](crate::run::RunControl) that ends a run by
    /// its history (the ERT window reads the injection cycle,
    /// `stop_at_first_deviation` the recorded deviation) is the caller's to
    /// exclude.
    pub fn converged_with(&self, snap: &Snapshot) -> bool {
        #[rustfmt::skip] // one line per class, no `..`: see the module header
        let Sim {
            // Bookkeeping — the past, or this simulator's own accounting:
            // counters and the deviation go into the report, the stamps
            // guard the restore paths, and the fault cursor is spent once
            // every armed fault is applied (checked below).
            stats: _, first_deviation: _, first_inject_cycle: _, rob_stamp: _, faults_next: _,
            // Scalars and latches, by `==`.
            cfg, cycle, seq_next, front, sched, output_addr, output_len, commit_index,
            // Parts, each by its own comparison.
            rf, rob, rob_finish, lq, sq, hier, pred, scratch,
        } = self;
        #[rustfmt::skip] // the rewind count; the past, handed to the report; see `armed`
        let RunScratch { gen: _, trace: _, pending_faults: _, decode_q } = scratch;
        let o = &snap.sim;
        let armed = |s: &Sim| s.faults_next < s.scratch.pending_faults.len();
        // Cheapest and likeliest to differ first: a run that has not
        // converged is usually out of step in a scalar.
        !armed(self)
            && !armed(o)
            && (cycle, seq_next, commit_index) == (&o.cycle, &o.seq_next, &o.commit_index)
            && (front, sched) == (&o.front, &o.sched)
            && (output_addr, output_len, cfg) == (&o.output_addr, &o.output_len, &o.cfg)
            && rob.converged_with(&o.rob)
            && ring_order(sched.executing, rob.head()).all(|i| rob_finish[i] == o.rob_finish[i])
            && lq.converged_with(&o.lq)
            && sq.converged_with(&o.sq)
            && *decode_q == o.scratch.decode_q
            && rf.converged_with(&o.rf)
            && *pred == o.pred
            && hier.converged_with(&o.hier)
    }
}
