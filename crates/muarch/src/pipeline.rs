//! The out-of-order core: fetch → decode → rename/dispatch → issue/execute
//! → in-order commit.
//!
//! The model is cycle-driven and fully deterministic: given the same program
//! and configuration, every run produces an identical commit trace (cycle
//! numbers included), which is what makes on-the-fly golden-trace comparison
//! — and therefore the paper's `ETE` manifestation class — meaningful.

use crate::cache::{Cache, Eviction, MAX_LINE_BYTES};
use crate::config::{LsqSlot, MuarchConfig, SlotSet};
use crate::exec;
use crate::fault::{tag_entry_bits, Fault, FaultSite, Structure};
use crate::mem::{MemFault, Memory};
use crate::predictor::Predictor;
use crate::program::Program;
use crate::queues::{
    pack_lq, pack_rob, pack_sq, QueueArray, LQ_ENTRY_BITS, ROB_ENTRY_BITS, SQ_ENTRY_BITS,
};
use crate::regfile::{PhysReg, RegFile};
use crate::run::{ExecStats, RunControl, RunOutcome, RunReport, TrapKind};
use crate::tlb::{Tlb, TLB_ENTRY_BITS};
use crate::trace::{CommitRecord, Deviation, GoldenRun};
use avgi_isa::instr::{decode, Instr};
use avgi_isa::opcode::Opcode;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const NO_DEST: u8 = 0xFF;

/// ROB entry flag bits (packed into the injectable image).
const FLAG_LOAD: u8 = 0b0001;
const FLAG_STORE: u8 = 0b0010;
const FLAG_CONTROL: u8 = 0b0100;
const FLAG_WRITES: u8 = 0b1000;

/// ROB payload. An entry's lifecycle state is not stored here: it is the
/// slot's membership in the `in_iq` / `executing` slot sets on [`Sim`] (in
/// neither: done), and its finish cycle lives in the parallel `rob_finish`
/// array. Slot validity is defined by the ring bounds
/// `[rob_head, rob_head + rob_count)`, not by an `Option` wrapper.
#[derive(Debug, Clone, Copy, PartialEq)]
struct RobEntry {
    seq: u64,
    pc: u32,
    raw: u32,
    decoded: Option<Instr>,
    exception: Option<TrapKind>,
    dest_arch: u8,
    new_phys: PhysReg,
    prev_phys: PhysReg,
    src1: Option<PhysReg>,
    src2: Option<PhysReg>,
    is_load: bool,
    is_store: bool,
    is_control: bool,
    /// LQ/SQ ring slot of this instruction (loads/stores only), recorded at
    /// dispatch so resolution never has to scan the queues for a sequence
    /// number.
    lq_slot: LsqSlot,
    sq_slot: LsqSlot,
    predicted_next: u32,
    actual_next: u32,
    resolved_control: bool,
    taken: bool,
    ea: u32,
    val: u32,
}

impl RobEntry {
    const fn blank() -> Self {
        RobEntry {
            seq: 0,
            pc: 0,
            raw: 0,
            decoded: None,
            exception: None,
            dest_arch: NO_DEST,
            new_phys: 0,
            prev_phys: 0,
            src1: None,
            src2: None,
            is_load: false,
            is_store: false,
            is_control: false,
            lq_slot: 0,
            sq_slot: 0,
            predicted_next: 0,
            actual_next: 0,
            resolved_control: false,
            taken: false,
            ea: 0,
            val: 0,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct LqShadow {
    seq: u64,
    resolved: bool,
    paddr: u32,
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct SqShadow {
    seq: u64,
    resolved: bool,
    paddr: u32,
    size: u8,
    data: u32,
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct Fetched {
    pc: u32,
    raw: u32,
    decoded: Option<Instr>,
    exception: Option<TrapKind>,
    predicted_next: u32,
}

/// The growable per-run buffers, grouped into one arena-style unit with a
/// generation counter.
///
/// Rewinding a scratch simulator used to reset these with a cascade of
/// independent `clear()`/`extend()` calls scattered through `restore_from`;
/// they now reset as a single bump: [`RunScratch::rewind_to`] advances the
/// generation and refills every buffer in one place (each reset is an O(1)
/// length reset plus a copy of only the *live* content). The generation
/// stamps ROB slots at dispatch, so any index that leaks across a rewind
/// (a stale slot-set bit or decode-queue reference) trips a debug assertion
/// instead of silently reading a previous run's state.
#[derive(Debug, Clone)]
struct RunScratch {
    /// Bumped on every rewind; compared against `rob_stamp` at use sites.
    gen: u64,
    decode_q: VecDeque<Fetched>,
    trace: Vec<CommitRecord>,
    pending_faults: Vec<Fault>, // sorted by cycle, ascending
}

impl RunScratch {
    fn new(cfg: &MuarchConfig) -> Self {
        RunScratch {
            gen: 0,
            decode_q: VecDeque::with_capacity(2 * cfg.fetch_width as usize + 2),
            trace: Vec::new(),
            pending_faults: Vec::new(),
        }
    }

    /// The single bump-reset: invalidate everything from the previous run,
    /// then adopt `src`'s live content.
    fn rewind_to(&mut self, src: &RunScratch) {
        #[rustfmt::skip] // `gen` counts this arena's own rewinds
        let RunScratch { gen: _, decode_q, trace, pending_faults } = src;
        self.gen += 1;
        self.decode_q.clear();
        self.decode_q.extend(decode_q.iter().copied());
        self.trace.clear();
        self.trace.extend_from_slice(trace);
        self.pending_faults.clear();
        self.pending_faults.extend_from_slice(pending_faults);
    }
}

/// Copies the live ring region `[head, head + count)` (wrapping) from `src`
/// into `dst`, leaving dead slots untouched — restore cost scales with
/// occupancy, not capacity.
fn copy_ring<T: Copy>(dst: &mut [T], src: &[T], head: usize, count: usize) {
    debug_assert_eq!(dst.len(), src.len());
    let first = count.min(src.len() - head);
    dst[head..head + first].copy_from_slice(&src[head..head + first]);
    let rest = count - first;
    dst[..rest].copy_from_slice(&src[..rest]);
}

/// Whether the live ring regions `[head, head + count)` (wrapping) of `a` and
/// `b` are equal — [`copy_ring`]'s region, compared instead of copied.
fn ring_eq<T: PartialEq>(a: &[T], b: &[T], head: usize, count: usize) -> bool {
    let first = count.min(a.len() - head);
    a.len() == b.len()
        && a[head..head + first] == b[head..head + first]
        && a[..count - first] == b[..count - first]
}

/// Whether slot `i` of a ring of `len` lies in its live region
/// `[head, head + count)` (wrapping).
fn in_ring(i: usize, head: usize, count: usize, len: usize) -> bool {
    (if i >= head { i - head } else { i + len - head }) < count
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

/// Iterates the slots of `set` in ring (age) order starting at `head`:
/// first the slots at or above `head`, ascending, then the wrapped ones
/// below it. Holds for any ROB size up to the set width — only bits below
/// `rob_entries` are ever set, so no rotation by the ring length is needed
/// (a 32-entry ROB must not be walked as if it wrapped at 64).
///
/// The iterator owns a copy of the set: slots added or removed while it
/// runs are not seen, so callers stop iterating after a squash.
fn ring_order(set: SlotSet, head: usize) -> impl Iterator<Item = usize> {
    let below_head = set & ((1 << head) - 1);
    let mut parts = [set & !below_head, below_head];
    core::iter::from_fn(move || {
        if parts[0] == 0 {
            parts = [parts[1], 0];
            if parts[0] == 0 {
                return None;
            }
        }
        let slot = parts[0].trailing_zeros() as usize;
        parts[0] &= parts[0] - 1;
        Some(slot)
    })
}

/// The simulator: one core, one program, one run.
///
/// Construct with [`Sim::new`], optionally arm faults with
/// [`Sim::inject`], then call [`Sim::run`].
///
/// `Sim` is `Clone`: snapshotting a simulator mid-run is how campaigns
/// implement checkpointing (skipping the fault-free pre-injection period,
/// §IV.B of the paper) — see [`Sim::run_to_cycle`].
#[derive(Debug, Clone)]
pub struct Sim {
    cfg: MuarchConfig,
    cycle: u64,
    seq_next: u64,

    // Front end.
    fetch_pc: u32,
    fetch_ready_cycle: u64,
    fetch_paused: bool,

    // Rename + backend. Ring bounds define validity (no `Option`
    // wrappers); `rob_stamp` carries the run-scratch generation for
    // stale-index detection.
    //
    // The back end is event-driven: one bit per ROB slot in three sets
    // replaces per-cycle polls of every entry. `in_iq` holds the slots
    // occupying an issue-queue entry; `ready` ⊆ `in_iq` those whose
    // operands have all been produced (set at dispatch, or by the
    // writeback that produces the last one — see `RegFile::write`);
    // `executing` the issued slots waiting for `rob_finish`. A live slot in
    // neither `in_iq` nor `executing` is done. Each stage visits only its
    // own set, oldest first (`ring_order`).
    rf: RegFile,
    rob: Vec<RobEntry>,
    in_iq: SlotSet,
    ready: SlotSet,
    executing: SlotSet,
    rob_finish: Vec<u64>,
    rob_stamp: Vec<u64>,
    rob_head: usize,
    rob_tail: usize,
    rob_count: usize,
    rob_img: QueueArray,
    lq: Vec<LqShadow>,
    lq_head: usize,
    lq_tail: usize,
    lq_count: usize,
    lq_img: QueueArray,
    sq: Vec<SqShadow>,
    sq_head: usize,
    sq_tail: usize,
    sq_count: usize,
    sq_img: QueueArray,

    // Memory system.
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    itlb: Tlb,
    dtlb: Tlb,
    mem: Memory,
    pred: Predictor,

    // Program/output.
    output_addr: u32,
    output_len: u32,

    // Fault injection.
    faults_next: usize, // cursor into `scratch.pending_faults` (applied prefix)
    first_inject_cycle: Option<u64>,

    // Snapshot id this scratch simulator was last synchronised with (gates
    // the journaled O(dirty) cache and memory restores in
    // [`Sim::restore_from`]).
    scratch_base: Option<u64>,

    // Tracing.
    commit_index: u64,
    first_deviation: Option<Deviation>,

    stats: ExecStats,

    // Per-run growable buffers (decode queue, issue queue, trace, armed
    // faults), reset as one unit — see [`RunScratch`].
    scratch: RunScratch,
}

impl Sim {
    /// Builds a simulator for `program` under `cfg`.
    pub fn new(program: &Program, cfg: MuarchConfig) -> Self {
        cfg.validate();
        let mem = program.build_memory();
        Sim {
            cycle: 0,
            seq_next: 0,
            fetch_pc: program.entry,
            fetch_ready_cycle: 0,
            fetch_paused: false,
            rf: RegFile::new(cfg.phys_regs),
            rob: vec![RobEntry::blank(); cfg.rob_entries as usize],
            in_iq: 0,
            ready: 0,
            executing: 0,
            rob_finish: vec![0; cfg.rob_entries as usize],
            rob_stamp: vec![0; cfg.rob_entries as usize],
            rob_head: 0,
            rob_tail: 0,
            rob_count: 0,
            rob_img: QueueArray::new(cfg.rob_entries, ROB_ENTRY_BITS),
            lq: vec![
                LqShadow {
                    seq: 0,
                    resolved: false,
                    paddr: 0
                };
                cfg.lq_entries as usize
            ],
            lq_head: 0,
            lq_tail: 0,
            lq_count: 0,
            lq_img: QueueArray::new(cfg.lq_entries, LQ_ENTRY_BITS),
            sq: vec![
                SqShadow {
                    seq: 0,
                    resolved: false,
                    paddr: 0,
                    size: 0,
                    data: 0
                };
                cfg.sq_entries as usize
            ],
            sq_head: 0,
            sq_tail: 0,
            sq_count: 0,
            sq_img: QueueArray::new(cfg.sq_entries, SQ_ENTRY_BITS),
            l1i: Cache::new(cfg.l1i),
            l1d: Cache::new(cfg.l1d),
            l2: Cache::new(cfg.l2),
            itlb: Tlb::new(cfg.itlb_entries),
            dtlb: Tlb::new(cfg.dtlb_entries),
            mem,
            pred: Predictor::new(cfg.predictor_entries, cfg.btb_entries),
            output_addr: program.output_addr,
            output_len: program.output_len,
            faults_next: 0,
            first_inject_cycle: None,
            scratch_base: None,
            commit_index: 0,
            first_deviation: None,
            stats: ExecStats::default(),
            scratch: RunScratch::new(&cfg),
            cfg,
        }
    }

    /// Arms a fault for injection during [`Sim::run`].
    pub fn inject(&mut self, fault: Fault) {
        debug_assert!(
            fault.site.bit < fault.site.structure.bit_count(&self.cfg),
            "fault bit out of range for {}",
            fault.site.structure
        );
        self.first_inject_cycle = Some(
            self.first_inject_cycle
                .map_or(fault.cycle, |c| c.min(fault.cycle)),
        );
        // Binary-search insertion keeps `pending_faults` sorted without
        // re-sorting the whole vector per call. The insertion point never
        // lands before the already-applied prefix: if it would, every
        // unapplied fault is later than this one and inserting at the cursor
        // preserves order.
        let pos = self
            .scratch
            .pending_faults
            .partition_point(|f| f.cycle <= fault.cycle)
            .max(self.faults_next);
        self.scratch.pending_faults.insert(pos, fault);
    }

    /// Runs to completion under `ctl` and reports.
    pub fn run(&mut self, ctl: &RunControl) -> RunReport {
        let outcome = self
            .advance(u64::MAX, ctl, ctl.deadline())
            .expect("an unbounded advance ends only with an outcome");
        self.report(outcome, ctl)
    }

    /// Steps under `ctl` to the *beginning* of cycle `target` (no stage of
    /// `target` has executed yet); `Some(outcome)` if the run ended first.
    /// `deadline` is the run's wall-clock watchdog ([`RunControl::deadline`],
    /// taken once however many calls advance the run), polled every
    /// `WALL_CHECK_CYCLES` cycles so a pathological faulty run cannot stall
    /// a campaign even when the cycle watchdog is generous.
    pub fn advance(
        &mut self,
        target: u64,
        ctl: &RunControl,
        deadline: Option<std::time::Instant>,
    ) -> Option<RunOutcome> {
        while self.cycle < target {
            if let Some(out) = self.step(ctl) {
                return Some(out);
            }
            if self.cycle & (crate::run::WALL_CHECK_CYCLES - 1) == 0
                && deadline.is_some_and(|d| std::time::Instant::now() >= d)
            {
                return Some(RunOutcome::WallClockExpired);
            }
        }
        None
    }

    /// Closes a run that ended with `outcome` — however it was advanced
    /// there — and builds its report.
    pub fn report(&mut self, outcome: RunOutcome, ctl: &RunControl) -> RunReport {
        self.stats.rf_ace_cycles = self.rf.finalize_ace();
        let output = if outcome == RunOutcome::Completed {
            self.flush_caches();
            Some(self.mem.read_range(self.output_addr, self.output_len))
        } else {
            None
        };
        RunReport {
            outcome,
            cycles: self.cycle,
            first_deviation: self.first_deviation,
            output,
            trace: ctl
                .record_trace
                .then(|| core::mem::take(&mut self.scratch.trace)),
            inject_cycle: self.first_inject_cycle,
            stats: self.stats,
        }
    }

    /// Executes exactly one cycle of the pipeline. Returns `Some(outcome)`
    /// when the run ends this cycle.
    fn step(&mut self, ctl: &RunControl) -> Option<RunOutcome> {
        self.apply_due_faults();
        if let Some(out) = self.writeback() {
            return Some(out);
        }
        if let Some(out) = self.commit(ctl) {
            return Some(out);
        }
        if ctl.stop_at_first_deviation && self.first_deviation.is_some() {
            return Some(RunOutcome::StoppedAtDeviation);
        }
        self.issue();
        self.dispatch();
        self.fetch();
        self.cycle += 1;
        if ctl.max_cycles > 0 && self.cycle > ctl.max_cycles {
            return Some(RunOutcome::Watchdog);
        }
        if let (Some(window), Some(at)) = (ctl.ert_window, self.first_inject_cycle) {
            // The window opens once every armed fault has been applied.
            let applied = self.faults_next == self.scratch.pending_faults.len();
            if applied && self.first_deviation.is_none() && self.cycle >= at + window {
                return Some(RunOutcome::ErtExpired);
            }
        }
        None
    }

    /// [`advance`](Sim::advance) with no wall-clock deadline — how a
    /// fault-free prefix is walked to a checkpoint or an injection cycle. A
    /// run resumed from a snapshot taken there behaves exactly like an
    /// uninterrupted one.
    pub fn run_to_cycle(&mut self, target: u64, ctl: &RunControl) -> Option<RunOutcome> {
        self.advance(target, ctl, None)
    }

    // ----- fault application -----

    fn apply_due_faults(&mut self) {
        while let Some(&f) = self.scratch.pending_faults.get(self.faults_next) {
            if f.cycle > self.cycle {
                break;
            }
            self.faults_next += 1;
            self.flip(f.site);
        }
    }

    /// Flips the storage bit `site` names, now — what an armed [`Fault`]
    /// does at the beginning of its cycle. Panics if the bit is out of range.
    pub fn flip(&mut self, site: FaultSite) {
        let bit = site.bit;
        match site.structure {
            Structure::L1ITag => self.l1i.flip_tag_bit(bit),
            Structure::L1IData => self.l1i.flip_data_bit(bit),
            Structure::L1DTag => self.l1d.flip_tag_bit(bit),
            Structure::L1DData => self.l1d.flip_data_bit(bit),
            Structure::L2Tag => self.l2.flip_tag_bit(bit),
            Structure::L2Data => self.l2.flip_data_bit(bit),
            Structure::RegFile => self.rf.flip_bit(bit),
            Structure::Rob => self.rob_img.flip_bit(bit),
            Structure::Lq => self.lq_img.flip_bit(bit),
            Structure::Sq => self.sq_img.flip_bit(bit),
            Structure::Itlb => self.itlb.flip_bit(bit),
            Structure::Dtlb => self.dtlb.flip_bit(bit),
        }
    }

    // ----- memory hierarchy -----

    fn line_base(&self, addr: u32) -> u32 {
        addr & !(self.cfg.l2.line_bytes - 1)
    }

    /// Gets a line from L2 (filling from memory on miss); returns the line
    /// bytes in an inline stack buffer (first `line_bytes` valid) and the
    /// added latency beyond L1.
    fn l2_get_line(&mut self, line_addr: u32) -> ([u8; MAX_LINE_BYTES], u64) {
        let lb = self.cfg.l2.line_bytes as usize;
        let mut buf = [0u8; MAX_LINE_BYTES];
        if let Some(li) = self.l2.lookup(line_addr) {
            self.l2.read_resident(li, line_addr, &mut buf[..lb]);
            (buf, self.cfg.lat.l2)
        } else {
            self.stats.l2_misses += 1;
            if u64::from(line_addr) + lb as u64 <= u64::from(crate::mem::MEM_SIZE) {
                self.mem.read_line(line_addr, &mut buf[..lb]);
            }
            if let (Some(ev), _) = self.l2.fill(line_addr, &buf[..lb]) {
                self.mem.write_line(ev.addr, ev.data());
            }
            if self.cfg.prefetch_next_line {
                let next = line_addr.wrapping_add(self.cfg.l2.line_bytes);
                if u64::from(next) + u64::from(self.cfg.l2.line_bytes)
                    <= u64::from(crate::mem::MEM_SIZE)
                    && self.l2.lookup(next).is_none()
                {
                    let mut pbuf = [0u8; MAX_LINE_BYTES];
                    self.mem.read_line(next, &mut pbuf[..lb]);
                    if let (Some(ev), _) = self.l2.fill(next, &pbuf[..lb]) {
                        self.mem.write_line(ev.addr, ev.data());
                    }
                }
            }
            (buf, self.cfg.lat.l2 + self.cfg.lat.mem)
        }
    }

    fn writeback_to_l2(&mut self, ev: Eviction) {
        let line_addr = self.line_base(ev.addr);
        if let Some(li) = self.l2.lookup(line_addr) {
            self.l2.write_resident(li, line_addr, ev.data());
        } else {
            let (ev2, li) = self.l2.fill(line_addr, ev.data());
            self.l2.mark_dirty(li);
            if let Some(ev2) = ev2 {
                self.mem.write_line(ev2.addr, ev2.data());
            }
        }
    }

    /// Reads `size` bytes at `paddr` through L1D; returns (value bytes as
    /// little-endian u32, latency).
    fn read_data(&mut self, paddr: u32, size: u32) -> (u32, u64) {
        let mut lat = self.cfg.lat.l1;
        let li = match self.l1d.lookup(paddr) {
            Some(li) => li,
            None => {
                self.stats.l1d_misses += 1;
                let line_addr = self.line_base(paddr);
                let (line, extra) = self.l2_get_line(line_addr);
                lat += extra;
                let (ev, li) = self
                    .l1d
                    .fill(line_addr, &line[..self.cfg.l1d.line_bytes as usize]);
                if let Some(ev) = ev {
                    self.writeback_to_l2(ev);
                }
                li
            }
        };
        let mut buf = [0u8; 4];
        self.l1d.read_resident(li, paddr, &mut buf[..size as usize]);
        (u32::from_le_bytes(buf), lat)
    }

    /// Writes `size` low bytes of `data` at `paddr` through L1D
    /// (write-allocate, write-back).
    fn write_data(&mut self, paddr: u32, size: u32, data: u32) {
        let li = match self.l1d.lookup(paddr) {
            Some(li) => li,
            None => {
                self.stats.l1d_misses += 1;
                let line_addr = self.line_base(paddr);
                let (line, _) = self.l2_get_line(line_addr);
                let (ev, li) = self
                    .l1d
                    .fill(line_addr, &line[..self.cfg.l1d.line_bytes as usize]);
                if let Some(ev) = ev {
                    self.writeback_to_l2(ev);
                }
                li
            }
        };
        let bytes = data.to_le_bytes();
        self.l1d.write_resident(li, paddr, &bytes[..size as usize]);
    }

    fn fetch_word(&mut self, paddr: u32) -> (u32, u64) {
        let mut lat = self.cfg.lat.l1;
        let li = match self.l1i.lookup(paddr) {
            Some(li) => li,
            None => {
                self.stats.l1i_misses += 1;
                let line_addr = self.line_base(paddr);
                let (line, extra) = self.l2_get_line(line_addr);
                lat += extra;
                // I-lines never dirty.
                let (_, li) = self
                    .l1i
                    .fill(line_addr, &line[..self.cfg.l1i.line_bytes as usize]);
                li
            }
        };
        let mut buf = [0u8; 4];
        self.l1i.read_resident(li, paddr, &mut buf);
        (u32::from_le_bytes(buf), lat)
    }

    fn flush_caches(&mut self) {
        for ev in self.l1d.drain_dirty() {
            self.writeback_to_l2(ev);
        }
        for ev in self.l2.drain_dirty() {
            self.mem.write_line(ev.addr, ev.data());
        }
    }

    // ----- fetch -----

    fn fetch(&mut self) {
        if self.fetch_paused || self.cycle < self.fetch_ready_cycle {
            return;
        }
        let cap = 2 * self.cfg.fetch_width as usize + 2;
        for _ in 0..self.cfg.fetch_width {
            if self.scratch.decode_q.len() >= cap {
                break;
            }
            let pc = self.fetch_pc;
            if let Err(f) = self.mem.check_fetch(pc) {
                self.scratch.decode_q.push_back(Fetched {
                    pc,
                    raw: 0,
                    decoded: None,
                    exception: Some(TrapKind::Memory(f)),
                    predicted_next: pc,
                });
                self.fetch_paused = true;
                break;
            }
            // Translate through the ITLB.
            let paddr = match self.itlb.translate(pc) {
                Some(p) => p,
                None => {
                    self.stats.itlb_misses += 1;
                    self.itlb.refill(pc);
                    self.fetch_ready_cycle = self.cycle + self.cfg.lat.tlb_walk;
                    match self.itlb.translate(pc) {
                        Some(p) => p,
                        None => pc, // corrupted TLB shadowing the refill slot
                    }
                }
            };
            if u64::from(paddr) + 4 > u64::from(crate::mem::MEM_SIZE) {
                self.scratch.decode_q.push_back(Fetched {
                    pc,
                    raw: 0,
                    decoded: None,
                    exception: Some(TrapKind::Memory(MemFault::OutOfRange(paddr))),
                    predicted_next: pc,
                });
                self.fetch_paused = true;
                break;
            }
            let (raw, lat) = self.fetch_word(paddr);
            if lat > self.cfg.lat.l1 {
                // Miss: this group's words arrive late; stall the next group.
                self.fetch_ready_cycle = self.fetch_ready_cycle.max(self.cycle + lat);
            }
            self.stats.fetched += 1;
            match decode(raw) {
                Ok(instr) => {
                    let (next, end_group) = self.predict_next(pc, &instr);
                    self.scratch.decode_q.push_back(Fetched {
                        pc,
                        raw,
                        decoded: Some(instr),
                        exception: None,
                        predicted_next: next,
                    });
                    self.fetch_pc = next;
                    if instr.op == Opcode::Halt {
                        self.fetch_paused = true;
                        break;
                    }
                    if end_group {
                        break;
                    }
                }
                Err(_) => {
                    self.scratch.decode_q.push_back(Fetched {
                        pc,
                        raw,
                        decoded: None,
                        exception: Some(TrapKind::UndefinedInstruction),
                        predicted_next: pc.wrapping_add(4),
                    });
                    self.fetch_pc = pc.wrapping_add(4);
                }
            }
        }
    }

    /// Predicts the next fetch PC for `instr` at `pc`; returns
    /// `(next_pc, ends_fetch_group)`.
    fn predict_next(&mut self, pc: u32, instr: &Instr) -> (u32, bool) {
        match instr.op {
            Opcode::Jal => (pc.wrapping_add((instr.imm as u32).wrapping_mul(4)), true),
            Opcode::Jalr => match self.pred.predict_target(pc) {
                Some(t) => (t, true),
                None => (pc.wrapping_add(4), false),
            },
            op if op.is_branch() => {
                if self.pred.predict_taken(pc) {
                    (pc.wrapping_add((instr.imm as u32).wrapping_mul(4)), true)
                } else {
                    (pc.wrapping_add(4), false)
                }
            }
            _ => (pc.wrapping_add(4), false),
        }
    }

    // ----- dispatch -----

    fn rob_full(&self) -> bool {
        self.rob_count == self.rob.len()
    }

    fn dispatch(&mut self) {
        for _ in 0..self.cfg.dispatch_width {
            let Some(front) = self.scratch.decode_q.front() else {
                break;
            };
            if self.rob_full() {
                break;
            }
            let needs_exec = front
                .decoded
                .as_ref()
                .is_some_and(|i| !matches!(i.op, Opcode::Nop | Opcode::Halt));
            if needs_exec && self.in_iq.count_ones() >= self.cfg.iq_entries {
                break;
            }
            let (is_load, is_store, writes, is_control) = match &front.decoded {
                Some(i) => (
                    i.op.is_load(),
                    i.op.is_store(),
                    i.op.writes_rd() && !i.rd.is_zero(),
                    i.op.is_control(),
                ),
                None => (false, false, false, false),
            };
            if is_load && self.lq_count == self.lq.len() {
                break;
            }
            if is_store && self.sq_count == self.sq.len() {
                break;
            }
            if writes && self.rf.free_count() == 0 {
                break;
            }
            let f = self.scratch.decode_q.pop_front().expect("checked front");
            let seq = self.seq_next;
            self.seq_next += 1;

            let (mut src1, mut src2) = (None, None);
            let (mut dest_arch, mut new_phys, mut prev_phys) = (NO_DEST, 0, 0);
            if let Some(i) = &f.decoded {
                // Source mapping. The zero register reads as constant 0 and
                // has no physical dependency.
                let uses_rs1 = matches!(
                    i.op.format(),
                    avgi_isa::opcode::Format::R
                        | avgi_isa::opcode::Format::I
                        | avgi_isa::opcode::Format::S
                ) && i.op != Opcode::Lui;
                let uses_rs2 = matches!(
                    i.op.format(),
                    avgi_isa::opcode::Format::R | avgi_isa::opcode::Format::S
                );
                if uses_rs1 && !i.rs1.is_zero() {
                    src1 = Some(self.rf.lookup(i.rs1.index()));
                }
                if uses_rs2 && !i.rs2.is_zero() {
                    src2 = Some(self.rf.lookup(i.rs2.index()));
                }
                if writes {
                    let p = self.rf.alloc_at(self.cycle).expect("free count checked");
                    prev_phys = self.rf.remap(i.rd.index(), p);
                    new_phys = p;
                    dest_arch = i.rd.index();
                }
            }

            let ridx = self.rob_tail;
            self.rob_tail = wrap_inc(self.rob_tail, self.rob.len());
            self.rob_count += 1;

            // `as` cannot truncate: `MuarchConfig::validate` bounds both
            // queues to what an `LsqSlot` can name.
            let mut lq_slot: LsqSlot = 0;
            let mut sq_slot: LsqSlot = 0;
            if is_load {
                lq_slot = self.lq_tail as LsqSlot;
                self.lq[self.lq_tail] = LqShadow {
                    seq,
                    resolved: false,
                    paddr: 0,
                };
                self.lq_tail = wrap_inc(self.lq_tail, self.lq.len());
                self.lq_count += 1;
            }
            if is_store {
                sq_slot = self.sq_tail as LsqSlot;
                self.sq[self.sq_tail] = SqShadow {
                    seq,
                    resolved: false,
                    paddr: 0,
                    size: 0,
                    data: 0,
                };
                self.sq_tail = wrap_inc(self.sq_tail, self.sq.len());
                self.sq_count += 1;
            }

            let mut flags = 0u8;
            if is_load {
                flags |= FLAG_LOAD;
            }
            if is_store {
                flags |= FLAG_STORE;
            }
            if is_control {
                flags |= FLAG_CONTROL;
            }
            if writes {
                flags |= FLAG_WRITES;
            }
            self.rob_img.write(
                ridx,
                pack_rob(f.pc, seq as u16, if writes { dest_arch } else { 0 }, flags),
            );

            self.rob[ridx] = RobEntry {
                seq,
                pc: f.pc,
                raw: f.raw,
                decoded: f.decoded,
                exception: f.exception,
                dest_arch: if writes { dest_arch } else { NO_DEST },
                new_phys,
                prev_phys,
                src1,
                src2,
                is_load,
                is_store,
                is_control,
                lq_slot,
                sq_slot,
                predicted_next: f.predicted_next,
                actual_next: 0,
                resolved_control: false,
                taken: false,
                ea: 0,
                val: 0,
            };
            self.rob_stamp[ridx] = self.scratch.gen;
            // An instruction with nothing to execute (nop, halt, fetch
            // exception) joins no set: it is done at dispatch.
            if needs_exec {
                let bit = 1 << ridx;
                debug_assert_eq!((self.in_iq | self.executing) & bit, 0, "slot reused live");
                self.in_iq |= bit;
                // Wakeup registration: sleep on every outstanding operand.
                // Only an operand-unready entry may sleep; once `ready` it
                // is retried every cycle until it issues (see `issue`).
                let mut waiting = false;
                for p in [src1, src2].into_iter().flatten() {
                    if !self.rf.is_ready(p) {
                        self.rf.add_waiter(p, ridx);
                        waiting = true;
                    }
                }
                if !waiting {
                    self.ready |= bit;
                }
            }
        }
    }

    // ----- issue / execute -----

    /// Select: the oldest `issue_width` operand-ready entries that can
    /// issue do so and leave the queue.
    ///
    /// Every entry in `ready` is tried every cycle until it issues, not
    /// only on the cycle it woke: a load whose operands are ready but which
    /// is blocked on an older store re-reads its base register on each
    /// retry, and that read stamps the register's ACE interval
    /// (`RegFile::read_at` → `rf_ace_cycles`) — also on a wrong path that
    /// is squashed before the load ever issues. Nothing executed here
    /// produces a register value, so the set read at entry is the set for
    /// the whole cycle.
    fn issue(&mut self) {
        debug_assert_eq!(self.ready & !self.in_iq, 0, "ready slot outside the IQ");
        let mut issued = 0u32;
        for ridx in ring_order(self.ready, self.rob_head) {
            if issued == self.cfg.issue_width {
                break;
            }
            if self.try_issue(ridx) {
                issued += 1;
                self.in_iq &= !(1 << ridx);
                self.ready &= !(1 << ridx);
            }
        }
    }

    /// Reads a produced operand, recording the read for ACE
    /// instrumentation; an absent operand (zero register) reads as 0.
    fn operand(&mut self, p: Option<PhysReg>) -> u32 {
        match p {
            None => 0,
            Some(p) => {
                debug_assert!(self.rf.is_ready(p), "ready slot with an unproduced operand");
                self.rf.read_at(p, self.cycle)
            }
        }
    }

    /// Whether every operand of ROB slot `ridx` has been produced.
    fn operands_ready(&self, ridx: usize) -> bool {
        let e = &self.rob[ridx];
        [e.src1, e.src2]
            .into_iter()
            .flatten()
            .all(|p| self.rf.is_ready(p))
    }

    fn try_issue(&mut self, ridx: usize) -> bool {
        let (seq, instr, pc, src1, src2) = {
            debug_assert_eq!(
                self.rob_stamp[ridx], self.scratch.gen,
                "stale issue-queue slot crossed a scratch rewind"
            );
            let e = &self.rob[ridx];
            (
                e.seq,
                e.decoded.expect("iq entries decode"),
                e.pc,
                e.src1,
                e.src2,
            )
        };
        // Both operands are ready (the slot is in `ready`); reads are
        // recorded for ACE instrumentation.
        let a = self.operand(src1);
        let b = self.operand(src2);
        let imm = instr.imm;

        match instr.op {
            op if op.is_load() => self.issue_load(ridx, seq, instr, a),
            op if op.is_store() => self.issue_store(ridx, seq, instr, a, b),
            Opcode::Jal => {
                let target = pc.wrapping_add((imm as u32).wrapping_mul(4));
                self.finish_control(ridx, target, true, pc.wrapping_add(4));
                true
            }
            Opcode::Jalr => {
                let target = a.wrapping_add(imm as u32);
                self.finish_control(ridx, target, true, pc.wrapping_add(4));
                true
            }
            op if op.is_branch() => {
                let taken = exec::branch_taken(op, a, b);
                let target = if taken {
                    pc.wrapping_add((imm as u32).wrapping_mul(4))
                } else {
                    pc.wrapping_add(4)
                };
                let e = &mut self.rob[ridx];
                e.taken = taken;
                e.actual_next = target;
                e.resolved_control = true;
                self.start_executing(ridx, self.cfg.lat.alu);
                true
            }
            op => {
                let operand_b = if matches!(op.format(), avgi_isa::opcode::Format::I) {
                    imm as u32
                } else {
                    b
                };
                let val = exec::alu(op, a, operand_b).expect("alu op");
                self.rob[ridx].val = val;
                self.start_executing(ridx, exec::latency(op, &self.cfg.lat));
                true
            }
        }
    }

    fn finish_control(&mut self, ridx: usize, target: u32, taken: bool, link: u32) {
        let e = &mut self.rob[ridx];
        e.taken = taken;
        e.actual_next = target;
        e.resolved_control = true;
        e.val = link;
        self.start_executing(ridx, self.cfg.lat.alu);
    }

    /// Marks an issued slot as executing, finishing `latency` cycles from
    /// now (the caller, `issue`, takes it out of the issue queue).
    fn start_executing(&mut self, ridx: usize, latency: u64) {
        self.executing |= 1 << ridx;
        self.rob_finish[ridx] = self.cycle + latency;
    }

    fn mem_size(op: Opcode) -> u32 {
        match op {
            Opcode::Lw | Opcode::Sw => 4,
            Opcode::Lh | Opcode::Lhu | Opcode::Sh => 2,
            _ => 1,
        }
    }

    fn extend_load(op: Opcode, raw: u32) -> u32 {
        match op {
            Opcode::Lw => raw,
            Opcode::Lb => raw as u8 as i8 as i32 as u32,
            Opcode::Lbu => raw & 0xFF,
            Opcode::Lh => raw as u16 as i16 as i32 as u32,
            Opcode::Lhu => raw & 0xFFFF,
            _ => unreachable!("not a load"),
        }
    }

    fn issue_load(&mut self, ridx: usize, seq: u64, instr: Instr, base: u32) -> bool {
        let vaddr = base.wrapping_add(instr.imm as u32);
        let size = Self::mem_size(instr.op);
        if let Err(f) = self.mem.check_data_access(vaddr, size, false) {
            return self.complete_with_exception(ridx, vaddr, TrapKind::Memory(f));
        }
        // Memory disambiguation: all older stores must have resolved
        // addresses before a load may issue (conservative policy).
        // The scan has no side effects, so it stops at the first blocking
        // store — a blocked load repeats it every cycle — and at the first
        // younger one: the SQ ring is in age order.
        let mut forward: Option<u32> = None;
        let mut i = self.sq_head;
        for _ in 0..self.sq_count {
            let s = &self.sq[i];
            if s.seq >= seq {
                break;
            }
            if !s.resolved {
                return false;
            }
            // Youngest older store wins (iteration is oldest→youngest).
            let lo = s.paddr;
            let hi = s.paddr + u32::from(s.size);
            // The load's physical address isn't known yet; compare on
            // virtual addresses — identity-mapped, so equivalent in the
            // fault-free case.
            if lo < vaddr + size && vaddr < hi {
                if s.paddr == vaddr && u32::from(s.size) == size {
                    forward = Some(s.data);
                } else {
                    return false; // partial overlap: wait it out
                }
            }
            i = wrap_inc(i, self.sq.len());
        }
        let mut lat = 0;
        let paddr = match self.dtlb.translate(vaddr) {
            Some(p) => p,
            None => {
                self.stats.dtlb_misses += 1;
                self.dtlb.refill(vaddr);
                lat += self.cfg.lat.tlb_walk;
                self.dtlb.translate(vaddr).unwrap_or(vaddr)
            }
        };
        if u64::from(paddr) + u64::from(size) > u64::from(crate::mem::MEM_SIZE) {
            return self.complete_with_exception(
                ridx,
                vaddr,
                TrapKind::Memory(MemFault::OutOfRange(paddr)),
            );
        }
        let val = match forward {
            Some(data) => {
                lat += self.cfg.lat.l1;
                Self::extend_load(instr.op, data)
            }
            None => {
                let (raw, l) = self.read_data(paddr, size);
                lat += l;
                Self::extend_load(instr.op, raw)
            }
        };
        // Resolve the LQ entry (shadow + injectable image) via the slot index
        // recorded at dispatch — no seq scan.
        let lqi = usize::from(self.rob[ridx].lq_slot);
        debug_assert_eq!(self.lq[lqi].seq, seq, "LQ slot/seq mismatch");
        self.lq[lqi].resolved = true;
        self.lq[lqi].paddr = paddr;
        self.lq_img.write(lqi, pack_lq(paddr, seq as u16));
        let e = &mut self.rob[ridx];
        e.ea = vaddr;
        e.val = val;
        self.start_executing(ridx, lat.max(1));
        true
    }

    fn issue_store(&mut self, ridx: usize, seq: u64, instr: Instr, base: u32, data: u32) -> bool {
        let vaddr = base.wrapping_add(instr.imm as u32);
        let size = Self::mem_size(instr.op);
        if let Err(f) = self.mem.check_data_access(vaddr, size, true) {
            return self.complete_with_exception(ridx, vaddr, TrapKind::Memory(f));
        }
        let mut lat = 0;
        let paddr = match self.dtlb.translate(vaddr) {
            Some(p) => p,
            None => {
                self.stats.dtlb_misses += 1;
                self.dtlb.refill(vaddr);
                lat += self.cfg.lat.tlb_walk;
                self.dtlb.translate(vaddr).unwrap_or(vaddr)
            }
        };
        if u64::from(paddr) + u64::from(size) > u64::from(crate::mem::MEM_SIZE) {
            return self.complete_with_exception(
                ridx,
                vaddr,
                TrapKind::Memory(MemFault::OutOfRange(paddr)),
            );
        }
        let masked = match size {
            1 => data & 0xFF,
            2 => data & 0xFFFF,
            _ => data,
        };
        let sqi = usize::from(self.rob[ridx].sq_slot);
        debug_assert_eq!(self.sq[sqi].seq, seq, "SQ slot/seq mismatch");
        let sh = &mut self.sq[sqi];
        sh.resolved = true;
        sh.paddr = paddr;
        sh.size = size as u8;
        sh.data = masked;
        self.sq_img.write(sqi, pack_sq(paddr, masked, seq as u16));
        let e = &mut self.rob[ridx];
        e.ea = vaddr;
        e.val = masked;
        self.start_executing(ridx, (lat + self.cfg.lat.alu).max(1));
        true
    }

    /// Records a trap found at issue. The slot leaves the issue queue
    /// without executing, which is what makes it done.
    fn complete_with_exception(&mut self, ridx: usize, ea: u32, t: TrapKind) -> bool {
        let e = &mut self.rob[ridx];
        e.ea = ea;
        e.exception = Some(t);
        true
    }

    // ----- writeback / control resolution -----

    fn writeback(&mut self) -> Option<RunOutcome> {
        // Visit the executing slots oldest first, so the oldest mispredicted
        // branch squashes before younger ones resolve.
        for i in ring_order(self.executing, self.rob_head) {
            if self.rob_finish[i] > self.cycle {
                continue;
            }
            self.executing &= !(1 << i);
            let e = &self.rob[i];
            let (dest, new_phys, val, is_control) = (e.dest_arch, e.new_phys, e.val, e.is_control);
            if dest != NO_DEST {
                self.wake(new_phys, val);
            }
            if is_control && self.resolve_control(i) {
                // Squash removed everything younger; stop the walk.
                return None;
            }
        }
        None
    }

    /// Wakeup: produces `p`'s value and moves the waiting issue-queue
    /// entries whose operands are now all produced into `ready`.
    ///
    /// A waiter set can name a slot whose waiting instruction was squashed,
    /// and which a different instruction may occupy by now, so membership
    /// proves nothing: readiness is recomputed from the slot's own
    /// `src1`/`src2`. For a stale bit that is a no-op (the occupant, if in
    /// the queue at all, already has the answer this recomputes).
    fn wake(&mut self, p: PhysReg, val: u32) {
        let woken = self.rf.write(p, val) & self.in_iq & !self.ready;
        for ridx in ring_order(woken, self.rob_head) {
            if self.operands_ready(ridx) {
                self.ready |= 1 << ridx;
            }
        }
    }

    /// Verifies a resolved control instruction against its prediction.
    /// Returns `true` if a squash happened.
    fn resolve_control(&mut self, ridx: usize) -> bool {
        let (pc, op, taken, actual_next, predicted_next, seq) = {
            let e = &self.rob[ridx];
            let op = e.decoded.expect("control decodes").op;
            (e.pc, op, e.taken, e.actual_next, e.predicted_next, e.seq)
        };
        if op.is_branch() {
            self.pred.train_direction(pc, taken);
        }
        if taken {
            self.pred.train_target(pc, actual_next);
        }
        if actual_next != predicted_next {
            self.stats.mispredicts += 1;
            self.squash_younger_than(seq);
            self.fetch_pc = actual_next;
            self.fetch_ready_cycle = self.cycle + self.cfg.lat.redirect;
            self.fetch_paused = false;
            self.scratch.decode_q.clear();
            true
        } else {
            false
        }
    }

    fn squash_younger_than(&mut self, seq: u64) {
        let mut squashed: SlotSet = 0;
        while self.rob_count > 0 {
            let tail_prev = wrap_dec(self.rob_tail, self.rob.len());
            let e = self.rob[tail_prev];
            if e.seq <= seq {
                break;
            }
            self.rob_tail = tail_prev;
            self.rob_count -= 1;
            self.stats.squashed += 1;
            if e.dest_arch != NO_DEST {
                self.rf.remap(e.dest_arch, e.prev_phys);
                self.rf.release(e.new_phys);
            }
            if e.is_load && self.lq_count > 0 {
                let t = wrap_dec(self.lq_tail, self.lq.len());
                debug_assert_eq!(self.lq[t].seq, e.seq);
                self.lq_tail = t;
                self.lq_count -= 1;
            }
            if e.is_store && self.sq_count > 0 {
                let t = wrap_dec(self.sq_tail, self.sq.len());
                debug_assert_eq!(self.sq[t].seq, e.seq);
                self.sq_tail = t;
                self.sq_count -= 1;
            }
            squashed |= 1 << tail_prev;
        }
        // A squashed slot leaves every scheduling set at once, so its next
        // occupant starts clean. The registers' waiter sets are not
        // searched: they may keep naming the slot (see `wake`).
        self.in_iq &= !squashed;
        self.ready &= !squashed;
        self.executing &= !squashed;
    }

    // ----- commit -----

    fn commit(&mut self, ctl: &RunControl) -> Option<RunOutcome> {
        for _ in 0..self.cfg.commit_width {
            let head = self.rob_head;
            // Done = neither waiting to issue nor executing.
            if self.rob_count == 0 || (self.in_iq | self.executing) & (1 << head) != 0 {
                return None;
            }
            let e = self.rob[head];

            // Commit-side integrity checks: the injectable entry images must
            // match the authoritative shadow state (the paper's `PRE`
            // mechanism for ROB/LQ/SQ).
            let mut flags = 0u8;
            if e.is_load {
                flags |= FLAG_LOAD;
            }
            if e.is_store {
                flags |= FLAG_STORE;
            }
            if e.is_control {
                flags |= FLAG_CONTROL;
            }
            if e.dest_arch != NO_DEST {
                flags |= FLAG_WRITES;
            }
            let expected = pack_rob(
                e.pc,
                e.seq as u16,
                if e.dest_arch != NO_DEST {
                    e.dest_arch
                } else {
                    0
                },
                flags,
            );
            if !self.rob_img.matches(head, expected) {
                return Some(RunOutcome::IntegrityViolation(Structure::Rob));
            }
            if e.is_load && e.exception.is_none() {
                let lqi = self.lq_head;
                let sh = self.lq[lqi];
                debug_assert_eq!(sh.seq, e.seq);
                if sh.resolved && !self.lq_img.matches(lqi, pack_lq(sh.paddr, sh.seq as u16)) {
                    return Some(RunOutcome::IntegrityViolation(Structure::Lq));
                }
            }
            if e.is_store && e.exception.is_none() {
                let sqi = self.sq_head;
                let sh = self.sq[sqi];
                debug_assert_eq!(sh.seq, e.seq);
                if sh.resolved
                    && !self
                        .sq_img
                        .matches(sqi, pack_sq(sh.paddr, sh.data, sh.seq as u16))
                {
                    return Some(RunOutcome::IntegrityViolation(Structure::Sq));
                }
            }

            // Record the architectural observables (also for trapping
            // instructions, so the deviation is visible to the classifier).
            let rec = CommitRecord {
                cycle: self.cycle,
                pc: e.pc,
                raw: e.raw,
                ea: e.ea,
                val: e.val,
            };
            self.record_commit(rec, ctl);

            if let Some(t) = e.exception {
                return Some(RunOutcome::Trap(t));
            }

            if e.is_store {
                let sh = self.sq[self.sq_head];
                self.write_data(sh.paddr, u32::from(sh.size), sh.data);
                self.sq_head = wrap_inc(self.sq_head, self.sq.len());
                self.sq_count -= 1;
            }
            if e.is_load {
                self.lq_head = wrap_inc(self.lq_head, self.lq.len());
                self.lq_count -= 1;
            }

            self.stats.committed += 1;

            let halt = e.decoded.is_some_and(|i| i.op == Opcode::Halt);
            if e.dest_arch != NO_DEST {
                self.rf.release(e.prev_phys);
            }
            self.rob_head = wrap_inc(head, self.rob.len());
            self.rob_count -= 1;

            if halt {
                return Some(RunOutcome::Completed);
            }
        }
        None
    }

    fn record_commit(&mut self, rec: CommitRecord, ctl: &RunControl) {
        if ctl.record_trace {
            self.scratch.trace.push(rec);
        }
        if self.first_deviation.is_none() {
            if let Some(golden) = &ctl.golden {
                let idx = self.commit_index;
                let g = golden
                    .trace
                    .get(idx as usize)
                    .copied()
                    .unwrap_or(CommitRecord {
                        cycle: golden.cycles,
                        pc: 0,
                        raw: 0,
                        ea: 0,
                        val: 0,
                    });
                if !g.matches(&rec) {
                    self.first_deviation = Some(Deviation {
                        index: idx,
                        golden: g,
                        faulty: rec,
                    });
                }
            }
        }
        self.commit_index += 1;
    }

    /// Current cycle (for tests and instrumentation).
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Read access to the run statistics so far.
    pub fn stats(&self) -> &ExecStats {
        &self.stats
    }

    // ----- snapshot / restore -----

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

    /// Reserves trace capacity ahead of a trace-recording run.
    pub fn reserve_trace(&mut self, n: usize) {
        self.scratch.trace.reserve(n);
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
        let same_base = self.scratch_base == Some(snap.id);
        self.restore_impl(&snap.sim, same_base);
        self.scratch_base = Some(snap.id);
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
        self.restore_impl(src, false);
        self.scratch_base = None;
    }

    /// Both restores. `src` is destructured without `..` — as `self` is in
    /// [`Sim::converged_with`] — so a field added to `Sim` does not compile
    /// until it is filed here as restored or as bookkeeping, and there as
    /// compared or as bookkeeping.
    fn restore_impl(&mut self, src: &Sim, same_base: bool) {
        #[rustfmt::skip] // one line per class
        let Sim {
            // Bookkeeping, not restored: the configuration is the same one
            // (asserted below); the stamps are re-issued from this arena's
            // generation; the callers set `scratch_base`.
            cfg: _, rob_stamp: _, scratch_base: _,
            // Scalars.
            cycle, seq_next, fetch_pc, fetch_ready_cycle, fetch_paused, in_iq, ready, executing,
            rob_head, rob_tail, rob_count, lq_head, lq_tail, lq_count, sq_head, sq_tail, sq_count,
            output_addr, output_len, faults_next, first_inject_cycle,
            commit_index, first_deviation, stats,
            // Rings, live region only.
            rob, rob_finish, lq, sq,
            // Parts, each by its own restore.
            rf, rob_img, lq_img, sq_img, l1i, l1d, l2, itlb, dtlb, mem, pred, scratch,
        } = src;
        debug_assert_eq!(
            self.rob.len(),
            rob.len(),
            "restore across different configurations"
        );
        (self.cycle, self.seq_next, self.commit_index) = (*cycle, *seq_next, *commit_index);
        (self.fetch_pc, self.fetch_ready_cycle, self.fetch_paused) =
            (*fetch_pc, *fetch_ready_cycle, *fetch_paused);
        (self.in_iq, self.ready, self.executing) = (*in_iq, *ready, *executing);
        (self.rob_head, self.rob_tail, self.rob_count) = (*rob_head, *rob_tail, *rob_count);
        (self.lq_head, self.lq_tail, self.lq_count) = (*lq_head, *lq_tail, *lq_count);
        (self.sq_head, self.sq_tail, self.sq_count) = (*sq_head, *sq_tail, *sq_count);
        (self.output_addr, self.output_len) = (*output_addr, *output_len);
        self.faults_next = *faults_next;
        (self.first_inject_cycle, self.first_deviation) = (*first_inject_cycle, *first_deviation);
        self.stats = *stats;
        // One bump-reset for every growable per-run buffer; the generation
        // bump invalidates any ROB index that survives the rewind.
        self.scratch.rewind_to(scratch);
        self.rf.restore_from(rf);
        // Shadow queues: copy only the live ring region — dead slots are
        // never read (validity is defined by the ring bounds), so restore
        // cost scales with occupancy. The injectable images stay full-copy:
        // faults may land in architecturally-free slots.
        copy_ring(&mut self.rob, rob, *rob_head, *rob_count);
        copy_ring(&mut self.rob_finish, rob_finish, *rob_head, *rob_count);
        let mut i = *rob_head;
        for _ in 0..*rob_count {
            self.rob_stamp[i] = self.scratch.gen;
            i = wrap_inc(i, self.rob.len());
        }
        copy_ring(&mut self.lq, lq, *lq_head, *lq_count);
        copy_ring(&mut self.sq, sq, *sq_head, *sq_count);
        self.rob_img.restore_from(rob_img);
        self.lq_img.restore_from(lq_img);
        self.sq_img.restore_from(sq_img);
        for (cache, from) in [
            (&mut self.l1i, l1i),
            (&mut self.l1d, l1d),
            (&mut self.l2, l2),
        ] {
            if same_base {
                cache.restore_from(from);
            } else {
                cache.copy_full_from(from);
            }
        }
        self.itlb.restore_from(itlb);
        self.dtlb.restore_from(dtlb);
        if same_base {
            // Only pages this scratch dirtied since it last synchronised
            // with the same snapshot can differ — the dirty bitset names
            // exactly those.
            self.mem.restore_from_dirty(mem);
        } else {
            self.mem.restore_from(mem);
        }
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
    /// predicate carrying its argument, skipped here and answered by
    /// [`Sim::dead_on_arrival`]: [`RegFile::value_is_dead`],
    /// [`Cache::data_is_dead`], [`Cache::dead_tag_bits`], [`Tlb::dead_bits`]
    /// and the three `*_img_is_dead` below. Everything else is compared
    /// whole — the rings over the live region their bounds define, as the
    /// restore copies them, and `rob_finish` over the `executing` slots
    /// (`start_executing` writes a slot's finish cycle as it sets the bit;
    /// until then the entry holds whatever the slot's last tenant left).
    ///
    /// A fault still armed is a future the snapshot does not have, so
    /// either side holding one answers `false`. What a run *was* is not
    /// compared: a [`RunControl`] that ends a run by its history (the ERT
    /// window reads the injection cycle, `stop_at_first_deviation` the
    /// recorded deviation) is the caller's to exclude.
    pub fn converged_with(&self, snap: &Snapshot) -> bool {
        #[rustfmt::skip] // one line per class
        let Sim {
            // Bookkeeping — the past, or this simulator's own accounting:
            // counters and the deviation go into the report, the stamps and
            // `scratch_base` guard the restore paths, and the fault cursor
            // is spent once every armed fault is applied (checked below).
            stats: _, first_deviation: _, first_inject_cycle: _,
            rob_stamp: _, scratch_base: _, faults_next: _,
            // Scalars.
            cfg, cycle, seq_next, fetch_pc, fetch_ready_cycle, fetch_paused, in_iq, ready, executing,
            rob_head, rob_tail, rob_count, lq_head, lq_tail, lq_count, sq_head, sq_tail, sq_count,
            output_addr, output_len, commit_index,
            // Rings, live region only.
            rob, rob_finish, lq, sq,
            // Parts, each by its own comparison.
            rf, rob_img, lq_img, sq_img, l1i, l1d, l2, itlb, dtlb, mem, pred, scratch,
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
            && (fetch_pc, fetch_ready_cycle, fetch_paused)
                == (&o.fetch_pc, &o.fetch_ready_cycle, &o.fetch_paused)
            && (in_iq, ready, executing) == (&o.in_iq, &o.ready, &o.executing)
            && (rob_head, rob_tail, rob_count) == (&o.rob_head, &o.rob_tail, &o.rob_count)
            && (lq_head, lq_tail, lq_count) == (&o.lq_head, &o.lq_tail, &o.lq_count)
            && (sq_head, sq_tail, sq_count) == (&o.sq_head, &o.sq_tail, &o.sq_count)
            && (output_addr, output_len, cfg) == (&o.output_addr, &o.output_len, &o.cfg)
            && ring_eq(rob, &o.rob, *rob_head, *rob_count)
            && ring_order(*executing, *rob_head).all(|i| rob_finish[i] == o.rob_finish[i])
            && ring_eq(lq, &o.lq, *lq_head, *lq_count)
            && ring_eq(sq, &o.sq, *sq_head, *sq_count)
            && *decode_q == o.scratch.decode_q
            && rob_img.converged_with(&o.rob_img, |i| self.rob_img_is_dead(i))
            && lq_img.converged_with(&o.lq_img, |i| self.lq_img_is_dead(i))
            && sq_img.converged_with(&o.sq_img, |i| self.sq_img_is_dead(i))
            && rf.converged_with(&o.rf)
            && itlb.converged_with(&o.itlb)
            && dtlb.converged_with(&o.dtlb)
            && *pred == o.pred
            && l1d.converged_with(&o.l1d)
            && l1i.converged_with(&o.l1i)
            && l2.converged_with(&o.l2)
            && mem.converged_with(&o.mem)
    }

    /// Dead storage: a ROB image slot outside the live ring. Only `commit`
    /// checks the image, at the head; `dispatch` writes a slot as it enters.
    fn rob_img_is_dead(&self, i: usize) -> bool {
        !in_ring(i, self.rob_head, self.rob_count, self.rob.len())
    }

    /// Dead storage: an LQ image slot outside the live ring, or whose shadow
    /// is not resolved. `commit` checks the image only `if sh.resolved`;
    /// `dispatch` clears that, `issue_load` writes the slot as it sets it.
    fn lq_img_is_dead(&self, i: usize) -> bool {
        !(in_ring(i, self.lq_head, self.lq_count, self.lq.len()) && self.lq[i].resolved)
    }

    /// Dead storage: the SQ's, by the LQ's argument with `issue_store`.
    fn sq_img_is_dead(&self, i: usize) -> bool {
        !(in_ring(i, self.sq_head, self.sq_count, self.sq.len()) && self.sq[i].resolved)
    }

    /// Whether this machine would still be [`Sim::converged_with`] itself
    /// after [`Sim::flip`]ping `site`: the bit lies in storage a dead-storage
    /// predicate names, so nothing will ever read it. Read-only and O(1);
    /// `false` for a bit out of range, which `flip` refuses.
    pub fn dead_on_arrival(&self, site: FaultSite) -> bool {
        let bit = site.bit;
        let at = |per: u32| ((bit / u64::from(per)) as usize, bit % u64::from(per));
        let tag = |c: &Cache| {
            let (li, b) = at(tag_entry_bits(c.geometry().tag_bits()));
            c.dead_tag_bits(li) >> b & 1 == 1
        };
        let data = |c: &Cache| c.data_is_dead(at(8 * c.geometry().line_bytes).0);
        let tlb = |t: &Tlb| {
            let (i, b) = at(TLB_ENTRY_BITS);
            t.dead_bits(i) >> b & 1 == 1
        };
        bit < site.structure.bit_count(&self.cfg)
            && match site.structure {
                Structure::L1ITag => tag(&self.l1i),
                Structure::L1IData => data(&self.l1i),
                Structure::L1DTag => tag(&self.l1d),
                Structure::L1DData => data(&self.l1d),
                Structure::L2Tag => tag(&self.l2),
                Structure::L2Data => data(&self.l2),
                Structure::RegFile => self.rf.value_is_dead(at(32).0 as PhysReg),
                Structure::Rob => self.rob_img_is_dead(at(ROB_ENTRY_BITS).0),
                Structure::Lq => self.lq_img_is_dead(at(LQ_ENTRY_BITS).0),
                Structure::Sq => self.sq_img_is_dead(at(SQ_ENTRY_BITS).0),
                Structure::Itlb => tlb(&self.itlb),
                Structure::Dtlb => tlb(&self.dtlb),
            }
    }

    /// The first commit-trace deviation recorded so far.
    pub fn first_deviation(&self) -> Option<Deviation> {
        self.first_deviation
    }
}

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
        s.l1i.clear_tracking();
        s.l1d.clear_tracking();
        s.l2.clear_tracking();
        s.mem.clear_tracking();
        s.scratch_base = Some(self.id);
        s
    }
}

/// Captures the golden (fault-free) run of `program` under `cfg`.
///
/// # Panics
///
/// Panics if the program does not complete within `max_cycles` — golden
/// programs are required to halt.
pub fn capture_golden(program: &Program, cfg: &MuarchConfig, max_cycles: u64) -> Arc<GoldenRun> {
    let mut sim = Sim::new(program, cfg.clone());
    // Pre-size the trace from a committed-instruction estimate (IPC ≈ 1,
    // bounded) so recording does not grow the vector incrementally.
    sim.reserve_trace((max_cycles as usize).clamp(4096, 1 << 18));
    let ctl = RunControl {
        max_cycles,
        record_trace: true,
        ..RunControl::default()
    };
    let report = sim.run(&ctl);
    assert_eq!(
        report.outcome,
        RunOutcome::Completed,
        "golden run of `{}` did not complete: {:?} after {} cycles",
        program.name,
        report.outcome,
        report.cycles,
    );
    Arc::new(GoldenRun {
        trace: report.trace.expect("trace recorded"),
        cycles: report.cycles,
        output: report.output.expect("completed"),
        stats: report.stats,
    })
}

#[cfg(test)]
mod tests {
    //! White-box tests of the event-driven back end's invariants; the
    //! black-box ones (bit-identical traces, restores) live in `tests/`.

    use super::*;
    use crate::mem::{DATA_BASE, OUTPUT_BASE};
    use avgi_isa::asm::Assembler;
    use avgi_isa::reg::{A0, S0, S1, T0, T1, T2, T3, T4, T5, ZERO};

    fn ctl() -> RunControl {
        RunControl {
            max_cycles: 100_000,
            ..RunControl::default()
        }
    }

    fn live_slots(sim: &Sim) -> SlotSet {
        let mut live = 0;
        let mut i = sim.rob_head;
        for _ in 0..sim.rob_count {
            live |= 1 << i;
            i = wrap_inc(i, sim.rob.len());
        }
        live
    }

    /// The live ROB slot holding the instruction at code index `index`.
    fn slot_of(sim: &Sim, index: u32) -> Option<usize> {
        ring_order(live_slots(sim), sim.rob_head).find(|&i| sim.rob[i].pc == index * 4)
    }

    #[test]
    fn ring_order_is_age_order_for_every_rob_size() {
        for n in [1usize, 5, 32, 33, 64] {
            let all: SlotSet = SlotSet::MAX >> (64 - n);
            for head in 0..n {
                for set in [
                    all,
                    all & 0xA5A5_5A5A_F00F_3C3C,
                    all & !(1 << head),
                    1 << head,
                    0,
                ] {
                    let want: Vec<usize> = (0..n)
                        .map(|k| (head + k) % n)
                        .filter(|&s| set & (1 << s) != 0)
                        .collect();
                    let got: Vec<usize> = ring_order(set, head).collect();
                    assert_eq!(got, want, "n={n} head={head} set={set:#x}");
                }
            }
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

    /// The first fetch group arrives a cold I-cache miss (tens of cycles)
    /// ahead of the rest of its line. Filling it with nops keeps a test's
    /// dependence chains from getting that head start on the instructions
    /// that are meant to wait for them.
    fn cold_fetch_pad(a: &mut Assembler) {
        for _ in 0..MuarchConfig::big().fetch_width {
            a.nop();
        }
    }

    /// Invariant (a): a load whose operands are ready but which is blocked
    /// on an older, unresolved store is retried every cycle, and every retry
    /// stamps its base register's last read.
    #[test]
    fn blocked_load_is_retried_and_stamps_its_base_every_cycle() {
        let mut a = Assembler::new(0);
        cold_fetch_pad(&mut a);
        a.li32(S0, DATA_BASE);
        a.addi(T0, ZERO, 8000);
        a.addi(T1, ZERO, 7);
        a.divu(T2, T0, T1);
        a.divu(T2, T2, T1);
        a.divu(T2, T2, T1);
        a.sub(T3, T2, T2); // 0, three divides from now
        a.add(T3, T3, S0);
        let store = a.len() as u32;
        a.sw(T3, T1, 64);
        let load = a.len() as u32;
        a.lw(A0, S0, 0);
        a.halt();
        let p = Program::new("blocked-load", a.assemble().unwrap(), 0);

        for cfg in [MuarchConfig::big(), MuarchConfig::small()] {
            let mut sim = Sim::new(&p, cfg);
            let mut retries = 0;
            loop {
                let cycle = sim.cycle;
                let blocked = slot_of(&sim, load)
                    .zip(slot_of(&sim, store))
                    .filter(|&(l, s)| {
                        sim.ready & (1 << l) != 0 && sim.in_iq & !sim.ready & (1 << s) != 0
                    });
                let base = blocked.map(|(l, _)| sim.rob[l].src1.expect("load has a base"));
                let done = sim.step(&ctl());
                if let Some(base) = base {
                    assert_eq!(
                        sim.rf.last_read(base),
                        cycle,
                        "blocked load slept through cycle {cycle}"
                    );
                    retries += 1;
                }
                if let Some(out) = done {
                    assert_eq!(out, RunOutcome::Completed);
                    break;
                }
            }
            assert!(retries >= 20, "load was blocked for {retries} cycles only");
        }
    }

    /// Invariant (b): a waiter set may name a slot whose waiting instruction
    /// was squashed; the slot's next tenant must not be woken by it.
    #[test]
    fn stale_waiter_bit_does_not_wake_the_slots_next_tenant() {
        let mut a = Assembler::new(0);
        a.addi(T0, ZERO, 8000);
        a.addi(T1, ZERO, 7);
        a.nop();
        a.nop(); // = `cold_fetch_pad`, with the constants riding in it
        a.divu(T4, T0, T1); // q: four divides
        a.divu(T4, T4, T1);
        a.divu(T4, T4, T1);
        a.divu(T4, T4, T1);
        a.divu(T2, T0, T1); // p: two divides
        a.divu(T2, T2, T1);
        a.beq(ZERO, ZERO, "target"); // weakly not-taken at reset: mispredicts
        let wrong_path = a.len() as u32;
        a.add(T3, T2, T2); // waits on p, squashed
        a.add(T3, T2, T2);
        a.add(T3, T2, T2);
        a.label("target");
        let tenant = a.len() as u32;
        a.add(T5, T4, T4); // waits on q, in the squashed instruction's slot
        a.li32(A0, OUTPUT_BASE);
        a.sw(A0, T5, 0);
        a.halt();
        let program = Program::new("stale-waiter", a.assemble().unwrap(), 4);

        let mut sim = Sim::new(&program, MuarchConfig::big());
        // Until the wrong-path add waits on p.
        let (slot, p) = loop {
            assert!(sim.step(&ctl()).is_none());
            if let Some(s) = slot_of(&sim, wrong_path) {
                break (s, sim.rob[s].src1.expect("add reads p"));
            }
        };
        assert!(!sim.rf.is_ready(p));
        assert_ne!(sim.rf.waiters(p) & (1 << slot), 0, "waiter not registered");
        // Until the squash has handed the slot to the instruction at
        // `target`, with p still outstanding and still naming the slot.
        while slot_of(&sim, tenant) != Some(slot) {
            assert!(sim.step(&ctl()).is_none());
        }
        let q = sim.rob[slot].src1.expect("add reads q");
        assert_ne!(p, q);
        assert!(!sim.rf.is_ready(p), "p produced before the slot was reused");
        assert_ne!(
            sim.rf.waiters(p) & (1 << slot),
            0,
            "the stale bit is the test"
        );
        // p's writeback consumes the stale bit; the tenant must stay asleep.
        while !sim.rf.is_ready(p) {
            assert!(sim.step(&ctl()).is_none());
        }
        assert!(!sim.rf.is_ready(q), "q produced too early for the test");
        assert_eq!(slot_of(&sim, tenant), Some(slot));
        assert_ne!(sim.in_iq & (1 << slot), 0);
        assert_eq!(sim.ready & (1 << slot), 0, "woken by a stale waiter bit");

        let report = sim.run(&ctl());
        assert_eq!(report.outcome, RunOutcome::Completed);
        let q_val = 8000 / 7 / 7 / 7 / 7;
        assert_eq!(
            report.output,
            Some((2 * q_val as u32).to_le_bytes().to_vec())
        );
    }

    /// A loop whose branch direction follows an LCG bit, around a divide
    /// and a store→load pair: mispredicts with a full window behind it.
    fn branchy_loop() -> Program {
        let mut a = Assembler::new(0);
        a.li32(S0, DATA_BASE);
        a.li32(S1, 0x0012_3457);
        a.addi(T0, ZERO, 200);
        a.addi(T1, ZERO, 7);
        a.label("loop");
        a.li32(T2, 1_103_515_245);
        a.mul(S1, S1, T2);
        a.addi(S1, S1, 1_234);
        a.andi(T3, S1, 0x40);
        a.beq(T3, ZERO, "skip");
        a.divu(T4, S1, T1);
        a.sw(S0, T4, 0);
        a.lw(T5, S0, 0);
        a.add(A0, A0, T5);
        a.label("skip");
        a.add(A0, A0, S1);
        a.addi(T0, T0, -1);
        a.bne(T0, ZERO, "loop");
        a.halt();
        Program::new("branchy", a.assemble().unwrap(), 0)
    }

    /// Invariant (d): a squash takes the slot out of every set.
    #[test]
    fn squash_clears_the_slot_from_every_set() {
        let program = branchy_loop();
        for cfg in [MuarchConfig::big(), MuarchConfig::small()] {
            // Every cycle of a squash-heavy run: no set names a dead slot.
            let mut sim = Sim::new(&program, cfg.clone());
            while sim.step(&ctl()).is_none() {
                let live = live_slots(&sim);
                assert_eq!((sim.in_iq | sim.executing) & !live, 0, "dead slot in a set");
                assert_eq!(sim.ready & !sim.in_iq, 0);
                assert_eq!(sim.in_iq & sim.executing, 0);
                assert!(sim.in_iq.count_ones() <= sim.cfg.iq_entries);
            }
            assert!(sim.stats.squashed > 200);

            // And directly: squash everything behind the head while all
            // three sets are populated.
            let mut sim = Sim::new(&program, cfg);
            let behind_head = |sim: &Sim, set: SlotSet| set & !(1 << sim.rob_head) != 0;
            while !(behind_head(&sim, sim.in_iq & !sim.ready)
                && behind_head(&sim, sim.ready)
                && behind_head(&sim, sim.executing))
            {
                assert!(sim.step(&ctl()).is_none(), "sets never all populated");
            }
            let head = 1 << sim.rob_head;
            sim.squash_younger_than(sim.rob[sim.rob_head].seq);
            assert_eq!(sim.rob_count, 1);
            assert_eq!((sim.in_iq | sim.ready | sim.executing) & !head, 0);
        }
    }
}

#[cfg(test)]
#[path = "../tests/whitebox/converged_with.rs"]
mod converged_with_tests;
