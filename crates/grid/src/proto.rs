//! The grid wire protocol: length-prefixed, CRC-trailed frames carrying
//! JSON control messages and (since v3) binary hot-path messages.
//!
//! Every message is one frame: a 4-byte big-endian payload length, that
//! many payload bytes, and a 4-byte big-endian CRC32 of the payload.
//! Framing keeps the stream self-synchronizing for well-behaved peers and
//! makes misbehaviour cheap to reject: a length prefix above [`MAX_FRAME`]
//! is refused before a single payload byte is read, a CRC mismatch
//! ([`FrameError::Crc`]) or a payload that does not decode as a known
//! message drops the connection — never the process (the coordinator keeps
//! the peer's leases for its session to reclaim on reconnect, or for the
//! expiry sweep — see `DESIGN.md` §10/§12/§15 for the frame layout and the
//! lease state machine).
//!
//! # Payload dialects
//!
//! The first payload byte selects the dialect. `0x7b` (`{`) is a JSON
//! message — the same hand-rolled JSON subset the campaign journal uses
//! (see [`avgi_faultsim::json`]), retained for the handshake, spec
//! exchange, and every rarely-sent control message. Bytes `0x01..=0x03`
//! are the proto-v3 binary encodings of the three messages that dominate
//! a campaign's traffic:
//!
//! * [`BIN_LEASE`] — lease id, campaign id, and the fault indices as
//!   LEB128 varints.
//! * [`BIN_BATCH_DONE`] — the batch's results and its telemetry delta,
//!   varint-packed (sparse outcome/structure/histogram vectors; only
//!   non-zero counters travel).
//! * [`BIN_HEARTBEAT`] — two varints.
//!
//! JSON `batch_done` frames re-serialize every journal record plus a full
//! labelled counters object per batch; the binary encoding drops the label
//! text and the base-10 digits, which is where the fault-free path's wire
//! cost lives (ZOFI's lesson applied to the link). [`WireStats`] tallies
//! per-message-kind frames and bytes on the live link.
//!
//! # Version
//!
//! The worker's `hello` names its protocol version. The service refuses a
//! peer below [`PROTO_VERSION`] with a `reject` naming the version it
//! offered, and welcomes any other at [`PROTO_VERSION`]. Every session then
//! speaks the binary dialect for the hot messages; decoding
//! ([`Msg::decode`]) needs no version because the payload's first byte
//! already names the dialect.
//!
//! The CRC turns link-level bit corruption (see [`crate::chaos`]) into a
//! detected connection drop instead of a silently wrong lease id or fault
//! index: an undetected flip would need to beat a 2⁻³² check *and* still
//! decode as a valid message.

use crate::spec::CampaignSpec;
use avgi_faultsim::journal::{crc32, record_from_json, write_record};
use avgi_faultsim::json::{self, Json, Writer};
use avgi_faultsim::telemetry::{MetricsSnapshot, HIST_BUCKETS, OUTCOME_LABELS};
use avgi_faultsim::InjectionResult;
use avgi_muarch::fault::{Fault, FaultSite, Structure};
use avgi_muarch::mem::MemFault;
use avgi_muarch::run::{RunOutcome, TrapKind};
use avgi_muarch::trace::{CommitRecord, Deviation};
use std::io::{Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};

/// The protocol version this build speaks, and the oldest it accepts.
/// Version 2 added frame CRC trailers and session-token reconnect; version
/// 3 added binary hot messages, multi-campaign leases, and the spec
/// exchange.
pub const PROTO_VERSION: u64 = 3;

/// Upper bound on a frame payload (a batch of a few thousand records fits
/// with a wide margin; anything larger is a corrupt or hostile prefix).
pub const MAX_FRAME: u32 = 32 << 20;

/// Bytes of CRC32 trailer after every frame payload.
pub const FRAME_CRC_BYTES: usize = 4;

/// Bytes of framing overhead around every payload (length prefix + CRC).
pub const FRAME_OVERHEAD: usize = 4 + FRAME_CRC_BYTES;

/// First payload byte of a binary `lease` message.
pub const BIN_LEASE: u8 = 0x01;
/// First payload byte of a binary `batch_done` message.
pub const BIN_BATCH_DONE: u8 = 0x02;
/// First payload byte of a binary `heartbeat` message.
pub const BIN_HEARTBEAT: u8 = 0x03;

/// Why reading a frame failed.
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed the connection cleanly at a frame boundary.
    Closed,
    /// The stream ended or errored mid-frame (truncated length prefix,
    /// payload, or CRC trailer).
    Io(std::io::Error),
    /// The length prefix exceeds [`MAX_FRAME`]; nothing after it was read.
    TooLarge(u32),
    /// The payload's CRC32 does not match its trailer: the frame was
    /// corrupted in flight.
    Crc {
        /// CRC the trailer claimed.
        expected: u32,
        /// CRC the payload actually has.
        found: u32,
    },
    /// The payload is not a known message in either dialect.
    Malformed(String),
}

impl core::fmt::Display for FrameError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FrameError::Closed => f.write_str("connection closed"),
            FrameError::Io(e) => write!(f, "frame I/O failed: {e}"),
            FrameError::TooLarge(n) => write!(f, "frame length {n} exceeds {MAX_FRAME}"),
            FrameError::Crc { expected, found } => {
                write!(
                    f,
                    "frame CRC mismatch: trailer {expected:08x}, payload {found:08x}"
                )
            }
            FrameError::Malformed(m) => write!(f, "malformed frame: {m}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Builds one complete frame (length prefix + payload + CRC trailer) as a
/// byte vector — the unit the nonblocking service buffers per connection.
pub fn frame_bytes(payload: &[u8]) -> std::io::Result<Vec<u8>> {
    let len = u32::try_from(payload.len()).map_err(|_| {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, "frame payload too long")
    })?;
    let mut out = Vec::with_capacity(payload.len() + FRAME_OVERHEAD);
    out.extend_from_slice(&len.to_be_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&crc32(payload).to_be_bytes());
    Ok(out)
}

/// Writes one frame (length prefix + payload + CRC trailer) and flushes it.
pub fn write_frame(w: &mut (impl Write + ?Sized), payload: &[u8]) -> std::io::Result<()> {
    w.write_all(&frame_bytes(payload)?)?;
    w.flush()
}

/// Verifies a payload against its CRC trailer.
fn check_crc(payload: Vec<u8>, trailer: [u8; 4]) -> Result<Vec<u8>, FrameError> {
    let expected = u32::from_be_bytes(trailer);
    let found = crc32(&payload);
    if expected != found {
        return Err(FrameError::Crc { expected, found });
    }
    Ok(payload)
}

/// Capacity a [`FrameBuffer`] shrinks back to after draining a frame that
/// forced a larger allocation. Covers every hot-path frame (leases and
/// heartbeats are tens of bytes; a binary batch of hundreds of results
/// fits in a few KiB), so only a rare oversized JSON frame ever grows the
/// buffer — and the growth no longer outlives the frame.
pub const FRAME_BUF_RETAIN: usize = 64 << 10;

/// The one frame decoder, for sockets read with a timeout or in
/// nonblocking mode.
///
/// The service's event loop reads nonblocking sockets, the worker reads
/// with a timeout; `FrameBuffer` accumulates whatever bytes arrive and
/// yields a frame only once it is complete, so a timeout or `WouldBlock`
/// between polls never desynchronizes the stream.
#[derive(Debug, Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
}

impl FrameBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current backing allocation, in bytes (test hook for the shrink
    /// behaviour after oversized frames).
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Bytes read but not yet yielded as a frame.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    fn take_frame(&mut self) -> Result<Option<Vec<u8>>, FrameError> {
        if self.buf.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_be_bytes([self.buf[0], self.buf[1], self.buf[2], self.buf[3]]);
        if len > MAX_FRAME {
            return Err(FrameError::TooLarge(len));
        }
        let total = 4 + len as usize + FRAME_CRC_BYTES;
        if self.buf.len() < total {
            return Ok(None);
        }
        let payload = self.buf[4..total - FRAME_CRC_BYTES].to_vec();
        let trailer: [u8; 4] = self.buf[total - FRAME_CRC_BYTES..total]
            .try_into()
            .expect("slice is exactly FRAME_CRC_BYTES long");
        self.buf.drain(..total);
        // One oversized frame must not pin its high-water allocation for
        // the rest of a long-lived connection: once the bytes are drained,
        // give the excess back (keeping FRAME_BUF_RETAIN so steady-state
        // traffic never reallocates).
        if self.buf.capacity() > FRAME_BUF_RETAIN && self.buf.len() <= FRAME_BUF_RETAIN {
            self.buf.shrink_to(FRAME_BUF_RETAIN);
        }
        check_crc(payload, trailer).map(Some)
    }

    /// Polls the stream once and returns a complete frame if one is
    /// available.
    ///
    /// `Ok(None)` means no complete frame yet (the read timed out, would
    /// block, was interrupted, or more bytes are needed);
    /// [`FrameError::Closed`] means the peer closed cleanly at a frame
    /// boundary, while a close mid-frame is an I/O error (truncated frame).
    pub fn poll(&mut self, r: &mut (impl Read + ?Sized)) -> Result<Option<Vec<u8>>, FrameError> {
        if let Some(f) = self.take_frame()? {
            return Ok(Some(f));
        }
        let mut tmp = [0u8; 4096];
        match r.read(&mut tmp) {
            Ok(0) if self.buf.is_empty() => Err(FrameError::Closed),
            Ok(0) => Err(FrameError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed mid-frame",
            ))),
            Ok(n) => {
                self.buf.extend_from_slice(&tmp[..n]);
                self.take_frame()
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) =>
            {
                Ok(None)
            }
            Err(e) => Err(FrameError::Io(e)),
        }
    }
}

// ---------------------------------------------------------------------------
// LEB128 varints — the integer encoding behind every binary message.

/// Appends `v` as an LEB128 varint (7 bits per byte, high bit = continue).
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// A bounds-checked reader over a binary payload.
struct BinReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> BinReader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        BinReader { buf, pos: 0 }
    }

    fn u8(&mut self) -> Result<u8, String> {
        let b = *self.buf.get(self.pos).ok_or("binary payload truncated")?;
        self.pos += 1;
        Ok(b)
    }

    fn varint(&mut self) -> Result<u64, String> {
        let mut v: u64 = 0;
        for shift in (0..).step_by(7) {
            if shift >= 64 {
                return Err("varint overflows u64".into());
            }
            let byte = self.u8()?;
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        unreachable!("loop returns")
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or("binary payload truncated")?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// How many elements to reserve for when the payload claims `count` of
    /// them, each at least `min_bytes` long encoded: no more than the bytes
    /// left could hold. The count is the peer's to choose — nine bytes can
    /// claim 2²⁵ results — the payload length is not.
    fn fit(&self, count: u64, min_bytes: usize) -> usize {
        let room = (self.buf.len() - self.pos) / min_bytes;
        usize::try_from(count).map_or(room, |count| count.min(room))
    }

    fn finish(self) -> Result<(), String> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(format!(
                "{} trailing bytes after binary message",
                self.buf.len() - self.pos
            ))
        }
    }
}

fn structure_code(s: Structure) -> u8 {
    Structure::all()
        .iter()
        .position(|&x| x == s)
        .expect("Structure::all() covers every structure") as u8
}

fn structure_from_code(c: u8) -> Result<Structure, String> {
    Structure::all()
        .get(c as usize)
        .copied()
        .ok_or_else(|| format!("unknown structure code {c}"))
}

// Outcome codes. Flat: every RunOutcome shape gets its own byte, memory
// traps carry their faulting address as a varint and integrity violations
// their structure code, so the binary form loses nothing the journal
// records.
const OUT_COMPLETED: u8 = 0;
const OUT_TRAP_UNDEF: u8 = 1;
const OUT_TRAP_MEM_RANGE: u8 = 2;
const OUT_TRAP_MEM_WCODE: u8 = 3;
const OUT_TRAP_MEM_ALIGN: u8 = 4;
const OUT_TRAP_MEM_EXEC: u8 = 5;
const OUT_INTEGRITY: u8 = 6;
const OUT_WATCHDOG: u8 = 7;
const OUT_STOPPED_AT_DEVIATION: u8 = 8;
const OUT_ERT_EXPIRED: u8 = 9;
const OUT_WALL_EXPIRED: u8 = 10;
const OUT_SIM_ABORT: u8 = 11;

fn put_outcome(out: &mut Vec<u8>, o: RunOutcome) {
    match o {
        RunOutcome::Completed => out.push(OUT_COMPLETED),
        RunOutcome::Trap(TrapKind::UndefinedInstruction) => out.push(OUT_TRAP_UNDEF),
        RunOutcome::Trap(TrapKind::Memory(m)) => {
            let (code, addr) = match m {
                MemFault::OutOfRange(a) => (OUT_TRAP_MEM_RANGE, a),
                MemFault::WriteToCode(a) => (OUT_TRAP_MEM_WCODE, a),
                MemFault::Misaligned(a) => (OUT_TRAP_MEM_ALIGN, a),
                MemFault::ExecuteFault(a) => (OUT_TRAP_MEM_EXEC, a),
            };
            out.push(code);
            put_varint(out, u64::from(addr));
        }
        RunOutcome::IntegrityViolation(s) => {
            out.push(OUT_INTEGRITY);
            out.push(structure_code(s));
        }
        RunOutcome::Watchdog => out.push(OUT_WATCHDOG),
        RunOutcome::StoppedAtDeviation => out.push(OUT_STOPPED_AT_DEVIATION),
        RunOutcome::ErtExpired => out.push(OUT_ERT_EXPIRED),
        RunOutcome::WallClockExpired => out.push(OUT_WALL_EXPIRED),
        RunOutcome::SimAbort => out.push(OUT_SIM_ABORT),
    }
}

fn get_outcome(r: &mut BinReader<'_>) -> Result<RunOutcome, String> {
    let addr = |r: &mut BinReader<'_>| -> Result<u32, String> {
        u32::try_from(r.varint()?).map_err(|_| "trap address overflows u32".to_string())
    };
    Ok(match r.u8()? {
        OUT_COMPLETED => RunOutcome::Completed,
        OUT_TRAP_UNDEF => RunOutcome::Trap(TrapKind::UndefinedInstruction),
        OUT_TRAP_MEM_RANGE => RunOutcome::Trap(TrapKind::Memory(MemFault::OutOfRange(addr(r)?))),
        OUT_TRAP_MEM_WCODE => RunOutcome::Trap(TrapKind::Memory(MemFault::WriteToCode(addr(r)?))),
        OUT_TRAP_MEM_ALIGN => RunOutcome::Trap(TrapKind::Memory(MemFault::Misaligned(addr(r)?))),
        OUT_TRAP_MEM_EXEC => RunOutcome::Trap(TrapKind::Memory(MemFault::ExecuteFault(addr(r)?))),
        OUT_INTEGRITY => RunOutcome::IntegrityViolation(structure_from_code(r.u8()?)?),
        OUT_WATCHDOG => RunOutcome::Watchdog,
        OUT_STOPPED_AT_DEVIATION => RunOutcome::StoppedAtDeviation,
        OUT_ERT_EXPIRED => RunOutcome::ErtExpired,
        OUT_WALL_EXPIRED => RunOutcome::WallClockExpired,
        OUT_SIM_ABORT => RunOutcome::SimAbort,
        other => return Err(format!("unknown outcome code {other}")),
    })
}

/// Shortest encoded result: index, structure, bit, cycle, outcome, flags,
/// cycles and post-injection cycles at one byte each.
const MIN_RESULT_BYTES: usize = 8;

const RES_FLAG_DEVIATION: u8 = 1 << 0;
const RES_FLAG_MATCH_PRESENT: u8 = 1 << 1;
const RES_FLAG_MATCH_VALUE: u8 = 1 << 2;
const RES_FLAG_ABORT: u8 = 1 << 3;

fn put_commit(out: &mut Vec<u8>, c: &CommitRecord) {
    put_varint(out, c.cycle);
    put_varint(out, u64::from(c.pc));
    put_varint(out, u64::from(c.raw));
    put_varint(out, u64::from(c.ea));
    put_varint(out, u64::from(c.val));
}

fn get_commit(r: &mut BinReader<'_>) -> Result<CommitRecord, String> {
    let u32of = |v: u64| u32::try_from(v).map_err(|_| "commit field overflows u32".to_string());
    Ok(CommitRecord {
        cycle: r.varint()?,
        pc: u32of(r.varint()?)?,
        raw: u32of(r.varint()?)?,
        ea: u32of(r.varint()?)?,
        val: u32of(r.varint()?)?,
    })
}

fn put_result(out: &mut Vec<u8>, idx: usize, r: &InjectionResult) {
    put_varint(out, idx as u64);
    out.push(structure_code(r.fault.site.structure));
    put_varint(out, r.fault.site.bit);
    put_varint(out, r.fault.cycle);
    put_outcome(out, r.outcome);
    let mut flags = 0u8;
    if r.deviation.is_some() {
        flags |= RES_FLAG_DEVIATION;
    }
    if let Some(m) = r.output_matches {
        flags |= RES_FLAG_MATCH_PRESENT;
        if m {
            flags |= RES_FLAG_MATCH_VALUE;
        }
    }
    if r.abort_message.is_some() {
        flags |= RES_FLAG_ABORT;
    }
    out.push(flags);
    if let Some(d) = &r.deviation {
        put_varint(out, d.index);
        put_commit(out, &d.golden);
        put_commit(out, &d.faulty);
    }
    put_varint(out, r.cycles);
    put_varint(out, r.post_inject_cycles);
    if let Some(msg) = &r.abort_message {
        put_varint(out, msg.len() as u64);
        out.extend_from_slice(msg.as_bytes());
    }
}

fn get_result(r: &mut BinReader<'_>) -> Result<(usize, InjectionResult), String> {
    let idx = usize::try_from(r.varint()?).map_err(|_| "index overflows usize".to_string())?;
    let structure = structure_from_code(r.u8()?)?;
    let bit = r.varint()?;
    let fault_cycle = r.varint()?;
    let outcome = get_outcome(r)?;
    let flags = r.u8()?;
    let deviation = if flags & RES_FLAG_DEVIATION != 0 {
        Some(Deviation {
            index: r.varint()?,
            golden: get_commit(r)?,
            faulty: get_commit(r)?,
        })
    } else {
        None
    };
    let cycles = r.varint()?;
    let post_inject_cycles = r.varint()?;
    let abort_message = if flags & RES_FLAG_ABORT != 0 {
        let len = usize::try_from(r.varint()?).map_err(|_| "abort length".to_string())?;
        Some(
            std::str::from_utf8(r.bytes(len)?)
                .map_err(|e| format!("abort message not UTF-8: {e}"))?
                .to_string(),
        )
    } else {
        None
    };
    Ok((
        idx,
        InjectionResult {
            fault: Fault {
                site: FaultSite { structure, bit },
                cycle: fault_cycle,
            },
            outcome,
            deviation,
            output_matches: (flags & RES_FLAG_MATCH_PRESENT != 0)
                .then_some(flags & RES_FLAG_MATCH_VALUE != 0),
            cycles,
            post_inject_cycles,
            abort_message,
        },
    ))
}

/// Encodes the deterministic counter subset of a telemetry snapshot in
/// sparse binary form: only non-zero outcome, structure, and histogram
/// slots travel, each as `(u8 slot, varint count)`. Classes keep their
/// label text (they are caller-defined), length-prefixed.
fn put_telemetry(out: &mut Vec<u8>, t: &MetricsSnapshot) {
    put_varint(out, t.planned);
    put_varint(out, t.completed);
    put_varint(out, t.retries);
    let outcomes: Vec<(usize, u64)> = t
        .outcomes
        .iter()
        .enumerate()
        .filter(|(_, (_, n))| *n > 0)
        .map(|(i, (_, n))| (i, *n))
        .collect();
    out.push(outcomes.len() as u8);
    for (i, n) in outcomes {
        out.push(i as u8);
        put_varint(out, n);
    }
    put_varint(out, t.classes.len() as u64);
    for (label, n) in &t.classes {
        put_varint(out, label.len() as u64);
        out.extend_from_slice(label.as_bytes());
        put_varint(out, *n);
    }
    let structures: Vec<(u8, u64)> = t
        .structures
        .iter()
        .filter(|(_, n)| *n > 0)
        .map(|(s, n)| (structure_code(*s), *n))
        .collect();
    out.push(structures.len() as u8);
    for (code, n) in structures {
        out.push(code);
        put_varint(out, n);
    }
    let buckets: Vec<(usize, u64)> = t
        .post_inject_cycles
        .counts
        .iter()
        .enumerate()
        .filter(|(_, &n)| n > 0)
        .map(|(i, &n)| (i, n))
        .collect();
    out.push(buckets.len() as u8);
    for (i, n) in buckets {
        out.push(i as u8);
        put_varint(out, n);
    }
}

fn get_telemetry(r: &mut BinReader<'_>) -> Result<MetricsSnapshot, String> {
    let mut t = MetricsSnapshot::empty();
    t.planned = r.varint()?;
    t.completed = r.varint()?;
    t.retries = r.varint()?;
    for _ in 0..r.u8()? {
        let i = r.u8()? as usize;
        if i >= OUTCOME_LABELS.len() {
            return Err(format!("unknown outcome slot {i}"));
        }
        t.outcomes[i].1 = r.varint()?;
    }
    // The grid runs classifier-free workers: there is no label set a class
    // tally could resolve against.
    let classes = r.varint()?;
    if classes != 0 {
        return Err(format!(
            "{classes} class tallies from a classifier-free fleet"
        ));
    }
    for _ in 0..r.u8()? {
        let s = structure_from_code(r.u8()?)?;
        let n = r.varint()?;
        t.structures
            .iter_mut()
            .find(|(x, _)| *x == s)
            .expect("Structure::all() covers every structure")
            .1 = n;
    }
    for _ in 0..r.u8()? {
        let i = r.u8()? as usize;
        if i >= HIST_BUCKETS {
            return Err(format!("unknown histogram bucket {i}"));
        }
        t.post_inject_cycles.counts[i] = r.varint()?;
    }
    Ok(t)
}

// ---------------------------------------------------------------------------
// Messages.

/// One protocol message.
#[derive(Debug)]
pub enum Msg {
    /// Worker → coordinator: first frame on a fresh connection.
    Hello {
        /// The protocol version the worker speaks.
        proto: u64,
        /// `None` for a brand-new worker; `Some(token)` when reconnecting
        /// mid-campaign to re-attach to an existing session (and its live
        /// leases).
        session: Option<u64>,
    },
    /// Coordinator → worker: handshake accepted.
    Welcome {
        /// The protocol version this connection speaks ([`PROTO_VERSION`]).
        proto: u64,
        /// The session token to present when reconnecting.
        session: u64,
    },
    /// Worker → coordinator: ready for (more) work.
    LeaseRequest,
    /// Coordinator → worker: a batch of fault indices to execute.
    Lease {
        /// Lease id (echoed in heartbeats and the batch report).
        lease: u64,
        /// Which campaign's fault list the indices address (`0` on a
        /// single-campaign link).
        campaign: u64,
        /// Fault indices into that campaign's sampled fault list.
        indices: Vec<usize>,
    },
    /// Coordinator → worker: no work available right now (everything is
    /// leased out); poll again shortly.
    Drain,
    /// Coordinator → worker: the campaign is complete (or the service is
    /// shutting down); disconnect.
    Done,
    /// Worker → coordinator: still alive and working on `lease`.
    Heartbeat {
        /// The lease being extended.
        lease: u64,
        /// The lease's campaign (`0` on a single-campaign link).
        campaign: u64,
    },
    /// Worker → coordinator: a finished batch.
    BatchDone {
        /// The lease these results discharge.
        lease: u64,
        /// The lease's campaign (`0` on a single-campaign link).
        campaign: u64,
        /// `(fault index, result)` pairs.
        results: Vec<(usize, InjectionResult)>,
        /// The batch's mergeable telemetry delta (deterministic counters).
        telemetry: MetricsSnapshot,
    },
    /// Coordinator → worker: the spec of a campaign the worker holds a
    /// lease for, in answer to [`Msg::SpecRequest`].
    Spec {
        /// The campaign the spec describes.
        campaign: u64,
        /// The campaign definition.
        spec: CampaignSpec,
    },
    /// Worker → coordinator: the worker holds a lease for `campaign` but
    /// no runtime for it (its first lease of the campaign, or the runtime
    /// was evicted since); answered with [`Msg::Spec`].
    SpecRequest {
        /// The campaign whose spec is missing.
        campaign: u64,
    },
    /// Coordinator → worker: fatal rejection (bad protocol version, spec
    /// the worker cannot satisfy, …).
    Reject {
        /// Human-readable reason.
        reason: String,
    },
}

/// Message kinds, for per-kind wire tallies ([`WireStats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MsgKind {
    /// [`Msg::Hello`]
    Hello,
    /// [`Msg::Welcome`]
    Welcome,
    /// [`Msg::LeaseRequest`]
    LeaseRequest,
    /// [`Msg::Lease`]
    Lease,
    /// [`Msg::Drain`]
    Drain,
    /// [`Msg::Done`]
    Done,
    /// [`Msg::Heartbeat`]
    Heartbeat,
    /// [`Msg::BatchDone`]
    BatchDone,
    /// [`Msg::Spec`]
    Spec,
    /// [`Msg::SpecRequest`]
    SpecRequest,
    /// [`Msg::Reject`]
    Reject,
}

impl MsgKind {
    /// Every kind, in tally order.
    pub const ALL: [MsgKind; 11] = [
        MsgKind::Hello,
        MsgKind::Welcome,
        MsgKind::LeaseRequest,
        MsgKind::Lease,
        MsgKind::Drain,
        MsgKind::Done,
        MsgKind::Heartbeat,
        MsgKind::BatchDone,
        MsgKind::Spec,
        MsgKind::SpecRequest,
        MsgKind::Reject,
    ];

    /// Stable lowercase name (log/tally label).
    pub fn name(self) -> &'static str {
        match self {
            MsgKind::Hello => "hello",
            MsgKind::Welcome => "welcome",
            MsgKind::LeaseRequest => "lease_request",
            MsgKind::Lease => "lease",
            MsgKind::Drain => "drain",
            MsgKind::Done => "done",
            MsgKind::Heartbeat => "heartbeat",
            MsgKind::BatchDone => "batch_done",
            MsgKind::Spec => "spec",
            MsgKind::SpecRequest => "spec_request",
            MsgKind::Reject => "reject",
        }
    }
}

/// Per-stream wire accounting in the style of `ChaosStats`: lock-free
/// frame and wire-byte tallies per message kind (the service keeps one for
/// every frame it sends and reads).
#[derive(Debug, Default)]
pub struct WireStats {
    frames: [AtomicU64; MsgKind::ALL.len()],
    bytes: [AtomicU64; MsgKind::ALL.len()],
}

impl WireStats {
    /// Fresh, all-zero tallies.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one frame of `kind` whose payload was `payload_len` bytes
    /// (framing overhead is added here, so tallies reflect bytes on the
    /// wire, not just payload).
    pub fn record(&self, kind: MsgKind, payload_len: usize) {
        let i = kind as usize;
        self.frames[i].fetch_add(1, Ordering::Relaxed);
        self.bytes[i].fetch_add((payload_len + FRAME_OVERHEAD) as u64, Ordering::Relaxed);
    }

    /// `(frames, wire bytes)` tallied for `kind`.
    pub fn of(&self, kind: MsgKind) -> (u64, u64) {
        let i = kind as usize;
        (
            self.frames[i].load(Ordering::Relaxed),
            self.bytes[i].load(Ordering::Relaxed),
        )
    }

    /// Total `(frames, wire bytes)` across all kinds.
    pub fn total(&self) -> (u64, u64) {
        MsgKind::ALL.iter().fold((0, 0), |(f, b), &k| {
            let (kf, kb) = self.of(k);
            (f + kf, b + kb)
        })
    }
}

impl Msg {
    /// This message's kind (tally key).
    pub fn kind(&self) -> MsgKind {
        match self {
            Msg::Hello { .. } => MsgKind::Hello,
            Msg::Welcome { .. } => MsgKind::Welcome,
            Msg::LeaseRequest => MsgKind::LeaseRequest,
            Msg::Lease { .. } => MsgKind::Lease,
            Msg::Drain => MsgKind::Drain,
            Msg::Done => MsgKind::Done,
            Msg::Heartbeat { .. } => MsgKind::Heartbeat,
            Msg::BatchDone { .. } => MsgKind::BatchDone,
            Msg::Spec { .. } => MsgKind::Spec,
            Msg::SpecRequest { .. } => MsgKind::SpecRequest,
            Msg::Reject { .. } => MsgKind::Reject,
        }
    }

    /// Serializes the message to its JSON frame payload.
    ///
    /// A hot message's campaign id is emitted only when non-zero.
    pub fn to_json(&self) -> String {
        fn tagged(w: &mut Writer<'_>, campaign: u64) {
            if campaign != 0 {
                w.key("campaign").u64(campaign);
            }
        }
        json::object(|w| {
            w.key("t").str(self.kind().name());
            match self {
                Msg::LeaseRequest | Msg::Drain | Msg::Done => {}
                Msg::Hello { proto, session } => {
                    w.key("proto").u64(*proto);
                    w.key("session").opt(*session, Writer::u64);
                }
                Msg::Welcome { proto, session } => {
                    w.key("proto").u64(*proto);
                    w.key("session").u64(*session);
                }
                Msg::Lease {
                    lease,
                    campaign,
                    indices,
                } => {
                    w.key("lease").u64(*lease);
                    tagged(w, *campaign);
                    w.key("indices").u64s(indices.iter().map(|&i| i as u64));
                }
                Msg::Heartbeat { lease, campaign } => {
                    w.key("lease").u64(*lease);
                    tagged(w, *campaign);
                }
                Msg::BatchDone {
                    lease,
                    campaign,
                    results,
                    telemetry,
                } => {
                    w.key("lease").u64(*lease);
                    tagged(w, *campaign);
                    w.key("results").array(|w| {
                        for (idx, r) in results {
                            write_record(w, *idx, r);
                        }
                    });
                    telemetry.write_deterministic(w.key("telemetry"));
                }
                Msg::Spec { campaign, spec } => {
                    w.key("campaign").u64(*campaign);
                    spec.write_json(w.key("spec"));
                }
                Msg::SpecRequest { campaign } => {
                    w.key("campaign").u64(*campaign);
                }
                Msg::Reject { reason } => {
                    w.key("reason").str(reason);
                }
            }
        })
    }

    /// Parses a JSON frame payload back into a message.
    pub fn from_json(payload: &str) -> Result<Msg, String> {
        let v = json::parse(payload)?;
        // Absent from a hot message of campaign 0.
        let campaign = v.opt("campaign", Json::u64_at)?.unwrap_or(0);
        Ok(match v.str_at("t")? {
            "hello" => Msg::Hello {
                proto: v.u64_at("proto")?,
                session: v.opt("session", Json::u64_at)?,
            },
            "welcome" => Msg::Welcome {
                proto: v.u64_at("proto")?,
                session: v.u64_at("session")?,
            },
            "lease_request" => Msg::LeaseRequest,
            "lease" => Msg::Lease {
                lease: v.u64_at("lease")?,
                campaign,
                indices: v
                    .u64s_at("indices")?
                    .into_iter()
                    .map(|i| usize::try_from(i).map_err(|_| "index overflows usize"))
                    .collect::<Result<_, _>>()?,
            },
            "drain" => Msg::Drain,
            "done" => Msg::Done,
            "heartbeat" => Msg::Heartbeat {
                lease: v.u64_at("lease")?,
                campaign,
            },
            "batch_done" => Msg::BatchDone {
                lease: v.u64_at("lease")?,
                campaign,
                results: v
                    .array_at("results")?
                    .iter()
                    .map(record_from_json)
                    .collect::<Result<_, _>>()?,
                telemetry: MetricsSnapshot::from_deterministic_value(v.at("telemetry")?, &[])?,
            },
            "spec" => Msg::Spec {
                campaign: v.u64_at("campaign")?,
                spec: CampaignSpec::from_json_value(v.at("spec")?)?,
            },
            "spec_request" => Msg::SpecRequest {
                campaign: v.u64_at("campaign")?,
            },
            "reject" => Msg::Reject {
                reason: v
                    .opt("reason", Json::str_at)?
                    .unwrap_or("unspecified")
                    .to_string(),
            },
            other => return Err(format!("unknown message tag {other:?}")),
        })
    }

    /// Encodes the message's frame payload: binary for the hot messages
    /// (`lease`, `batch_done`, `heartbeat`) at `proto` 3 or above, JSON for
    /// everything else. Decoding ([`Msg::decode`]) needs no version because
    /// the first payload byte names the dialect.
    ///
    /// Every session speaks [`PROTO_VERSION`] ([`send`]); a `proto` below 3
    /// and the JSON arms of the hot messages stay only because `benchmark/`
    /// measures them, until ROADMAP item 8a moves it off them.
    pub fn encode(&self, proto: u64) -> Vec<u8> {
        if proto >= 3 {
            match self {
                Msg::Lease {
                    lease,
                    campaign,
                    indices,
                } => {
                    let mut out = vec![BIN_LEASE];
                    put_varint(&mut out, *lease);
                    put_varint(&mut out, *campaign);
                    put_varint(&mut out, indices.len() as u64);
                    for &i in indices {
                        put_varint(&mut out, i as u64);
                    }
                    return out;
                }
                Msg::Heartbeat { lease, campaign } => {
                    let mut out = vec![BIN_HEARTBEAT];
                    put_varint(&mut out, *lease);
                    put_varint(&mut out, *campaign);
                    return out;
                }
                Msg::BatchDone {
                    lease,
                    campaign,
                    results,
                    telemetry,
                } => {
                    let mut out = vec![BIN_BATCH_DONE];
                    put_varint(&mut out, *lease);
                    put_varint(&mut out, *campaign);
                    put_varint(&mut out, results.len() as u64);
                    for (idx, r) in results {
                        put_result(&mut out, *idx, r);
                    }
                    put_telemetry(&mut out, telemetry);
                    return out;
                }
                _ => {}
            }
        }
        self.to_json().into_bytes()
    }

    /// Decodes a frame payload in either dialect.
    pub fn decode(payload: &[u8]) -> Result<Msg, String> {
        match payload.first() {
            Some(&BIN_LEASE) => {
                let mut r = BinReader::new(&payload[1..]);
                let lease = r.varint()?;
                let campaign = r.varint()?;
                let count = r.varint()?;
                let mut indices = Vec::with_capacity(r.fit(count, 1));
                for _ in 0..count {
                    indices
                        .push(usize::try_from(r.varint()?).map_err(|_| "index overflows usize")?);
                }
                r.finish()?;
                Ok(Msg::Lease {
                    lease,
                    campaign,
                    indices,
                })
            }
            Some(&BIN_HEARTBEAT) => {
                let mut r = BinReader::new(&payload[1..]);
                let lease = r.varint()?;
                let campaign = r.varint()?;
                r.finish()?;
                Ok(Msg::Heartbeat { lease, campaign })
            }
            Some(&BIN_BATCH_DONE) => {
                let mut r = BinReader::new(&payload[1..]);
                let lease = r.varint()?;
                let campaign = r.varint()?;
                let count = r.varint()?;
                let mut results = Vec::with_capacity(r.fit(count, MIN_RESULT_BYTES));
                for _ in 0..count {
                    results.push(get_result(&mut r)?);
                }
                let telemetry = get_telemetry(&mut r)?;
                r.finish()?;
                Ok(Msg::BatchDone {
                    lease,
                    campaign,
                    results,
                    telemetry,
                })
            }
            Some(&b'{') => {
                Msg::from_json(std::str::from_utf8(payload).map_err(|e| format!("not UTF-8: {e}"))?)
            }
            Some(&b) => Err(format!("unknown payload dialect byte {b:#04x}")),
            None => Err("empty payload".into()),
        }
    }
}

/// Writes one message as a frame at [`PROTO_VERSION`].
pub fn send(w: &mut (impl Write + ?Sized), msg: &Msg) -> std::io::Result<()> {
    write_frame(w, &msg.encode(PROTO_VERSION))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varints_round_trip() {
        for v in [
            0u64,
            1,
            127,
            128,
            300,
            16_383,
            16_384,
            u64::from(u32::MAX),
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut r = BinReader::new(&buf);
            assert_eq!(r.varint().unwrap(), v);
            r.finish().unwrap();
        }
        // Truncated and overlong inputs are rejected, not mis-read.
        assert!(BinReader::new(&[0x80]).varint().is_err());
        assert!(BinReader::new(&[0xff; 11]).varint().is_err());
    }

    #[test]
    fn simple_messages_round_trip_in_json() {
        for msg in [
            Msg::Hello {
                proto: 3,
                session: None,
            },
            Msg::Hello {
                proto: 2,
                session: Some(17),
            },
            Msg::LeaseRequest,
            Msg::Lease {
                lease: 7,
                campaign: 0,
                indices: vec![3, 1, 4],
            },
            Msg::Lease {
                lease: 7,
                campaign: 5,
                indices: vec![3, 1, 4],
            },
            Msg::Drain,
            Msg::Done,
            Msg::Heartbeat {
                lease: 9,
                campaign: 0,
            },
            Msg::Heartbeat {
                lease: 9,
                campaign: 2,
            },
            Msg::SpecRequest { campaign: 11 },
            Msg::Reject {
                reason: "bad \"spec\"".into(),
            },
        ] {
            let back = Msg::from_json(&msg.to_json()).unwrap();
            assert_eq!(format!("{back:?}"), format!("{msg:?}"));
        }
    }

    #[test]
    fn json_hot_messages_omit_a_zero_campaign_and_a_welcome_names_its_version() {
        let lease = Msg::Lease {
            lease: 7,
            campaign: 0,
            indices: vec![1, 2],
        };
        assert_eq!(
            lease.to_json(),
            "{\"t\":\"lease\",\"lease\":7,\"indices\":[1,2]}"
        );
        let hb = Msg::Heartbeat {
            lease: 9,
            campaign: 0,
        };
        assert_eq!(hb.to_json(), "{\"t\":\"heartbeat\",\"lease\":9}");
        // A welcome without `proto` is refused by name, not read as some
        // older version.
        let welcome = "{\"t\":\"welcome\",\"session\":4}";
        assert!(Msg::from_json(welcome).unwrap_err().contains("proto"));
    }

    fn rich_results() -> Vec<(usize, InjectionResult)> {
        let fault = |s, bit, cycle| Fault {
            site: FaultSite { structure: s, bit },
            cycle,
        };
        vec![
            (
                0,
                InjectionResult {
                    fault: fault(Structure::RegFile, 1 << 40, 12345),
                    outcome: RunOutcome::Completed,
                    deviation: None,
                    output_matches: Some(true),
                    cycles: 100_000,
                    post_inject_cycles: 87_655,
                    abort_message: None,
                },
            ),
            (
                17,
                InjectionResult {
                    fault: fault(Structure::Rob, 3, 7),
                    outcome: RunOutcome::Trap(TrapKind::Memory(MemFault::Misaligned(0xdead_beef))),
                    deviation: Some(Deviation {
                        index: 42,
                        golden: CommitRecord {
                            cycle: 99,
                            pc: 0x100,
                            raw: 0xdead_beef,
                            ea: 0,
                            val: 7,
                        },
                        faulty: CommitRecord {
                            cycle: 99,
                            pc: 0x104,
                            raw: 0xfeed_face,
                            ea: 4,
                            val: 8,
                        },
                    }),
                    output_matches: Some(false),
                    cycles: 500,
                    post_inject_cycles: 493,
                    abort_message: None,
                },
            ),
            (
                3,
                InjectionResult {
                    fault: fault(Structure::Dtlb, 0, 1),
                    outcome: RunOutcome::IntegrityViolation(Structure::Sq),
                    deviation: None,
                    output_matches: None,
                    cycles: 2,
                    post_inject_cycles: 1,
                    abort_message: Some("sq häd an ünusual day".into()),
                },
            ),
            (
                4,
                InjectionResult {
                    fault: fault(Structure::L2Data, 9, 2),
                    outcome: RunOutcome::SimAbort,
                    deviation: None,
                    output_matches: None,
                    cycles: 0,
                    post_inject_cycles: 0,
                    abort_message: Some("panicked".into()),
                },
            ),
        ]
    }

    fn rich_telemetry() -> MetricsSnapshot {
        let mut t = MetricsSnapshot::empty();
        t.planned = 4;
        t.completed = 4;
        t.retries = 1;
        t.outcomes[0].1 = 1;
        t.outcomes[1].1 = 1;
        t.outcomes[2].1 = 1;
        t.outcomes[7].1 = 1;
        t.structures[6].1 = 2;
        t.structures[7].1 = 1;
        t.structures[11].1 = 1;
        t.post_inject_cycles.counts[0] = 1;
        t.post_inject_cycles.counts[1] = 1;
        t.post_inject_cycles.counts[9] = 1;
        t.post_inject_cycles.counts[17] = 1;
        t
    }

    #[test]
    fn binary_hot_messages_round_trip() {
        let msgs = [
            Msg::Lease {
                lease: 300,
                campaign: 7,
                indices: vec![0, 1, 127, 128, 999_999],
            },
            Msg::Heartbeat {
                lease: u64::MAX,
                campaign: 0,
            },
            Msg::BatchDone {
                lease: 12,
                campaign: 3,
                results: rich_results(),
                telemetry: rich_telemetry(),
            },
        ];
        for msg in msgs {
            let payload = msg.encode(3);
            assert_ne!(payload[0], b'{', "v3 hot messages must be binary");
            let back = Msg::decode(&payload).unwrap();
            assert_eq!(format!("{back:?}"), format!("{msg:?}"));
            // The JSON arm of the same message still round-trips.
            let json = msg.encode(2);
            assert_eq!(json[0], b'{');
            let back = Msg::decode(&json).unwrap();
            assert_eq!(format!("{back:?}"), format!("{msg:?}"));
        }
    }

    #[test]
    fn binary_batch_done_is_smaller_than_json() {
        let msg = Msg::BatchDone {
            lease: 12,
            campaign: 3,
            results: rich_results(),
            telemetry: rich_telemetry(),
        };
        let bin = msg.encode(3).len();
        let json = msg.encode(2).len();
        assert!(
            bin * 4 < json,
            "binary batch_done ({bin}B) should be at least 4x smaller than JSON ({json}B)"
        );
    }

    #[test]
    fn binary_decode_rejects_corruption_shapes() {
        let msg = Msg::Heartbeat {
            lease: 5,
            campaign: 1,
        };
        let mut payload = msg.encode(3);
        // Trailing garbage is an error, not silently ignored.
        payload.push(0);
        assert!(Msg::decode(&payload).is_err());
        // Truncation is an error.
        let payload = msg.encode(3);
        assert!(Msg::decode(&payload[..payload.len() - 1]).is_err());
        // Unknown dialect bytes are refused.
        assert!(Msg::decode(&[0x42, 0, 0]).is_err());
        assert!(Msg::decode(&[]).is_err());
        // Unknown outcome codes inside a batch are refused.
        let mut bad = vec![BIN_BATCH_DONE];
        put_varint(&mut bad, 1); // lease
        put_varint(&mut bad, 0); // campaign
        put_varint(&mut bad, 1); // one result
        put_varint(&mut bad, 0); // idx
        bad.push(0); // structure
        put_varint(&mut bad, 0); // bit
        put_varint(&mut bad, 0); // cycle
        bad.push(0xEE); // bogus outcome code
        assert!(Msg::decode(&bad).is_err());
    }

    #[test]
    fn a_count_reserves_no_more_than_the_payload_could_hold() {
        // The rule: elements reserved ≤ payload bytes left ÷ the shortest
        // encoding of one, whatever the count claims.
        let r = BinReader::new(&[0u8; 100]);
        assert_eq!(r.fit(3, 1), 3);
        assert_eq!(r.fit(1 << 25, 1), 100);
        assert_eq!(r.fit(u64::MAX, 1), 100);
        assert_eq!(r.fit(u64::MAX, MIN_RESULT_BYTES), 12);
        assert_eq!(BinReader::new(&[]).fit(u64::MAX, 1), 0);
        // Every real result is at least MIN_RESULT_BYTES long, so the
        // reservation never undershoots an honest frame.
        for (idx, r) in rich_results() {
            let mut one = Vec::new();
            put_result(&mut one, idx, &r);
            assert!(one.len() >= MIN_RESULT_BYTES);
        }

        // Nine bytes claiming 2^25 results (5.1 GB of `InjectionResult`s,
        // reserved up front before this fix) and 2^25 indices: refused at
        // the first element that is not there.
        for tag in [BIN_BATCH_DONE, BIN_LEASE] {
            let mut frame = vec![tag];
            put_varint(&mut frame, 1 << 14); // lease
            put_varint(&mut frame, 0); // campaign
            put_varint(&mut frame, u64::from(MAX_FRAME)); // count
            assert_eq!(frame.len(), 9);
            assert!(Msg::decode(&frame).is_err());
        }
    }

    #[test]
    fn deeply_nested_json_frames_are_refused_not_recursed_into() {
        // Any `{`-led frame reaches the JSON parser; 100 KB of nesting used
        // to overflow the stack of whichever thread decoded it.
        let deep = format!("{{\"t\":{}", "[".repeat(100_000));
        assert!(Msg::decode(deep.as_bytes())
            .unwrap_err()
            .contains("nesting"));
        let deep = "{\"t\":".repeat(50_000);
        assert!(Msg::decode(deep.as_bytes()).is_err());
    }

    #[test]
    fn wire_stats_tally_per_kind() {
        let stats = WireStats::new();
        let hb = Msg::Heartbeat {
            lease: 1,
            campaign: 0,
        };
        let payload = hb.encode(3);
        stats.record(hb.kind(), payload.len());
        stats.record(hb.kind(), payload.len());
        stats.record(MsgKind::BatchDone, 100);
        let (f, b) = stats.of(MsgKind::Heartbeat);
        assert_eq!(f, 2);
        assert_eq!(b, 2 * (payload.len() + FRAME_OVERHEAD) as u64);
        assert_eq!(
            stats.of(MsgKind::BatchDone),
            (1, 100 + FRAME_OVERHEAD as u64)
        );
        assert_eq!(stats.total().0, 3);
    }

    #[test]
    fn frame_buffer_reassembles_split_frames() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"first").unwrap();
        write_frame(&mut wire, b"").unwrap();
        write_frame(&mut wire, b"second").unwrap();
        let mut fb = FrameBuffer::new();
        // Feed the bytes one at a time: every intermediate poll must report
        // "incomplete" without corrupting the stream position.
        let mut got = Vec::new();
        for b in &wire {
            if let Some(f) = fb.poll(&mut &[*b][..]).unwrap() {
                got.push(f);
            }
        }
        assert_eq!(got, vec![b"first".to_vec(), vec![], b"second".to_vec()]);
        assert!(matches!(fb.poll(&mut &[][..]), Err(FrameError::Closed)));
    }

    #[test]
    fn frame_buffer_sheds_oversized_allocations() {
        // One ~1 MiB frame must not pin a ~1 MiB buffer for the rest of
        // the connection's life.
        let big = vec![b'x'; 1 << 20];
        let mut wire = Vec::new();
        write_frame(&mut wire, &big).unwrap();
        write_frame(&mut wire, b"small").unwrap();
        let mut fb = FrameBuffer::new();
        let mut src = &wire[..];
        let first = loop {
            if let Some(f) = fb.poll(&mut src).unwrap() {
                break f;
            }
        };
        assert_eq!(first.len(), big.len());
        assert!(
            fb.capacity() <= FRAME_BUF_RETAIN,
            "buffer retained {} bytes after draining an oversized frame",
            fb.capacity()
        );
        // The stream keeps working after the shrink.
        let second = loop {
            if let Some(f) = fb.poll(&mut src).unwrap() {
                break f;
            }
        };
        assert_eq!(second, b"small");
    }

    #[test]
    fn frame_buffer_rejects_oversized_prefix_and_mid_frame_close() {
        let mut fb = FrameBuffer::new();
        let mut wire = u32::MAX.to_be_bytes().to_vec();
        wire.extend_from_slice(b"junk");
        match fb.poll(&mut &wire[..]) {
            Err(FrameError::TooLarge(n)) => assert_eq!(n, u32::MAX),
            other => panic!("expected TooLarge, got {other:?}"),
        }
        // A peer vanishing mid-frame is an I/O error, not a clean close:
        // inside the length prefix, right after it, or inside the payload.
        let mut torn_payload = 10u32.to_be_bytes().to_vec();
        torn_payload.extend_from_slice(b"shor");
        for torn in [&[0u8, 0][..], &10u32.to_be_bytes(), &torn_payload] {
            let mut fb = FrameBuffer::new();
            assert!(fb.poll(&mut &torn[..]).unwrap().is_none());
            assert_eq!(fb.buffered(), torn.len());
            assert!(matches!(fb.poll(&mut &[][..]), Err(FrameError::Io(_))));
        }
    }

    #[test]
    fn corrupted_payload_fails_the_crc_check() {
        // Flip one payload bit, or one trailer bit: the frame is refused.
        for at in [6, 4 + b"pristine".len() + FRAME_CRC_BYTES - 1] {
            let mut wire = Vec::new();
            write_frame(&mut wire, b"pristine").unwrap();
            wire[at] ^= 0x10;
            match FrameBuffer::new().poll(&mut &wire[..]) {
                Err(FrameError::Crc { expected, found }) => assert_ne!(expected, found),
                other => panic!("expected CRC mismatch, got {other:?}"),
            }
        }
    }

    #[test]
    fn unknown_tags_and_garbage_are_rejected() {
        assert!(Msg::from_json("{\"t\":\"launch_missiles\"}").is_err());
        assert!(Msg::from_json("not json").is_err());
        assert!(Msg::from_json("{\"no_tag\":1}").is_err());
    }
}
