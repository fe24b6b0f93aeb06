//! Deterministic fault injection for the fabric itself.
//!
//! AVGI's premise is that you learn what a system tolerates by injecting
//! faults and observing outcomes; this module turns that method on the
//! campaign fabric. A [`ChaosTransport`] wraps any [`Transport`] and
//! perturbs the *outgoing* frame stream per a seeded [`ChaosPolicy`]:
//! frames can be dropped, bit-corrupted, duplicated, delayed, or the
//! connection severed mid-frame. Because every decision comes from an
//! [`avgi_rng::Rng`] seeded from `(policy seed, stream id)`, a chaos run is
//! reproducible — the same seed replays the same misfortune.
//!
//! Chaos rides the write path only: wrapping one side's transport perturbs
//! that side's outbound frames, so wrapping both peers covers both
//! directions. The fabric's correctness contract is that *none of this
//! changes the merged campaign*: frame CRCs turn corruption into detected
//! connection drops, session-token reconnect turns drops into retries, and
//! first-responder-wins lease accounting makes every retransmission
//! idempotent. `grid/tests/chaos.rs` holds the fabric to that contract
//! bit-for-bit, with chaos on one side of the link or both.

use crate::transport::Transport;
use avgi_rng::Rng;
use std::io::{Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// What fraction of frames suffer each fate (independent cumulative draws;
/// the probabilities should sum to well under 1.0 so most frames survive).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosPolicy {
    /// Seed for the deterministic decision stream.
    pub seed: u64,
    /// P(frame silently dropped).
    pub drop: f64,
    /// P(one bit of the frame body flipped — always CRC-detectable).
    pub corrupt: f64,
    /// P(frame delivered twice).
    pub duplicate: f64,
    /// P(connection severed mid-frame: a truncated frame reaches the peer,
    /// then the socket is shut down).
    pub sever: f64,
    /// P(frame delayed by up to [`max_delay`](Self::max_delay)).
    pub delay: f64,
    /// Upper bound for injected delays.
    pub max_delay: Duration,
}

impl ChaosPolicy {
    /// A policy that injects nothing (useful as a base for struct update).
    pub fn calm(seed: u64) -> Self {
        ChaosPolicy {
            seed,
            drop: 0.0,
            corrupt: 0.0,
            duplicate: 0.0,
            sever: 0.0,
            delay: 0.0,
            max_delay: Duration::from_millis(5),
        }
    }

    /// The default test mix: every fault class enabled at rates a short
    /// campaign survives while still exercising each recovery path.
    pub fn stormy(seed: u64) -> Self {
        ChaosPolicy {
            drop: 0.06,
            corrupt: 0.06,
            duplicate: 0.04,
            sever: 0.02,
            delay: 0.08,
            ..ChaosPolicy::calm(seed)
        }
    }
}

/// Tally of injected faults, shared by every stream an interposer wrapped.
#[derive(Debug, Default)]
pub struct ChaosStats {
    /// Frames passed through unharmed.
    pub delivered: AtomicU64,
    /// Frames silently dropped.
    pub dropped: AtomicU64,
    /// Frames with one bit flipped.
    pub corrupted: AtomicU64,
    /// Frames delivered twice.
    pub duplicated: AtomicU64,
    /// Connections severed mid-frame.
    pub severed: AtomicU64,
    /// Frames delayed.
    pub delayed: AtomicU64,
}

impl ChaosStats {
    /// Total faults injected (everything except clean deliveries).
    pub fn injected(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
            + self.corrupted.load(Ordering::Relaxed)
            + self.duplicated.load(Ordering::Relaxed)
            + self.severed.load(Ordering::Relaxed)
            + self.delayed.load(Ordering::Relaxed)
    }

    /// One summary line for logs.
    pub fn summary(&self) -> String {
        format!(
            "delivered {} | dropped {} | corrupted {} | duplicated {} | severed {} | delayed {}",
            self.delivered.load(Ordering::Relaxed),
            self.dropped.load(Ordering::Relaxed),
            self.corrupted.load(Ordering::Relaxed),
            self.duplicated.load(Ordering::Relaxed),
            self.severed.load(Ordering::Relaxed),
            self.delayed.load(Ordering::Relaxed),
        )
    }
}

/// Wraps transports in [`ChaosTransport`]s, giving each wrapped stream its
/// own decision stream derived from `(policy seed, stream counter)` so a
/// reconnecting peer does not replay the exact misfortune that killed it.
#[derive(Debug)]
pub struct ChaosInterposer {
    policy: ChaosPolicy,
    streams: AtomicU64,
    stats: Arc<ChaosStats>,
}

impl ChaosInterposer {
    /// An interposer for `policy`.
    pub fn new(policy: ChaosPolicy) -> Self {
        ChaosInterposer {
            policy,
            streams: AtomicU64::new(0),
            stats: Arc::new(ChaosStats::default()),
        }
    }

    /// The shared fault tally across every wrapped stream.
    pub fn stats(&self) -> &Arc<ChaosStats> {
        &self.stats
    }

    /// Wraps one connection's transport.
    pub fn wrap(&self, inner: Box<dyn Transport>) -> Box<dyn Transport> {
        let stream_id = self.streams.fetch_add(1, Ordering::Relaxed);
        Box::new(ChaosTransport::new(
            inner,
            self.policy,
            stream_id,
            self.stats.clone(),
        ))
    }
}

/// Per-frame fates, in the order the cumulative roll checks them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fate {
    Sever,
    Drop,
    Corrupt,
    Duplicate,
    Delay,
    Deliver,
}

struct Decider {
    policy: ChaosPolicy,
    rng: Rng,
}

impl Decider {
    fn fate(&mut self) -> Fate {
        let roll = self.rng.gen_f64();
        let p = &self.policy;
        let mut acc = p.sever;
        if roll < acc {
            return Fate::Sever;
        }
        acc += p.drop;
        if roll < acc {
            return Fate::Drop;
        }
        acc += p.corrupt;
        if roll < acc {
            return Fate::Corrupt;
        }
        acc += p.duplicate;
        if roll < acc {
            return Fate::Duplicate;
        }
        acc += p.delay;
        if roll < acc {
            return Fate::Delay;
        }
        Fate::Deliver
    }
}

/// A [`Transport`] that injects seeded faults into its outgoing frames.
///
/// Reads pass through untouched; writes are reassembled into whole frames
/// (the wrapper understands the `length + payload + crc` layout from
/// [`crate::proto`]) and each completed frame draws its fate from the
/// decision stream. A severed connection poisons the handle, mimicking a
/// socket teardown. Only the stats are shared: the interposer reports them.
pub struct ChaosTransport {
    inner: Box<dyn Transport>,
    decider: Decider,
    dead: bool,
    stats: Arc<ChaosStats>,
    wbuf: Vec<u8>,
}

impl ChaosTransport {
    /// Wraps `inner`; `stream_id` separates this stream's decision stream
    /// from its siblings under the same policy seed.
    pub fn new(
        inner: Box<dyn Transport>,
        policy: ChaosPolicy,
        stream_id: u64,
        stats: Arc<ChaosStats>,
    ) -> Self {
        // Mix the stream id into the seed SplitMix-style so consecutive ids
        // yield uncorrelated streams.
        let seed = policy
            .seed
            .wrapping_add(stream_id.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        ChaosTransport {
            inner,
            decider: Decider {
                policy,
                rng: Rng::seed_from_u64(seed),
            },
            dead: false,
            stats,
            wbuf: Vec::new(),
        }
    }

    fn broken() -> std::io::Error {
        std::io::Error::new(
            std::io::ErrorKind::BrokenPipe,
            "connection severed by chaos",
        )
    }

    /// `write_all` that rides out `WouldBlock`/`Interrupted`: chaos decides
    /// fates per whole frame, so once a frame is fated to be delivered it
    /// must reach the inner transport in full even when that transport is a
    /// nonblocking service-side socket with a momentarily full send buffer.
    fn write_full(inner: &mut dyn Transport, bytes: &[u8]) -> std::io::Result<()> {
        let mut off = 0;
        while off < bytes.len() {
            match inner.write(&bytes[off..]) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::WriteZero,
                        "inner transport accepted no bytes",
                    ))
                }
                Ok(n) => off += n,
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::Interrupted
                    ) =>
                {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Applies fates to every complete frame buffered so far.
    fn drain_frames(&mut self) -> std::io::Result<()> {
        loop {
            if self.wbuf.len() < 4 {
                return Ok(());
            }
            let len = u32::from_be_bytes([self.wbuf[0], self.wbuf[1], self.wbuf[2], self.wbuf[3]])
                as usize;
            let total = 4 + len + crate::proto::FRAME_CRC_BYTES;
            if self.wbuf.len() < total {
                return Ok(());
            }
            let mut frame: Vec<u8> = self.wbuf.drain(..total).collect();
            let (fate, corrupt_bit, cut, delay) = {
                let d = &mut self.decider;
                let fate = d.fate();
                // Draw the auxiliary values unconditionally so the decision
                // stream advances identically whatever the fate.
                let bit = d.rng.gen_range_usize((total - 4) * 8);
                let cut = 1 + d.rng.gen_range_usize(total - 1);
                let max_delay = d.policy.max_delay.as_millis().max(1) as u64;
                let delay = d.rng.gen_range_u64(max_delay);
                (fate, bit, cut, delay)
            };
            match fate {
                Fate::Drop => {
                    self.stats.dropped.fetch_add(1, Ordering::Relaxed);
                }
                Fate::Corrupt => {
                    // Flip a bit past the length prefix (payload or CRC):
                    // framing stays intact, the CRC check must catch it.
                    frame[4 + corrupt_bit / 8] ^= 1 << (corrupt_bit % 8);
                    self.stats.corrupted.fetch_add(1, Ordering::Relaxed);
                    Self::write_full(&mut *self.inner, &frame)?;
                }
                Fate::Duplicate => {
                    self.stats.duplicated.fetch_add(1, Ordering::Relaxed);
                    Self::write_full(&mut *self.inner, &frame)?;
                    Self::write_full(&mut *self.inner, &frame)?;
                }
                Fate::Delay => {
                    self.stats.delayed.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(Duration::from_millis(delay));
                    Self::write_full(&mut *self.inner, &frame)?;
                }
                Fate::Sever => {
                    self.stats.severed.fetch_add(1, Ordering::Relaxed);
                    let _ = Self::write_full(&mut *self.inner, &frame[..cut]);
                    let _ = self.inner.flush();
                    self.dead = true;
                    let _ = self.inner.shutdown();
                    return Err(Self::broken());
                }
                Fate::Deliver => {
                    self.stats.delivered.fetch_add(1, Ordering::Relaxed);
                    Self::write_full(&mut *self.inner, &frame)?;
                }
            }
        }
    }
}

impl Read for ChaosTransport {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.dead {
            return Err(Self::broken());
        }
        self.inner.read(buf)
    }
}

impl Write for ChaosTransport {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if self.dead {
            return Err(Self::broken());
        }
        self.wbuf.extend_from_slice(buf);
        self.drain_frames()?;
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        if self.dead {
            return Err(Self::broken());
        }
        self.inner.flush()
    }
}

impl Transport for ChaosTransport {
    fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.inner.set_read_timeout(timeout)
    }

    fn set_nonblocking(&self, nonblocking: bool) -> std::io::Result<()> {
        self.inner.set_nonblocking(nonblocking)
    }

    fn shutdown(&self) -> std::io::Result<()> {
        self.inner.shutdown()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{write_frame, FrameBuffer, FrameError};
    use std::sync::atomic::AtomicBool;
    use std::sync::Mutex;

    /// A loopback transport: writes land in a shared buffer the test reads.
    #[derive(Default)]
    struct Loopback {
        out: Arc<Mutex<Vec<u8>>>,
        down: Arc<AtomicBool>,
    }

    impl Read for Loopback {
        fn read(&mut self, _buf: &mut [u8]) -> std::io::Result<usize> {
            Ok(0)
        }
    }

    impl Write for Loopback {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.out.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    impl Transport for Loopback {
        fn set_read_timeout(&self, _t: Option<Duration>) -> std::io::Result<()> {
            Ok(())
        }

        fn set_nonblocking(&self, _nb: bool) -> std::io::Result<()> {
            Ok(())
        }

        fn shutdown(&self) -> std::io::Result<()> {
            self.down.store(true, Ordering::SeqCst);
            Ok(())
        }
    }

    fn run_frames(policy: ChaosPolicy, frames: usize) -> (Vec<u8>, Arc<ChaosStats>, bool) {
        let out = Arc::new(Mutex::new(Vec::new()));
        let down = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(ChaosStats::default());
        let mut t = ChaosTransport::new(
            Box::new(Loopback {
                out: out.clone(),
                down: down.clone(),
            }),
            policy,
            0,
            stats.clone(),
        );
        for i in 0..frames {
            if write_frame(&mut t, format!("frame-{i}").as_bytes()).is_err() {
                break;
            }
        }
        let bytes = out.lock().unwrap().clone();
        (bytes, stats, down.load(Ordering::SeqCst))
    }

    #[test]
    fn calm_policy_is_transparent() {
        let (bytes, stats, down) = run_frames(ChaosPolicy::calm(1), 10);
        assert!(!down);
        assert_eq!(stats.delivered.load(Ordering::Relaxed), 10);
        assert_eq!(stats.injected(), 0);
        let mut fb = FrameBuffer::new();
        let mut got = 0;
        let mut cursor = &bytes[..];
        while let Ok(Some(_)) = fb.poll(&mut cursor) {
            got += 1;
        }
        assert_eq!(got, 10);
    }

    #[test]
    fn same_seed_same_misfortune() {
        let policy = ChaosPolicy::stormy(0xC0FFEE);
        let (a, sa, _) = run_frames(policy, 200);
        let (b, sb, _) = run_frames(policy, 200);
        assert_eq!(a, b, "chaos must be deterministic in the seed");
        assert_eq!(sa.summary(), sb.summary());
        assert!(sa.injected() > 0, "stormy policy must actually inject");
        let (c, _, _) = run_frames(ChaosPolicy::stormy(0xDECAF), 200);
        assert_ne!(a, c, "different seeds, different misfortune");
    }

    #[test]
    fn corrupted_frames_fail_the_crc_check() {
        let policy = ChaosPolicy {
            corrupt: 1.0,
            ..ChaosPolicy::calm(7)
        };
        let (bytes, stats, _) = run_frames(policy, 1);
        assert_eq!(stats.corrupted.load(Ordering::Relaxed), 1);
        let mut fb = FrameBuffer::new();
        match fb.poll(&mut &bytes[..]) {
            Err(FrameError::Crc { .. }) => {}
            other => panic!("expected CRC failure, got {other:?}"),
        }
    }

    #[test]
    fn sever_truncates_and_poisons_the_handle() {
        let policy = ChaosPolicy {
            sever: 1.0,
            ..ChaosPolicy::calm(3)
        };
        let out = Arc::new(Mutex::new(Vec::new()));
        let down = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(ChaosStats::default());
        let mut t = ChaosTransport::new(
            Box::new(Loopback {
                out: out.clone(),
                down: down.clone(),
            }),
            policy,
            0,
            stats.clone(),
        );
        assert!(write_frame(&mut t, b"doomed").is_err());
        assert!(down.load(Ordering::SeqCst), "socket must be shut down");
        // The peer got a strict prefix of the frame: a torn frame.
        let full = {
            let mut w = Vec::new();
            write_frame(&mut w, b"doomed").unwrap();
            w
        };
        let sent = out.lock().unwrap().clone();
        assert!(!sent.is_empty() && sent.len() < full.len());
        assert_eq!(sent[..], full[..sent.len()]);
        // The handle is poisoned both ways.
        assert!(write_frame(&mut t, b"after").is_err());
        let mut buf = [0u8; 1];
        assert!(t.read(&mut buf).is_err());
    }

    #[test]
    fn duplicated_frames_arrive_twice_intact() {
        let policy = ChaosPolicy {
            duplicate: 1.0,
            ..ChaosPolicy::calm(9)
        };
        let (bytes, stats, _) = run_frames(policy, 1);
        assert_eq!(stats.duplicated.load(Ordering::Relaxed), 1);
        let mut fb = FrameBuffer::new();
        let mut cursor = &bytes[..];
        let mut got = Vec::new();
        while let Ok(Some(f)) = fb.poll(&mut cursor) {
            got.push(f);
        }
        assert_eq!(got, vec![b"frame-0".to_vec(), b"frame-0".to_vec()]);
    }
}
