//! Timing wrappers for the traced pass. They sit at two layer
//! boundaries and time calls into the layer below from outside; the
//! library itself is untouched.
//!
//! * [`TimedComm`] wraps an [`Endpoint`] as the [`Comm`] a collective
//!   runs on: time inside `round` / `round_gather` /
//!   `send_and_recv_into` belongs to the round layer and everything
//!   below it; the rest of a lap is the collective's local work.
//! * [`TimedTransport`] wraps the raw UDS transport underneath the
//!   reliability layer: time inside it is the transport layer.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bruck_net::endpoint::{GatherSendSpec, RecvSpec, SendSpec};
use bruck_net::{Comm, Endpoint, LinkStats, Message, NetError, Tag, Transport};

/// A [`Comm`] that delegates to an [`Endpoint`] and accumulates the
/// wall time spent inside its round calls.
pub struct TimedComm<'a> {
    ep: &'a mut Endpoint,
    /// Nanoseconds spent inside the round layer since construction.
    pub comm_ns: u64,
}

impl<'a> TimedComm<'a> {
    pub fn new(ep: &'a mut Endpoint) -> Self {
        Self { ep, comm_ns: 0 }
    }

    fn timed<T>(&mut self, f: impl FnOnce(&mut Endpoint) -> T) -> T {
        let t0 = Instant::now();
        let out = f(self.ep);
        self.comm_ns += t0.elapsed().as_nanos() as u64;
        out
    }
}

impl Comm for TimedComm<'_> {
    fn rank(&self) -> usize {
        self.ep.rank()
    }

    fn size(&self) -> usize {
        self.ep.size()
    }

    fn ports(&self) -> usize {
        self.ep.ports()
    }

    fn round(
        &mut self,
        sends: &[SendSpec<'_>],
        recvs: &[RecvSpec],
    ) -> Result<Vec<Message>, NetError> {
        self.timed(|ep| ep.round(sends, recvs))
    }

    fn round_gather(
        &mut self,
        sends: &[GatherSendSpec<'_>],
        recvs: &[RecvSpec],
    ) -> Result<Vec<Message>, NetError> {
        self.timed(|ep| ep.round_gather(sends, recvs))
    }

    fn send_and_recv_into(
        &mut self,
        to: usize,
        payload: &[u8],
        from: usize,
        tag: Tag,
        out: &mut [u8],
    ) -> Result<usize, NetError> {
        self.timed(|ep| ep.send_and_recv_into(to, payload, from, tag, out))
    }

    fn transport_kind(&self) -> &'static str {
        self.ep.transport_kind()
    }

    fn advance_compute(&mut self, dt: f64) {
        self.ep.advance_compute(dt);
    }

    fn charge_copy(&mut self, bytes: u64) {
        self.ep.charge_copy(bytes);
    }

    fn acquire(&mut self, len: usize) -> Vec<u8> {
        self.ep.acquire(len)
    }

    fn recycle(&mut self, buf: Vec<u8>) {
        self.ep.recycle(buf);
    }

    fn arm_deadline(&mut self, budget: Duration) {
        Comm::arm_deadline(self.ep, budget);
    }

    fn disarm_deadline(&mut self) {
        Comm::disarm_deadline(self.ep);
    }

    fn deadline_remaining(&self) -> Option<Duration> {
        Comm::deadline_remaining(self.ep)
    }

    fn rto_hint(&self) -> Option<Duration> {
        self.ep.rto_hint()
    }
}

/// Running totals of one rank's [`TimedTransport`]. Only that rank's
/// thread writes them, and it reads them between laps, so the counters
/// publish nothing else and `Relaxed` suffices.
#[derive(Debug, Default)]
pub struct TransportCounters {
    send_ns: AtomicU64,
    recv_ns: AtomicU64,
    wait_ns: AtomicU64,
    calls: AtomicU64,
    sends: AtomicU64,
    send_bytes: AtomicU64,
}

/// A snapshot of [`TransportCounters`]; differences of two snapshots
/// give one lap's share.
#[derive(Debug, Clone, Copy, Default)]
pub struct TransportSnapshot {
    pub send_ns: u64,
    pub recv_ns: u64,
    pub wait_ns: u64,
    pub calls: u64,
    pub sends: u64,
    pub send_bytes: u64,
}

impl TransportSnapshot {
    pub fn since(&self, earlier: &Self) -> Self {
        Self {
            send_ns: self.send_ns - earlier.send_ns,
            recv_ns: self.recv_ns - earlier.recv_ns,
            wait_ns: self.wait_ns - earlier.wait_ns,
            calls: self.calls - earlier.calls,
            sends: self.sends - earlier.sends,
            send_bytes: self.send_bytes - earlier.send_bytes,
        }
    }

    pub fn busy_ns(&self) -> u64 {
        self.send_ns + self.recv_ns + self.wait_ns
    }
}

impl TransportCounters {
    pub fn snapshot(&self) -> TransportSnapshot {
        TransportSnapshot {
            send_ns: self.send_ns.load(Ordering::Relaxed),
            recv_ns: self.recv_ns.load(Ordering::Relaxed),
            wait_ns: self.wait_ns.load(Ordering::Relaxed),
            calls: self.calls.load(Ordering::Relaxed),
            sends: self.sends.load(Ordering::Relaxed),
            send_bytes: self.send_bytes.load(Ordering::Relaxed),
        }
    }

    fn add(&self, slot: &AtomicU64, since: Instant) {
        slot.fetch_add(since.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
    }
}

/// A [`Transport`] that delegates to the wrapped one and times every
/// call: `send` is send time, a receive with a zero timeout is receive
/// time, and a receive or wait allowed to block is wait time.
pub struct TimedTransport<T> {
    inner: T,
    counters: Arc<TransportCounters>,
}

impl<T> TimedTransport<T> {
    pub fn new(inner: T, counters: Arc<TransportCounters>) -> Self {
        Self { inner, counters }
    }

    fn slot(&self, timeout: Duration) -> &AtomicU64 {
        if timeout.is_zero() {
            &self.counters.recv_ns
        } else {
            &self.counters.wait_ns
        }
    }
}

impl<T: Transport> Transport for TimedTransport<T> {
    fn send(&mut self, msg: Message) -> Result<(), NetError> {
        let bytes = msg.payload.len() as u64;
        let t0 = Instant::now();
        let out = self.inner.send(msg);
        self.counters.add(&self.counters.send_ns, t0);
        self.counters.sends.fetch_add(1, Ordering::Relaxed);
        self.counters.send_bytes.fetch_add(bytes, Ordering::Relaxed);
        out
    }

    fn recv_match(
        &mut self,
        from: usize,
        tag: Tag,
        timeout: Duration,
    ) -> Result<Message, NetError> {
        let t0 = Instant::now();
        let out = self.inner.recv_match(from, tag, timeout);
        self.counters.add(self.slot(timeout), t0);
        out
    }

    fn recv_any(&mut self, timeout: Duration) -> Result<Option<Message>, NetError> {
        let t0 = Instant::now();
        let out = self.inner.recv_any(timeout);
        self.counters.add(self.slot(timeout), t0);
        out
    }

    fn try_match(&mut self, from: usize, tag: Tag) -> Result<Option<Message>, NetError> {
        let t0 = Instant::now();
        let out = self.inner.try_match(from, tag);
        self.counters.add(&self.counters.recv_ns, t0);
        out
    }

    fn wait_any(&mut self, timeout: Duration) -> Result<(), NetError> {
        let t0 = Instant::now();
        let out = self.inner.wait_any(timeout);
        self.counters.add(&self.counters.wait_ns, t0);
        out
    }

    fn kind(&self) -> &'static str {
        self.inner.kind()
    }

    fn flush(&mut self, deadline: Instant) -> Result<(), NetError> {
        self.inner.flush(deadline)
    }

    fn purge(&mut self) -> usize {
        self.inner.purge()
    }

    fn link_stats(&self) -> LinkStats {
        self.inner.link_stats()
    }

    fn rto_hint(&self) -> Option<Duration> {
        self.inner.rto_hint()
    }

    fn linger_hint(&self) -> Option<Duration> {
        self.inner.linger_hint()
    }
}
