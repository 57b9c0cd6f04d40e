//! Deterministic network simulation: virtual time, scripted faults.
//!
//! [`SimNet`] is a single-threaded discrete-event network. Endpoints
//! ([`SimTransport`]) implement [`Transport`], but nothing ever sleeps
//! or blocks on the OS: `send` schedules a delivery event at
//! `now + delay` on a shared virtual clock, and `recv_timeout` *pumps*
//! the event queue — advancing the clock to each event's timestamp —
//! until a message lands in the caller's inbox or the (virtual)
//! deadline passes. A ten-second ack timeout costs ten virtual seconds
//! and zero real ones.
//!
//! Each link direction carries a fault policy the harness scripts
//! through [`SimLinkCtl`]: per-frame delay, drop-next-N, duplicate-
//! next-N, and reorder-next (hold one frame and release it behind its
//! successor). Links can be severed and restored immediately or at a
//! scheduled virtual time; a severed link fails both directions with
//! [`NetError::Disconnected`] while frames already on the wire are
//! preserved, as across a dropped and re-established TCP connection.
//!
//! Passive peers (replica appliers: `prins_repl::serve_sim`) register
//! an *actor*: a callback the hub runs whenever a frame is delivered
//! to that endpoint or its link comes back up. Actors must use
//! [`SimTransport::try_recv`] and never block — the whole simulation
//! is one thread.
//!
//! Everything the hub does is appended to a human-readable trace and a
//! structured message log. Runs are deterministic: the same calls in
//! the same order produce byte-identical traces, which is what lets a
//! failing fuzz seed be replayed exactly (see `prins-sim`).

use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use crate::{Clock, NetError, TrafficMeter, Transport};

/// A shared virtual clock, advanced only by the simulation.
///
/// By default time moves solely when the event pump advances it. With
/// [`set_auto_tick`](SimClock::set_auto_tick) every [`Clock::now_nanos`]
/// *read* also advances time by a fixed amount, which gives compute
/// stages (encode, send) a deterministic non-zero virtual duration —
/// otherwise any span whose endpoints fall between network events would
/// measure zero. The hub's own scheduling uses [`SimClock::now`], which
/// never ticks, so delivery timing is unaffected.
#[derive(Debug, Default)]
pub struct SimClock {
    nanos: AtomicU64,
    tick: AtomicU64,
}

impl SimClock {
    /// Creates a clock at t = 0.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Current virtual time in nanoseconds. Never auto-ticks.
    pub fn now(&self) -> u64 {
        self.nanos.load(Ordering::SeqCst)
    }

    /// Makes every [`Clock::now_nanos`] read advance virtual time by
    /// `nanos` (0 — the default — disables the tick).
    pub fn set_auto_tick(&self, nanos: u64) {
        self.tick.store(nanos, Ordering::SeqCst);
    }

    /// Advances virtual time to `t` if it is ahead of now.
    pub(crate) fn advance_to(&self, t: u64) {
        self.nanos.fetch_max(t, Ordering::SeqCst);
    }
}

impl Clock for SimClock {
    fn now_nanos(&self) -> u64 {
        let tick = self.tick.load(Ordering::SeqCst);
        if tick == 0 {
            self.now()
        } else {
            self.nanos.fetch_add(tick, Ordering::SeqCst) + tick
        }
    }
}

/// Which direction of a link a fault applies to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Dir {
    /// From the first endpoint returned by [`SimNet::add_link`] (the
    /// primary side, by convention) towards the second.
    AtoB,
    /// From the second endpoint back to the first (the ack path).
    BtoA,
}

/// One message's life, for invariant checkers.
#[derive(Clone, Debug)]
pub struct MsgRecord {
    /// The frame bytes.
    pub payload: Vec<u8>,
    /// Virtual delivery times (two entries = duplicated in flight).
    pub(crate) delivered_at: Vec<u64>,
    /// Whether the fault policy dropped the frame.
    pub(crate) dropped: bool,
}

#[derive(Debug)]
enum Hold {
    Off,
    /// The next sent frame will be held back.
    Armed,
    /// A held frame waiting for its successor (or a queue drain).
    Held {
        msg: u64,
        bytes: Vec<u8>,
        deliver_at: u64,
    },
}

#[derive(Debug)]
struct Egress {
    delay: u64,
    per_kb: u64,
    drop_next: u32,
    dup_next: u32,
    corrupt_next: u32,
    hold: Hold,
}

impl Egress {
    fn new(delay: u64) -> Self {
        Self {
            delay,
            per_kb: 0,
            drop_next: 0,
            dup_next: 0,
            corrupt_next: 0,
            hold: Hold::Off,
        }
    }
}

#[derive(Debug)]
struct EndpointState {
    label: String,
    link: usize,
    peer: usize,
    inbox: VecDeque<(u64, Vec<u8>)>,
    egress: Egress,
}

#[derive(Debug)]
struct LinkState {
    name: String,
    up: bool,
}

#[derive(Debug)]
struct Event {
    at: u64,
    id: u64,
    /// The endpoint the frame is delivered to.
    target: usize,
    msg: u64,
    bytes: Vec<u8>,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.id) == (other.at, other.id)
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    // Reversed so BinaryHeap::pop yields the earliest (at, id).
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (other.at, other.id).cmp(&(self.at, self.id))
    }
}

#[derive(Debug, Default)]
struct HubState {
    queue: BinaryHeap<Event>,
    next_event_id: u64,
    endpoints: Vec<EndpointState>,
    links: Vec<LinkState>,
    msgs: Vec<MsgRecord>,
    /// `(target endpoint, msg id)` in global delivery order.
    delivery_log: Vec<(usize, u64)>,
    trace: Vec<String>,
}

impl HubState {
    fn push_event(&mut self, at: u64, target: usize, msg: u64, bytes: Vec<u8>) {
        let id = self.next_event_id;
        self.next_event_id += 1;
        self.queue.push(Event {
            at,
            id,
            target,
            msg,
            bytes,
        });
    }

    fn held_endpoint(&self) -> Option<usize> {
        (0..self.endpoints.len())
            .find(|&e| matches!(self.endpoints[e].egress.hold, Hold::Held { .. }))
    }
}

type Actor = Box<dyn FnMut() + Send>;

struct Hub {
    clock: Arc<SimClock>,
    st: Mutex<HubState>,
    actors: Mutex<Vec<Option<Actor>>>,
}

impl Hub {
    /// Processes one event (or flushes one held frame once the queue is
    /// empty). Returns false when there is nothing left to do.
    fn pump_one(self: &Arc<Self>) -> bool {
        let mut wake: Vec<usize> = Vec::new();
        let progressed = {
            let mut st = self.st.lock();
            if let Some(ev) = st.queue.pop() {
                self.clock.advance_to(ev.at);
                let Event {
                    at,
                    target,
                    msg,
                    bytes,
                    ..
                } = ev;
                let line = format!("t={at} m{msg} deliver {}", st.endpoints[target].label);
                st.trace.push(line);
                st.msgs[msg as usize].delivered_at.push(at);
                st.delivery_log.push((target, msg));
                st.endpoints[target].inbox.push_back((msg, bytes));
                wake.push(target);
                true
            } else if let Some(ep) = st.held_endpoint() {
                let Hold::Held {
                    msg,
                    bytes,
                    deliver_at,
                } = std::mem::replace(&mut st.endpoints[ep].egress.hold, Hold::Off)
                else {
                    unreachable!("held_endpoint checked the variant");
                };
                let at = deliver_at.max(self.clock.now());
                self.clock.advance_to(at);
                let target = st.endpoints[ep].peer;
                let line = format!(
                    "t={} m{} deliver {} (released)",
                    at, msg, st.endpoints[target].label
                );
                st.trace.push(line);
                st.msgs[msg as usize].delivered_at.push(at);
                st.delivery_log.push((target, msg));
                st.endpoints[target].inbox.push_back((msg, bytes));
                wake.push(target);
                true
            } else {
                false
            }
        };
        for target in wake {
            self.run_actor(target);
        }
        progressed
    }

    /// Runs an endpoint's actor, if one is registered and not already
    /// running further up the stack.
    fn run_actor(self: &Arc<Self>, target: usize) {
        let actor = {
            let mut actors = self.actors.lock();
            if target >= actors.len() {
                return;
            }
            actors[target].take()
        };
        if let Some(mut actor) = actor {
            actor();
            self.actors.lock()[target] = Some(actor);
        }
    }
}

/// The simulation hub: creates links, owns the event queue and the
/// virtual clock, and records the trace.
///
/// Single-threaded by design — determinism comes from one caller
/// driving the world. All handles (`SimTransport`, `SimLinkCtl`) share
/// the hub.
pub struct SimNet {
    hub: Arc<Hub>,
}

impl Default for SimNet {
    fn default() -> Self {
        Self::new()
    }
}

impl SimNet {
    /// Creates an empty network with a fresh clock at t = 0.
    pub fn new() -> Self {
        Self {
            hub: Arc::new(Hub {
                clock: SimClock::new(),
                st: Mutex::new(HubState::default()),
                actors: Mutex::new(Vec::new()),
            }),
        }
    }

    /// The shared virtual clock.
    pub fn clock(&self) -> Arc<SimClock> {
        Arc::clone(&self.hub.clock)
    }

    /// Adds a duplex link named `name` with a symmetric per-frame
    /// `delay`; returns the two endpoints (`a` = primary side by
    /// convention) and the fault-control handle.
    pub fn add_link(
        &self,
        name: &str,
        delay: Duration,
    ) -> (SimTransport, SimTransport, SimLinkCtl) {
        let delay = delay.as_nanos() as u64;
        let mut st = self.hub.st.lock();
        let link = st.links.len();
        st.links.push(LinkState {
            name: name.to_string(),
            up: true,
        });
        let a = st.endpoints.len();
        let b = a + 1;
        st.endpoints.push(EndpointState {
            label: format!("{name}.a"),
            link,
            peer: b,
            inbox: VecDeque::new(),
            egress: Egress::new(delay),
        });
        st.endpoints.push(EndpointState {
            label: format!("{name}.b"),
            link,
            peer: a,
            inbox: VecDeque::new(),
            egress: Egress::new(delay),
        });
        drop(st);
        let mut actors = self.hub.actors.lock();
        actors.push(None);
        actors.push(None);
        drop(actors);
        let make = |ep: usize| SimTransport {
            hub: Arc::clone(&self.hub),
            ep,
            meter: TrafficMeter::shared(crate::LinkModel::t1()),
        };
        (
            make(a),
            make(b),
            SimLinkCtl {
                hub: Arc::clone(&self.hub),
                link,
                a,
                b,
            },
        )
    }

    /// Registers `actor` to run whenever a frame is delivered to
    /// `endpoint` (or its link is restored). Actors must drain with
    /// [`SimTransport::try_recv`] and never block.
    pub fn set_actor(&self, endpoint: &SimTransport, actor: Actor) {
        self.hub.actors.lock()[endpoint.ep] = Some(actor);
    }

    /// Pumps every pending event; returns how many were processed.
    pub fn run_until_idle(&self) -> usize {
        let mut n = 0;
        while self.hub.pump_one() {
            n += 1;
        }
        n
    }

    /// The human-readable event trace so far (deterministic).
    pub fn trace(&self) -> Vec<String> {
        self.hub.st.lock().trace.clone()
    }

    /// Every message ever sent, with its delivery fate.
    pub fn message_log(&self) -> Vec<MsgRecord> {
        self.hub.st.lock().msgs.clone()
    }

    /// `(target endpoint index, msg id)` pairs in delivery order.
    pub fn delivery_log(&self) -> Vec<(usize, u64)> {
        self.hub.st.lock().delivery_log.clone()
    }
}

impl std::fmt::Debug for SimNet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.hub.st.lock();
        f.debug_struct("SimNet")
            .field("now", &self.hub.clock.now())
            .field("links", &st.links.len())
            .field("queued_events", &st.queue.len())
            .field("messages", &st.msgs.len())
            .finish()
    }
}

/// Fault controls for one link (both directions).
#[derive(Clone)]
pub struct SimLinkCtl {
    hub: Arc<Hub>,
    link: usize,
    a: usize,
    b: usize,
}

impl SimLinkCtl {
    fn ep(&self, dir: Dir) -> usize {
        match dir {
            Dir::AtoB => self.a,
            Dir::BtoA => self.b,
        }
    }

    /// Cuts the link now: sends and receives fail on both endpoints
    /// until restored. Frames already in flight are preserved.
    pub fn sever(&self) {
        let mut st = self.hub.st.lock();
        st.links[self.link].up = false;
        let line = format!(
            "t={} link {} down",
            self.hub.clock.now(),
            st.links[self.link].name
        );
        st.trace.push(line);
    }

    /// Brings the link back up now and wakes both endpoints' actors so
    /// frames queued during the outage get processed.
    pub fn restore(&self) {
        {
            let mut st = self.hub.st.lock();
            st.links[self.link].up = true;
            let line = format!(
                "t={} link {} up",
                self.hub.clock.now(),
                st.links[self.link].name
            );
            st.trace.push(line);
        }
        self.hub.run_actor(self.a);
        self.hub.run_actor(self.b);
    }

    /// Whether the link is currently up.
    pub fn is_up(&self) -> bool {
        self.hub.st.lock().links[self.link].up
    }

    /// Sets the per-frame delay of `dir` (plus `per_kb` per KiB of
    /// payload) — the virtual WAN cost. No real time is ever spent.
    pub fn set_delay(&self, dir: Dir, per_msg: Duration, per_kb: Duration) {
        let ep = self.ep(dir);
        let mut st = self.hub.st.lock();
        st.endpoints[ep].egress.delay = per_msg.as_nanos() as u64;
        st.endpoints[ep].egress.per_kb = per_kb.as_nanos() as u64;
    }

    /// Drops the next `n` frames sent in `dir` (network loss — the
    /// sender still observes a successful send).
    pub fn drop_next(&self, dir: Dir, n: u32) {
        let ep = self.ep(dir);
        self.hub.st.lock().endpoints[ep].egress.drop_next = n;
    }

    /// Duplicates the next `n` frames sent in `dir` (each is delivered
    /// twice, back to back).
    pub fn dup_next(&self, dir: Dir, n: u32) {
        let ep = self.ep(dir);
        self.hub.st.lock().endpoints[ep].egress.dup_next = n;
    }

    /// Flips one bit in each of the next `n` frames sent in `dir` —
    /// in-flight corruption the receiver's integrity check must catch.
    /// The sender still observes a successful send and the frame length
    /// is unchanged, so only a checksum can tell.
    pub fn corrupt_next(&self, dir: Dir, n: u32) {
        let ep = self.ep(dir);
        self.hub.st.lock().endpoints[ep].egress.corrupt_next = n;
    }

    /// Reorders the next two frames sent in `dir`: the first is held
    /// and delivered just after the second. If no second frame is ever
    /// sent, the held frame is released when the event queue drains.
    pub fn reorder_next(&self, dir: Dir) {
        let ep = self.ep(dir);
        self.hub.st.lock().endpoints[ep].egress.hold = Hold::Armed;
    }

    /// Clears drop/dup/reorder/corrupt faults in both directions,
    /// releasing any held frame for normal delivery (delays are kept).
    pub fn clear_faults(&self) {
        let mut st = self.hub.st.lock();
        for ep in [self.a, self.b] {
            st.endpoints[ep].egress.drop_next = 0;
            st.endpoints[ep].egress.dup_next = 0;
            st.endpoints[ep].egress.corrupt_next = 0;
            if let Hold::Held {
                msg,
                bytes,
                deliver_at,
            } = std::mem::replace(&mut st.endpoints[ep].egress.hold, Hold::Off)
            {
                let target = st.endpoints[ep].peer;
                let at = deliver_at.max(self.hub.clock.now());
                st.push_event(at, target, msg, bytes);
            } else {
                st.endpoints[ep].egress.hold = Hold::Off;
            }
        }
    }
}

impl std::fmt::Debug for SimLinkCtl {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimLinkCtl")
            .field("link", &self.link)
            .finish()
    }
}

/// One endpoint of a simulated link; implements [`Transport`].
///
/// Clone freely — clones share the endpoint (and its meter), which is
/// how a replica actor and the harness can both hold the replica side.
#[derive(Clone)]
pub struct SimTransport {
    hub: Arc<Hub>,
    ep: usize,
    meter: Arc<TrafficMeter>,
}

impl SimTransport {
    /// Non-blocking receive that never pumps the event queue — the only
    /// receive an actor may use. `Ok(None)` = inbox empty.
    ///
    /// # Errors
    ///
    /// [`NetError::Disconnected`] while the link is severed.
    pub fn try_recv(&self) -> Result<Option<Vec<u8>>, NetError> {
        let mut st = self.hub.st.lock();
        let link = st.endpoints[self.ep].link;
        if !st.links[link].up {
            return Err(NetError::Disconnected);
        }
        match st.endpoints[self.ep].inbox.pop_front() {
            Some((msg, bytes)) => {
                let line = format!(
                    "t={} m{} recv {}",
                    self.hub.clock.now(),
                    msg,
                    st.endpoints[self.ep].label
                );
                st.trace.push(line);
                self.meter.record_recv(bytes.len());
                Ok(Some(bytes))
            }
            None => Ok(None),
        }
    }

    /// The endpoint's index within the hub (stable; used by invariant
    /// checkers to filter [`SimNet::delivery_log`]).
    pub fn endpoint_index(&self) -> usize {
        self.ep
    }
}

impl Transport for SimTransport {
    fn send(&self, msg_bytes: &[u8]) -> Result<(), NetError> {
        let mut st = self.hub.st.lock();
        let now = self.hub.clock.now();
        let link = st.endpoints[self.ep].link;
        if !st.links[link].up {
            let line = format!(
                "t={} {} send-fail link-down len={}",
                now,
                st.endpoints[self.ep].label,
                msg_bytes.len()
            );
            st.trace.push(line);
            return Err(NetError::Disconnected);
        }
        self.meter.record_send(msg_bytes.len());
        let msg = st.msgs.len() as u64;
        let from_label = st.endpoints[self.ep].label.clone();
        st.msgs.push(MsgRecord {
            payload: msg_bytes.to_vec(),
            delivered_at: Vec::new(),
            dropped: false,
        });
        let line = format!("t={now} m{msg} send {from_label} len={}", msg_bytes.len());
        st.trace.push(line);

        let eg = &mut st.endpoints[self.ep].egress;
        if eg.drop_next > 0 {
            eg.drop_next -= 1;
            st.msgs[msg as usize].dropped = true;
            let line = format!("t={now} m{msg} dropped");
            st.trace.push(line);
            return Ok(());
        }
        let mut wire_bytes = msg_bytes.to_vec();
        if eg.corrupt_next > 0 && !wire_bytes.is_empty() {
            eg.corrupt_next -= 1;
            // One deterministic bit flip mid-frame; length (and thus
            // byte accounting) is unchanged.
            let at = wire_bytes.len() / 2;
            wire_bytes[at] ^= 0x01;
            st.msgs[msg as usize].payload = wire_bytes.clone();
            let line = format!("t={now} m{msg} corrupted at byte {at}");
            st.trace.push(line);
        }
        let eg = &mut st.endpoints[self.ep].egress;
        let deliver_at = now + eg.delay + eg.per_kb * (wire_bytes.len() as u64).div_ceil(1024);
        if matches!(eg.hold, Hold::Armed) {
            eg.hold = Hold::Held {
                msg,
                bytes: wire_bytes,
                deliver_at,
            };
            let line = format!("t={now} m{msg} held");
            st.trace.push(line);
            return Ok(());
        }
        let dup = if eg.dup_next > 0 {
            eg.dup_next -= 1;
            true
        } else {
            false
        };
        let released = match std::mem::replace(&mut eg.hold, Hold::Off) {
            Hold::Held {
                msg: held_msg,
                bytes,
                deliver_at: held_at,
            } => Some((held_msg, bytes, held_at)),
            other => {
                st.endpoints[self.ep].egress.hold = other;
                None
            }
        };
        let target = st.endpoints[self.ep].peer;
        st.push_event(deliver_at, target, msg, wire_bytes.clone());
        if dup {
            let line = format!("t={now} m{msg} dup");
            st.trace.push(line);
            st.push_event(deliver_at, target, msg, wire_bytes);
        }
        if let Some((held_msg, bytes, held_at)) = released {
            // Same timestamp, later event id: delivered right after the
            // frame that released it — the reorder swap.
            let line = format!("t={now} m{held_msg} released-after m{msg}");
            st.trace.push(line);
            st.push_event(deliver_at.max(held_at), target, held_msg, bytes);
        }
        Ok(())
    }

    fn recv(&self) -> Result<Vec<u8>, NetError> {
        loop {
            if let Some(bytes) = self.try_recv()? {
                return Ok(bytes);
            }
            if !self.hub.pump_one() {
                return Err(NetError::Disconnected);
            }
        }
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Vec<u8>, NetError> {
        let deadline = self
            .hub
            .clock
            .now()
            .saturating_add(timeout.as_nanos() as u64);
        loop {
            {
                let mut st = self.hub.st.lock();
                let link = st.endpoints[self.ep].link;
                if !st.links[link].up {
                    return Err(NetError::Disconnected);
                }
                if let Some((msg, bytes)) = st.endpoints[self.ep].inbox.pop_front() {
                    let line = format!(
                        "t={} m{} recv {}",
                        self.hub.clock.now(),
                        msg,
                        st.endpoints[self.ep].label
                    );
                    st.trace.push(line);
                    self.meter.record_recv(bytes.len());
                    return Ok(bytes);
                }
                let out_of_reach = match st.queue.peek() {
                    None => st.held_endpoint().is_none(),
                    Some(ev) => ev.at > deadline,
                };
                if out_of_reach {
                    self.hub.clock.advance_to(deadline);
                    let line = format!(
                        "t={} {} recv-timeout",
                        deadline, st.endpoints[self.ep].label
                    );
                    st.trace.push(line);
                    return Err(NetError::Timeout);
                }
            }
            self.hub.pump_one();
        }
    }

    fn meter(&self) -> &Arc<TrafficMeter> {
        &self.meter
    }
}

impl std::fmt::Debug for SimTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimTransport")
            .field("ep", &self.ep)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_tick_advances_time_per_clock_read() {
        let clock = SimClock::new();
        assert_eq!(clock.now_nanos(), 0, "tick disabled by default");
        assert_eq!(clock.now_nanos(), 0);
        clock.set_auto_tick(250);
        assert_eq!(clock.now_nanos(), 250);
        assert_eq!(clock.now_nanos(), 500);
        assert_eq!(clock.now(), 500, "now() itself never ticks");
        clock.set_auto_tick(0);
        assert_eq!(clock.now_nanos(), 500);
    }

    #[test]
    fn delivery_advances_virtual_time_only() {
        let net = SimNet::new();
        let (a, b, _ctl) = net.add_link("l0", Duration::from_millis(5));
        let wall = std::time::Instant::now();
        a.send(b"frame").unwrap();
        assert_eq!(net.clock().now(), 0, "send itself costs nothing");
        assert_eq!(b.recv_timeout(Duration::from_secs(1)).unwrap(), b"frame");
        assert_eq!(net.clock().now(), 5_000_000);
        assert!(wall.elapsed() < Duration::from_millis(50), "no real sleep");
    }

    #[test]
    fn timeout_jumps_the_clock_to_the_deadline() {
        let net = SimNet::new();
        let (_a, b, _ctl) = net.add_link("l0", Duration::ZERO);
        let err = b.recv_timeout(Duration::from_secs(10)).unwrap_err();
        assert!(matches!(err, NetError::Timeout));
        assert_eq!(net.clock().now(), 10_000_000_000);
    }

    #[test]
    fn dropped_frames_send_ok_but_never_arrive() {
        let net = SimNet::new();
        let (a, b, ctl) = net.add_link("l0", Duration::ZERO);
        ctl.drop_next(Dir::AtoB, 1);
        a.send(b"lost").unwrap();
        a.send(b"kept").unwrap();
        assert_eq!(b.recv_timeout(Duration::from_millis(1)).unwrap(), b"kept");
        assert!(b.recv_timeout(Duration::from_millis(1)).is_err());
        let log = net.message_log();
        assert!(log[0].dropped && log[0].delivered_at.is_empty());
        assert_eq!(log[1].delivered_at.len(), 1);
    }

    #[test]
    fn dup_delivers_twice_and_reorder_swaps() {
        let net = SimNet::new();
        let (a, b, ctl) = net.add_link("l0", Duration::ZERO);
        ctl.dup_next(Dir::AtoB, 1);
        a.send(b"x").unwrap();
        assert_eq!(b.recv_timeout(Duration::from_millis(1)).unwrap(), b"x");
        assert_eq!(b.recv_timeout(Duration::from_millis(1)).unwrap(), b"x");

        ctl.reorder_next(Dir::AtoB);
        a.send(b"first").unwrap();
        a.send(b"second").unwrap();
        assert_eq!(b.recv_timeout(Duration::from_millis(1)).unwrap(), b"second");
        assert_eq!(b.recv_timeout(Duration::from_millis(1)).unwrap(), b"first");
    }

    #[test]
    fn corrupt_next_flips_one_bit_then_heals() {
        let net = SimNet::new();
        let (a, b, ctl) = net.add_link("l0", Duration::ZERO);
        ctl.corrupt_next(Dir::AtoB, 1);
        a.send(&[0u8; 8]).unwrap();
        a.send(&[0u8; 8]).unwrap();
        let damaged = b.recv_timeout(Duration::from_millis(1)).unwrap();
        assert_eq!(damaged.iter().filter(|&&x| x != 0).count(), 1);
        assert_eq!(damaged.len(), 8, "corruption never changes the length");
        let clean = b.recv_timeout(Duration::from_millis(1)).unwrap();
        assert_eq!(clean, vec![0u8; 8]);
        // The message log records what the wire actually carried.
        assert_eq!(net.message_log()[0].payload, damaged);
        // clear_faults resets a pending corruption budget.
        ctl.corrupt_next(Dir::AtoB, 5);
        ctl.clear_faults();
        a.send(&[0u8; 8]).unwrap();
        assert_eq!(
            b.recv_timeout(Duration::from_millis(1)).unwrap(),
            vec![0u8; 8]
        );
    }

    #[test]
    fn reorder_hold_flushes_when_queue_drains() {
        let net = SimNet::new();
        let (a, b, ctl) = net.add_link("l0", Duration::ZERO);
        ctl.reorder_next(Dir::AtoB);
        a.send(b"only").unwrap();
        // No successor frame: the drain releases it.
        assert_eq!(b.recv_timeout(Duration::from_millis(1)).unwrap(), b"only");
    }

    #[test]
    fn severed_link_fails_both_ends_and_preserves_in_flight() {
        let net = SimNet::new();
        let (a, b, ctl) = net.add_link("l0", Duration::ZERO);
        a.send(b"pre-sever").unwrap();
        ctl.sever();
        assert!(matches!(a.send(b"x"), Err(NetError::Disconnected)));
        assert!(matches!(
            b.recv_timeout(Duration::from_millis(1)),
            Err(NetError::Disconnected)
        ));
        ctl.restore();
        assert_eq!(
            b.recv_timeout(Duration::from_millis(1)).unwrap(),
            b"pre-sever"
        );
    }

    #[test]
    fn actor_echoes_on_delivery() {
        let net = SimNet::new();
        let (a, b, _ctl) = net.add_link("l0", Duration::ZERO);
        let b_actor = b.clone();
        net.set_actor(
            &b,
            Box::new(move || {
                while let Ok(Some(frame)) = b_actor.try_recv() {
                    let mut echoed = frame.clone();
                    echoed.push(b'!');
                    let _ = b_actor.send(&echoed);
                }
            }),
        );
        a.send(b"ping").unwrap();
        assert_eq!(a.recv_timeout(Duration::from_secs(1)).unwrap(), b"ping!");
    }

    #[test]
    fn identical_runs_produce_identical_traces() {
        let run = || {
            let net = SimNet::new();
            let (a, b, ctl) = net.add_link("l0", Duration::from_micros(10));
            ctl.dup_next(Dir::AtoB, 1);
            a.send(b"one").unwrap();
            a.send(b"two").unwrap();
            ctl.drop_next(Dir::BtoA, 1);
            let _ = b.recv_timeout(Duration::from_millis(1));
            let _ = b.send(b"ack");
            net.run_until_idle();
            net.trace().join("\n")
        };
        assert_eq!(run(), run());
        assert!(!run().is_empty());
    }

    #[test]
    fn meters_count_successful_sends_only_on_the_sender() {
        let net = SimNet::new();
        let (a, b, ctl) = net.add_link("l0", Duration::ZERO);
        a.send(&[0u8; 100]).unwrap();
        ctl.sever();
        assert!(a.send(&[0u8; 100]).is_err());
        assert_eq!(a.meter().messages_sent(), 1);
        assert_eq!(a.meter().payload_bytes_sent(), 100);
        ctl.restore();
        let _ = b.recv_timeout(Duration::from_millis(1)).unwrap();
        assert_eq!(b.meter().payload_bytes_received(), 100);
    }
}
