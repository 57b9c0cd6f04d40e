//! The central, lock-light metric registry.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex};

use crate::events::EventRing;
use crate::export::Snapshot;
use crate::metrics::{Counter, Gauge, Histogram};

/// A collector is called at snapshot time to publish values that live
/// outside the registry (the engine's buffer pool, traffic meters) into
/// it.
pub type Collector = Box<dyn Fn(&Registry) + Send + Sync>;

/// Default event-ring capacity: enough for every event of a multi-
/// thousand-write benchmark run.
const DEFAULT_EVENT_CAP: usize = 65_536;

/// A named collection of [`Counter`]s, [`Gauge`]s, [`Histogram`]s and
/// one shared [`EventRing`].
///
/// Lookup (`counter`/`gauge`/`histogram`) takes a short mutex on a
/// `BTreeMap` and returns an `Arc` the caller keeps — the hot record
/// path then touches only atomics. Instruments are created on first
/// use and never removed, so names are stable for the life of the
/// registry. `BTreeMap` keeps every export in sorted key order, which
/// the determinism contract requires.
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
    collectors: Mutex<Vec<Collector>>,
    events: EventRing,
}

impl Default for Registry {
    fn default() -> Self {
        Self {
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
            collectors: Mutex::new(Vec::new()),
            events: EventRing::new(DEFAULT_EVENT_CAP),
        }
    }
}

impl Registry {
    /// A registry with the default event-ring capacity.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// The counter named `name`, created at zero on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.counters.lock().unwrap();
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// The gauge named `name`, created at zero on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.gauges.lock().unwrap();
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// The histogram named `name`, created empty on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.histograms.lock().unwrap();
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// Registers a closure run at the start of every [`snapshot`]
    /// (latest registration runs last, so it wins on name collisions).
    ///
    /// [`snapshot`]: Registry::snapshot
    pub fn add_collector(&self, collector: Collector) {
        self.collectors.lock().unwrap().push(collector);
    }

    /// The shared event ring.
    pub fn events(&self) -> &EventRing {
        &self.events
    }

    /// Runs the collectors, then freezes every instrument and the
    /// buffered events into a [`Snapshot`].
    pub fn snapshot(&self) -> Snapshot {
        let collectors = std::mem::take(&mut *self.collectors.lock().unwrap());
        for collector in &collectors {
            collector(self);
        }
        self.collectors.lock().unwrap().splice(0..0, collectors);

        Snapshot {
            counters: self
                .counters
                .lock()
                .unwrap()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: self
                .gauges
                .lock()
                .unwrap()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: self
                .histograms
                .lock()
                .unwrap()
                .iter()
                .map(|(k, v)| (k.clone(), crate::export::HistogramSnapshot::of(v)))
                .collect(),
            event_counts: self
                .events
                .counts()
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
            events: self.events.events(),
            events_dropped: self.events.dropped(),
        }
    }
}

impl fmt::Debug for Registry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Registry")
            .field("counters", &self.counters.lock().unwrap().len())
            .field("gauges", &self.gauges.lock().unwrap().len())
            .field("histograms", &self.histograms.lock().unwrap().len())
            .field("collectors", &self.collectors.lock().unwrap().len())
            .field("events", &self.events.counts())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::{Event, EventKind};

    #[test]
    fn instruments_are_created_once_and_shared() {
        let reg = Registry::new();
        reg.counter("writes").add(3);
        reg.counter("writes").add(4);
        assert_eq!(reg.counter("writes").get(), 7);
        assert!(Arc::ptr_eq(&reg.counter("writes"), &reg.counter("writes")));
    }

    #[test]
    fn collectors_run_at_snapshot_time() {
        let reg = Registry::new();
        let source = Arc::new(Counter::new());
        let src = Arc::clone(&source);
        reg.add_collector(Box::new(move |r| r.gauge("mirrored").set(src.get())));
        source.add(11);
        assert_eq!(reg.snapshot().gauges["mirrored"], 11);
        source.add(1);
        assert_eq!(reg.snapshot().gauges["mirrored"], 12, "re-runs every time");
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let reg = Registry::new();
        reg.counter("b").inc();
        reg.counter("a").inc();
        reg.histogram("h").record(5);
        reg.events().record(Event::new(1, EventKind::Barrier));
        let snap = reg.snapshot();
        let keys: Vec<_> = snap.counters.keys().cloned().collect();
        assert_eq!(keys, ["a", "b"]);
        assert_eq!(snap.histograms["h"].count, 1);
        assert_eq!(snap.event_counts["barrier"], 1);
        assert_eq!(snap.events.len(), 1);
    }
}
