//! Stage spans: RAII guards that time a scope into a [`Histogram`].

use crate::metrics::Histogram;
use prins_net::Clock;

/// Times the scope from construction to drop and records the elapsed
/// nanoseconds into a [`Histogram`].
///
/// The clock is injected, so the same code path is deterministic under
/// a [`SimClock`](prins_net::SimClock) and real under
/// [`WallClock`](prins_net::WallClock).
///
/// ```
/// use prins_obs::{Histogram, Span};
/// use prins_net::WallClock;
///
/// let clock = WallClock::new();
/// let hist = Histogram::new();
/// {
///     let _span = Span::start(&clock, &hist);
///     // timed work
/// }
/// assert_eq!(hist.count(), 1);
/// ```
#[must_use = "a span records on drop; binding it to `_` drops it immediately"]
pub struct Span<'a> {
    clock: &'a dyn Clock,
    hist: &'a Histogram,
    started: u64,
    armed: bool,
}

impl<'a> Span<'a> {
    /// Starts timing now.
    #[inline]
    pub fn start(clock: &'a dyn Clock, hist: &'a Histogram) -> Self {
        Self {
            started: clock.now_nanos(),
            clock,
            hist,
            armed: true,
        }
    }

    /// The clock reading taken at construction.
    pub fn started_at(&self) -> u64 {
        self.started
    }

    /// Records now instead of at drop and disarms the guard.
    #[inline]
    pub fn finish(mut self) -> u64 {
        self.armed = false;
        let elapsed = self.clock.now_nanos().saturating_sub(self.started);
        self.hist.record(elapsed);
        elapsed
    }

    /// Disarms the guard: nothing is recorded.
    pub fn cancel(mut self) {
        self.armed = false;
    }
}

impl Drop for Span<'_> {
    #[inline]
    fn drop(&mut self) {
        if self.armed {
            self.hist
                .record(self.clock.now_nanos().saturating_sub(self.started));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prins_net::SimClock;

    #[test]
    fn span_records_virtual_elapsed_time() {
        let clock = SimClock::new();
        let hist = Histogram::new();
        {
            let _span = Span::start(&*clock, &hist);
            clock.advance_to(1500);
        }
        assert_eq!(hist.count(), 1);
        assert_eq!(hist.sum(), 1500);
    }

    #[test]
    fn finish_records_once_and_returns_elapsed() {
        let clock = SimClock::new();
        let hist = Histogram::new();
        let span = Span::start(&*clock, &hist);
        clock.advance_to(250);
        assert_eq!(span.finish(), 250);
        assert_eq!(hist.count(), 1, "finish must not double-record via drop");
    }

    #[test]
    fn cancel_records_nothing() {
        let clock = SimClock::new();
        let hist = Histogram::new();
        let span = Span::start(&*clock, &hist);
        clock.advance_to(99);
        span.cancel();
        assert_eq!(hist.count(), 0);
    }

    /// A span is two dyn clock reads and one histogram record; the
    /// guard itself (arming, the drop path) must add next to nothing on
    /// top, or it is too dear to leave enabled on the hottest stages.
    /// Measured against those same three calls made bare in this test,
    /// not against an absolute figure: what a clock read costs is the
    /// machine's business (a shared box drifts 90–110 ns for the pair),
    /// what the guard adds is ours. Gated to release: debug builds
    /// don't inline the path.
    #[test]
    #[cfg(not(debug_assertions))]
    fn span_overhead_is_its_clock_reads_and_record_plus_slack_in_release() {
        use prins_net::WallClock;
        const CALLS: u32 = 10_000;
        const SLACK_NANOS: u64 = 25;
        // Min over several batches: immune to a single scheduler blip.
        fn best_nanos_per_call(mut call: impl FnMut()) -> u64 {
            (0..8)
                .map(|_| {
                    let begin = std::time::Instant::now();
                    (0..CALLS).for_each(|_| call());
                    begin.elapsed().as_nanos() as u64 / u64::from(CALLS)
                })
                .min()
                .expect("eight batches")
        }
        let wall = WallClock::new();
        let clock: &dyn Clock = std::hint::black_box(&wall);
        let hist = Histogram::new();
        let bare = best_nanos_per_call(|| {
            let started = clock.now_nanos();
            std::hint::black_box(started);
            hist.record(clock.now_nanos().saturating_sub(started));
        });
        let span = best_nanos_per_call(|| {
            let span = Span::start(clock, &hist);
            std::hint::black_box(&span);
            drop(span);
        });
        assert_eq!(hist.count() as u32, 2 * 8 * CALLS);
        assert!(
            span <= bare + SLACK_NANOS,
            "span {span}ns vs its bare ingredients {bare}ns + {SLACK_NANOS}ns slack"
        );
    }
}
