//! A condition variable that makes no system call when nobody waits.
//!
//! std's futex `Condvar` issues a `FUTEX_WAKE` on every notify, waiter
//! or not. The pipeline hands work from stage to stage several times
//! per write, and under streaming load almost nobody is parked, so
//! [`Signal`] counts its waiters and skips the wake when there are
//! none.
//!
//! The count is sound because every notifier changes the guarded state
//! under the mutex the waiter holds: a waiter checks the state and is
//! counted before `wait` releases that mutex, so a notifier that takes
//! the mutex afterwards to change the state also sees the count. A
//! notify may come inside the lock or after releasing it, but never
//! without a state change made under it.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, MutexGuard};
use std::time::Duration;

/// A `Condvar` plus a count of the threads parked on it.
#[derive(Default)]
pub(crate) struct Signal {
    cv: Condvar,
    /// Threads inside [`Signal::wait`]. Changed only under the guarded
    /// mutex, whose release and acquire order it against every state
    /// change, so `Relaxed` suffices.
    parked: AtomicUsize,
}

impl Signal {
    /// Releases `guard`, parks until notified, and reacquires it.
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        self.parked.fetch_add(1, Ordering::Relaxed);
        let guard = self.cv.wait(guard).expect("a pipeline thread panicked");
        self.parked.fetch_sub(1, Ordering::Relaxed);
        guard
    }

    /// Like [`Signal::wait`], but parks for at most `limit` of wall-clock
    /// time. It says nothing of why it returned: the caller re-checks
    /// its state, and its deadline, either way.
    pub fn wait_timeout<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        limit: Duration,
    ) -> MutexGuard<'a, T> {
        self.parked.fetch_add(1, Ordering::Relaxed);
        let (guard, _) = self
            .cv
            .wait_timeout(guard, limit)
            .expect("a pipeline thread panicked");
        self.parked.fetch_sub(1, Ordering::Relaxed);
        guard
    }

    /// Wakes one parked thread, if any.
    pub fn notify_one(&self) {
        if self.parked.load(Ordering::Relaxed) > 0 {
            self.cv.notify_one();
        }
    }

    /// Wakes every parked thread, if any.
    pub fn notify_all(&self) {
        if self.parked.load(Ordering::Relaxed) > 0 {
            self.cv.notify_all();
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use std::sync::atomic::Ordering;
    use std::sync::mpsc;
    use std::sync::{Arc, Mutex, MutexGuard};
    use std::time::Duration;

    use super::Signal;

    /// Runs `body` on its own thread and fails the test if it has not
    /// finished within `limit` — a lost wake-up fails instead of hanging.
    pub(crate) fn under_watchdog(limit: Duration, body: impl FnOnce() + Send + 'static) {
        let (done, finished) = mpsc::channel();
        let worker = std::thread::spawn(move || {
            body();
            let _ = done.send(());
        });
        if let Err(mpsc::RecvTimeoutError::Timeout) = finished.recv_timeout(limit) {
            panic!("no progress in {limit:?}: a wake-up was lost");
        }
        worker.join().unwrap();
    }

    /// Passes a token between two threads `ROUNDS` times, each side
    /// parking through `wait` until it holds the token and re-checking
    /// after every return.
    fn pass_token(wait: for<'a> fn(&Signal, MutexGuard<'a, u64>) -> MutexGuard<'a, u64>) {
        const ROUNDS: u64 = 100_000;
        under_watchdog(Duration::from_secs(60), move || {
            // The token's holder: even counts belong to the main side,
            // odd counts to the peer.
            let turn = Arc::new((Mutex::new(0u64), Signal::default()));
            let peer_turn = Arc::clone(&turn);
            let side = move |turn: &(Mutex<u64>, Signal), parity: u64| {
                let (count, signal) = turn;
                for round in 0..ROUNDS {
                    let mut n = count.lock().unwrap();
                    while *n != 2 * round + parity {
                        n = wait(signal, n);
                    }
                    *n += 1;
                    drop(n);
                    signal.notify_one();
                }
            };
            let peer = std::thread::spawn(move || side(&peer_turn, 1));
            side(&turn, 0);
            peer.join().unwrap();
            assert_eq!(*turn.0.lock().unwrap(), 2 * ROUNDS);
            // Every park, timed out or woken, was uncounted again.
            assert_eq!(turn.1.parked.load(Ordering::Relaxed), 0);
        });
    }

    #[test]
    fn a_token_passed_back_and_forth_is_never_lost() {
        pass_token(Signal::wait);
    }

    #[test]
    fn a_token_passed_back_and_forth_under_timed_waits_is_never_lost() {
        // Short enough that some waits time out and re-park, long
        // enough that most are ended by the notify.
        pass_token(|signal, n| signal.wait_timeout(n, Duration::from_micros(50)));
    }
}
