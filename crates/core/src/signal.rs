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
mod tests {
    use std::sync::mpsc;
    use std::sync::{Arc, Mutex};
    use std::time::Duration;

    use super::Signal;

    /// Runs `body` on its own thread and fails the test if it has not
    /// finished within `limit` — a lost wake-up fails instead of hanging.
    fn under_watchdog(limit: Duration, body: impl FnOnce() + Send + 'static) {
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

    #[test]
    fn a_token_passed_back_and_forth_is_never_lost() {
        const ROUNDS: u64 = 100_000;
        under_watchdog(Duration::from_secs(60), || {
            // The token's holder: even counts belong to the main side,
            // odd counts to the peer.
            let turn = Arc::new((Mutex::new(0u64), Signal::default()));
            let peer_turn = Arc::clone(&turn);
            let peer = std::thread::spawn(move || {
                let (count, signal) = &*peer_turn;
                for round in 0..ROUNDS {
                    let mut n = count.lock().unwrap();
                    while *n != 2 * round + 1 {
                        n = signal.wait(n);
                    }
                    *n += 1;
                    drop(n);
                    signal.notify_one();
                }
            });
            let (count, signal) = &*turn;
            for round in 0..ROUNDS {
                let mut n = count.lock().unwrap();
                while *n != 2 * round {
                    n = signal.wait(n);
                }
                *n += 1;
                drop(n);
                signal.notify_one();
            }
            peer.join().unwrap();
            assert_eq!(*count.lock().unwrap(), 2 * ROUNDS);
        });
    }
}
