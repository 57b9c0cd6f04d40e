//! The replica lifecycle state machine.
//!
//! ```text
//!            send/ack error              offline_after consecutive errors
//!   Online ──────────────────▶ Lagging ──────────────────▶ Offline
//!     ▲                          │                            │
//!     │   resync complete        │ rejoin()                   │ rejoin()
//!     └──────── Resyncing ◀──────┴────────────────────────────┘
//!                   │
//!                   └── resync error ──▶ Offline
//! ```
//!
//! A *Lagging* replica is reachable but has missed at least one write
//! (its dirty set is non-empty); the primary keeps sending writes for
//! clean blocks but defers writes to dirty blocks until resync. An
//! *Offline* replica receives nothing. Both return to *Online* only
//! through *Resyncing*.

use std::fmt;

/// Lifecycle state of one replica, as seen by the primary.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ReplicaState {
    /// Fully caught up; receives every write.
    Online,
    /// Reachable but missing writes; receives writes to clean blocks
    /// only.
    Lagging,
    /// Unreachable or repeatedly failing; receives nothing.
    Offline,
    /// Being caught up; receives resync frames plus writes to blocks
    /// the resync has already covered.
    Resyncing,
}

impl ReplicaState {
    /// Stable lowercase name, used by [`Display`](fmt::Display) and as
    /// the `from`/`to` tag of observability state-change events.
    pub fn name(self) -> &'static str {
        match self {
            ReplicaState::Online => "online",
            ReplicaState::Lagging => "lagging",
            ReplicaState::Offline => "offline",
            ReplicaState::Resyncing => "resyncing",
        }
    }

    /// Whether the state machine allows `self -> to`.
    pub fn can_transition(self, to: ReplicaState) -> bool {
        use ReplicaState::*;
        matches!(
            (self, to),
            (Online, Lagging)
                | (Online, Offline)
                | (Lagging, Offline)
                | (Lagging, Resyncing)
                | (Offline, Resyncing)
                | (Resyncing, Online)
                | (Resyncing, Offline)
        )
    }
}

impl fmt::Display for ReplicaState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::ReplicaState::*;

    #[test]
    fn the_paper_cycle_is_allowed() {
        assert!(Online.can_transition(Lagging));
        assert!(Lagging.can_transition(Offline));
        assert!(Offline.can_transition(Resyncing));
        assert!(Resyncing.can_transition(Online));
    }

    #[test]
    fn shortcuts_and_aborts() {
        assert!(Online.can_transition(Offline)); // hard kill
        assert!(Lagging.can_transition(Resyncing)); // quick catch-up
        assert!(Resyncing.can_transition(Offline)); // resync failed
    }

    #[test]
    fn illegal_transitions_are_rejected() {
        assert!(!Offline.can_transition(Online)); // must resync first
        assert!(!Lagging.can_transition(Online)); // must resync first
        assert!(!Offline.can_transition(Lagging));
        assert!(!Online.can_transition(Resyncing)); // nothing to resync
        assert!(!Online.can_transition(Online));
    }
}
