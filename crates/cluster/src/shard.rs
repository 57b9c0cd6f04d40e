//! Sharding a volume across replica groups.
//!
//! Each LBA is served by one replica group ([`ClusterGroup`]), chosen
//! by a [`RendezvousPlacement`]; every group's device spans the whole
//! volume, so a block keeps its address wherever it lives and a range
//! can migrate between groups live. Sharding sits *around* the
//! replication group, not inside it: a volume with one group is that
//! group.

use std::ops::Range;
use std::sync::Arc;

use prins_block::{BlockDevice, Lba};
use prins_net::Clock;
use prins_obs::{Registry, TraceSink};

use crate::group::ReadOutcome;
use crate::probe::{Plane, Probe};
use crate::{ClusterError, ClusterGroup, RendezvousPlacement, WriteOutcome};

/// An in-progress live migration of one LBA range between groups.
#[derive(Clone, Debug)]
struct Migration {
    range: Range<u64>,
    from: usize,
    to: usize,
    /// Next LBA to copy; `range.end` means the copy is done.
    cursor: u64,
}

/// A volume sharded across one or more [`ClusterGroup`]s.
///
/// Writes and reads are routed by rendezvous hashing
/// ([`RendezvousPlacement`]); group-local addresses equal volume
/// addresses.
///
/// **Live migration**: [`migrate_start`](Self::migrate_start) copies a
/// range to another group under foreground writes (which dual-dispatch
/// to both groups until cutover), and the cutover bumps the source
/// group's response epochs so acknowledgements stranded mid-move drop
/// deterministically instead of being credited to post-move traffic.
pub struct ShardedCluster<D> {
    placement: RendezvousPlacement,
    groups: Vec<ClusterGroup<D>>,
    /// Ownership overrides from completed migrations, latest wins.
    overrides: Vec<(Range<u64>, usize)>,
    migration: Option<Migration>,
    /// Records migration traffic and mints only the standalone
    /// copy-batch traces; per-write traces live in each group's own
    /// probe (shard tag = group index).
    probe: Probe,
}

impl<D: BlockDevice> ShardedCluster<D> {
    /// Assembles a sharded volume.
    ///
    /// # Panics
    ///
    /// Panics if the group count differs from the placement's, or a
    /// group's device does not span the full volume.
    pub fn new(placement: RendezvousPlacement, groups: Vec<ClusterGroup<D>>) -> Self {
        assert_eq!(groups.len(), placement.group_count(), "one group per shard");
        let want = placement.num_blocks();
        for (g, group) in groups.iter().enumerate() {
            let have = group.device().geometry().num_blocks();
            assert_eq!(
                have, want,
                "group {g} device holds {have} blocks, placement needs {want}"
            );
        }
        Self {
            placement,
            groups,
            overrides: Vec::new(),
            migration: None,
            probe: Probe::default(),
        }
    }

    /// Attaches a metrics registry: migrations record `migrate-batch` /
    /// `cutover` events and the `migration_bytes` counter from here on.
    /// Attach each group's observer separately (they may share the
    /// registry).
    pub fn attach_observer(&mut self, registry: Arc<Registry>, clock: Arc<dyn Clock>) {
        self.probe.observe(Plane::Shard, registry, clock);
    }

    /// Attaches one shared trace sink to every group (shard tag =
    /// group index, so a dual-dispatched write during a migration
    /// naturally produces one trace per group) and arms migration
    /// tracing: each [`migrate_step`](Self::migrate_step) batch mints
    /// a standalone trace completed by a `migrate-copy` hop on the
    /// target group's lane. Size
    /// [`TraceConfig::shards`](prins_obs::TraceConfig::shards) as
    /// `group_count() + 1` to give migration traffic its own SLO slot.
    pub fn attach_tracer(&mut self, sink: Arc<TraceSink>, clock: Arc<dyn Clock>) {
        for (g, group) in self.groups.iter_mut().enumerate() {
            group.attach_tracer(Arc::clone(&sink), g as u32, Arc::clone(&clock));
        }
        // One past the last group, so batch ids can never collide
        // with any group's write ids.
        self.probe.trace_into(sink, self.groups.len() as u32, clock);
    }

    /// Number of replica groups.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// The group serving shard `g`.
    ///
    /// # Panics
    ///
    /// Panics if `g` is out of range.
    pub fn group(&self, g: usize) -> &ClusterGroup<D> {
        &self.groups[g]
    }

    /// Mutable access to the group serving shard `g` (for lifecycle
    /// and resync driving).
    ///
    /// # Panics
    ///
    /// Panics if `g` is out of range.
    pub fn group_mut(&mut self, g: usize) -> &mut ClusterGroup<D> {
        &mut self.groups[g]
    }

    /// The group currently owning `lba`: the latest migration override
    /// covering it, or the placement's assignment.
    pub fn owner(&self, lba: Lba) -> usize {
        for (range, g) in self.overrides.iter().rev() {
            if range.contains(&lba.index()) {
                return *g;
            }
        }
        self.placement.group_for(lba)
    }

    /// Routes one write to the owning shard. While a migration covers
    /// `lba`, every write the owner's primary applied (one that lost
    /// quorum too) dual-dispatches: the target group applies it as
    /// well, so blocks already copied stay current until cutover.
    ///
    /// # Errors
    ///
    /// As [`ClusterGroup::write`] (a dual-dispatch failure on the
    /// migration target surfaces like any replication failure).
    pub fn write(&mut self, lba: Lba, new: &[u8]) -> Result<WriteOutcome, ClusterError> {
        let owner = self.owner(lba);
        let result = self.groups[owner].write(lba, new);
        let applied = matches!(result, Ok(_) | Err(ClusterError::QuorumLost { .. }));
        if let Some(m) = &self.migration {
            if applied && m.range.contains(&lba.index()) {
                self.groups[m.to].write(lba, new)?;
            }
        }
        result
    }

    /// Serves one read from the owning shard, offloading to an in-sync
    /// replica when the freshness guard allows (see
    /// [`ClusterGroup::read`]).
    ///
    /// # Errors
    ///
    /// As [`ClusterGroup::read`].
    pub fn read(&mut self, lba: Lba) -> Result<ReadOutcome, ClusterError> {
        let owner = self.owner(lba);
        self.groups[owner].read(lba)
    }

    /// Whether a migration is in progress (started and not yet cut
    /// over).
    pub fn migrating(&self) -> bool {
        self.migration.is_some()
    }

    /// Begins a live migration of `range` from group `from` to group
    /// `to`. Drive the copy with [`migrate_step`](Self::migrate_step);
    /// foreground writes may be interleaved between steps and
    /// dual-dispatch to both groups until cutover.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Migration`] if a migration is already in
    /// progress, the range is empty/out of bounds, the groups are
    /// invalid, or any block in `range` is not currently owned by
    /// `from`.
    pub fn migrate_start(
        &mut self,
        range: Range<u64>,
        from: usize,
        to: usize,
    ) -> Result<(), ClusterError> {
        if self.migration.is_some() {
            return Err(ClusterError::Migration(
                "a migration is already in progress".into(),
            ));
        }
        if from >= self.groups.len() || to >= self.groups.len() || from == to {
            return Err(ClusterError::Migration(format!(
                "invalid group pair {from} -> {to}"
            )));
        }
        if range.is_empty() || range.end > self.placement.num_blocks() {
            return Err(ClusterError::Migration(format!(
                "range {range:?} is empty or out of bounds"
            )));
        }
        for i in range.clone() {
            let owner = self.owner(Lba(i));
            if owner != from {
                return Err(ClusterError::Migration(format!(
                    "block {i} is owned by group {owner}, not {from}"
                )));
            }
        }
        self.migration = Some(Migration {
            cursor: range.start,
            range,
            from,
            to,
        });
        Ok(())
    }

    /// Copies up to `max_blocks` blocks of the migrating range to the
    /// target group (through its full replication path). When the copy
    /// completes, the migration **cuts over**: both groups drain their
    /// in-flight traffic, the source group opens a new response
    /// generation (`ClusterGroup::bump_epochs`) so acknowledgements
    /// stranded mid-move identify themselves as stale, and ownership of
    /// the range flips to the target.
    ///
    /// Returns the number of blocks still to copy (0 = cut over).
    ///
    /// # Errors
    ///
    /// [`ClusterError::Migration`] if no migration is in progress;
    /// device or replication errors as [`ClusterGroup::write`].
    pub fn migrate_step(&mut self, max_blocks: usize) -> Result<u64, ClusterError> {
        let Some(m) = self.migration.clone() else {
            return Err(ClusterError::Migration("no migration in progress".into()));
        };
        let batch_end = m.range.end.min(m.cursor + max_blocks as u64);
        let bs = self.groups[m.from].device().geometry().block_size().bytes() as u64;
        // One trace per copy batch (the per-block writes below mint
        // their own traces through the target group's probe).
        let tid = self.probe.begin();
        for i in m.cursor..batch_end {
            let lba = Lba(i);
            let data = self.groups[m.from].device().read_block_vec(lba)?;
            self.groups[m.to].write(lba, &data)?;
        }
        if let Some(live) = self.migration.as_mut() {
            live.cursor = batch_end;
        }
        let copied = batch_end - m.cursor;
        let remaining = m.range.end - batch_end;
        self.probe
            .migrate_batch(tid, m.to, copied, remaining, copied * bs);
        if remaining == 0 {
            self.cutover();
        }
        Ok(remaining)
    }

    /// Flips ownership of the migrated range to the target group.
    fn cutover(&mut self) {
        let Some(m) = self.migration.take() else {
            return;
        };
        // Settle in-flight traffic on both sides of the move and close
        // the source group's response generations: an ack still queued
        // on a slow link answers a frame from before the move and must
        // drop on arrival, not be matched to post-cutover frames.
        self.groups[m.from].bump_epochs();
        self.groups[m.to].drain();
        self.overrides.push((m.range.clone(), m.to));
        self.probe.cutover(m.from, m.to);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ClusterConfig;
    use prins_block::{BlockSize, MemDevice};

    /// A replica-less group: primary image only — enough to exercise
    /// routing, dual dispatch, and cutover without threads.
    fn group(blocks: u64) -> ClusterGroup<MemDevice> {
        ClusterGroup::new(
            MemDevice::new(BlockSize::kb4(), blocks),
            ClusterConfig::default(),
            vec![],
        )
    }

    #[test]
    fn live_migration_cuts_over_under_foreground_writes() {
        // Two-block slots: LBAs 0 and 1 share an owner, so one range
        // can move them in two steps.
        let p = RendezvousPlacement::new(8, 2).with_slot_blocks(2);
        let from = p.group_for(Lba(0));
        let to = 1 - from;
        let mut c = ShardedCluster::new(p, vec![group(8), group(8)]);
        c.write(Lba(0), &[0xAA; 4096]).unwrap();

        c.migrate_start(0..2, from, to).unwrap();
        // A foreground write during the move dual-dispatches.
        let b = vec![0xBB; 4096];
        c.write(Lba(0), &b).unwrap();
        assert_eq!(c.group(to).device().read_block_vec(Lba(0)).unwrap(), b);
        assert_eq!(c.migrate_step(1).unwrap(), 1, "one block left to copy");
        assert!(c.migrating());

        assert_eq!(c.migrate_step(8).unwrap(), 0);
        assert!(!c.migrating());
        assert_eq!(c.owner(Lba(0)), to);

        // Post-cutover writes land only on the new owner.
        let d = vec![0xDD; 4096];
        c.write(Lba(0), &d).unwrap();
        assert_eq!(c.read(Lba(0)).unwrap().data, d);
        assert_eq!(c.group(to).device().read_block_vec(Lba(0)).unwrap(), d);
        assert_eq!(c.group(from).device().read_block_vec(Lba(0)).unwrap(), b);
    }

    #[test]
    fn a_write_that_loses_quorum_mid_migration_still_reaches_the_target() {
        // The source group's quorum of one can never be met: every
        // write it takes lands on its primary and reports QuorumLost.
        let strict = ClusterGroup::new(
            MemDevice::new(BlockSize::kb4(), 16),
            ClusterConfig {
                write_quorum: 1,
                ..ClusterConfig::default()
            },
            vec![],
        );
        let p = RendezvousPlacement::new(16, 2);
        let start = (0..15u64)
            .find(|&i| p.group_for(Lba(i)) == p.group_for(Lba(i + 1)))
            .unwrap();
        let from = p.group_for(Lba(start));
        let mut groups = vec![group(16), group(16)];
        groups[from] = strict;
        let mut c = ShardedCluster::new(p, groups);

        c.migrate_start(start..start + 2, from, 1 - from).unwrap();
        assert_eq!(c.migrate_step(1).unwrap(), 1);
        // The block is already copied; the write must keep it current.
        let b = vec![0xBB; 4096];
        assert!(matches!(
            c.write(Lba(start), &b),
            Err(ClusterError::QuorumLost { .. })
        ));
        assert_eq!(c.migrate_step(8).unwrap(), 0);
        assert_eq!(c.owner(Lba(start)), 1 - from);
        assert_eq!(c.read(Lba(start)).unwrap().data, b);
    }

    #[test]
    fn migrate_validates_range_ownership_and_exclusivity() {
        let p = RendezvousPlacement::new(8, 2);
        let from = p.group_for(Lba(0));
        let mut c = ShardedCluster::new(p, vec![group(8), group(8)]);
        // Self-migration, bad range, and a foreign-owned block all fail.
        assert!(c.migrate_start(0..1, from, from).is_err());
        assert!(c.migrate_start(3..3, from, 1 - from).is_err());
        assert!(c.migrate_start(0..9, from, 1 - from).is_err());
        assert!(
            c.migrate_start(0..8, from, 1 - from).is_err(),
            "the whole volume cannot be owned by one group"
        );
        // Only one migration at a time.
        c.migrate_start(0..1, from, 1 - from).unwrap();
        let other = (0..8).map(Lba).find(|l| c.owner(*l) == 1 - from).unwrap();
        assert!(c
            .migrate_start(other.index()..other.index() + 1, 1 - from, from)
            .is_err());
        assert!(matches!(
            c.migrate_step(0),
            Ok(1) // zero-block step: copy stands still, no cutover
        ));
    }

    /// The system one op stream is driven through: a bare group, or the
    /// same group behind a one-group placement.
    enum Volume {
        Bare(ClusterGroup<MemDevice>),
        Sharded(ShardedCluster<MemDevice>),
    }

    impl Volume {
        fn write(&mut self, lba: Lba, data: &[u8]) -> Result<WriteOutcome, ClusterError> {
            match self {
                Volume::Bare(g) => g.write(lba, data),
                Volume::Sharded(s) => s.write(lba, data),
            }
        }

        fn read(&mut self, lba: Lba) -> Result<ReadOutcome, ClusterError> {
            match self {
                Volume::Bare(g) => g.read(lba),
                Volume::Sharded(s) => s.read(lba),
            }
        }

        fn group(&mut self) -> &mut ClusterGroup<MemDevice> {
            match self {
                Volume::Bare(g) => g,
                Volume::Sharded(s) => s.group_mut(0),
            }
        }
    }

    /// Drives one seeded op stream — writes and offloaded reads, a
    /// sever, quorum loss with every link down, rejoin + resync of both
    /// replicas, a drain — over two simulated replicas, and returns
    /// everything observable: each call's outcome, each replica's final
    /// status (lifecycle state, dirty map, every byte counter) and each
    /// replica's final image. Fails if a replica refused a frame.
    fn observe(sharded: bool) -> (Vec<String>, Vec<String>, Vec<Vec<u8>>) {
        use crate::ReplicaState;
        use prins_net::{SimNet, Transport};
        use prins_repl::{serve_sim, ReplicaApplier};
        use rand::{RngExt, SeedableRng};
        use std::sync::Arc;

        const BLOCKS: u64 = 16;
        let net = SimNet::new();
        let mut transports: Vec<Box<dyn Transport>> = Vec::new();
        let (mut devices, mut links) = (Vec::new(), Vec::new());
        for i in 0..2 {
            let (primary_side, replica_side, link) = net.add_link(
                &format!("replica{i}"),
                std::time::Duration::from_micros(200),
            );
            let device = Arc::new(MemDevice::new(BlockSize::kb4(), BLOCKS));
            let applier = ReplicaApplier::new(Arc::clone(&device));
            serve_sim(&net, &replica_side, applier);
            transports.push(Box::new(primary_side));
            devices.push(device);
            links.push(link);
        }
        let config = ClusterConfig {
            write_quorum: 1,
            offline_after: 2,
            ..ClusterConfig::default()
        };
        let mut group =
            ClusterGroup::new(MemDevice::new(BlockSize::kb4(), BLOCKS), config, transports);
        let registry = prins_obs::Registry::new();
        group.attach_observer(Arc::clone(&registry), net.clock());
        let mut volume = if sharded {
            Volume::Sharded(ShardedCluster::new(
                RendezvousPlacement::new(BLOCKS, 1),
                vec![group],
            ))
        } else {
            Volume::Bare(group)
        };

        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5eed);
        let mut calls = Vec::new();
        let mut burst = |volume: &mut Volume, writes: usize| {
            for i in 0..writes {
                let lba = Lba(rng.random_range(0..BLOCKS));
                let mut block = volume.group().device().read_block_vec(lba).unwrap();
                let at = rng.random_range(0..block.len() - 64);
                for b in &mut block[at..at + 64] {
                    *b = rng.random();
                }
                calls.push(format!("{:?}", volume.write(lba, &block)));
                if i % 3 == 0 {
                    let lba = Lba(rng.random_range(0..BLOCKS));
                    calls.push(format!("{:?}", volume.read(lba)));
                }
            }
        };
        burst(&mut volume, 20);
        links[0].sever(); // replica 0 degrades, then goes offline
        burst(&mut volume, 10);
        links[1].sever(); // nobody left: writes land locally, quorum lost
        burst(&mut volume, 4);
        links[0].restore();
        links[1].restore();
        for idx in 0..2 {
            volume.group().rejoin(idx).unwrap();
            volume.group().resync_to_completion(idx, 4).unwrap();
            assert_eq!(volume.group().state(idx), ReplicaState::Online);
        }
        burst(&mut volume, 10);
        volume.group().drain();

        let statuses = (0..2)
            .map(|idx| format!("{:?}", volume.group().status(idx)))
            .collect();
        let refused =
            registry.events().count("nak") + registry.snapshot().counters["checksum_failures"];
        assert_eq!(refused, 0, "a replica refused a frame");
        let images = devices
            .iter()
            .map(|dev| {
                (0..BLOCKS)
                    .flat_map(|lba| dev.read_block_vec(Lba(lba)).unwrap())
                    .collect()
            })
            .collect();
        (calls, statuses, images)
    }

    /// The premise the sim harness rests on: a one-group sharded volume
    /// *is* that group — same outcomes call for call, same accounting,
    /// same bytes on the replicas.
    #[test]
    fn a_one_group_volume_is_the_group() {
        let bare = observe(false);
        let sharded = observe(true);
        assert!(
            bare.0.iter().any(|c| c.contains("QuorumLost")),
            "the stream must cross a quorum loss"
        );
        assert!(
            bare.0.iter().any(|c| c.contains("source: Some")),
            "the stream must offload reads"
        );
        assert_eq!(bare.0, sharded.0, "write/read outcome sequences");
        assert_eq!(bare.1, sharded.1, "replica statuses");
        assert!(bare.2 == sharded.2, "replica images");
    }
}
