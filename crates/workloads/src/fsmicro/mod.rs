//! The Ext2 filesystem micro-benchmark of Figure 7.
//!
//! Paper §3.2: "The micro-benchmark chooses five directories randomly on
//! Ext2 file system and creates an archive file using the tar command.
//! We ran the tar command five times. Each time before the tar command
//! is run, files in the directories are randomly selected and randomly
//! changed."
//!
//! This driver builds a populated filesystem of English-ish text files
//! (text compresses much better than database pages — the paper calls
//! this out when comparing Figure 7 to Figures 4–6), then alternates
//! mutation rounds with tar runs.

use std::sync::Arc;

use rand::Rng;

use prins_block::BlockDevice;
use prins_fs::{tar, Fs, FsError};

use crate::text::prose;

/// Shape of the micro-benchmark.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct FsMicroConfig {
    /// Total directories created.
    pub(crate) dirs: usize,
    /// Files per directory.
    pub(crate) files_per_dir: usize,
    /// Approximate bytes per file.
    pub(crate) file_size: usize,
    /// Directories archived per round (paper: 5).
    pub(crate) dirs_per_round: usize,
}

impl FsMicroConfig {
    /// The paper's setup: archives of 5 random directories.
    pub(crate) fn paper() -> Self {
        Self {
            dirs: 12,
            files_per_dir: 8,
            file_size: 24 * 1024,
            dirs_per_round: 5,
        }
    }

    /// Minimal configuration for unit tests.
    pub(crate) fn tiny() -> Self {
        Self {
            dirs: 3,
            files_per_dir: 2,
            file_size: 2 * 1024,
            dirs_per_round: 2,
        }
    }
}

/// The micro-benchmark driver: a formatted, populated filesystem plus
/// the mutate-then-tar round logic.
///
/// The five archived directories are chosen once (randomly) at setup
/// and re-archived into the *same* archive file every round, as the
/// paper describes. Successive archives are therefore mostly identical
/// — small file edits produce small archive deltas — which is precisely
/// the redundancy PRINS's parity exposes and full-block replication
/// retransmits wholesale.
pub(crate) struct FsMicro {
    fs: Fs,
    config: FsMicroConfig,
    archived_dirs: Vec<usize>,
    rounds_run: usize,
}

impl FsMicro {
    /// Formats `device` and populates the text-file corpus (the setup
    /// phase, excluded from traffic measurement).
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures (most commonly
    /// [`FsError::NoSpace`] for undersized devices).
    pub(crate) fn setup<R: Rng>(
        device: Arc<dyn BlockDevice>,
        config: FsMicroConfig,
        rng: &mut R,
    ) -> Result<Self, FsError> {
        let fs = Fs::format(device, 4096)?;
        for d in 0..config.dirs {
            let dir = format!("/dir{d}");
            fs.create_dir(&dir)?;
            for f in 0..config.files_per_dir {
                let size = config.file_size / 2 + rng.random_range(0..config.file_size.max(2));
                fs.write_file(&format!("{dir}/file{f}.txt"), prose(rng, size).as_bytes())?;
            }
        }
        let archived_dirs = pick_dirs(&config, rng);
        Ok(Self {
            fs,
            config,
            archived_dirs,
            rounds_run: 0,
        })
    }

    /// Rounds executed so far.
    pub(crate) fn rounds_run(&self) -> usize {
        self.rounds_run
    }

    /// Runs `rounds` mutate-then-tar rounds.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub(crate) fn run<R: Rng>(&mut self, rounds: usize, rng: &mut R) -> Result<(), FsError> {
        for _ in 0..rounds {
            self.run_round(rng)?;
        }
        Ok(())
    }

    /// One round: randomly change files, then re-archive the chosen
    /// directories over the previous archive.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub(crate) fn run_round<R: Rng>(&mut self, rng: &mut R) -> Result<(), FsError> {
        self.mutate(rng)?;
        let names: Vec<String> = self
            .archived_dirs
            .iter()
            .map(|d| format!("/dir{d}"))
            .collect();
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        tar::create_over(&self.fs, &refs, "/archive.tar")?;
        self.rounds_run += 1;
        Ok(())
    }

    /// Randomly select and randomly change files, as the paper
    /// describes. Edits are in-place (size-preserving) with an
    /// occasional small append: text files edited by applications keep
    /// their length far more often than they grow, and tar's 512-byte
    /// record padding absorbs small growth — so successive archives of
    /// the same tree stay byte-aligned, the redundancy PRINS exploits.
    fn mutate<R: Rng>(&self, rng: &mut R) -> Result<(), FsError> {
        for d in 0..self.config.dirs {
            for f in 0..self.config.files_per_dir {
                if rng.random_range(0..2u8) == 0 {
                    continue; // not selected this round
                }
                let path = format!("/dir{d}/file{f}.txt");
                let size = self.fs.metadata(&path)?.size;
                let edits = rng.random_range(1..=4usize);
                for _ in 0..edits {
                    let patch_len = rng.random_range(40..400).min(size.max(1) as usize);
                    let patch = prose(rng, patch_len);
                    // In place: never past EOF, so the size is stable.
                    let at = rng.random_range(0..(size - patch_len as u64).max(1));
                    self.fs.write_at(&path, at, patch.as_bytes())?;
                }
                if rng.random_range(0..8u8) == 0 {
                    // Occasional growth, bounded by the file's tar
                    // padding so the archive's record layout is stable
                    // (a single grown record would displace every
                    // later byte of the archive).
                    let pad_room = (512 - (size % 512) as usize) % 512;
                    if pad_room > 8 {
                        let tail_len = rng.random_range(1..pad_room);
                        let tail = prose(rng, tail_len);
                        self.fs.append(&path, tail.as_bytes())?;
                    }
                }
            }
        }
        Ok(())
    }
}

fn pick_dirs<R: Rng>(config: &FsMicroConfig, rng: &mut R) -> Vec<usize> {
    let mut all: Vec<usize> = (0..config.dirs).collect();
    for i in (1..all.len()).rev() {
        let j = rng.random_range(0..=i);
        all.swap(i, j);
    }
    all.truncate(config.dirs_per_round.min(config.dirs));
    all
}

impl std::fmt::Debug for FsMicro {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FsMicro")
            .field("config", &self.config)
            .field("rounds_run", &self.rounds_run)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::tests::count_writes;
    use prins_block::{BlockSize, InstrumentedDevice, MemDevice};
    use rand::SeedableRng;

    fn device(blocks: u64) -> Arc<dyn BlockDevice> {
        Arc::new(MemDevice::new(BlockSize::kb4(), blocks))
    }

    #[test]
    fn rounds_create_archives() {
        let dev = device(32_768);
        let mut rng = rand::rngs::StdRng::seed_from_u64(14);
        let mut micro = FsMicro::setup(Arc::clone(&dev), FsMicroConfig::tiny(), &mut rng).unwrap();
        micro.run(3, &mut rng).unwrap();
        assert_eq!(micro.rounds_run(), 3);
        assert!(micro.fs.exists("/archive.tar"));
        assert!(!tar::list(&micro.fs, "/archive.tar").unwrap().is_empty());
    }

    #[test]
    fn mutation_rounds_write_blocks() {
        let inst = Arc::new(InstrumentedDevice::new(MemDevice::new(
            BlockSize::kb4(),
            32_768,
        )));
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        let mut micro = FsMicro::setup(
            Arc::clone(&inst) as Arc<dyn BlockDevice>,
            FsMicroConfig::tiny(),
            &mut rng,
        )
        .unwrap();
        let writes = count_writes(&inst);
        micro.run_round(&mut rng).unwrap();
        let writes = writes.load(std::sync::atomic::Ordering::Relaxed);
        assert!(writes > 5, "{writes} writes");
    }

    #[test]
    fn pick_dirs_returns_distinct_dirs() {
        let config = FsMicroConfig::paper();
        let mut rng = rand::rngs::StdRng::seed_from_u64(15);
        for _ in 0..20 {
            let picks = pick_dirs(&config, &mut rng);
            assert_eq!(picks.len(), 5);
            let set: std::collections::HashSet<_> = picks.iter().collect();
            assert_eq!(set.len(), 5);
        }
    }

    #[test]
    fn successive_archives_share_most_content() {
        // The property Figure 7 rests on: re-tarring lightly edited
        // files overwrites the archive with mostly identical bytes.
        let dev = device(65_536);
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let mut micro = FsMicro::setup(Arc::clone(&dev), FsMicroConfig::tiny(), &mut rng).unwrap();
        micro.run_round(&mut rng).unwrap();
        let first = micro.fs.read_file("/archive.tar").unwrap();
        micro.run_round(&mut rng).unwrap();
        let second = micro.fs.read_file("/archive.tar").unwrap();
        let n = first.len().min(second.len());
        let changed = first[..n]
            .iter()
            .zip(&second[..n])
            .filter(|(a, b)| a != b)
            .count();
        let ratio = changed as f64 / n as f64;
        assert!(
            ratio < 0.6,
            "successive archives differ in {:.0}% of bytes",
            ratio * 100.0
        );
    }
}
