//! Random sampling and mutation of SuperSchedules.
//!
//! Sampling is how the paper builds its training set ("randomly sampled 100
//! formats and schedules from the SuperSchedule" per matrix, §4.1.3) and how
//! the black-box baseline tuners explore. All randomness goes through
//! [`Rng64`] for reproducibility.

use crate::{FormatSchedule, Parallelize, Space, SuperSchedule};
use waco_format::LevelFormat;
use waco_tensor::gen::Rng64;

/// Largest split exponent actually useful for a dimension of extent `n`
/// within the space's menu.
fn split_log2_cap(space: &Space, dim: usize) -> u32 {
    let n = space.dim_extent(dim).max(1);
    let dim_cap = usize::BITS - 1 - n.leading_zeros().min(usize::BITS - 1);
    dim_cap.min(space.max_split_log2)
}

impl SuperSchedule {
    /// Draws a uniformly random point of the space: power-of-two splits, a
    /// random loop order, a random legal parallelization, a random format
    /// order and random level formats.
    pub fn sample(space: &Space, rng: &mut Rng64) -> Self {
        let kernel = space.kernel;
        let splits: Vec<usize> = (0..kernel.ndims())
            .map(|d| {
                if kernel.is_splittable(d) {
                    1usize << rng.below(split_log2_cap(space, d) as usize + 1)
                } else {
                    1
                }
            })
            .collect();

        let mut loop_order = space.loop_vars();
        rng.shuffle(&mut loop_order);

        let par_vars = space.parallelizable_vars();
        let parallel = Some(Parallelize {
            var: *rng.pick(&par_vars),
            threads: *rng.pick(&space.thread_options),
            chunk: 1usize << rng.below(space.max_chunk_log2 as usize + 1),
        });

        let mut order = space.a_axes();
        rng.shuffle(&mut order);
        let formats = (0..order.len())
            .map(|_| {
                if rng.chance(0.5) {
                    LevelFormat::Uncompressed
                } else {
                    LevelFormat::Compressed
                }
            })
            .collect();

        SuperSchedule {
            kernel,
            splits,
            loop_order,
            parallel,
            format: FormatSchedule { order, formats },
        }
    }

    /// Produces a neighbor by changing exactly one aspect of the schedule
    /// (used by the black-box baseline tuners).
    pub fn mutate(&self, space: &Space, rng: &mut Rng64) -> Self {
        let mut s = self.clone();
        match rng.below(5) {
            0 => {
                // Re-roll one split.
                let splittable: Vec<usize> = (0..s.kernel.ndims())
                    .filter(|&d| s.kernel.is_splittable(d))
                    .collect();
                let d = *rng.pick(&splittable);
                s.splits[d] = 1usize << rng.below(split_log2_cap(space, d) as usize + 1);
            }
            1 => {
                // Swap two loop variables.
                let n = s.loop_order.len();
                let (a, b) = (rng.below(n), rng.below(n));
                s.loop_order.swap(a, b);
            }
            2 => {
                // Re-roll parallelization.
                let par_vars = space.parallelizable_vars();
                s.parallel = Some(Parallelize {
                    var: *rng.pick(&par_vars),
                    threads: *rng.pick(&space.thread_options),
                    chunk: 1usize << rng.below(space.max_chunk_log2 as usize + 1),
                });
            }
            3 => {
                // Swap two format levels (order and format move together so
                // a level keeps its format when it moves).
                let n = s.format.order.len();
                let (a, b) = (rng.below(n), rng.below(n));
                s.format.order.swap(a, b);
                s.format.formats.swap(a, b);
            }
            _ => {
                // Flip one level format.
                let n = s.format.formats.len();
                let l = rng.below(n);
                s.format.formats[l] = match s.format.formats[l] {
                    LevelFormat::Uncompressed => LevelFormat::Compressed,
                    LevelFormat::Compressed => LevelFormat::Uncompressed,
                };
            }
        }
        s
    }
}

/// A deterministic, seeded stream of schedules shared by every suite that
/// sweeps the SuperSchedule space (`waco-verify`, the `exec` kernel tests,
/// and the encoding property tests), so all of them agree on coverage.
///
/// The stream front-loads a fixed set of coverage corners — the concordant
/// CSR/CSF default, its serial variant, all-compressed and all-uncompressed
/// level formats, maximal splits, and discordant loop/format orders — and
/// then continues with uniform [`SuperSchedule::sample`] draws. Two samplers
/// built from the same space and seed yield identical streams.
#[derive(Debug, Clone)]
pub struct ScheduleSampler {
    space: Space,
    rng: Rng64,
    emitted: usize,
}

impl ScheduleSampler {
    /// Number of deterministic coverage corners emitted before the random
    /// tail begins.
    pub const CORNERS: usize = 6;

    /// Builds a sampler over `space` with its own private RNG stream.
    pub fn new(space: &Space, seed: u64) -> Self {
        ScheduleSampler {
            space: space.clone(),
            rng: Rng64::seed_from(seed),
            emitted: 0,
        }
    }

    /// The space this sampler draws from.
    pub fn space(&self) -> &Space {
        &self.space
    }

    /// The next schedule of the stream: corner `n` for the first
    /// [`Self::CORNERS`] calls, then uniform random points.
    pub fn next_schedule(&mut self) -> SuperSchedule {
        let i = self.emitted;
        self.emitted += 1;
        if i < Self::CORNERS {
            self.corner(i)
        } else {
            SuperSchedule::sample(&self.space, &mut self.rng)
        }
    }

    /// Draws the next `n` schedules.
    pub fn take_schedules(&mut self, n: usize) -> Vec<SuperSchedule> {
        (0..n).map(|_| self.next_schedule()).collect()
    }

    fn corner(&self, i: usize) -> SuperSchedule {
        let space = &self.space;
        let base = crate::named::default_csr(space);
        match i {
            // The paper's default: concordant CSR/CSF, parallel outer rows.
            0 => base,
            // Same point without parallelism (serial reference).
            1 => {
                let mut s = base;
                s.parallel = None;
                s
            }
            // Every level compressed (DCSR / all-C CSF), serial.
            2 => {
                let mut s = base;
                s.format.formats = vec![LevelFormat::Compressed; s.format.formats.len()];
                s.parallel = None;
                s
            }
            // Every level uncompressed (fully dense storage).
            3 => {
                let mut s = base;
                s.format.formats = vec![LevelFormat::Uncompressed; s.format.formats.len()];
                s
            }
            // Maximal legal split on every splittable dimension.
            4 => {
                let mut s = base;
                for d in 0..s.kernel.ndims() {
                    if s.kernel.is_splittable(d) {
                        s.splits[d] = 1usize << split_log2_cap(space, d);
                    }
                }
                s
            }
            // Discordant: loop order and format order both reversed
            // (independently), serial so the reversal is the only variable.
            _ => {
                let mut s = base;
                s.loop_order.reverse();
                s.format.order.reverse();
                s.format.formats.reverse();
                s.parallel = None;
                s
            }
        }
    }
}

impl Iterator for ScheduleSampler {
    type Item = SuperSchedule;

    fn next(&mut self) -> Option<SuperSchedule> {
        Some(self.next_schedule())
    }
}

/// Samples `count` schedules (convenience for dataset generation).
pub fn sample_many(space: &Space, count: usize, rng: &mut Rng64) -> Vec<SuperSchedule> {
    (0..count)
        .map(|_| SuperSchedule::sample(space, rng))
        .collect()
}

/// Deterministic seed-indexed sampling: schedule `i` of a virtual stream.
/// Used to build reproducible KNN-graph vertex sets.
pub fn sample_indexed(space: &Space, index: u64, base_seed: u64) -> SuperSchedule {
    let mut rng = Rng64::seed_from(base_seed ^ index.wrapping_mul(0x9E3779B97F4A7C15));
    SuperSchedule::sample(space, &mut rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Kernel;

    fn spaces() -> Vec<Space> {
        vec![
            Space::new(Kernel::SpMV, vec![128, 128], 0),
            Space::new(Kernel::SpMM, vec![64, 256], 32),
            Space::new(Kernel::SDDMM, vec![64, 64], 16),
            Space::new(Kernel::MTTKRP, vec![16, 16, 16], 8),
        ]
    }

    #[test]
    fn samples_are_valid() {
        for space in spaces() {
            let mut rng = Rng64::seed_from(7);
            for _ in 0..200 {
                let s = SuperSchedule::sample(&space, &mut rng);
                s.validate(&space)
                    .unwrap_or_else(|e| panic!("{e} in {}", s.describe(&space)));
            }
        }
    }

    #[test]
    fn mutations_stay_valid() {
        for space in spaces() {
            let mut rng = Rng64::seed_from(8);
            let mut s = SuperSchedule::sample(&space, &mut rng);
            for _ in 0..100 {
                s = s.mutate(&space, &mut rng);
                assert!(s.validate(&space).is_ok());
            }
        }
    }

    #[test]
    fn mutation_changes_something() {
        let space = Space::new(Kernel::SpMM, vec![64, 64], 16);
        let mut rng = Rng64::seed_from(9);
        let s = SuperSchedule::sample(&space, &mut rng);
        let mut changed = 0;
        for _ in 0..20 {
            if s.mutate(&space, &mut rng) != s {
                changed += 1;
            }
        }
        assert!(
            changed >= 15,
            "mutations should usually change the schedule"
        );
    }

    #[test]
    fn splits_respect_dimension() {
        let space = Space::new(Kernel::SpMV, vec![10, 1000], 0);
        let mut rng = Rng64::seed_from(10);
        for _ in 0..100 {
            let s = SuperSchedule::sample(&space, &mut rng);
            assert!(s.splits[0] <= 8, "split of dim extent 10 capped at 8");
            assert!(s.splits[1] <= 512);
        }
    }

    #[test]
    fn indexed_sampling_is_stable() {
        let space = Space::new(Kernel::SpMV, vec![64, 64], 0);
        assert_eq!(sample_indexed(&space, 5, 42), sample_indexed(&space, 5, 42));
        assert_ne!(sample_indexed(&space, 5, 42), sample_indexed(&space, 6, 42));
    }

    #[test]
    fn sampler_corners_and_tail_are_valid_and_deterministic() {
        for space in spaces() {
            let a = ScheduleSampler::new(&space, 99).take_schedules(ScheduleSampler::CORNERS + 20);
            let b = ScheduleSampler::new(&space, 99).take_schedules(ScheduleSampler::CORNERS + 20);
            assert_eq!(a, b, "same seed, same stream");
            for (i, s) in a.iter().enumerate() {
                s.validate(&space)
                    .unwrap_or_else(|e| panic!("stream item {i}: {e} in {}", s.describe(&space)));
            }
            // Corners hit the named coverage points.
            assert_eq!(a[0], crate::named::default_csr(&space));
            assert!(a[1].parallel.is_none());
            assert!(a[2]
                .format
                .formats
                .iter()
                .all(|&f| f == waco_format::LevelFormat::Compressed));
            assert!(a[3]
                .format
                .formats
                .iter()
                .all(|&f| f == waco_format::LevelFormat::Uncompressed));
            assert!(a[4].splits.iter().any(|&s| s > 1));
            assert_ne!(a[5].loop_order, a[0].loop_order);
        }
    }

    #[test]
    fn sampler_seed_changes_tail() {
        let space = Space::new(Kernel::SpMM, vec![64, 64], 16);
        let a = ScheduleSampler::new(&space, 1).take_schedules(ScheduleSampler::CORNERS + 10);
        let b = ScheduleSampler::new(&space, 2).take_schedules(ScheduleSampler::CORNERS + 10);
        assert_eq!(
            a[..ScheduleSampler::CORNERS],
            b[..ScheduleSampler::CORNERS],
            "corners are seed-independent"
        );
        assert_ne!(a, b, "random tail depends on the seed");
    }

    #[test]
    fn sample_many_counts() {
        let space = Space::new(Kernel::SpMM, vec![32, 32], 8);
        let mut rng = Rng64::seed_from(12);
        assert_eq!(sample_many(&space, 17, &mut rng).len(), 17);
    }
}
