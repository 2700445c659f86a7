//! Fingerprint+schedule-keyed cache of lowered [`ExecutionPlan`]s.
//!
//! Tuning decisions are cached by sparsity [`Fingerprint`] (see [`crate::cache`]);
//! this module caches the *next* stage of the pipeline: the plan the decision
//! lowers to. A warm server that has answered "which schedule for this
//! structure" before skips schedule validation, format-spec derivation, and
//! loop-op resolution entirely — it fetches the `Arc`'d plan and runs it.
//! The cache is one [`Lru`] behind one `Mutex`. In a server, an executor
//! takes it once per `tune` that ran the tuner (one probe and, on a miss,
//! one insert after the lowering, which runs unlocked), and the reactor
//! once per `stats`; a cached decision never reaches it.
//!
//! Keys hash the matrix fingerprint, the kernel instance (name + dims +
//! dense extent), and every field of the schedule directly (no JSON
//! round-trip on the hot path — a warm lookup must stay cheaper than the
//! lowering it skips), so two requests agree on a key exactly when they
//! would lower the identical plan.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use waco_exec::plan::ExecutionPlan;
use waco_format::AxisPart;
use waco_schedule::{Space, SuperSchedule};

use crate::fingerprint::{Fingerprint, Fnv64};
use crate::lru::Lru;

/// Counters for [`PlanCache`] effectiveness (reported by `stats` requests
/// and asserted by the serve smoke tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Lookups answered from the cache (lowering skipped).
    pub hits: u64,
    /// Lookups that had to lower and insert.
    pub misses: u64,
    /// Plans currently resident.
    pub resident: u64,
    /// Maximum resident plans.
    pub capacity: u64,
}

/// An LRU of lowered plans keyed by
/// `(fingerprint, kernel instance, schedule)`.
#[derive(Debug)]
pub struct PlanCache {
    plans: Mutex<Lru<u64, Arc<ExecutionPlan>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl PlanCache {
    /// A cache holding at most `capacity` plans (at least one).
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            plans: Mutex::new(Lru::new(capacity)),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The cache key: FNV-1a over the fingerprint, the kernel instance, and
    /// every lowering-relevant schedule field. Allocation-free — the warm
    /// path is one hash plus one LRU probe.
    pub fn key(fp: Fingerprint, sched: &SuperSchedule, space: &Space) -> u64 {
        let part_bit = |p: AxisPart| match p {
            AxisPart::Outer => 1u64,
            AxisPart::Inner => 0u64,
        };
        let mut h = Fnv64::new();
        h.write_u64(fp.hi);
        h.write_u64(fp.lo);
        h.write_u64(space.kernel as u64);
        for &d in &space.sparse_dims {
            h.write_u64(d as u64);
        }
        h.write_u64(space.dense_extent as u64);
        for &s in &sched.splits {
            h.write_u64(s as u64);
        }
        for v in &sched.loop_order {
            h.write_u64((v.dim as u64) << 1 | part_bit(v.part));
        }
        match &sched.parallel {
            None => h.write_u64(u64::MAX),
            Some(p) => {
                h.write_u64((p.var.dim as u64) << 1 | part_bit(p.var.part));
                h.write_u64(p.threads as u64);
                h.write_u64(p.chunk as u64);
            }
        }
        for (axis, fmt) in sched.format.order.iter().zip(&sched.format.formats) {
            h.write_u64(
                (axis.dim as u64) << 2
                    | part_bit(axis.part) << 1
                    | u64::from(*fmt == waco_format::LevelFormat::Compressed),
            );
        }
        h.finish()
    }

    /// Fetches the plan for `(fp, sched, space)`, lowering and inserting on
    /// miss — the serve-side fast path: a warm cache makes this an `Arc`
    /// clone.
    ///
    /// # Errors
    ///
    /// Lowering errors from [`ExecutionPlan::build`] on a miss.
    pub fn get_or_lower(
        &self,
        fp: Fingerprint,
        sched: &SuperSchedule,
        space: &Space,
    ) -> waco_exec::Result<Arc<ExecutionPlan>> {
        let key = Self::key(fp, sched, space);
        let warm = self.plans().get(&key).cloned();
        if let Some(plan) = warm {
            self.hits.fetch_add(1, Ordering::Relaxed);
            waco_obs::counter("serve.plan_cache.hits", 1);
            return Ok(plan);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        waco_obs::counter("serve.plan_cache.misses", 1);
        let plan = Arc::new(ExecutionPlan::build(sched, space)?);
        self.plans().insert(key, Arc::clone(&plan));
        Ok(plan)
    }

    /// Current effectiveness counters.
    pub fn stats(&self) -> PlanCacheStats {
        let plans = self.plans();
        PlanCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            resident: plans.len() as u64,
            capacity: plans.capacity() as u64,
        }
    }

    fn plans(&self) -> MutexGuard<'_, Lru<u64, Arc<ExecutionPlan>>> {
        self.plans.lock().expect("plan cache lock poisoned")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use waco_schedule::{named, Kernel};
    use waco_tensor::gen::{self, Rng64};

    fn matrix_and_space() -> (waco_tensor::CooMatrix, Space) {
        let mut rng = Rng64::seed_from(21);
        let m = gen::uniform_random(32, 32, 0.1, &mut rng);
        let space = Space::new(Kernel::SpMV, vec![32, 32], 0);
        (m, space)
    }

    #[test]
    fn warm_lookup_skips_lowering() {
        let (m, space) = matrix_and_space();
        let fp = Fingerprint::of_matrix(&m);
        let sched = named::default_csr(&space);
        let cache = PlanCache::new(8);

        let cold = cache.get_or_lower(fp, &sched, &space).unwrap();
        let warm = cache.get_or_lower(fp, &sched, &space).unwrap();
        assert!(Arc::ptr_eq(&cold, &warm), "warm hit returns the same plan");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.resident), (1, 1, 1));
    }

    #[test]
    fn distinct_schedules_get_distinct_plans() {
        let (m, space) = matrix_and_space();
        let fp = Fingerprint::of_matrix(&m);
        let a = named::default_csr(&space);
        let mut b = a.clone();
        b.parallel = None;
        let cache = PlanCache::new(8);
        let pa = cache.get_or_lower(fp, &a, &space).unwrap();
        let pb = cache.get_or_lower(fp, &b, &space).unwrap();
        assert!(!Arc::ptr_eq(&pa, &pb));
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn distinct_fingerprints_do_not_collide() {
        let (m, space) = matrix_and_space();
        let mut rng = Rng64::seed_from(22);
        let other = gen::powerlaw_rows(32, 32, 4.0, 1.3, &mut rng);
        let sched = named::default_csr(&space);
        assert_ne!(
            PlanCache::key(Fingerprint::of_matrix(&m), &sched, &space),
            PlanCache::key(Fingerprint::of_matrix(&other), &sched, &space),
        );
    }

    #[test]
    fn invalid_schedule_surfaces_lowering_error() {
        let (m, space) = matrix_and_space();
        let fp = Fingerprint::of_matrix(&m);
        let mut sched = named::default_csr(&space);
        sched.loop_order.pop();
        let cache = PlanCache::new(8);
        assert!(cache.get_or_lower(fp, &sched, &space).is_err());
        assert_eq!(cache.stats().resident, 0);
    }
}
