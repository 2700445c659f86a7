//! The dominance lattice of the candidate enumeration: schedules grouped by
//! iteration-domain structure.
//!
//! Stage 1 of the two-stage tuning pipeline ranks candidates by a symbolic
//! bound derived from the lowered plan IR. That bound only sees what shapes
//! the iteration domain — the *effective* loop order (parallel variable
//! hoisted outermost, exactly as lowering hoists it), the split sizes, and
//! the storage format. Thread counts and chunk sizes distribute the same
//! domain without changing its size, so schedules differing only in
//! parallelization share a [`StructureKey`]: one bound evaluation covers the
//! whole equivalence class, and dominance ("class A's bound is Θ-smaller
//! than class B's") is a statement about classes, not individual points.

use crate::{FormatSchedule, LoopVar, SuperSchedule};
use std::collections::HashMap;

/// A schedule's position in the dominance lattice: its iteration-domain
/// structure modulo parallelization.
///
/// Two schedules with equal keys lower to op sequences that differ at most
/// in `ParallelChunk` vs `DenseLoop` for the outermost op (and the thread /
/// chunk parameters carried on it) — the asymptotic bound is identical.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StructureKey {
    /// Effective loop order: the parallelized variable hoisted outermost,
    /// matching what `ExecutionPlan::build` lowers.
    pub order: Vec<LoopVar>,
    /// Split size per kernel dimension.
    pub splits: Vec<usize>,
    /// Storage order and level formats of the sparse operand.
    pub format: FormatSchedule,
}

impl StructureKey {
    /// The key of one schedule.
    pub fn of(sched: &SuperSchedule) -> Self {
        let mut order = sched.loop_order.clone();
        if let Some(p) = &sched.parallel {
            if let Some(idx) = order.iter().position(|v| *v == p.var) {
                let v = order.remove(idx);
                order.insert(0, v);
            }
        }
        StructureKey {
            order,
            splits: sched.splits.clone(),
            format: sched.format.clone(),
        }
    }
}

/// Partitions `schedules` into structure classes. Returns
/// `(class_of, representatives)`: `class_of[i]` is the class id of schedule
/// `i`, and `representatives[c]` is the index of the first schedule seen in
/// class `c` (the member whose plan stands in for the class when bounding).
/// Class ids are assigned in first-seen order, so the partition is
/// deterministic in the input order.
pub fn structure_classes(schedules: &[SuperSchedule]) -> (Vec<usize>, Vec<usize>) {
    let mut ids: HashMap<StructureKey, usize> = HashMap::new();
    let mut class_of = Vec::with_capacity(schedules.len());
    let mut representatives = Vec::new();
    for (i, s) in schedules.iter().enumerate() {
        let key = StructureKey::of(s);
        let next = representatives.len();
        let id = *ids.entry(key).or_insert_with(|| {
            representatives.push(i);
            next
        });
        class_of.push(id);
    }
    (class_of, representatives)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{named, Kernel, Parallelize, Space};

    #[test]
    fn parallelization_does_not_split_a_class() {
        let space = Space::new(Kernel::SpMV, vec![32, 32], 0);
        let with = named::default_csr(&space);
        assert!(with.parallel.is_some(), "default CSR parallelizes");
        let mut without = with.clone();
        without.parallel = None;
        // The default schedule's parallel var is already outermost, so the
        // effective orders coincide and the keys must too.
        assert_eq!(StructureKey::of(&with), StructureKey::of(&without));
        let mut rechunked = with.clone();
        if let Some(Parallelize { chunk, .. }) = &mut rechunked.parallel {
            *chunk = chunk.saturating_mul(2).max(1);
        }
        assert_eq!(StructureKey::of(&with), StructureKey::of(&rechunked));
    }

    #[test]
    fn hoisting_matches_lowering() {
        let space = Space::new(Kernel::SpMM, vec![16, 16], 4);
        let base = named::default_csr(&space);
        let mut hoisted = base.clone();
        // Move the parallel var away from the front of the written order;
        // the key must hoist it back.
        if let Some(p) = &hoisted.parallel {
            let var = p.var;
            let idx = hoisted.loop_order.iter().position(|v| *v == var).unwrap();
            let v = hoisted.loop_order.remove(idx);
            hoisted.loop_order.insert(1, v);
        }
        assert_eq!(
            StructureKey::of(&base).order,
            StructureKey::of(&hoisted).order
        );
    }

    #[test]
    fn splits_and_formats_split_classes() {
        let space = Space::new(Kernel::SpMV, vec![32, 32], 0);
        let a = named::default_csr(&space);
        let mut b = a.clone();
        b.splits = vec![4, 4];
        assert_ne!(StructureKey::of(&a), StructureKey::of(&b));
        let (class_of, reps) = structure_classes(&[a.clone(), b, a]);
        assert_eq!(class_of, vec![0, 1, 0]);
        assert_eq!(reps, vec![0, 1]);
    }
}
