//! The reference oracle: a prepared kernel executed by the dynamic
//! [`LoopNest`] interpreter.
//!
//! Every plan — and every row of the specialization tier — is held to bit
//! identity against this entry by `waco-verify`'s `plan` suite (and, on
//! operands larger than its tiny spaces, `exec/tests/plan_equivalence.rs`),
//! and the `*_interp` microbenches time it.
//! It is a plain function on purpose: no [`crate::Executor`] constructor,
//! runtime selector, cargo feature or config field leads here, so the
//! interpreter cannot end up on a serving path.

use crate::executor::{KernelArgs, KernelOutput, PlannedKernel};
use crate::kernels::{self, Walk};
use crate::nest::{Ctx, LoopNest, NoInstrument};
use crate::plan::FastPath;
use crate::Result;
use waco_tensor::Value;

impl Walk for LoopNest<'_> {
    fn walk(&self, outer: std::ops::Range<usize>, body: &mut impl FnMut(&Ctx<'_>, usize, Value)) {
        LoopNest::walk(self, outer, &mut NoInstrument, body);
    }
}

/// Runs `pk` the way [`PlannedKernel::run`] does — same validation, same
/// generic kernel bodies, same chunking — except that the walk re-decides
/// every traversal dynamically and the specialization tier is never entered.
/// Bumps no `exec.plan.fastpath.*` counter: it takes no fast path.
///
/// # Errors
///
/// Same as [`PlannedKernel::run`].
pub fn run(pk: &PlannedKernel, args: KernelArgs<'_>) -> Result<KernelOutput> {
    let (plan, st) = (pk.plan(), pk.storage());
    kernels::validate(plan, st, &args)?;
    let nest = LoopNest::from_plan(plan, st);
    Ok(kernels::run(plan, st, args, &nest, FastPath::None, None))
}
