//! A small in-tree property-testing harness (the external `proptest`
//! dependency's replacement, keeping the build hermetic).
//!
//! A property is an ordinary panicking closure over values drawn from
//! half-open ranges. The harness samples `cases` inputs from the
//! workspace's own deterministic PRNG ([`Rng64`]), and on failure shrinks
//! the raw draws toward each range's lower bound by halving (plus a
//! decrement step, so integer minima are exact) before reporting the
//! minimal counterexample.
//!
//! ```
//! waco_check::props! {
//!     cases = 64,
//!     fn addition_commutes(a in 0u64..1000, b in 0u64..1000) {
//!         assert_eq!(a + b, b + a);
//!     }
//! }
//! ```
//!
//! Environment knobs: `WACO_PROP_CASES` overrides every test's case count;
//! `WACO_PROP_SEED` perturbs the (test-name-derived) base seed to explore
//! new inputs.

use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};

use waco_tensor::gen::Rng64;

/// A type whose values are drawn from a finite raw space `0..raw_len()`,
/// with raw 0 being the "smallest" (most shrunk) value. Implemented for
/// the half-open integer ranges used in property signatures.
pub trait RawGen {
    /// The value type produced.
    type Value;
    /// Number of distinct values (must be ≥ 1).
    fn raw_len(&self) -> u64;
    /// Maps a raw draw in `0..raw_len()` to a value.
    fn value(&self, raw: u64) -> Self::Value;
}

macro_rules! impl_rawgen_uint {
    ($($t:ty),+) => {$(
        impl RawGen for Range<$t> {
            type Value = $t;
            fn raw_len(&self) -> u64 {
                assert!(self.start < self.end, "empty range in property");
                (self.end - self.start) as u64
            }
            fn value(&self, raw: u64) -> $t {
                self.start + raw as $t
            }
        }
    )+};
}

impl_rawgen_uint!(usize, u64, u32, u16, u8);

macro_rules! impl_rawgen_int {
    ($($t:ty),+) => {$(
        impl RawGen for Range<$t> {
            type Value = $t;
            fn raw_len(&self) -> u64 {
                assert!(self.start < self.end, "empty range in property");
                u64::from(self.end.abs_diff(self.start))
            }
            fn value(&self, raw: u64) -> $t {
                // Shrinks toward the range start.
                self.start.wrapping_add_unsigned(raw as _)
            }
        }
    )+};
}

impl_rawgen_int!(i64, i32);

/// The default number of cases per property, honoring `WACO_PROP_CASES`.
pub fn cases_or_env(default: usize) -> usize {
    std::env::var("WACO_PROP_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn base_seed(name: &str) -> u64 {
    // The test name's hash, perturbed by WACO_PROP_SEED.
    let h = waco_runtime::hash::fnv1a64(name.as_bytes());
    let extra = std::env::var("WACO_PROP_SEED")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(0);
    h ^ extra
}

fn holds(prop: &dyn Fn(&[u64]), draws: &[u64]) -> bool {
    panic::catch_unwind(AssertUnwindSafe(|| prop(draws))).is_ok()
}

/// Shrink candidates for one raw coordinate: the minimum, the halfway
/// point toward it, and the predecessor (so the reported integer minimum
/// is exact, not just within a factor of two).
fn shrink_candidates(cur: u64) -> impl Iterator<Item = u64> {
    [0, cur / 2, cur.saturating_sub(1)]
        .into_iter()
        .filter(move |&c| c < cur)
}

/// Searches `cases` seeded inputs for a failure of `prop` and greedily
/// shrinks the first one found. Returns the minimal failing raw draws.
/// Exposed so the harness's own shrinking behavior is testable.
pub fn search(
    seed: u64,
    cases: usize,
    lens: &[u64],
    prop: &dyn Fn(&[u64]),
) -> Option<(usize, Vec<u64>)> {
    let mut rng = Rng64::seed_from(seed);
    for case in 0..cases {
        let draws: Vec<u64> = lens
            .iter()
            .map(|&len| {
                debug_assert!(len >= 1);
                ((rng.next_u64() as u128 * u128::from(len)) >> 64) as u64
            })
            .collect();
        if holds(prop, &draws) {
            continue;
        }
        return Some((case, shrink(draws, prop)));
    }
    None
}

fn shrink(mut draws: Vec<u64>, prop: &dyn Fn(&[u64])) -> Vec<u64> {
    const MAX_SHRINK_STEPS: usize = 1000;
    let mut steps = 0;
    let mut made_progress = true;
    while made_progress && steps < MAX_SHRINK_STEPS {
        made_progress = false;
        for i in 0..draws.len() {
            for cand in shrink_candidates(draws[i]) {
                let prev = std::mem::replace(&mut draws[i], cand);
                steps += 1;
                if holds(prop, &draws) {
                    draws[i] = prev; // still passes: not a counterexample
                } else {
                    made_progress = true; // keep the smaller failing input
                    break;
                }
            }
        }
    }
    draws
}

/// Runs a property over `cases` seeded inputs; on failure, shrinks and
/// re-runs the minimal counterexample un-silenced so the original
/// assertion message is what the test reports.
///
/// # Panics
///
/// Panics (failing the enclosing test) iff the property fails.
pub fn run_props(name: &str, cases: usize, lens: &[u64], prop: &dyn Fn(&[u64])) {
    let seed = base_seed(name);
    // Silence the panic hook while probing/shrinking: only the final
    // minimal counterexample should print.
    let hook = panic::take_hook();
    panic::set_hook(Box::new(|_| {}));
    let failure = search(seed, cases, lens, prop);
    panic::set_hook(hook);
    let Some((case, minimal)) = failure else {
        return;
    };
    eprintln!(
        "waco-check: property `{name}` failed on case {case}/{cases} (seed {seed}); \
         minimal raw draws {minimal:?}; replaying:"
    );
    prop(&minimal);
    unreachable!("minimal counterexample for `{name}` no longer fails on replay");
}

/// Declares property tests. Each `fn` becomes a `#[test]`; every argument
/// is drawn from its half-open range, and the body is an ordinary block
/// using `assert!`-style macros. An optional leading `cases = N,` sets the
/// number of generated inputs (default 64).
#[macro_export]
macro_rules! props {
    ($( $(#[$meta:meta])* $(cases = $cases:expr,)? fn $fname:ident
        ( $($arg:ident in $range:expr),+ $(,)? ) $body:block )+) => {$(
        $(#[$meta])*
        #[test]
        fn $fname() {
            #[allow(unused_mut, unused_assignments)]
            let mut cases = 64usize;
            $(cases = $cases;)?
            let lens: Vec<u64> = vec![$($crate::RawGen::raw_len(&($range))),+];
            $crate::run_props(
                stringify!($fname),
                $crate::cases_or_env(cases),
                &lens,
                &|draws: &[u64]| {
                    let mut i = 0usize;
                    $(
                        let $arg = $crate::RawGen::value(&($range), draws[i]);
                        i += 1;
                    )+
                    let _ = i;
                    $body
                },
            );
        }
    )+};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shrinking_finds_known_minimal_counterexample() {
        // Property "x < 10" over 0..100_000 fails minimally at x = 10.
        let found = search(1, 256, &[100_000], &|d| assert!(d[0] < 10));
        let (_, minimal) = found.expect("a failure must be found");
        assert_eq!(minimal, vec![10]);
    }

    #[test]
    fn shrinking_is_per_coordinate() {
        // "a + b < 30" with a ≥ 20 required to fail alongside b ≥ 10:
        // shrinking must reach an exact boundary pair, not just any failure.
        let found = search(2, 512, &[1000, 1000], &|d| {
            assert!(!(d[0] >= 20 && d[1] >= 10), "fails iff a>=20 and b>=10");
        });
        let (_, minimal) = found.expect("failure found");
        assert_eq!(minimal, vec![20, 10]);
    }

    #[test]
    fn passing_property_reports_nothing() {
        assert!(search(3, 128, &[64, 64], &|d| assert!(d[0] < 64 && d[1] < 64)).is_none());
    }

    #[test]
    fn signed_ranges_shrink_toward_start() {
        let r = -50i64..50;
        assert_eq!(r.raw_len(), 100);
        assert_eq!(r.value(0), -50);
        assert_eq!(r.value(99), 49);
    }

    props! {
        cases = 32,
        fn macro_generates_in_range(a in 3usize..17, b in 0u64..5) {
            assert!((3..17).contains(&a));
            assert!(b < 5);
        }

        fn macro_default_cases(x in 0u32..1000) {
            assert!(x < 1000);
        }
    }
}
