//! Corruption fuzz for the `WACOANNS` snapshot format: every single-byte
//! mutation and a truncation sweep must either be rejected cleanly or load
//! a bit-exact index — never panic, never hand back garbage.

use std::panic::{catch_unwind, AssertUnwindSafe};

use waco_anns::index::ScheduleIndex;
use waco_anns::persist::{snapshot_tag, BuildParams};
use waco_model::{CostModel, CostModelConfig};
use waco_schedule::{encode, Kernel, Space};
use waco_tensor::gen::Rng64;

fn small_snapshot() -> (Space, ScheduleIndex, Vec<u8>, u64) {
    let mut rng = Rng64::seed_from(17);
    let space = Space::new(Kernel::SpMV, vec![16, 16], 0);
    let layout = encode::layout(&space);
    let mut model = CostModel::for_kernel(Kernel::SpMV, &layout, CostModelConfig::tiny(), &mut rng);
    let params = BuildParams {
        count: 6,
        seed: 3,
        extras: Vec::new(),
    };
    let index = ScheduleIndex::build_with_extras(&model, &space, params.count, params.seed, vec![]);
    let tag = snapshot_tag(&mut model, &space, params.count, params.seed).unwrap();
    let mut buf = Vec::new();
    index.save_snapshot(&mut buf, tag, &params).unwrap();
    (space, index, buf, tag)
}

/// Loads candidate bytes and asserts the never-garbage contract: a clean
/// error, or an index identical to the original.
fn assert_load_is_safe(
    what: &str,
    bytes: &[u8],
    space: &Space,
    tag: u64,
    original: &ScheduleIndex,
) {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        ScheduleIndex::load_snapshot(&mut &bytes[..], space, tag, vec![])
    }));
    match outcome {
        Err(_) => panic!("{what}: load panicked"),
        Ok(Err(_)) => {} // rejected cleanly — the caller rebuilds
        Ok(Ok(loaded)) => {
            assert_eq!(loaded.schedules, original.schedules, "{what}: schedules");
            assert_eq!(loaded.embeddings, original.embeddings, "{what}: embeddings");
            assert_eq!(
                loaded.encodings.len(),
                original.encodings.len(),
                "{what}: encodings"
            );
        }
    }
}

#[test]
fn every_single_byte_flip_is_rejected_or_bit_exact() {
    let (space, index, buf, tag) = small_snapshot();
    // The trailing FNV checksum covers everything after the magic, so any
    // single-bit flip anywhere must be caught (or, for flips that cancel
    // out — impossible for one bit — load the identical index).
    let mut mutated = buf.clone();
    for pos in 0..buf.len() {
        for mask in [0x01u8, 0x80, 0xff] {
            mutated[pos] ^= mask;
            assert_load_is_safe(
                &format!("byte {pos} ^ {mask:#04x}"),
                &mutated,
                &space,
                tag,
                &index,
            );
            mutated[pos] ^= mask; // restore
        }
    }
    // Sanity: the unmutated buffer still loads and matches.
    let loaded = ScheduleIndex::load_snapshot(&mut &buf[..], &space, tag, vec![]).unwrap();
    assert_eq!(loaded.schedules, index.schedules);
}

#[test]
fn every_truncation_is_rejected() {
    let (space, index, buf, tag) = small_snapshot();
    for cut in 0..buf.len() {
        assert_load_is_safe(
            &format!("truncated at {cut}"),
            &buf[..cut],
            &space,
            tag,
            &index,
        );
    }
}

#[test]
fn appended_garbage_is_rejected() {
    let (space, index, buf, tag) = small_snapshot();
    for extra in [1usize, 7, 64] {
        let mut grown = buf.clone();
        grown.extend(std::iter::repeat(0xAB).take(extra));
        assert_load_is_safe(&format!("{extra} extra bytes"), &grown, &space, tag, &index);
    }
}

/// `fixtures/spmv16.anns` is `small_snapshot()` as written by an earlier
/// build. Its trailer checksum must still verify, and saving the loaded
/// index must reproduce the file byte for byte — the hash behind the
/// trailer is part of the on-disk format.
#[test]
fn snapshot_from_an_earlier_build_still_loads() {
    let bytes = include_bytes!("fixtures/spmv16.anns");
    let tag = u64::from_le_bytes(bytes[12..20].try_into().unwrap());
    let space = Space::new(Kernel::SpMV, vec![16, 16], 0);
    let loaded = ScheduleIndex::load_snapshot(&mut &bytes[..], &space, tag, vec![])
        .expect("a committed snapshot must keep loading");
    assert_eq!(loaded.schedules.len(), 6);

    let params = BuildParams {
        count: 6,
        seed: 3,
        extras: Vec::new(),
    };
    let mut again = Vec::new();
    loaded.save_snapshot(&mut again, tag, &params).unwrap();
    assert_eq!(&again[..], &bytes[..]);
}
