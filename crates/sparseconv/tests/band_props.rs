//! Banded inference against the serial pass: the two bands, merged, give
//! the recording `forward`'s feature as bits, and the same
//! `sparseconv.active_sites` count, for random 2-D and 3-D site sets —
//! empty bands, every site in one leading row, fewer rows than twice the
//! halo, and coordinates at both ends of `i32`.

use std::sync::Mutex;

use waco_check::props;
use waco_runtime::ThreadPool;
use waco_sparseconv::waconet::{WacoNet, WacoNetConfig};
use waco_sparseconv::{Band, Extractor, Pattern};
use waco_tensor::gen::Rng64;

/// The counter is process-wide: one case at a time reads it.
static OBS: Mutex<()> = Mutex::new(());

/// `n` sites of dimension `D` laid out by `layout`: 0 scattered over
/// `extent`, 1 all in one leading row, 2 in at most three leading rows, 3
/// scattered up to `i32::MAX`, 4 scattered from `i32::MIN`.
fn sites<const D: usize>(n: usize, extent: i32, layout: usize, seed: u64) -> Vec<[i32; D]> {
    let mut rng = Rng64::seed_from(seed);
    let mut draw = |span: i32| rng.below(span as usize) as i32;
    (0..n)
        .map(|_| {
            let mut c = [0; D].map(|_| draw(extent));
            match layout {
                0 => {}
                1 => c[0] = extent / 2,
                2 => c[0] = 40 + draw(3),
                3 => c = c.map(|v| i32::MAX - v),
                _ => c = c.map(|v| i32::MIN + v),
            }
            c
        })
        .collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The counter's growth over `f`.
fn active_sites<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = waco_obs::snapshot().counter("sparseconv.active_sites");
    let out = f();
    (
        out,
        waco_obs::snapshot().counter("sparseconv.active_sites") - before,
    )
}

/// `forward` against the bands run upper-first on one thread, and joined on
/// the pool: features as bits, and active sites.
fn check(net: &mut WacoNet, p: &Pattern) {
    let _one = OBS.lock().unwrap_or_else(|e| e.into_inner());
    waco_obs::install();
    let (want, sites) = active_sites(|| net.forward(p));
    let (serial, serial_sites) = active_sites(|| {
        let bands = net.bands(p);
        let upper = bands.run(Band::Upper);
        let lower = bands.run(Band::Lower);
        bands.merge(&lower, &upper)
    });
    let (joined, joined_sites) = active_sites(|| {
        let bands = net.bands(p);
        let (lower, upper) =
            ThreadPool::global().join(|| bands.run(Band::Lower), || bands.run(Band::Upper));
        bands.merge(&lower, &upper)
    });
    waco_obs::uninstall();
    assert_eq!(bits(&serial), bits(&want), "bands, one after the other");
    assert_eq!(bits(&joined), bits(&want), "bands, joined");
    assert_eq!((serial_sites, joined_sites), (sites, sites), "active sites");
}

fn net(d3: bool, layers: usize, channels: usize, seed: u64) -> WacoNet {
    let cfg = WacoNetConfig {
        channels,
        layers,
        out_dim: 7,
    };
    let mut rng = Rng64::seed_from(seed ^ 0xba4d);
    match d3 {
        false => WacoNet::new_2d(cfg, &mut rng),
        true => WacoNet::new_3d(cfg, &mut rng),
    }
}

props! {
    /// 2-D: one to five stride-2 layers (a halo of 3 to 33 rows), channel
    /// counts that fill an 8-lane block, a partial one and two.
    cases = 128,
    fn bands_equal_serial_2d(n in 0usize..160, extent in 1i32..200, layout in 0usize..5,
                             layers in 1usize..6, channels in 1usize..17, seed in 0u64..1_000_000) {
        let coords = sites::<2>(n, extent, layout, seed);
        let p = Pattern::D2 { coords, dims: [0, 0] };
        check(&mut net(false, layers, channels, seed), &p);
    }

    /// 3-D: the 3×3×3 stem, the same stride-2 stacks.
    cases = 64,
    fn bands_equal_serial_3d(n in 0usize..100, extent in 1i32..60, layout in 0usize..5,
                             layers in 1usize..5, channels in 1usize..10, seed in 0u64..1_000_000) {
        let coords = sites::<3>(n, extent, layout, seed);
        let p = Pattern::D3 { coords, dims: [0, 0, 0] };
        check(&mut net(true, layers, channels, seed), &p);
    }
}

/// The served shape (four stride-2 layers, 8 channels) on a 1024-row
/// pattern, where both bands own thousands of sites.
#[test]
fn served_net_on_a_large_pattern() {
    let coords = sites::<2>(6000, 1024, 0, 17);
    let p = Pattern::D2 {
        coords,
        dims: [1024, 1024],
    };
    check(&mut net(false, 4, 8, 17), &p);
}
