//! Threaded DGEMM determinism: the pool-split packed GEMM must be
//! **bitwise identical** to the single-thread result for every thread
//! count, shape, and layout. The split partitions C along M or N while
//! per-element summation order depends only on the KC depth blocking,
//! so not a single ULP of drift is tolerated here — `==`, not epsilon.

use hpcc::kernels::dgemm::{gemm_update, MR, NR};
use proptest::prelude::*;

fn fill(len: usize, seed: u64) -> Vec<f64> {
    let mut x = seed | 1;
    (0..len)
        .map(|_| {
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        })
        .collect()
}

/// Runs `gemm_update` under an ambient pool of `threads` workers.
#[allow(clippy::too_many_arguments)]
fn dgemm_on_threads(
    threads: usize,
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    strides_a: (usize, usize),
    b: &[f64],
    strides_b: (usize, usize),
    c0: &[f64],
    strides_c: (usize, usize),
) -> Vec<f64> {
    let _pool = smp::AmbientGuard::install(threads);
    let mut c = c0.to_vec();
    gemm_update(
        m,
        n,
        k,
        alpha,
        a,
        strides_a.0,
        strides_a.1,
        b,
        strides_b.0,
        strides_b.1,
        &mut c,
        strides_c.0,
        strides_c.1,
    );
    c
}

/// Row-major C forces the M-split path, column-major C the N-split
/// path; both must be bitwise equal to the serial run at every thread
/// count, including counts that exceed the band count.
#[test]
fn both_split_paths_match_serial_bitwise() {
    // Big enough to clear the serial-fallback volume threshold.
    let (m, n, k) = (96, 80, 48);
    let a = fill(m * k, 11);
    let b = fill(k * n, 22);
    let c0 = fill(m * n, 33);

    // Row-major everywhere: M-split.
    let serial_rm = dgemm_on_threads(1, m, n, k, -1.0, &a, (k, 1), &b, (n, 1), &c0, (n, 1));
    // Column-major everywhere (the HPL trailing-update shape): N-split.
    let serial_cm = dgemm_on_threads(1, m, n, k, -1.0, &a, (1, m), &b, (1, k), &c0, (1, m));

    for threads in [2, 3, 4, 7, 64] {
        let rm = dgemm_on_threads(threads, m, n, k, -1.0, &a, (k, 1), &b, (n, 1), &c0, (n, 1));
        assert_eq!(
            rm, serial_rm,
            "row-major M-split drifted at {threads} threads"
        );
        let cm = dgemm_on_threads(threads, m, n, k, -1.0, &a, (1, m), &b, (1, k), &c0, (1, m));
        assert_eq!(
            cm, serial_cm,
            "column-major N-split drifted at {threads} threads"
        );
    }
}

/// Shapes too small to thread still honour the ambient pool without
/// drifting (they take the serial fallback inline).
#[test]
fn tiny_shapes_are_stable_under_pool() {
    let (m, n, k) = (MR + 3, NR + 5, 9);
    let a = fill(m * k, 5);
    let b = fill(k * n, 6);
    let c0 = fill(m * n, 7);
    let serial = dgemm_on_threads(1, m, n, k, 1.0, &a, (k, 1), &b, (n, 1), &c0, (n, 1));
    let pooled = dgemm_on_threads(4, m, n, k, 1.0, &a, (k, 1), &b, (n, 1), &c0, (n, 1));
    assert_eq!(pooled, serial);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Satellite: random shapes (straddling the macro-block and
    /// split-volume boundaries), random layouts, random alpha — the
    /// threaded result equals the single-thread result bit for bit at
    /// every thread count.
    #[test]
    fn threaded_gemm_is_bitwise_deterministic(
        m in 1usize..140,
        n in 1usize..140,
        k in 1usize..96,
        seed in 0u64..(1u64 << 48),
        row_major_c in prop::bool::ANY,
        threads in 2usize..6,
    ) {
        let alpha = if seed % 3 == 0 { -1.0 } else { 1.0 };
        let a = fill(m * k, seed ^ 0xA);
        let b = fill(k * n, seed ^ 0xB);
        let c0 = fill(m * n, seed ^ 0xC);
        let (sa, sb) = ((k, 1), (n, 1));
        let sc = if row_major_c { (n, 1) } else { (1, m) };
        let serial = dgemm_on_threads(1, m, n, k, alpha, &a, sa, &b, sb, &c0, sc);
        let pooled = dgemm_on_threads(threads, m, n, k, alpha, &a, sa, &b, sb, &c0, sc);
        prop_assert_eq!(pooled, serial);
    }
}
