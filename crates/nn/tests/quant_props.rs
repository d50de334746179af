//! Property coverage for the int8 quantization primitives
//! (`zeiot_nn::quant`) — the layer the deployed inference path's
//! determinism and accuracy arguments rest on.
//!
//! Pinned properties:
//!
//! * **round-trip bound** — quantize→dequantize moves any in-range
//!   value by at most half a quantization step (`scale / 2`);
//! * **exact accumulation** — the i32 dot product equals an i64
//!   reference for every fan-in the workspace's layer shapes can
//!   produce, i.e. the accumulator never wraps;
//! * **blocked ≡ naive** — the cache-blocked dense kernel is
//!   bit-identical to the naive reference (reassociating integer sums
//!   is lossless, unlike f32);
//! * **requant totality** — the fixed-point requantizer matches a
//!   direct f64 rounding reference within one ulp-scale step and never
//!   panics over the full i32 accumulator range;
//! * **rounding is the branchy formula** — the branch-free
//!   `rounding_shift` equals the sign-branching formula it replaced on
//!   random products, ties at ±2^(shift−1), 0, ±1 and the i32 extremes,
//!   at every shift from 0 to 62, alone and inside `Requant::apply`.

use proptest::prelude::*;
use zeiot_nn::quant::{
    dense_i8_blocked, dot_i8, quantize_value, rounding_shift, scale_for, Requant,
};

/// The sign-branching round-half-away-from-zero shift `rounding_shift`
/// was before it went branch-free.
fn rounding_shift_reference(v: i64, shift: u32) -> i32 {
    if shift == 0 {
        return v as i32;
    }
    let add = 1i64 << (shift - 1);
    let r = if v >= 0 {
        (v + add) >> shift
    } else {
        -((-v + add) >> shift)
    };
    r as i32
}

/// `v` and its neighbours: every value the edge-case tests feed in,
/// kept inside the `|v| < 2^62` domain.
fn around(v: i64) -> impl Iterator<Item = i64> {
    let domain = 1i64 << 62;
    [-1, 0, 1]
        .into_iter()
        .filter_map(move |d| v.checked_add(d))
        .flat_map(|v| [v, v.wrapping_neg()])
        .filter(move |v| v.checked_abs().is_some_and(|m| m < domain))
}

/// A requantizer whose shift is `shift`: `from_ratio` normalizes the
/// multiplier into `[2^30, 2^31)`, so a ratio in `[2^(30−s), 2^(31−s))`
/// lands on shift `s`.
fn requant_with_shift(shift: u32) -> Requant {
    let rq = Requant::from_ratio(1.5 * 2f64.powi(30 - shift as i32));
    assert_eq!(rq.shift(), shift);
    rq
}

const EXTREMES: [i32; 5] = [0, 1, -1, i32::MIN, i32::MAX];

#[test]
fn rounding_shift_equals_the_branchy_formula_at_edges() {
    for shift in 0..=62u32 {
        let half = (1i64 << shift) >> 1;
        let ties = (0..4i64).filter_map(|k| k.checked_mul(1i64 << shift)?.checked_add(half));
        let extremes = EXTREMES.map(i64::from).into_iter();
        let products = [i32::MIN, i32::MAX].map(|a| i64::from(a) * i64::from(i32::MAX));
        let values = ties
            .chain(extremes)
            .chain(products)
            .chain([half, 1i64 << 61]);
        for v in values.flat_map(around) {
            assert_eq!(
                rounding_shift(v, shift),
                rounding_shift_reference(v, shift),
                "v {v}, shift {shift}"
            );
        }
    }
}

#[test]
fn requant_apply_equals_the_branchy_formula_at_every_shift() {
    for shift in 0..=62u32 {
        let rq = requant_with_shift(shift);
        for acc in EXTREMES {
            let wide = i64::from(acc) * i64::from(rq.mult());
            assert_eq!(
                rq.apply(acc),
                rounding_shift_reference(wide, shift),
                "acc {acc}, shift {shift}"
            );
        }
    }
}

/// Naive reference for [`dense_i8_blocked`]: bias + row·input in i64,
/// narrowed at the end (so any i32 overflow in the kernel would show).
fn dense_reference(weights: &[i8], bias: &[i32], input: &[i8], out_len: usize) -> Vec<i64> {
    (0..out_len)
        .map(|o| {
            let row = &weights[o * input.len()..(o + 1) * input.len()];
            i64::from(bias[o])
                + row
                    .iter()
                    .zip(input)
                    .map(|(&w, &x)| i64::from(w) * i64::from(x))
                    .sum::<i64>()
        })
        .collect()
}

/// Deterministic i8 vector from a seed (keeps case generation cheap for
/// large fan-ins; proptest shrinks over `seed` and `len`).
fn synth_i8(seed: u64, len: usize) -> Vec<i8> {
    (0..len)
        .map(|i| (zeiot_core::rng::splitmix64(seed ^ i as u64) % 255) as i64 - 127)
        .map(|v| v as i8)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// quantize→dequantize round-trip error is at most `scale / 2` for
    /// every value inside the calibrated range.
    #[test]
    fn round_trip_error_is_within_half_a_step(
        values in proptest::collection::vec(-100.0f32..100.0, 1..64),
    ) {
        let max_abs = values.iter().fold(0.0f32, |m, v| m.max(v.abs()));
        let scale = scale_for(max_abs);
        prop_assert!(scale > 0.0);
        for &v in &values {
            let q = quantize_value(v, scale);
            let back = f32::from(q) * scale;
            // Half a step, with a small epsilon for the f32 division
            // inside quantize_value.
            prop_assert!(
                (back - v).abs() <= scale * 0.5 + scale * 1e-5,
                "value {v} -> {q} -> {back} (scale {scale})"
            );
        }
    }

    /// The i32 accumulator is exact: `dot_i8` equals the i64 reference
    /// even at fan-ins far above any layer shape in the workspace
    /// (worst case here is 8192 × 127² ≈ 2³⁰ < i32::MAX).
    #[test]
    fn i32_accumulation_never_overflows(seed in 0u64..10_000, len in 1usize..8192) {
        let w = synth_i8(seed, len);
        let x = synth_i8(seed.wrapping_mul(0x9E37_79B9), len);
        let exact: i64 = w.iter().zip(&x).map(|(&a, &b)| i64::from(a) * i64::from(b)).sum();
        prop_assert_eq!(i64::from(dot_i8(&w, &x)), exact);
    }

    /// The cache-blocked dense kernel is bit-identical to the naive
    /// big-integer reference for arbitrary shapes, including ones that
    /// don't divide the block size.
    #[test]
    fn blocked_dense_matches_big_integer_reference(
        seed in 0u64..10_000,
        in_len in 1usize..200,
        out_len in 1usize..40,
    ) {
        let weights = synth_i8(seed, in_len * out_len);
        let input = synth_i8(seed ^ 0xABCD, in_len);
        let bias: Vec<i32> = (0..out_len)
            .map(|o| (zeiot_core::rng::splitmix64(seed ^ 0xB1A5 ^ o as u64) % 60_000) as i32 - 30_000)
            .collect();
        let got = dense_i8_blocked(&weights, &bias, &input, out_len);
        let want = dense_reference(&weights, &bias, &input, out_len);
        prop_assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            prop_assert_eq!(i64::from(*g), *w);
        }
    }

    /// The fixed-point requantizer agrees with direct f64 rounding to
    /// within one output step over representative ratios and the full
    /// accumulator range, and saturating narrowing is total.
    #[test]
    fn requant_tracks_f64_reference(
        acc in -2_000_000_000i64..2_000_000_000,
        num in 1u64..10_000,
        den in 1u64..10_000,
    ) {
        let acc = acc as i32;
        let ratio = num as f64 / den as f64 / 1000.0;
        let rq = Requant::from_ratio(ratio);
        let got = rq.apply(acc);
        let want = (f64::from(acc) * ratio).round();
        prop_assert!(
            (f64::from(got) - want).abs() <= 1.0,
            "acc {acc} * {ratio} -> {got}, reference {want}"
        );
        let mut saturated = 0u64;
        let narrowed = rq.apply_i8(acc, &mut saturated);
        prop_assert!(i32::from(narrowed) <= 127 && i32::from(narrowed) >= -127);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The branch-free rounding shift equals the branching formula on
    /// random `i32 × i32` products at every shift, directly and through
    /// a requantizer of that shift.
    #[test]
    fn rounding_shift_equals_the_branchy_formula(
        acc in -2_147_483_648i64..2_147_483_648,
        mult in -2_147_483_648i64..2_147_483_648,
        shift in 0u32..63,
    ) {
        let v = acc * mult;
        prop_assert_eq!(rounding_shift(v, shift), rounding_shift_reference(v, shift));
        let rq = requant_with_shift(shift);
        let acc = acc as i32;
        let wide = i64::from(acc) * i64::from(rq.mult());
        prop_assert_eq!(rq.apply(acc), rounding_shift_reference(wide, shift));
    }
}
