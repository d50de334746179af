//! Symmetric int8 quantization primitives for the deterministic
//! inference path.
//!
//! µW-class backscatter nodes execute integer arithmetic; this module
//! provides the pieces a fixed-point forward pass is assembled from:
//!
//! * [`QTensor`] — a tensor quantized to `i8` with one symmetric
//!   per-tensor scale (`real ≈ q · scale`, zero-point fixed at 0);
//! * [`Calibration`] — deploy-time scale selection: the max-abs range
//!   observed over calibration activations picks each layer's
//!   activation scale;
//! * [`Requant`] — an integer fixed-point multiplier (`mult`, `shift`)
//!   that rescales an `i32` accumulator into the next layer's `i8`
//!   activation domain without touching floats in the hot path;
//! * [`dense_i8_blocked`] / [`conv2d_i8`] / [`dot_i8`] — cache-blocked
//!   quantized kernels accumulating exactly in `i32`.
//!
//! **Determinism.** Every rounding step is round-half-away-from-zero:
//! [`round_half_away`] for quantization, which equals `f32::round` on
//! every f32 without calling libm, and explicit integer rounding inside
//! [`Requant::apply`]. Accumulation is exact integer addition, which is
//! associative and commutative — so cache blocking, loop reordering, and
//! parallel partial sums cannot change a single bit of the result. This
//! is the property that lets distributed per-node partial sums travel a
//! lossy fabric and still reproduce byte-identically at every thread
//! count (`DESIGN.md` §11).
//!
//! **Vector lanes.** The per-value stages of an int8 forward are written
//! so that the compiler vectorizes them on the build's baseline (SSE2 on
//! x86-64), where a libm call or an i64 multiply would keep them scalar:
//! [`quantize_into`] rounds with [`round_half_away`], and
//! [`Requant::relu_into`] multiplies magnitudes as u32 × u32 → u64,
//! which is exact for every `i32 × i32` product.
//!
//! **No overflow.** An `i8 × i8` product is at most `127 · 127 =
//! 16129 < 2^14`; an `i32` accumulator therefore holds at least
//! `2^31 / 2^14 = 2^17 = 131072` terms exactly — far beyond any layer
//! fan-in this workspace configures (the proptests in
//! `tests/quant_props.rs` pin the claim against an `i64` reference).

use crate::tensor::Tensor;
use serde::{Deserialize, Serialize};

/// The symmetric i8 range: values quantize into `[-127, 127]` (the
/// `-128` slot is unused so negation cannot overflow).
pub const QMAX: i32 = 127;

/// The widest shift a [`Requant`] may have: [`rounding_shift`] is exact
/// up to it.
pub const MAX_SHIFT: u32 = 62;

/// Cache-block edge for the blocked kernels (i8 rows of this length fit
/// comfortably in L1 alongside the input block).
const BLOCK: usize = 64;

/// Picks the symmetric scale mapping `[-max_abs, max_abs]` onto the i8
/// range. An all-zero range degenerates to scale 1.0 so quantization
/// stays total.
pub fn scale_for(max_abs: f32) -> f32 {
    if max_abs > 0.0 {
        max_abs / QMAX as f32
    } else {
        1.0
    }
}

/// 2^23: from here up every f32 is an integer, and below it adding and
/// subtracting it rounds a magnitude to an integer.
const TWO_23: f32 = 8_388_608.0;

/// Rounds half away from zero, as `f32::round` does, in plain f32
/// arithmetic instead of a libm call, so a loop of it vectorizes.
///
/// Below 2^23, `(|x| + 2^23) − 2^23` rounds the magnitude to the nearest
/// integer, a tie to the even one; where that rounded a tie down, the
/// magnitude takes 1 more. From 2^23 up, and for ±∞ and NaN, the
/// magnitude stays as it is. `copysign` puts the sign back, so −0.3
/// rounds to −0.0. The result equals `f32::round`'s bit for bit on every
/// f32 that is not NaN, and is NaN for NaN.
#[inline]
pub fn round_half_away(x: f32) -> f32 {
    let a = x.abs();
    let r = (a + TWO_23) - TWO_23;
    // `a − r` is exact (Sterbenz), so only a true tie reads 0.5.
    let r = if a - r == 0.5 { r + 1.0 } else { r };
    let r = if a < TWO_23 { r } else { a };
    r.copysign(x)
}

/// Quantizes one value: divide by scale, round half away from zero
/// ([`round_half_away`]), clamp into the symmetric range.
pub fn quantize_value(x: f32, scale: f32) -> i8 {
    let q = round_half_away(x / scale);
    q.clamp(-(QMAX as f32), QMAX as f32) as i8
}

/// Quantizes a slice, counting how many values clamped (saturated).
pub fn quantize_slice(xs: &[f32], scale: f32) -> (Vec<i8>, u64) {
    let mut out = Vec::with_capacity(xs.len());
    let saturated = quantize_into(xs, scale, &mut out);
    (out, saturated)
}

/// [`quantize_slice`] into `out`, overwriting it in its own storage,
/// each i8 as a `T` (itself, or its exact f32 image); returns how many
/// values saturated. Each value is [`quantize_value`]'s, and the loop
/// has no call and no branch, so it vectorizes.
pub fn quantize_into<T: From<i8>>(xs: &[f32], scale: f32, out: &mut Vec<T>) -> u64 {
    let qmax = QMAX as f32;
    out.resize_with(xs.len(), || T::from(0));
    count_over(out, xs, |o, &x| {
        let q = round_half_away(x / scale);
        // The saturating cast, NaN to 0, without a float-to-int convert.
        let clamped = if q.is_nan() {
            0.0
        } else {
            q.clamp(-qmax, qmax)
        };
        *o = T::from(exact_int(clamped) as i8);
        u32::from(q.abs() > qmax)
    })
}

/// The integer an f32 holds, for an integer-valued `s` with |s| ≤ 2^22:
/// 1.5 · 2^23 + s lies in [2^23, 2^24], where f32 integers are exact, and
/// its bits are `0x4B40_0000 + s`. Plain f32 and i32 arithmetic, so a
/// loop of it vectorizes where the baseline converts floats to integers
/// one at a time.
#[inline(always)]
pub fn exact_int(s: f32) -> i32 {
    (s + 12_582_912.0).to_bits() as i32 - 0x4B40_0000
}

/// Runs `f` over `out` and `xs` in step and adds up what it returns: in
/// a u32 per chunk of 2^16 elements, so that the loop runs in 32-bit
/// lanes where a u64 per element would halve them.
#[inline(always)]
fn count_over<T, X>(out: &mut [T], xs: &[X], mut f: impl FnMut(&mut T, &X) -> u32) -> u64 {
    const CHUNK: usize = 1 << 16;
    let mut total = 0u64;
    for (out, xs) in out.chunks_mut(CHUNK).zip(xs.chunks(CHUNK)) {
        let mut count = 0u32;
        for (o, x) in out.iter_mut().zip(xs) {
            count += f(o, x);
        }
        total += u64::from(count);
    }
    total
}

/// A tensor quantized to i8 with one symmetric per-tensor scale.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QTensor {
    shape: Vec<usize>,
    data: Vec<i8>,
    scale: f32,
}

impl QTensor {
    /// Quantizes `t` with the scale its own max-abs range selects.
    pub fn quantize(t: &Tensor) -> Self {
        let max_abs = t.data().iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        Self::quantize_with_scale(t, scale_for(max_abs))
    }

    /// Quantizes `t` with a caller-chosen scale (per-layer weight
    /// quantization shares one scale across replicas).
    pub fn quantize_with_scale(t: &Tensor, scale: f32) -> Self {
        let (data, _) = quantize_slice(t.data(), scale);
        Self {
            shape: t.shape().to_vec(),
            data,
            scale,
        }
    }

    /// The tensor shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// The quantized values.
    pub fn data(&self) -> &[i8] {
        &self.data
    }

    /// The symmetric scale (`real ≈ q · scale`).
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Maps back to f32: `q · scale` per element. The round trip is
    /// within `scale / 2` of the original for every in-range value.
    pub fn dequantize(&self) -> Tensor {
        let data: Vec<f32> = self.data.iter().map(|&q| q as f32 * self.scale).collect();
        Tensor::from_vec(self.shape.clone(), data).expect("shape preserved")
    }
}

/// Deploy-time activation-range calibration: feed it every activation
/// the calibration set produces, then read off the layer's scale.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Calibration {
    max_abs: f32,
}

impl Calibration {
    /// An empty range.
    pub fn new() -> Self {
        Self::default()
    }

    /// Widens the range by one activation value.
    pub fn observe_value(&mut self, v: f32) {
        self.max_abs = self.max_abs.max(v.abs());
    }

    /// Widens the range by a batch of activations.
    pub fn observe(&mut self, vs: &[f32]) {
        for &v in vs {
            self.observe_value(v);
        }
    }

    /// The widest magnitude seen.
    pub fn max_abs(&self) -> f32 {
        self.max_abs
    }

    /// The symmetric scale the observed range selects.
    pub fn scale(&self) -> f32 {
        scale_for(self.max_abs)
    }
}

/// An integer fixed-point multiplier: `apply(acc) ≈ acc · ratio`
/// computed as `(acc · mult) >> shift` in i64 with round-half-away-from-
/// zero — no floats anywhere near the accumulator.
///
/// [`Requant::from_ratio`] makes a `mult` of at least 0 and a `shift` of
/// at most [`MAX_SHIFT`], the range [`rounding_shift`] is exact on; a
/// requantizer restored from elsewhere must be checked against both
/// before use.
/// [`Requant::relu_into`], the slice form, multiplies the magnitudes
/// `|acc| · |mult|` as u32 × u32 → u64, which is exact for every i32
/// pair, so it equals [`Requant::apply`] at every shift up to 62.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Requant {
    mult: i32,
    shift: u32,
}

impl Requant {
    /// Encodes `ratio` (the scale change between an accumulator domain
    /// and the next activation domain, `s_in · s_w / s_out`) as a
    /// 31-bit multiplier plus shift. `ratio` must be positive and
    /// finite.
    ///
    /// # Panics
    ///
    /// Panics if `ratio` is not a positive finite number.
    pub fn from_ratio(ratio: f64) -> Self {
        assert!(
            ratio.is_finite() && ratio > 0.0,
            "requant ratio must be positive and finite, got {ratio}"
        );
        let mut shift = 31u32;
        let mut m = ratio * (1u64 << 31) as f64;
        // Keep the multiplier inside i32 for large ratios…
        while m >= i32::MAX as f64 && shift > 0 {
            m /= 2.0;
            shift -= 1;
        }
        // …and keep precision for tiny ones (mult of 0 would collapse
        // the layer to zeros).
        while m < (1 << 30) as f64 && shift < MAX_SHIFT {
            m *= 2.0;
            shift += 1;
        }
        Self {
            mult: m.round() as i32,
            shift,
        }
    }

    /// The multiplier.
    pub fn mult(&self) -> i32 {
        self.mult
    }

    /// The right shift.
    pub fn shift(&self) -> u32 {
        self.shift
    }

    /// Rescales an i32 accumulator: widen to i64, multiply, shift back
    /// with round-half-away-from-zero. Pure integer arithmetic.
    #[inline]
    pub fn apply(&self, acc: i32) -> i32 {
        let wide = acc as i64 * self.mult as i64;
        rounding_shift(wide, self.shift)
    }

    /// [`Requant::apply`] followed by a clamp into the i8 range,
    /// counting saturation into `saturated`.
    #[inline]
    pub fn apply_i8(&self, acc: i32, saturated: &mut u64) -> i8 {
        let v = self.apply(acc);
        *saturated += u64::from(!(-QMAX..=QMAX).contains(&v));
        v.clamp(-QMAX, QMAX) as i8
    }

    /// [`Requant::apply_i8`] over `acc`, then ReLU, each result written
    /// over `out` as its f32 image; returns how many results saturated,
    /// at either end of the i8 range.
    ///
    /// Each element multiplies the magnitudes `|acc| · |mult|` as u32 ×
    /// u32 → u64 (at most 2^62, so exact), rounds with `(m + half) >>
    /// shift`, narrows to 32 bits by truncation and takes the sign of
    /// `acc · mult`: [`rounding_shift`] of the i64 product, for every
    /// i32 pair and every shift up to 62. The loop has no i64 multiply
    /// and no branch, so it vectorizes.
    pub fn relu_into(&self, acc: &[i32], out: &mut Vec<f32>) -> u64 {
        let (mult, shift) = (u64::from(self.mult.unsigned_abs()), self.shift);
        let half = (1u64 << shift) >> 1;
        // −1 where the multiplier flips the accumulator's sign.
        let flip = -i32::from(self.mult < 0);
        out.resize(acc.len(), 0.0);
        count_over(out, acc, |o, &a| {
            let m = u64::from(a.unsigned_abs()) * mult;
            let r = ((m + half) >> shift) as u32 as i32;
            // −1 where `acc · mult` is negative (or `acc` is, times 0,
            // where `r` is 0 and the sign moves nothing).
            let sign = (a >> 31) ^ flip;
            let v = (r ^ sign).wrapping_sub(sign);
            *o = v.clamp(0, QMAX) as f32;
            u32::from(!(-QMAX..=QMAX).contains(&v))
        })
    }
}

/// `v >> shift` with round-half-away-from-zero (ties move away from
/// zero for both signs, matching `f32::round`), narrowed to `i32` by
/// truncation. Exact for `|v| ≤ 2^62` and `shift ≤ 62`, which covers
/// every `i32 × i32` product [`Requant::apply`] shifts.
///
/// Branch-free: the magnitude is rounded and the sign put back with
/// masks, so a sign that changes from one accumulator to the next costs
/// no mispredicted branch.
#[inline]
pub fn rounding_shift(v: i64, shift: u32) -> i32 {
    let sign = v >> 63;
    let magnitude = (v ^ sign).wrapping_sub(sign);
    let half = ((1u64 << shift) >> 1) as i64;
    let rounded = magnitude.wrapping_add(half) >> shift;
    ((rounded ^ sign).wrapping_sub(sign)) as i32
}

/// Exact i32 dot product of two i8 slices.
///
/// # Panics
///
/// Panics if the slices disagree in length.
pub fn dot_i8(w: &[i8], x: &[i8]) -> i32 {
    assert_eq!(w.len(), x.len(), "dot length mismatch");
    let mut acc = 0i32;
    for (&wv, &xv) in w.iter().zip(x) {
        acc += wv as i32 * xv as i32;
    }
    acc
}

/// Cache-blocked quantized dense layer: `out[o] = bias[o] + Σ_i
/// weights[o·in_len + i] · input[i]`, accumulated exactly in i32.
///
/// The traversal is tiled `BLOCK × BLOCK` over (outputs × inputs) so a
/// weight block and the input block stay L1-resident; because integer
/// addition is associative, the blocked result is bit-identical to the
/// naive loop (the proptests compare it against an i64 reference).
///
/// # Panics
///
/// Panics if slice lengths disagree with `out_len × in_len`.
pub fn dense_i8_blocked(weights: &[i8], bias: &[i32], input: &[i8], out_len: usize) -> Vec<i32> {
    assert_eq!(bias.len(), out_len, "bias length mismatch");
    let in_len = input.len();
    assert_eq!(weights.len(), out_len * in_len, "weight shape mismatch");
    let mut acc = bias.to_vec();
    for ib in (0..in_len).step_by(BLOCK) {
        let ie = (ib + BLOCK).min(in_len);
        let xb = &input[ib..ie];
        for ob in (0..out_len).step_by(BLOCK) {
            let oe = (ob + BLOCK).min(out_len);
            for o in ob..oe {
                let row = &weights[o * in_len + ib..o * in_len + ie];
                let mut s = 0i32;
                for (&wv, &xv) in row.iter().zip(xb) {
                    s += wv as i32 * xv as i32;
                }
                acc[o] += s;
            }
        }
    }
    acc
}

/// Quantized valid 2-D convolution (stride 1): i8 input `[ic, ih, iw]`,
/// i8 kernels `[oc, ic, k, k]`, i32 bias per output channel, exact i32
/// accumulators out, shaped `[oc, ih−k+1, iw−k+1]` row-major. The inner
/// dot runs over a gathered receptive-field patch so each kernel row is
/// streamed once per output row — the conv analogue of the blocked
/// dense kernel.
///
/// # Panics
///
/// Panics if the slice lengths disagree with the given geometry.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_i8(
    input: &[i8],
    weights: &[i8],
    bias: &[i32],
    ic: usize,
    ih: usize,
    iw: usize,
    oc: usize,
    k: usize,
) -> Vec<i32> {
    assert_eq!(input.len(), ic * ih * iw, "input shape mismatch");
    assert_eq!(weights.len(), oc * ic * k * k, "kernel shape mismatch");
    assert_eq!(bias.len(), oc, "bias length mismatch");
    let (oh, ow) = (ih - k + 1, iw - k + 1);
    let kernel_len = ic * k * k;
    let mut patch = vec![0i8; kernel_len];
    let mut out = vec![0i32; oc * oh * ow];
    for oy in 0..oh {
        for ox in 0..ow {
            // Gather the receptive field once, reuse it for every
            // output channel.
            let mut off = 0;
            for icn in 0..ic {
                for ky in 0..k {
                    let row = icn * ih * iw + (oy + ky) * iw + ox;
                    patch[off..off + k].copy_from_slice(&input[row..row + k]);
                    off += k;
                }
            }
            for o in 0..oc {
                let kern = &weights[o * kernel_len..(o + 1) * kernel_len];
                out[o * oh * ow + oy * ow + ox] = bias[o] + dot_i8(kern, &patch);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Whether `round_half_away(x)` is `f32::round(x)`: bit for bit, or
    /// NaN for NaN. Rust leaves a NaN result's payload unspecified, and
    /// libm quiets a signaling NaN where `round_half_away` passes it on.
    fn rounds_like_libm(x: f32) -> bool {
        let (got, want) = (round_half_away(x), x.round());
        got.to_bits() == want.to_bits() || got.is_nan() && want.is_nan()
    }

    /// `round_half_away` equals `f32::round` on all 2^32 patterns. It takes
    /// about 16 s in release on a 2-vCPU x86-64 host, so a debug build
    /// skips it.
    #[test]
    #[cfg_attr(debug_assertions, ignore)]
    fn round_half_away_equals_f32_round_on_every_pattern() {
        let wrong = (0..=u32::MAX)
            .map(f32::from_bits)
            .find(|&x| !rounds_like_libm(x));
        assert_eq!(wrong, None);
    }

    /// `round_half_away` equals `f32::round` on every tie `k + 0.5` below
    /// 2^23, on either side of 2^23, where it stops rounding, at ±127.5,
    /// and on ±0, ±∞, NaN and the extremes of the f32 range.
    #[test]
    fn round_half_away_equals_f32_round_at_ties_and_edges() {
        let ties = (0..1u32 << 23).map(|k| k as f32 + 0.5);
        let edges = [
            0.0,
            0.499_999_97,
            127.5,
            8_388_607.0,
            8_388_607.5,
            8_388_608.0,
            8_388_609.0,
            16_777_215.0,
            f32::from_bits(1),
            f32::MIN_POSITIVE,
            f32::MAX,
            f32::INFINITY,
            f32::NAN,
        ];
        for x in ties.chain(edges).flat_map(|x| [x, -x]) {
            assert!(rounds_like_libm(x), "{x}: {}", round_half_away(x));
        }
        assert_eq!(round_half_away(-0.3).to_bits(), (-0.0f32).to_bits());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The slice form equals `apply_i8` followed by ReLU, element by
        /// element and in the saturation count, at every shift from 0 to
        /// 62: over random accumulators with `i32::MIN`, `i32::MAX`, 0,
        /// ±1 and the values that round to either side of saturation, and
        /// multipliers 0, ±1, `i32::MIN`, `i32::MAX` or random, negative
        /// ones included. `out` starts longer than the result.
        #[test]
        fn relu_into_equals_apply_i8_then_relu(
            accs in proptest::collection::vec(i32::MIN..=i32::MAX, 1..48),
            pick in 0usize..8,
            drawn in i32::MIN..=i32::MAX,
        ) {
            let mult = [0, 1, -1, i32::MIN, i32::MAX, drawn, drawn, drawn][pick];
            for shift in 0..=MAX_SHIFT {
                let r = Requant { mult, shift };
                let mut accs = accs.clone();
                accs.extend([i32::MIN, i32::MAX, 0, 1, -1]);
                // Where `acc · mult` crosses ±127.5 · 2^shift.
                let edge = 127.5 * 2f64.powi(shift as i32) / f64::from(mult);
                for a in [edge, -edge].map(|e| e.round()).into_iter().filter(|e| e.is_finite()) {
                    let a = a.clamp(f64::from(i32::MIN), f64::from(i32::MAX)) as i32;
                    accs.extend([a.saturating_sub(1), a, a.saturating_add(1)]);
                }
                let mut out = vec![7.0; accs.len() + 3];
                let saturated = r.relu_into(&accs, &mut out);
                let mut want_saturated = 0u64;
                let want: Vec<u32> = accs
                    .iter()
                    .map(|&a| f32::from(r.apply_i8(a, &mut want_saturated)).max(0.0).to_bits())
                    .collect();
                let got: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
                prop_assert_eq!(got, want, "mult {}, shift {}", mult, shift);
                prop_assert_eq!(saturated, want_saturated, "mult {}, shift {}", mult, shift);
            }
        }
    }

    #[test]
    fn scale_maps_range_onto_i8() {
        let s = scale_for(12.7);
        assert!((s - 0.1).abs() < 1e-6);
        assert_eq!(quantize_value(12.7, s), 127);
        assert_eq!(quantize_value(-12.7, s), -127);
        assert_eq!(quantize_value(0.0, s), 0);
        // Out-of-range values clamp and the slice variant counts them.
        let (q, sat) = quantize_slice(&[100.0, -100.0, 1.0], s);
        assert_eq!(q, vec![127, -127, 10]);
        assert_eq!(sat, 2);
        // The in-place variant replaces a buffer's contents alike.
        let mut buf = vec![5; 8];
        assert_eq!(quantize_into(&[100.0, -100.0, 1.0], s, &mut buf), 2);
        assert_eq!(buf, q);
    }

    #[test]
    fn zero_range_degenerates_to_unit_scale() {
        assert_eq!(scale_for(0.0), 1.0);
        let t = Tensor::zeros(vec![3]);
        let q = QTensor::quantize(&t);
        assert_eq!(q.data(), &[0, 0, 0]);
        assert_eq!(q.dequantize().data(), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn rounding_is_half_away_from_zero() {
        assert_eq!(quantize_value(0.25, 0.1), 3); // 2.5 → 3
        assert_eq!(quantize_value(-0.25, 0.1), -3); // -2.5 → -3
        assert_eq!(rounding_shift(5, 1), 3); // 2.5 → 3
        assert_eq!(rounding_shift(-5, 1), -3); // -2.5 → -3
        assert_eq!(rounding_shift(4, 2), 1);
        assert_eq!(rounding_shift(6, 2), 2); // 1.5 → 2
    }

    #[test]
    fn round_trip_error_is_within_half_scale() {
        let t = Tensor::from_vec(vec![4], vec![1.0, -0.37, 2.49, -2.5]).unwrap();
        let q = QTensor::quantize(&t);
        let back = q.dequantize();
        for (&a, &b) in t.data().iter().zip(back.data()) {
            assert!((a - b).abs() <= q.scale() / 2.0 + 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn calibration_tracks_max_abs() {
        let mut c = Calibration::new();
        c.observe(&[0.5, -3.0, 1.0]);
        c.observe_value(2.0);
        assert_eq!(c.max_abs(), 3.0);
        assert!((c.scale() - 3.0 / 127.0).abs() < 1e-7);
    }

    #[test]
    fn requant_approximates_the_ratio() {
        for ratio in [0.0003, 0.01, 0.5, 1.0, 3.7] {
            let r = Requant::from_ratio(ratio);
            for acc in [-100_000i32, -127, -1, 0, 1, 99, 32_000] {
                let got = r.apply(acc) as f64;
                let want = acc as f64 * ratio;
                assert!(
                    (got - want).abs() <= want.abs() * 1e-6 + 1.0,
                    "ratio {ratio}, acc {acc}: {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn requant_saturation_is_counted() {
        let r = Requant::from_ratio(1.0);
        let mut sat = 0u64;
        assert_eq!(r.apply_i8(1_000, &mut sat), 127);
        assert_eq!(r.apply_i8(-1_000, &mut sat), -127);
        assert_eq!(r.apply_i8(5, &mut sat), 5);
        assert_eq!(sat, 2);
    }

    #[test]
    fn blocked_dense_matches_naive() {
        let (out_len, in_len) = (7, 150); // crosses block boundaries
        let weights: Vec<i8> = (0..out_len * in_len)
            .map(|i| ((i * 37 + 11) % 255) as i8)
            .collect();
        let input: Vec<i8> = (0..in_len).map(|i| ((i * 91 + 3) % 255) as i8).collect();
        let bias: Vec<i32> = (0..out_len as i32).map(|o| o * 1000 - 3000).collect();
        let got = dense_i8_blocked(&weights, &bias, &input, out_len);
        for o in 0..out_len {
            let naive = bias[o] + dot_i8(&weights[o * in_len..(o + 1) * in_len], &input);
            assert_eq!(got[o], naive);
        }
    }

    #[test]
    fn conv_matches_direct_accumulation() {
        let (ic, ih, iw, oc, k) = (2, 5, 5, 3, 3);
        let input: Vec<i8> = (0..ic * ih * iw).map(|i| ((i * 53) % 255) as i8).collect();
        let weights: Vec<i8> = (0..oc * ic * k * k)
            .map(|i| ((i * 29 + 7) % 255) as i8)
            .collect();
        let bias = vec![5i32, -5, 0];
        let out = conv2d_i8(&input, &weights, &bias, ic, ih, iw, oc, k);
        let (oh, ow) = (ih - k + 1, iw - k + 1);
        assert_eq!(out.len(), oc * oh * ow);
        // Spot-check one unit against a hand-rolled accumulation.
        let (o, oy, ox) = (1, 2, 1);
        let mut want = bias[o];
        let kernel_len = ic * k * k;
        let mut off = 0;
        for icn in 0..ic {
            for ky in 0..k {
                for kx in 0..k {
                    let w = weights[o * kernel_len + off] as i32;
                    let x = input[icn * ih * iw + (oy + ky) * iw + (ox + kx)] as i32;
                    want += w * x;
                    off += 1;
                }
            }
        }
        assert_eq!(out[o * oh * ow + oy * ow + ox], want);
    }
}
