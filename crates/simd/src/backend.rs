//! Which implementation backs the `SimdF32`/`SimdI32` primitives.
//!
//! There is exactly one: the portable fixed-trip lane loops of
//! [`crate::f32xc`]/[`crate::i32xc`]. Every primitive is
//! `#[inline(always)]`, so inside a monomorphized chunk-MV loop the
//! compiler sees the kernel's whole primitive sequence (`LOAD`, gather,
//! `MIN`, `ADD`, `BLEND`, …) with no per-primitive branch or call in
//! between, and vectorizes it for the build's target features. Results
//! depend only on the lane loops' scalar semantics (`f32::min`/`max`,
//! `!= 0.0` masks, slice-indexed gathers), never on the host CPU.
//!
//! [`active_backend`] and [`detect_best`] exist so that reports (the
//! benchmark context line, `BENCH_scaling.json`) can name the path that
//! ran.

/// The implementation behind the primitives: the portable lane loops.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Backend;

impl Backend {
    /// Stable lowercase name, as recorded in benchmark reports.
    pub fn name(self) -> &'static str {
        "portable"
    }
}

/// The backend the primitives run on (always the portable lane loops).
#[inline]
pub fn active_backend() -> Backend {
    Backend
}

/// The best backend for this host (always the portable lane loops).
pub fn detect_best() -> Backend {
    Backend
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_the_portable_path() {
        assert_eq!(active_backend(), detect_best());
        assert_eq!(active_backend().name(), "portable");
    }
}
