//! The thread-local scratch buffers behind the public min-plus entry points.
//!
//! The campaign analyses ~10⁵ scenarios per run, and every scenario pays
//! thousands of min-plus operations, each of which would otherwise allocate
//! fresh breakpoint `Vec`s that are dropped microseconds later.  Every public
//! entry point ([`crate::minplus`]'s operators and the [`Curve`](crate::Curve)
//! combinators) instead runs its slice-level `*_into` kernel on the calling
//! thread's [`Scratch`] through [`with_scratch`] and copies only the result
//! out.
//!
//! The scratch lives in a `RefCell`, so an entry point must not call another
//! entry point while it holds the borrow (a nested borrow panics).

use std::cell::RefCell;

/// Reusable breakpoint buffers for the min-plus kernels.
///
/// Buffers grow to the high-water mark of the curves seen and are then
/// reused without further allocation.  Every kernel clears the buffers it
/// writes on entry, never on exit.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    /// Merged breakpoint grid of the sweep combine (before crossings).
    pub(crate) grid: Vec<f64>,
    /// Final evaluation grid (breakpoints + crossings), or the merged grid
    /// of the two-pointer kernels.
    pub(crate) xs: Vec<f64>,
    /// Interior-crossing abscissas of the min/max combine.
    pub(crate) crossings: Vec<f64>,
    /// Fold accumulator breakpoints (general convolution).
    pub(crate) acc: Vec<(f64, f64)>,
    /// Current family-member breakpoints (convolution) or hull (leftover).
    pub(crate) member: Vec<(f64, f64)>,
    /// General output buffer.
    pub(crate) work: Vec<(f64, f64)>,
    /// Raw difference grid (leftover).
    pub(crate) diff: Vec<(f64, f64)>,
    /// Candidate abscissas for the deviation routines.
    pub(crate) candidates: Vec<f64>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// Runs `f` on the calling thread's scratch buffers.
///
/// # Panics
/// Panics if called from inside another `with_scratch` closure on the same
/// thread.
pub(crate) fn with_scratch<R>(f: impl FnOnce(&mut Scratch) -> R) -> R {
    SCRATCH.with(|s| f(&mut s.borrow_mut()))
}
