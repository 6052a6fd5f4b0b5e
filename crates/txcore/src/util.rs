//! Small shared utilities: cache-line padding and a layout check for it, a
//! fast thread-local RNG, and bounded exponential backoff.

use std::ops::{Deref, DerefMut};

/// The cache-line size [`CachePadded`] pads to and [`line_conflicts`]
/// checks against.
const CACHE_LINE: usize = 64;

/// Pads and aligns a value to a 64-byte cache line, preventing false sharing
/// between per-thread slots (the paper's "padded state variable").
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct CachePadded<T> {
    value: T,
}

impl<T> CachePadded<T> {
    /// Wrap `value` in its own cache line.
    pub const fn new(value: T) -> Self {
        CachePadded { value }
    }

    /// Consume the padding and return the inner value.
    pub fn into_inner(self) -> T {
        self.value
    }
}

impl<T> Deref for CachePadded<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> DerefMut for CachePadded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

/// One field of a struct under a cache-line layout check; build it with
/// [`field_span!`](crate::field_span).
#[derive(Debug, Clone, Copy)]
pub struct FieldSpan {
    /// The field's name.
    pub name: &'static str,
    /// Byte offset within the struct (`std::mem::offset_of!`).
    pub offset: usize,
    /// Byte size of the field.
    pub size: usize,
    /// Whether other threads write the field while transactions run.
    pub written: bool,
}

/// `size_of` the field a projection closure selects (used by
/// [`field_span!`](crate::field_span), which has no value to measure).
#[doc(hidden)]
pub const fn size_of_field<T, F>(_: fn(&T) -> &F) -> usize {
    std::mem::size_of::<F>()
}

/// The [`FieldSpan`] of field `$field` of `$ty`, marked `written` (other
/// threads write it while transactions run) or `read` (read-mostly).
/// Private fields work where they are visible, so layout tests live next
/// to the struct.
#[macro_export]
macro_rules! field_span {
    ($ty:ty, $field:ident, written) => {
        $crate::field_span!(@ $ty, $field, true)
    };
    ($ty:ty, $field:ident, read) => {
        $crate::field_span!(@ $ty, $field, false)
    };
    (@ $ty:ty, $field:ident, $written:expr) => {
        $crate::util::FieldSpan {
            name: stringify!($field),
            offset: ::std::mem::offset_of!($ty, $field),
            size: $crate::util::size_of_field(|s: &$ty| &s.$field),
            written: $written,
        }
    };
}

/// Every pair of `fields` that can share a 64-byte cache line while at least
/// one of the two is written by other threads — a false-sharing miss that
/// no TM algorithm requires.
///
/// `align` is the struct's `align_of`. Below a line, where the allocator
/// puts the struct decides which fields share a line, so a pair counts if
/// it shares one under *any* placement the alignment allows: the verdict
/// does not depend on the host or the allocator.
pub fn line_conflicts(align: usize, fields: &[FieldSpan]) -> Vec<(&'static str, &'static str)> {
    let lines = |base: usize, f: &FieldSpan| {
        (base + f.offset) / CACHE_LINE..=(base + f.offset + f.size.max(1) - 1) / CACHE_LINE
    };
    let share_a_line = |a: &FieldSpan, b: &FieldSpan| {
        (0..CACHE_LINE)
            .step_by(align.clamp(1, CACHE_LINE))
            .any(|base| {
                let (la, lb) = (lines(base, a), lines(base, b));
                la.start() <= lb.end() && lb.start() <= la.end()
            })
    };
    let mut out = Vec::new();
    for (i, a) in fields.iter().enumerate() {
        for b in &fields[i + 1..] {
            if (a.written || b.written) && share_a_line(a, b) {
                out.push((a.name, b.name));
            }
        }
    }
    out
}

/// A tiny xorshift64* PRNG for contention-management decisions (backoff
/// jitter, simulated capacity sampling). Not cryptographic.
#[derive(Debug, Clone)]
pub struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    /// Seeded generator; a zero seed is remapped to a fixed odd constant.
    pub fn new(seed: u64) -> Self {
        XorShift64 {
            state: if seed == 0 { 0x9E3779B97F4A7C15 } else { seed },
        }
    }

    /// Next pseudo-random 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    /// Uniform value in `[0, bound)`; `bound` must be positive.
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        self.next_u64() % bound
    }

    /// Uniform float in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Spin for a pseudo-random duration that grows exponentially with the
/// number of consecutive aborts, capped to keep reconfiguration responsive.
pub fn backoff(rng: &mut XorShift64, attempt: u32) {
    if attempt > 6 {
        // Long contention streak: yield the core so the conflicting
        // transaction can finish (essential on low-core-count machines).
        std::thread::yield_now();
        return;
    }
    let max = 1u64 << attempt.min(10);
    let spins = rng.next_below(max) + 1;
    for _ in 0..spins {
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_padded_is_line_aligned() {
        assert_eq!(std::mem::align_of::<CachePadded<u8>>(), 64);
        let p = CachePadded::new(5u32);
        assert_eq!(*p, 5);
        assert_eq!(p.into_inner(), 5);
    }

    #[test]
    fn line_conflicts_depend_on_alignment_not_placement() {
        let span = |name, offset, size, written| FieldSpan {
            name,
            offset,
            size,
            written,
        };
        // Written word on its own line next to a read field: clean at a
        // line alignment, a conflict under some 8-byte placement.
        let fields = [span("read", 0, 16, false), span("hot", 64, 8, true)];
        assert!(line_conflicts(64, &fields).is_empty());
        assert_eq!(line_conflicts(8, &fields), [("read", "hot")]);
        // Two read-only fields may share a line.
        let fields = [span("a", 0, 8, false), span("b", 8, 8, false)];
        assert!(line_conflicts(8, &fields).is_empty());
        // Two written words on one line conflict with each other.
        let fields = [span("x", 0, 8, true), span("y", 56, 8, true)];
        assert_eq!(line_conflicts(64, &fields), [("x", "y")]);
    }

    #[test]
    fn rng_is_deterministic_and_nonzero() {
        let mut a = XorShift64::new(42);
        let mut b = XorShift64::new(42);
        for _ in 0..100 {
            let x = a.next_u64();
            assert_eq!(x, b.next_u64());
            assert_ne!(x, 0);
        }
    }

    #[test]
    fn rng_zero_seed_is_remapped() {
        let mut r = XorShift64::new(0);
        assert_ne!(r.next_u64(), 0);
    }

    #[test]
    fn next_below_respects_bound() {
        let mut r = XorShift64::new(7);
        for _ in 0..1000 {
            assert!(r.next_below(13) < 13);
        }
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut r = XorShift64::new(9);
        for _ in 0..1000 {
            let f = r.next_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn backoff_terminates() {
        let mut r = XorShift64::new(1);
        for attempt in 0..20 {
            backoff(&mut r, attempt);
        }
    }
}
