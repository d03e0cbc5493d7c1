//! Cache-line padding to keep per-thread flags from false sharing.
//!
//! A minimal stand-in for `crossbeam_utils::CachePadded`: aligning each
//! value to 128 bytes puts every flag on its own cache line (two lines
//! on CPUs with adjacent-line prefetch), so one thread's spin loop never
//! invalidates a neighbour's flag.

use std::ops::{Deref, DerefMut};

/// Pads and aligns a value to 128 bytes.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
#[repr(align(128))]
pub struct CachePadded<T> {
    value: T,
}

impl<T> CachePadded<T> {
    /// Pads `value` to its own cache line.
    pub const fn new(value: T) -> CachePadded<T> {
        CachePadded { value }
    }

    /// Unwraps the padded value.
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

impl<T> From<T> for CachePadded<T> {
    fn from(value: T) -> CachePadded<T> {
        CachePadded::new(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn padding_separates_adjacent_elements() {
        assert!(std::mem::align_of::<CachePadded<u8>>() >= 128);
        assert!(std::mem::size_of::<CachePadded<u8>>() >= 128);
        let v: Vec<CachePadded<u8>> = vec![CachePadded::new(1), CachePadded::new(2)];
        // Layout assertion: only the *distance* between adjacent
        // elements is checked, which is a pure function of the type's
        // size, not of the load address.
        let a = &*v[0] as *const u8 as usize; // allow(ptr-order)
        let b = &*v[1] as *const u8 as usize; // allow(ptr-order)
        assert!(b - a >= 128, "elements {a:#x} and {b:#x} share a line");
    }

    #[test]
    fn deref_and_into_inner() {
        let mut p = CachePadded::new(41u64);
        *p += 1;
        assert_eq!(*p, 42);
        assert_eq!(p.into_inner(), 42);
    }
}
