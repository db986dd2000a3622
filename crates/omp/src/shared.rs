//! Disjoint-write shared buffers for worksharing loops.
//!
//! Algorithm 1 of the DASSA paper ends with every thread copying its
//! per-thread result vector into a disjoint span of the shared result
//! `R[p[h-1] : p[h]]`. In C/OpenMP this is a plain aliased write; in Rust
//! we model it with an [`UnsafeCell`]-backed buffer whose safety contract
//! is "each element is written by at most one thread per region".

use std::cell::UnsafeCell;

/// A fixed-size buffer that multiple threads may write disjoint elements
/// of concurrently.
///
/// # Safety contract
/// Callers must guarantee that between synchronization points no element
/// index is written by more than one thread, and that elements are not
/// read while another thread may be writing them. The static worksharing
/// loop hands out disjoint index sets, satisfying this by construction.
pub struct SharedSlice<T> {
    data: UnsafeCell<Box<[T]>>,
}

// SAFETY: all mutation goes through `unsafe` methods whose contract forbids
// data races; the type itself adds no thread affinity.
unsafe impl<T: Send> Sync for SharedSlice<T> {}
unsafe impl<T: Send> Send for SharedSlice<T> {}

impl<T> SharedSlice<T> {
    /// Wrap an existing vector.
    pub fn from_vec(v: Vec<T>) -> Self {
        SharedSlice {
            data: UnsafeCell::new(v.into_boxed_slice()),
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        // SAFETY: reading the length does not alias element data.
        unsafe { (&*self.data.get()).len() }
    }

    /// True when the buffer holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Write one element.
    ///
    /// # Safety
    /// No other thread may concurrently read or write index `i`.
    pub unsafe fn write(&self, i: usize, value: T) {
        let slice = &mut *self.data.get();
        slice[i] = value;
    }

    /// Read one element.
    ///
    /// # Safety
    /// No other thread may concurrently write index `i`.
    pub unsafe fn read(&self, i: usize) -> T
    where
        T: Copy,
    {
        let slice = &*self.data.get();
        slice[i]
    }

    /// Copy `src` into the span starting at `offset`.
    ///
    /// # Safety
    /// The span `offset .. offset + src.len()` must not be concurrently
    /// accessed by any other thread.
    pub unsafe fn write_slice(&self, offset: usize, src: &[T])
    where
        T: Copy,
    {
        let slice = &mut *self.data.get();
        slice[offset..offset + src.len()].copy_from_slice(src);
    }

    /// Recover the underlying vector once all threads have joined.
    pub fn into_vec(self) -> Vec<T> {
        self.data.into_inner().into_vec()
    }

    /// Borrow the contents. Requires `&mut self`, which proves no other
    /// thread holds a reference.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        self.data.get_mut()
    }
}

impl<T: Default + Clone> SharedSlice<T> {
    /// Allocate `n` default-initialized elements, like a freshly `calloc`ed
    /// OpenMP output array.
    pub fn zeroed(n: usize) -> Self {
        SharedSlice::from_vec(vec![T::default(); n])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let s = SharedSlice::from_vec(vec![0u32; 4]);
        unsafe {
            s.write(2, 42);
            assert_eq!(s.read(2), 42);
        }
        assert_eq!(s.into_vec(), vec![0, 0, 42, 0]);
    }

    #[test]
    fn write_slice_span() {
        let s = SharedSlice::<i64>::zeroed(6);
        unsafe { s.write_slice(2, &[7, 8, 9]) };
        assert_eq!(s.into_vec(), vec![0, 0, 7, 8, 9, 0]);
    }

    #[test]
    fn len_and_empty() {
        let s = SharedSlice::<u8>::zeroed(3);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        let e = SharedSlice::<u8>::zeroed(0);
        assert!(e.is_empty());
    }

    #[test]
    fn as_mut_slice_after_region() {
        let mut s = SharedSlice::from_vec(vec![1, 2, 3]);
        s.as_mut_slice()[0] = 10;
        assert_eq!(s.into_vec(), vec![10, 2, 3]);
    }
}
