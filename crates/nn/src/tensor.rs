//! A small dense multi-dimensional tensor.
//!
//! The functional experiments only need row-major dense storage with shape
//! bookkeeping — no views, broadcasting, or autograd. Keeping it minimal
//! makes the arithmetic in [`crate::layers`] easy to audit against the
//! paper's integer pipeline.

use crate::error::NnError;

/// Dense row-major tensor over a copyable element type.
///
/// ```
/// use raella_nn::Tensor;
///
/// let t = Tensor::from_vec(vec![1u8, 2, 3, 4, 5, 6], &[2, 3]).unwrap();
/// assert_eq!(t.get(&[1, 2]), 6);
/// assert_eq!(t.shape(), &[2, 3]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tensor<T> {
    data: Vec<T>,
    shape: Vec<usize>,
}

impl<T: Copy + Default> Tensor<T> {
    /// Creates a tensor filled with `T::default()`.
    pub fn zeros(shape: &[usize]) -> Self {
        let len = shape.iter().product();
        Tensor {
            data: vec![T::default(); len],
            shape: shape.to_vec(),
        }
    }
}

impl<T: Copy> Tensor<T> {
    /// Wraps a flat buffer with the given shape.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if the buffer length does not
    /// equal the product of the dimensions.
    pub fn from_vec(data: Vec<T>, shape: &[usize]) -> Result<Self, NnError> {
        let expected: usize = shape.iter().product();
        if data.len() != expected {
            return Err(NnError::ShapeMismatch {
                expected: format!("{expected} elements for shape {shape:?}"),
                got: format!("{} elements", data.len()),
            });
        }
        Ok(Tensor {
            data,
            shape: shape.to_vec(),
        })
    }

    /// The tensor's dimensions.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat read-only view of the data in row-major order.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Flat mutable view of the data in row-major order.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Row-major flat offset of a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if `idx` has the wrong rank or any coordinate is out of
    /// bounds; tensor indexing bugs should fail loudly in a simulator.
    pub fn offset(&self, idx: &[usize]) -> usize {
        assert_eq!(
            idx.len(),
            self.shape.len(),
            "rank mismatch: index {idx:?} vs shape {:?}",
            self.shape
        );
        let mut off = 0;
        for (d, (&i, &s)) in idx.iter().zip(&self.shape).enumerate() {
            assert!(i < s, "index {i} out of bounds for dim {d} of size {s}");
            off = off * s + i;
        }
        off
    }

    /// Reads the element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics on rank mismatch or out-of-bounds coordinates.
    pub fn get(&self, idx: &[usize]) -> T {
        self.data[self.offset(idx)]
    }

    /// Writes the element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics on rank mismatch or out-of-bounds coordinates.
    pub fn set(&mut self, idx: &[usize], value: T) {
        let off = self.offset(idx);
        self.data[off] = value;
    }

    /// Returns a tensor with the same data and a new shape.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if the element counts differ.
    pub fn reshape(self, shape: &[usize]) -> Result<Self, NnError> {
        Tensor::from_vec(self.data, shape)
    }

    /// Applies a function elementwise, producing a new tensor.
    pub fn map<U: Copy>(&self, f: impl FnMut(T) -> U) -> Tensor<U> {
        Tensor {
            data: self.data.iter().copied().map(f).collect(),
            shape: self.shape.clone(),
        }
    }
}

impl<T: Copy> AsRef<[T]> for Tensor<T> {
    fn as_ref(&self) -> &[T] {
        &self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_checks_length() {
        assert!(Tensor::from_vec(vec![1u8; 5], &[2, 3]).is_err());
        assert!(Tensor::from_vec(vec![1u8; 6], &[2, 3]).is_ok());
    }

    #[test]
    fn offsets_are_row_major() {
        let t = Tensor::from_vec((0u8..24).collect(), &[2, 3, 4]).unwrap();
        assert_eq!(t.get(&[0, 0, 0]), 0);
        assert_eq!(t.get(&[0, 0, 3]), 3);
        assert_eq!(t.get(&[0, 1, 0]), 4);
        assert_eq!(t.get(&[1, 0, 0]), 12);
        assert_eq!(t.get(&[1, 2, 3]), 23);
    }

    #[test]
    fn set_then_get_round_trips() {
        let mut t = Tensor::<i32>::zeros(&[3, 3]);
        t.set(&[2, 1], -7);
        assert_eq!(t.get(&[2, 1]), -7);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        let t = Tensor::<u8>::zeros(&[2, 2]);
        t.get(&[0, 2]);
    }

    #[test]
    #[should_panic(expected = "rank mismatch")]
    fn get_wrong_rank_panics() {
        let t = Tensor::<u8>::zeros(&[2, 2]);
        t.get(&[0]);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec((0u8..6).collect(), &[2, 3]).unwrap();
        let r = t.clone().reshape(&[3, 2]).unwrap();
        assert_eq!(r.as_slice(), t.as_slice());
        assert_eq!(r.shape(), &[3, 2]);
        assert!(t.reshape(&[4, 2]).is_err());
    }

    #[test]
    fn map_changes_type() {
        let t = Tensor::from_vec(vec![1u8, 2, 3], &[3]).unwrap();
        let m = t.map(|x| -i32::from(x));
        assert_eq!(m.as_slice(), &[-1, -2, -3]);
    }

    #[test]
    fn zero_sized_tensor_is_empty() {
        let t = Tensor::<u8>::zeros(&[0, 4]);
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
    }
}
