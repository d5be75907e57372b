//! Dense tensor shapes.

use std::fmt;

/// The shape of a dense row-major tensor.
///
/// Activations use NCHW order (`[batch, channels, height, width]`);
/// convolution filters use OIHW (`[out_channels, in_channels, kh, kw]`).
/// Output-channel slicing — the core of the channel-wise workload
/// distribution — is therefore axis 1 for activations and axis 0 for
/// filters.
///
/// The dimensions are stored inline, so making, cloning and narrowing a
/// shape never allocates: every view of a layer's tensors carries one.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Shape {
    /// `dims[..rank]` are the dimensions; the rest stay 0, so the
    /// derived comparisons and hash see only the dimensions.
    dims: [usize; MAX_RANK],
    rank: usize,
}

/// The most dimensions a shape has (NCHW activations, OIHW filters).
const MAX_RANK: usize = 4;

impl Shape {
    /// Creates a shape from dimensions.
    ///
    /// # Panics
    ///
    /// Panics on more than four dimensions.
    pub fn new(dims: impl Into<Vec<usize>>) -> Shape {
        Shape::from(dims.into().as_slice())
    }

    /// A 4-D NCHW activation shape.
    pub fn nchw(n: usize, c: usize, h: usize, w: usize) -> Shape {
        Shape {
            dims: [n, c, h, w],
            rank: 4,
        }
    }

    /// A 4-D OIHW filter shape.
    pub fn oihw(o: usize, i: usize, h: usize, w: usize) -> Shape {
        Shape::nchw(o, i, h, w)
    }

    /// The dimensions.
    pub fn dims(&self) -> &[usize] {
        &self.dims[..self.rank]
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Total element count (1 for rank 0).
    pub fn numel(&self) -> usize {
        self.dims().iter().product()
    }

    /// Dimension `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rank`.
    pub fn dim(&self, i: usize) -> usize {
        self.dims()[i]
    }

    /// Batch size (dim 0 of a rank-4 shape).
    ///
    /// # Panics
    ///
    /// Panics unless the shape has rank 4.
    pub fn n(&self) -> usize {
        self.expect_rank4();
        self.dims[0]
    }

    /// Channels (dim 1 of a rank-4 shape).
    ///
    /// # Panics
    ///
    /// Panics unless the shape has rank 4.
    pub fn c(&self) -> usize {
        self.expect_rank4();
        self.dims[1]
    }

    /// Height (dim 2 of a rank-4 shape).
    ///
    /// # Panics
    ///
    /// Panics unless the shape has rank 4.
    pub fn h(&self) -> usize {
        self.expect_rank4();
        self.dims[2]
    }

    /// Width (dim 3 of a rank-4 shape).
    ///
    /// # Panics
    ///
    /// Panics unless the shape has rank 4.
    pub fn w(&self) -> usize {
        self.expect_rank4();
        self.dims[3]
    }

    /// Returns a copy with dimension `axis` replaced by `len`.
    ///
    /// # Panics
    ///
    /// Panics if `axis >= rank`.
    pub fn with_dim(&self, axis: usize, len: usize) -> Shape {
        assert!(
            axis < self.rank,
            "axis {axis} of a rank-{} shape",
            self.rank
        );
        let mut shape = self.clone();
        shape.dims[axis] = len;
        shape
    }

    /// Row-major strides (elements, not bytes).
    #[cfg(test)]
    pub(crate) fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1usize; self.rank];
        for i in (0..self.rank.saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.dims[i + 1];
        }
        strides
    }

    fn expect_rank4(&self) {
        assert_eq!(
            self.rank(),
            4,
            "NCHW accessor on a rank-{} shape {self}",
            self.rank()
        );
    }
}

impl fmt::Debug for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Shape{:?}", self.dims())
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.dims().iter().enumerate() {
            if i > 0 {
                write!(f, "x")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

impl From<Vec<usize>> for Shape {
    fn from(v: Vec<usize>) -> Shape {
        Shape::from(v.as_slice())
    }
}

impl From<&[usize]> for Shape {
    /// # Panics
    ///
    /// Panics on more than four dimensions.
    fn from(v: &[usize]) -> Shape {
        assert!(
            v.len() <= MAX_RANK,
            "a shape has at most {MAX_RANK} dimensions, not {v:?}"
        );
        let mut dims = [0; MAX_RANK];
        dims[..v.len()].copy_from_slice(v);
        Shape {
            dims,
            rank: v.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numel_and_rank() {
        let s = Shape::nchw(2, 3, 4, 5);
        assert_eq!(s.rank(), 4);
        assert_eq!(s.numel(), 120);
        assert_eq!((s.n(), s.c(), s.h(), s.w()), (2, 3, 4, 5));
    }

    #[test]
    fn strides_row_major() {
        let s = Shape::nchw(2, 3, 4, 5);
        assert_eq!(s.strides(), vec![60, 20, 5, 1]);
        let s1 = Shape::new(vec![7]);
        assert_eq!(s1.strides(), vec![1]);
    }

    #[test]
    fn with_dim() {
        let s = Shape::nchw(1, 64, 28, 28);
        let t = s.with_dim(1, 16);
        assert_eq!(t.dims(), &[1, 16, 28, 28]);
        // Original untouched.
        assert_eq!(s.c(), 64);
    }

    #[test]
    #[should_panic(expected = "rank-2")]
    fn nchw_accessor_needs_rank4() {
        Shape::new(vec![3, 4]).c();
    }

    #[test]
    fn display() {
        assert_eq!(Shape::nchw(1, 3, 224, 224).to_string(), "[1x3x224x224]");
        assert_eq!(Shape::new(Vec::new()).to_string(), "[]");
        assert_eq!(Shape::new(Vec::<usize>::new()).numel(), 1);
    }
}
