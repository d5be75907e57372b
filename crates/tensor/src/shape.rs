//! Dense tensor shapes.

use std::fmt;

/// The shape of a dense row-major tensor.
///
/// Activations use NCHW order (`[batch, channels, height, width]`);
/// convolution filters use OIHW (`[out_channels, in_channels, kh, kw]`).
/// Output-channel slicing — the core of the channel-wise workload
/// distribution — is therefore axis 1 for activations and axis 0 for
/// filters.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Shape(Vec<usize>);

impl Shape {
    /// Creates a shape from dimensions.
    pub fn new(dims: impl Into<Vec<usize>>) -> Shape {
        Shape(dims.into())
    }

    /// A 4-D NCHW activation shape.
    pub fn nchw(n: usize, c: usize, h: usize, w: usize) -> Shape {
        Shape(vec![n, c, h, w])
    }

    /// A 4-D OIHW filter shape.
    pub fn oihw(o: usize, i: usize, h: usize, w: usize) -> Shape {
        Shape(vec![o, i, h, w])
    }

    /// The dimensions.
    pub fn dims(&self) -> &[usize] {
        &self.0
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// Total element count (1 for rank 0).
    pub fn numel(&self) -> usize {
        self.0.iter().product()
    }

    /// Dimension `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rank`.
    pub fn dim(&self, i: usize) -> usize {
        self.0[i]
    }

    /// Batch size (dim 0 of a rank-4 shape).
    ///
    /// # Panics
    ///
    /// Panics unless the shape has rank 4.
    pub fn n(&self) -> usize {
        self.expect_rank4();
        self.0[0]
    }

    /// Channels (dim 1 of a rank-4 shape).
    ///
    /// # Panics
    ///
    /// Panics unless the shape has rank 4.
    pub fn c(&self) -> usize {
        self.expect_rank4();
        self.0[1]
    }

    /// Height (dim 2 of a rank-4 shape).
    ///
    /// # Panics
    ///
    /// Panics unless the shape has rank 4.
    pub fn h(&self) -> usize {
        self.expect_rank4();
        self.0[2]
    }

    /// Width (dim 3 of a rank-4 shape).
    ///
    /// # Panics
    ///
    /// Panics unless the shape has rank 4.
    pub fn w(&self) -> usize {
        self.expect_rank4();
        self.0[3]
    }

    /// Returns a copy with dimension `axis` replaced by `len`.
    ///
    /// # Panics
    ///
    /// Panics if `axis >= rank`.
    pub fn with_dim(&self, axis: usize, len: usize) -> Shape {
        let mut dims = self.0.clone();
        dims[axis] = len;
        Shape(dims)
    }

    /// Row-major strides (elements, not bytes).
    #[cfg(test)]
    pub(crate) fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1usize; self.0.len()];
        for i in (0..self.0.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.0[i + 1];
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
        write!(f, "Shape{:?}", self.0)
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.0.iter().enumerate() {
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
        Shape(v)
    }
}

impl From<&[usize]> for Shape {
    fn from(v: &[usize]) -> Shape {
        Shape(v.to_vec())
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
