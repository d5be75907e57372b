//! The borrowed views every layer kernel reads and writes: channel
//! narrowing without copies, the typed error for a cut that would need
//! strides, disjoint writable channel ranges, and conversion into place.

use utensor::{DType, QuantParams, Shape, Tensor, TensorError, ViewDataMut, F16};

fn seq(shape: Shape) -> Tensor {
    let n = shape.numel();
    Tensor::from_f32(shape, (0..n).map(|i| i as f32).collect()).unwrap()
}

#[test]
fn narrow_is_slice_axis_without_the_copy() {
    let t = seq(Shape::nchw(1, 5, 2, 3));
    for (lo, hi) in [(0, 5), (1, 4), (2, 2), (4, 5)] {
        let v = t.view().narrow(1, lo..hi).unwrap();
        assert!(Tensor::from(v).bit_equal(&t.slice_axis(1, lo, hi).unwrap()));
    }
    let f = seq(Shape::oihw(6, 2, 3, 3));
    let rows = f.view().narrow(0, 2..5).unwrap();
    assert!(Tensor::from(rows).bit_equal(&f.slice_axis(0, 2, 5).unwrap()));
}

#[test]
fn narrowing_a_batch_is_a_typed_error() {
    let t = seq(Shape::nchw(2, 4, 1, 1));
    assert!(matches!(
        t.view().narrow(1, 1..3).unwrap_err(),
        TensorError::Strided { axis: 1, .. }
    ));
    // The whole axis is the whole buffer, batch or not.
    assert!(t.view().narrow(1, 0..4).is_ok());
    assert!(matches!(
        t.view().narrow(1, 2..9).unwrap_err(),
        TensorError::BadRange { .. }
    ));
    assert!(matches!(
        t.view().narrow(4, 0..1).unwrap_err(),
        TensorError::BadAxis { .. }
    ));
}

#[test]
fn split_ranges_hands_out_disjoint_channels() {
    let mut t = Tensor::zeros(Shape::nchw(1, 7, 2, 1), DType::F32, None);
    {
        let mut v = t.view_mut();
        let pieces = v.split_ranges(1, &[0..2, 3..3, 3..7]).unwrap();
        assert_eq!(pieces.len(), 3);
        for (i, mut piece) in pieces.into_iter().enumerate() {
            if let ViewDataMut::F32(o) = &mut piece.data {
                o.fill(i as f32 + 1.0);
            }
        }
    }
    // Channel 2 lay in the gap and kept its zeros.
    assert_eq!(
        t.as_f32().unwrap(),
        &[1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 3.0, 3.0, 3.0, 3.0, 3.0, 3.0, 3.0, 3.0]
    );
    let mut v = t.view_mut();
    for bad in [[0..2, 1..3], [0..4, 4..8]] {
        assert!(matches!(
            v.split_ranges(1, &bad).unwrap_err(),
            TensorError::BadRange { .. }
        ));
    }
}

#[test]
fn convert_from_writes_each_element_by_its_definition() {
    let p = QuantParams::from_range(-3.0, 20.0).unwrap();
    let t = seq(Shape::nchw(1, 3, 2, 2));
    let mut q = Tensor::zeros(t.shape().clone(), DType::QUInt8, Some(p));
    q.view_mut().convert_from(&t.view()).unwrap();
    let codes: Vec<u8> = t.as_f32().unwrap().iter().map(|&v| p.quantize(v)).collect();
    assert_eq!(q.as_quint8().unwrap(), (&codes[..], p));
    let mut h = Tensor::zeros(t.shape().clone(), DType::F16, None);
    h.view_mut().convert_from(&q.view()).unwrap();
    let halves: Vec<F16> = codes
        .iter()
        .map(|&c| F16::from_f32(p.dequantize(c)))
        .collect();
    assert_eq!(h.as_f16().unwrap(), &halves[..]);
    let mut wrong = Tensor::zeros(Shape::nchw(1, 2, 2, 2), DType::F32, None);
    assert!(matches!(
        wrong.view_mut().convert_from(&t.view()).unwrap_err(),
        TensorError::ShapeMismatch { .. }
    ));
}
