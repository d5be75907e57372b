//! Error type for the SoC models.

use std::fmt;

use utensor::DType;

use crate::device::DeviceId;

/// Errors from the SoC timing/energy models.
#[derive(Clone, Debug, PartialEq)]
pub enum SocError {
    /// A device id not present in the spec.
    UnknownDevice(DeviceId),
    /// A kernel asked a device to compute in a dtype it lacks.
    UnsupportedDtype {
        /// Device name.
        device: String,
        /// The unsupported compute dtype.
        dtype: DType,
    },
}

impl fmt::Display for SocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SocError::UnknownDevice(id) => write!(f, "unknown device {id}"),
            SocError::UnsupportedDtype { device, dtype } => {
                write!(f, "device '{device}' cannot compute in {dtype}")
            }
        }
    }
}

impl std::error::Error for SocError {}
