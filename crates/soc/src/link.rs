//! Typed interconnect between the devices of a [`crate::SocSpec`].
//!
//! The original μLayer SoCs join every processor through zero-copy
//! shared DRAM, so inter-device data movement costs only the map/unmap
//! overheads of [`crate::Overheads`]. Networked-split scenarios ("Split
//! CNN Inference on Networked Microcontrollers") break that assumption:
//! devices exchange tensors over serial links with real bandwidth,
//! per-transfer base latency, and per-packet framing overhead — and the
//! link, not the device, becomes the dominant failure domain.
//!
//! A [`Link`] types one edge of the device graph; [`LinkSpec`] binds it
//! to a device pair. A spec with an empty link table keeps the legacy
//! semantics: every device pair shares memory (zero-cost transfers), so
//! all pre-existing SoC presets are byte-identical. A non-empty table
//! makes connectivity explicit: only listed pairs are joined, routes are
//! found by BFS over the table, and transfers across `Network` links pay
//! `base_latency + wire_bytes / bandwidth` per hop (store-and-forward).

use std::fmt;

use simcore::SimSpan;

use crate::device::DeviceId;

/// Per-packet framing overhead of a network link, bytes (headers,
/// checksums — kept fixed so transfer spans are deterministic).
pub(crate) const PACKET_HEADER_BYTES: u64 = 48;

/// How two devices of a spec exchange tensor data.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Link {
    /// Zero-copy shared memory: transfers are free (map/unmap costs are
    /// modeled separately by [`crate::Overheads`]).
    SharedMemory,
    /// A serial network link (SPI, Ethernet, a radio): every transfer
    /// pays the base latency once, plus serialization of the payload
    /// and per-MTU-packet framing overhead.
    Network {
        /// Link bandwidth, megabits per second.
        bandwidth_mbps: f64,
        /// Fixed per-transfer latency (propagation + stack), µs.
        base_latency_us: f64,
        /// Maximum transmission unit, bytes per packet.
        mtu_bytes: usize,
    },
}

impl Link {
    /// True for a `Network` link (a potential fault domain with a
    /// non-zero transfer cost).
    pub(crate) fn is_network(&self) -> bool {
        matches!(self, Link::Network { .. })
    }

    /// The span of moving `bytes` across this link, one hop.
    ///
    /// Shared memory is free. A network link pays its base latency plus
    /// wire time for the payload and `ceil(bytes / mtu)` packet headers
    /// of [`PACKET_HEADER_BYTES`] each — so a smaller MTU makes the same
    /// payload measurably slower.
    pub fn transfer_span(&self, bytes: u64) -> SimSpan {
        match *self {
            Link::SharedMemory => SimSpan::ZERO,
            Link::Network {
                bandwidth_mbps,
                base_latency_us,
                mtu_bytes,
            } => {
                let mtu = (mtu_bytes as u64).max(1);
                let packets = bytes.div_ceil(mtu).max(1);
                let wire_bytes = bytes + packets * PACKET_HEADER_BYTES;
                let wire_s = (wire_bytes * 8) as f64 / (bandwidth_mbps.max(1e-3) * 1e6);
                SimSpan::from_secs_f64(base_latency_us * 1e-6 + wire_s)
            }
        }
    }
}

impl fmt::Display for Link {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Link::SharedMemory => write!(f, "shared-memory"),
            Link::Network {
                bandwidth_mbps,
                base_latency_us,
                mtu_bytes,
            } => write!(
                f,
                "network({bandwidth_mbps} Mbps, {base_latency_us} us, mtu {mtu_bytes})"
            ),
        }
    }
}

/// One edge of the device interconnect graph (undirected).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkSpec {
    /// One endpoint.
    pub a: DeviceId,
    /// The other endpoint.
    pub b: DeviceId,
    /// The link joining them.
    pub link: Link,
}

impl LinkSpec {
    /// The endpoint opposite `d`, if `d` is an endpoint at all.
    pub fn other_end(&self, d: DeviceId) -> Option<DeviceId> {
        if self.a == d {
            Some(self.b)
        } else if self.b == d {
            Some(self.a)
        } else {
            None
        }
    }

    /// The scheduler-resource name of this link (`link:a-b`).
    pub fn resource_name(&self) -> String {
        format!("link:{}-{}", self.a.0, self.b.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_memory_transfers_are_free() {
        assert_eq!(Link::SharedMemory.transfer_span(1 << 30), SimSpan::ZERO);
    }

    #[test]
    fn network_transfer_pays_latency_plus_wire_time() {
        let link = Link::Network {
            bandwidth_mbps: 100.0,
            base_latency_us: 500.0,
            mtu_bytes: 1500,
        };
        // Zero bytes still costs the base latency plus one header.
        let empty = link.transfer_span(0);
        assert!(empty >= SimSpan::from_micros(500), "{empty}");
        // 1 MB at 100 Mbps is ~80 ms of wire time; base latency is noise.
        let big = link.transfer_span(1_000_000).as_secs_f64();
        assert!((big - 0.08).abs() / 0.08 < 0.05, "{big}");
        // Monotone in bytes.
        assert!(link.transfer_span(2_000_000) > link.transfer_span(1_000_000));
    }

    #[test]
    fn smaller_mtu_costs_more_headers() {
        let wide = Link::Network {
            bandwidth_mbps: 10.0,
            base_latency_us: 0.0,
            mtu_bytes: 1500,
        };
        let narrow = Link::Network {
            bandwidth_mbps: 10.0,
            base_latency_us: 0.0,
            mtu_bytes: 64,
        };
        assert!(narrow.transfer_span(100_000) > wide.transfer_span(100_000));
    }

    #[test]
    fn link_spec_is_undirected() {
        let l = LinkSpec {
            a: DeviceId(0),
            b: DeviceId(2),
            link: Link::SharedMemory,
        };
        assert_eq!(l.other_end(DeviceId(0)), Some(DeviceId(2)));
        assert_eq!(l.other_end(DeviceId(2)), Some(DeviceId(0)));
        assert_eq!(l.other_end(DeviceId(1)), None);
        assert_eq!(l.resource_name(), "link:0-2");
    }
}
