//! Interconnect links between devices.

/// A point-to-point or shared communication link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Link {
    /// Human-readable name.
    pub name: &'static str,
    /// Unidirectional bandwidth in GB/s usable by one transfer direction.
    pub bandwidth_gbs: f64,
    /// Per-message latency in microseconds (software + wire).
    pub latency_us: f64,
}

impl Link {
    /// NVLink bridge as installed in both platforms: 112.5 GB/s
    /// *bidirectional*, i.e. 56.25 GB/s per direction, with a very low
    /// per-message latency.
    pub fn nvlink_bridge() -> Link {
        Link {
            name: "NVLink bridge",
            bandwidth_gbs: 56.25,
            latency_us: 2.0,
        }
    }

    /// PCIe 4.0 x16 (fallback path when no NVLink is present):
    /// ~25 GB/s per direction after protocol overhead.
    pub fn pcie4_x16() -> Link {
        Link {
            name: "PCIe 4.0 x16",
            bandwidth_gbs: 25.0,
            latency_us: 5.0,
        }
    }

    /// 10 Gigabit Ethernet between the two Platform 2 nodes:
    /// 10 Gb/s = 1.25 GB/s, with TCP-stack latency.
    pub fn ethernet_10g() -> Link {
        Link {
            name: "10 GbE",
            bandwidth_gbs: 1.25,
            latency_us: 50.0,
        }
    }

    /// Bandwidth in bytes/second.
    #[inline]
    pub fn bandwidth_bps(&self) -> f64 {
        self.bandwidth_gbs * 1e9
    }

    /// Latency in seconds.
    #[inline]
    pub fn latency_s(&self) -> f64 {
        self.latency_us * 1e-6
    }

    /// Time in seconds to move `bytes` across this link once.
    #[inline]
    pub fn transfer_time_s(&self, bytes: u64) -> f64 {
        self.latency_s() + bytes as f64 / self.bandwidth_bps()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nvlink_is_half_of_bidirectional_spec() {
        assert_eq!(Link::nvlink_bridge().bandwidth_gbs, 112.5 / 2.0);
    }

    #[test]
    fn ethernet_much_slower_than_nvlink() {
        let ratio = Link::nvlink_bridge().bandwidth_gbs / Link::ethernet_10g().bandwidth_gbs;
        assert!(ratio > 40.0, "NVLink/10GbE ratio {ratio}");
    }

    #[test]
    fn transfer_time_includes_latency() {
        let l = Link::ethernet_10g();
        let t0 = l.transfer_time_s(0);
        assert!((t0 - 50e-6).abs() < 1e-12);
        let t1 = l.transfer_time_s(1_250_000_000);
        assert!((t1 - (1.0 + 50e-6)).abs() < 1e-9);
    }

    #[test]
    fn transfer_time_monotone_in_bytes() {
        let l = Link::nvlink_bridge();
        assert!(l.transfer_time_s(1 << 20) < l.transfer_time_s(1 << 24));
    }
}
