//! Link model: bytes on the wire → seconds of transfer time.

/// A point-to-point link between a worker and the parameter server.
///
/// Transfer time is the usual first-order model
/// `latency + bytes / bandwidth`. The paper evaluates 10 Gbps and 1 Gbps
/// Ethernet; [`NetworkModel::ten_gbps`] and [`NetworkModel::one_gbps`]
/// reproduce those settings with a LAN-typical latency.
///
/// ```
/// use dgs_psim::NetworkModel;
///
/// let lan = NetworkModel::one_gbps();
/// // A 46 MB ResNet-18 model takes ~0.37 s at 1 Gbps.
/// let t = lan.transfer_time(46_000_000);
/// assert!(t > 0.3 && t < 0.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkModel {
    /// Link bandwidth in bits per second.
    pub bandwidth_bps: f64,
    /// One-way latency in seconds per message.
    pub latency_s: f64,
}

impl NetworkModel {
    /// Creates a link from a bandwidth in Gbps and latency in microseconds.
    pub fn new(bandwidth_gbps: f64, latency_us: f64) -> Self {
        assert!(bandwidth_gbps > 0.0, "bandwidth must be positive");
        assert!(latency_us >= 0.0, "latency must be non-negative");
        NetworkModel { bandwidth_bps: bandwidth_gbps * 1e9, latency_s: latency_us * 1e-6 }
    }

    /// The paper's 10 Gbps Ethernet LAN setting.
    pub fn ten_gbps() -> Self {
        NetworkModel::new(10.0, 50.0)
    }

    /// The paper's throttled 1 Gbps setting (Fig. 5, Fig. 6).
    pub fn one_gbps() -> Self {
        NetworkModel::new(1.0, 50.0)
    }

    /// An effectively infinite link, for isolating compute scaling.
    pub fn infinite() -> Self {
        NetworkModel { bandwidth_bps: f64::INFINITY, latency_s: 0.0 }
    }

    /// Seconds to move `bytes` across the link.
    pub fn transfer_time(&self, bytes: usize) -> f64 {
        self.latency_s + (bytes as f64 * 8.0) / self.bandwidth_bps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_linear_in_bytes() {
        let net = NetworkModel::new(1.0, 0.0); // 1 Gbps, no latency
                                               // 125 MB at 1 Gbps = 1 second.
        assert!((net.transfer_time(125_000_000) - 1.0).abs() < 1e-9);
        assert!((net.transfer_time(0)).abs() < 1e-12);
    }

    #[test]
    fn latency_additive() {
        let net = NetworkModel::new(10.0, 100.0);
        let t = net.transfer_time(0);
        assert!((t - 100e-6).abs() < 1e-12);
        assert!(net.transfer_time(1000) > t);
    }

    #[test]
    fn presets_ordered() {
        let b = 46_000_000usize; // ~ResNet-18 parameter bytes
        assert!(
            NetworkModel::one_gbps().transfer_time(b) > NetworkModel::ten_gbps().transfer_time(b)
        );
        assert_eq!(NetworkModel::infinite().transfer_time(b), 0.0);
    }

    #[test]
    #[should_panic(expected = "bandwidth")]
    fn zero_bandwidth_rejected() {
        NetworkModel::new(0.0, 1.0);
    }
}
