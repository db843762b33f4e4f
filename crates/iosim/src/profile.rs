//! Performance profiles of the storage and transfer substrates.

use serde::{Deserialize, Serialize};
use sss_units::{Rate, TimeDelta};

/// A parallel file system's per-client performance profile.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PfsProfile {
    /// Metadata latency charged per file (create + open + close, as seen
    /// by one client).
    pub metadata_latency: TimeDelta,
    /// Streaming write bandwidth available to this workflow.
    pub write_bw: Rate,
    /// Streaming read bandwidth available to this workflow.
    pub read_bw: Rate,
}

impl PfsProfile {
    /// Validate: positive finite bandwidths, non-negative latency.
    pub fn validate(&self) -> Result<(), String> {
        let positive_finite = |bw: Rate| bw.as_bytes_per_sec() > 0.0 && bw.is_finite();
        if !(positive_finite(self.write_bw) && positive_finite(self.read_bw)) {
            return Err("PFS bandwidths must be positive and finite".into());
        }
        if self.metadata_latency.is_sign_negative() {
            return Err("metadata latency must be non-negative".into());
        }
        Ok(())
    }
}

/// A data-transfer-node (Globus-style) tool profile.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DtnProfile {
    /// Fixed cost per file: control-channel exchange, transfer task
    /// setup, checksum handshake. The published small-file pathology of
    /// checksummed DTN transfers is on the order of a second per file.
    pub startup_per_file: TimeDelta,
    /// Integrity-verification throughput (both ends read and hash the
    /// file); charged per byte.
    pub checksum_rate: Rate,
    /// Concurrent file transfers the DTN runs.
    pub concurrency: u32,
}

impl DtnProfile {
    /// Validate invariants.
    pub fn validate(&self) -> Result<(), String> {
        if self.startup_per_file.is_sign_negative() {
            return Err("per-file startup must be non-negative".into());
        }
        if self.checksum_rate.as_bytes_per_sec() <= 0.0 {
            return Err("checksum rate must be positive".into());
        }
        if self.concurrency == 0 {
            return Err("DTN concurrency must be at least 1".into());
        }
        Ok(())
    }
}

/// Wide-area (or cross-facility LAN) network profile.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WanProfile {
    /// Achievable network bandwidth between the facilities.
    pub bandwidth: Rate,
    /// Round-trip time.
    pub rtt: TimeDelta,
    /// Fixed per-message overhead for streaming frames (framing,
    /// serialization); zero wire time is charged for it.
    pub per_message_overhead: TimeDelta,
}

impl WanProfile {
    /// Validate invariants.
    pub fn validate(&self) -> Result<(), String> {
        if self.bandwidth.as_bytes_per_sec() <= 0.0 {
            return Err("WAN bandwidth must be positive".into());
        }
        if self.rtt.is_sign_negative() || self.per_message_overhead.is_sign_negative() {
            return Err("WAN latencies must be non-negative".into());
        }
        Ok(())
    }
}

/// The full file-based path: local PFS → DTN → WAN → remote PFS.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PathProfile {
    /// Source-side file system (where the instrument writes).
    pub local: PfsProfile,
    /// Transfer tool.
    pub dtn: DtnProfile,
    /// Network between the facilities.
    pub wan: WanProfile,
    /// Destination file system.
    pub remote: PfsProfile,
}

impl PathProfile {
    /// Validate all components.
    pub fn validate(&self) -> Result<(), String> {
        self.local.validate()?;
        self.dtn.validate()?;
        self.wan.validate()?;
        self.remote.validate()
    }
}

/// Calibrated presets for the paper's Figure 4 scenario.
pub mod presets {
    use super::*;

    /// APS *Voyager* GPFS: campus production file system. Metadata ops in
    /// the ~10 ms range per file for a single client; ample streaming
    /// bandwidth for one beamline's scan.
    pub fn voyager_gpfs() -> PfsProfile {
        PfsProfile {
            metadata_latency: TimeDelta::from_millis(10.0),
            write_bw: Rate::from_gigabytes_per_sec(30.0),
            read_bw: Rate::from_gigabytes_per_sec(30.0),
        }
    }

    /// ALCF *Eagle* Lustre: leadership-facility community file system.
    pub fn eagle_lustre() -> PfsProfile {
        PfsProfile {
            metadata_latency: TimeDelta::from_millis(10.0),
            write_bw: Rate::from_gigabytes_per_sec(50.0),
            read_bw: Rate::from_gigabytes_per_sec(50.0),
        }
    }

    /// Checksummed production DTN transfer (Globus-style): ~0.9 s fixed
    /// cost per file task and a 2.5 GB/s verification pipeline, one file
    /// task in flight — the configuration that reproduces the measured
    /// small-file collapse of Figure 4.
    pub fn globus_dtn() -> DtnProfile {
        DtnProfile {
            startup_per_file: TimeDelta::from_millis(900.0),
            checksum_rate: Rate::from_gigabytes_per_sec(2.5),
            concurrency: 1,
        }
    }

    /// APS↔ALCF connectivity: both on the Argonne campus — 100 Gbps and
    /// ~1 ms RTT; 100 µs per-message framing cost for streamed frames.
    pub fn aps_alcf_wan() -> WanProfile {
        WanProfile {
            bandwidth: Rate::from_gbps(100.0),
            rtt: TimeDelta::from_millis(1.0),
            per_message_overhead: TimeDelta::from_micros(100.0),
        }
    }

    /// The full Figure 4 file-based path: Voyager → DTN → campus network
    /// → Eagle.
    pub fn aps_to_alcf() -> PathProfile {
        PathProfile {
            local: voyager_gpfs(),
            dtn: globus_dtn(),
            wan: aps_alcf_wan(),
            remote: eagle_lustre(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        presets::aps_to_alcf().validate().unwrap();
        presets::aps_alcf_wan().validate().unwrap();
    }

    #[test]
    fn invalid_profiles_rejected() {
        let mut p = presets::voyager_gpfs();
        p.write_bw = Rate::ZERO;
        assert!(p.validate().is_err());
        // The file pipeline's writer is a trace at the write bandwidth,
        // which must be a finite rate.
        for bw in [f64::INFINITY, f64::NAN] {
            p.write_bw = Rate::from_bytes_per_sec(bw);
            assert!(p.validate().is_err(), "write bandwidth {bw}");
        }

        let mut d = presets::globus_dtn();
        d.concurrency = 0;
        assert!(d.validate().is_err());

        let mut w = presets::aps_alcf_wan();
        w.bandwidth = Rate::ZERO;
        assert!(w.validate().is_err());

        let mut d2 = presets::globus_dtn();
        d2.checksum_rate = Rate::ZERO;
        assert!(d2.validate().is_err());
    }

    #[test]
    fn wan_is_100g() {
        assert!((presets::aps_alcf_wan().bandwidth.as_gbps() - 100.0).abs() < 1e-9);
    }
}
