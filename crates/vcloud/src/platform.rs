//! Virtualization platforms and their calibrated behaviour models.
//!
//! The appendix of the paper fixes the hardware: dual Xeon E5430 hosts with
//! 1 GbE, one single-core 2 GB VM per host, Eucalyptus-provisioned XEN and
//! KVM guests (full- and para-virtualized), plus `m1.small` instances on
//! Amazon EC2. Every constant below is calibrated against the paper's
//! Section II measurements (Figures 1–3) and appendix; they parameterize
//! the [`crate::experiments`] generators and the transfer pipeline.

use crate::cpu::{CpuAccuracyModel, CpuBreakdown};
use crate::fluctuation::{Ar1, Constant, Fluctuation, OnOff};

/// The platforms evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Platform {
    /// Unvirtualized host (baseline in Figs. 2–3).
    Native,
    /// KVM with unmodified (emulated e1000/scsi) device drivers.
    KvmFull,
    /// KVM with virtio network/block drivers — the platform the paper's
    /// Section IV evaluation runs on.
    KvmPara,
    /// XEN with paravirtual xennet/xenblk drivers.
    XenPara,
    /// Amazon EC2 `m1.small` (host side unobservable).
    Ec2,
}

/// The four I/O operations of Figure 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoOp {
    NetSend,
    NetRecv,
    FileWrite,
    FileRead,
}

impl IoOp {
    pub const ALL: [IoOp; 4] = [IoOp::NetSend, IoOp::NetRecv, IoOp::FileWrite, IoOp::FileRead];

    pub fn name(self) -> &'static str {
        match self {
            IoOp::NetSend => "network send",
            IoOp::NetRecv => "network receive",
            IoOp::FileWrite => "file write",
            IoOp::FileRead => "file read",
        }
    }
}

impl Platform {
    pub const ALL: [Platform; 5] =
        [Platform::Native, Platform::KvmFull, Platform::KvmPara, Platform::XenPara, Platform::Ec2];

    pub fn name(self) -> &'static str {
        match self {
            Platform::Native => "Native",
            Platform::KvmFull => "KVM (Full Virtualization)",
            Platform::KvmPara => "KVM (Paravirtualization)",
            Platform::XenPara => "XEN (Paravirtualization)",
            Platform::Ec2 => "Amazon EC2",
        }
    }

    pub fn short_name(self) -> &'static str {
        match self {
            Platform::Native => "native",
            Platform::KvmFull => "kvm-full",
            Platform::KvmPara => "kvm-para",
            Platform::XenPara => "xen-para",
            Platform::Ec2 => "ec2",
        }
    }

    /// Guest-displayed vs host-accounted CPU utilization for one I/O
    /// operation, calibrated from Figure 1. `Native` returns an identical
    /// pair (no virtualization layer to hide work in).
    pub fn cpu_accuracy(self, op: IoOp) -> CpuAccuracyModel {
        use IoOp::*;
        let (guest, host) = match (self, op) {
            // ---- Network send (Fig. 1a) -------------------------------
            // KVM-para: the guest believes the CPU is nearly idle while
            // the host's qemu/vhost threads burn more than a core: the
            // paper's headline "factor 15" case.
            (Platform::KvmPara, NetSend) => (
                CpuBreakdown::new(2.0, 4.0, 0.0, 2.0, 0.0),
                Some(CpuBreakdown::new(12.0, 88.0, 6.0, 14.0, 0.0)),
            ),
            (Platform::KvmFull, NetSend) => (
                CpuBreakdown::new(6.0, 62.0, 3.0, 14.0, 0.0),
                Some(CpuBreakdown::new(10.0, 78.0, 5.0, 17.0, 0.0)),
            ),
            (Platform::XenPara, NetSend) => (
                CpuBreakdown::new(3.0, 24.0, 0.0, 6.0, 4.0),
                Some(CpuBreakdown::new(4.0, 32.0, 2.0, 8.0, 0.0)),
            ),
            (Platform::Ec2, NetSend) => (CpuBreakdown::new(4.0, 16.0, 0.0, 5.0, 8.0), None),

            // ---- Network receive (Fig. 1b) ----------------------------
            (Platform::KvmPara, NetRecv) => (
                CpuBreakdown::new(3.0, 9.0, 0.0, 6.0, 0.0),
                Some(CpuBreakdown::new(14.0, 96.0, 7.0, 21.0, 0.0)),
            ),
            (Platform::KvmFull, NetRecv) => (
                CpuBreakdown::new(8.0, 74.0, 4.0, 30.0, 0.0),
                Some(CpuBreakdown::new(12.0, 92.0, 8.0, 28.0, 0.0)),
            ),
            (Platform::XenPara, NetRecv) => (
                CpuBreakdown::new(3.0, 30.0, 0.0, 12.0, 6.0),
                Some(CpuBreakdown::new(5.0, 42.0, 3.0, 14.0, 0.0)),
            ),
            (Platform::Ec2, NetRecv) => (CpuBreakdown::new(4.0, 20.0, 0.0, 9.0, 10.0), None),

            // ---- File write (Fig. 1c) ---------------------------------
            (Platform::KvmPara, FileWrite) => (
                CpuBreakdown::new(1.0, 6.0, 0.0, 1.0, 0.0),
                Some(CpuBreakdown::new(4.0, 27.0, 2.0, 3.0, 0.0)),
            ),
            (Platform::KvmFull, FileWrite) => (
                CpuBreakdown::new(2.0, 16.0, 1.0, 2.0, 0.0),
                Some(CpuBreakdown::new(5.0, 38.0, 3.0, 4.0, 0.0)),
            ),
            (Platform::XenPara, FileWrite) => (
                CpuBreakdown::new(1.0, 11.0, 0.0, 1.0, 2.0),
                Some(CpuBreakdown::new(3.0, 24.0, 1.0, 2.0, 0.0)),
            ),
            (Platform::Ec2, FileWrite) => (CpuBreakdown::new(2.0, 17.0, 0.0, 2.0, 4.0), None),

            // ---- File read (Fig. 1d) ----------------------------------
            // XEN: the paper's other factor-15 case — the guest shows a
            // near-idle CPU while dom0 does the real work.
            (Platform::XenPara, FileRead) => (
                CpuBreakdown::new(0.5, 1.8, 0.0, 0.4, 0.3),
                Some(CpuBreakdown::new(6.0, 32.0, 3.0, 4.0, 0.0)),
            ),
            (Platform::KvmPara, FileRead) => (
                CpuBreakdown::new(2.0, 7.0, 0.0, 1.0, 0.0),
                Some(CpuBreakdown::new(5.0, 30.0, 3.0, 4.0, 0.0)),
            ),
            (Platform::KvmFull, FileRead) => (
                CpuBreakdown::new(3.0, 11.0, 1.0, 1.0, 0.0),
                Some(CpuBreakdown::new(6.0, 34.0, 3.0, 4.0, 0.0)),
            ),
            (Platform::Ec2, FileRead) => (CpuBreakdown::new(2.0, 12.0, 0.0, 2.0, 5.0), None),

            // ---- Native baseline --------------------------------------
            (Platform::Native, op) => {
                let b = match op {
                    NetSend => CpuBreakdown::new(8.0, 55.0, 4.0, 12.0, 0.0),
                    NetRecv => CpuBreakdown::new(9.0, 62.0, 5.0, 18.0, 0.0),
                    FileWrite => CpuBreakdown::new(3.0, 22.0, 2.0, 2.0, 0.0),
                    FileRead => CpuBreakdown::new(4.0, 26.0, 2.0, 3.0, 0.0),
                };
                (b, Some(b))
            }
        };
        CpuAccuracyModel { guest, host }
    }

    /// Nominal network throughput seen by a single sender on this platform
    /// with no co-located traffic, in bytes/second (application layer,
    /// Fig. 2 medians). The wire is 1 GbE everywhere; the virtualization
    /// stack eats different shares of it.
    pub fn net_bandwidth_bps(self) -> f64 {
        match self {
            Platform::Native => 117.0e6,
            Platform::KvmFull => 65.0e6,
            Platform::KvmPara => 100.0e6,
            Platform::XenPara => 111.0e6,
            Platform::Ec2 => 95.0e6,
        }
    }

    /// Fluctuation process for network throughput (Fig. 2 spreads): local
    /// platforms fluctuate only marginally more than native; EC2 swings
    /// violently.
    pub fn net_fluctuation(self, seed: u64) -> Box<dyn Fluctuation> {
        match self {
            Platform::Native => Box::new(Ar1::new(0.80, 0.004, 0.05, seed)),
            Platform::KvmFull => Box::new(Ar1::new(0.90, 0.022, 0.05, seed)),
            Platform::KvmPara => Box::new(Ar1::new(0.90, 0.015, 0.05, seed)),
            Platform::XenPara => Box::new(Ar1::new(0.88, 0.012, 0.05, seed)),
            Platform::Ec2 => Box::new(OnOff::ec2(seed)),
        }
    }

    /// Constant-factor process (for tests needing determinism).
    pub fn no_fluctuation() -> Box<dyn Fluctuation> {
        Box::new(Constant)
    }

    /// Raw disk streaming write bandwidth in bytes/second (Barracuda ES.2
    /// era disk behind the respective storage virtualization).
    pub fn disk_write_bps(self) -> f64 {
        match self {
            Platform::Native => 85.0e6,
            Platform::KvmFull => 68.0e6,
            Platform::KvmPara => 76.0e6,
            Platform::XenPara => 72.0e6,
            Platform::Ec2 => 62.0e6,
        }
    }

    /// Whether writes to the virtual disk are absorbed by the *host's* page
    /// cache in write-back mode — the XEN configuration whose "tremendous
    /// caching effects" (Fig. 3) made the paper exclude file I/O from the
    /// adaptive evaluation.
    pub fn host_writeback_cache(self) -> bool {
        matches!(self, Platform::XenPara)
    }

    /// Relative jitter of disk throughput samples (Fig. 3 spreads,
    /// cache effects excluded).
    pub fn disk_jitter(self) -> f64 {
        match self {
            Platform::Native => 0.04,
            Platform::KvmFull => 0.10,
            Platform::KvmPara => 0.08,
            Platform::XenPara => 0.08,
            Platform::Ec2 => 0.16,
        }
    }
}

impl std::fmt::Display for Platform {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_platform_op_pair_has_a_model() {
        for p in Platform::ALL {
            for op in IoOp::ALL {
                let m = p.cpu_accuracy(op);
                assert!(m.guest.total() > 0.0, "{p} {op:?}");
            }
        }
    }

    #[test]
    fn native_has_no_display_gap() {
        for op in IoOp::ALL {
            let m = Platform::Native.cpu_accuracy(op);
            let gap = m.gap().unwrap();
            assert!((gap - 1.0).abs() < 1e-9, "{op:?} gap {gap}");
        }
    }

    #[test]
    fn headline_gaps_are_over_ten_x() {
        // The paper: "the gap can grow up to a factor of 15" for KVM-para
        // network send and XEN file read.
        let send = Platform::KvmPara.cpu_accuracy(IoOp::NetSend).gap().unwrap();
        assert!(send > 10.0, "KVM-para net send gap {send}");
        let read = Platform::XenPara.cpu_accuracy(IoOp::FileRead).gap().unwrap();
        assert!(read > 10.0, "XEN file read gap {read}");
    }

    #[test]
    fn small_gap_cases_stay_small() {
        // "for some I/O operations the discrepancy is rather small (e.g.
        // network send using KVM (full virt.) or XEN)".
        let kf = Platform::KvmFull.cpu_accuracy(IoOp::NetSend).gap().unwrap();
        let xen = Platform::XenPara.cpu_accuracy(IoOp::NetSend).gap().unwrap();
        assert!(kf < 2.0, "KVM-full gap {kf}");
        assert!(xen < 2.0, "XEN gap {xen}");
    }

    #[test]
    fn ec2_host_side_unobservable() {
        for op in IoOp::ALL {
            assert!(Platform::Ec2.cpu_accuracy(op).host.is_none());
        }
    }

    #[test]
    fn virtualized_guests_underreport() {
        for p in [Platform::KvmFull, Platform::KvmPara, Platform::XenPara] {
            for op in IoOp::ALL {
                let g = p.cpu_accuracy(op).gap().unwrap();
                assert!(g > 1.0, "{p} {op:?} should under-report, gap {g}");
            }
        }
    }

    #[test]
    fn native_is_fastest_network() {
        for p in [Platform::KvmFull, Platform::KvmPara, Platform::XenPara, Platform::Ec2] {
            assert!(p.net_bandwidth_bps() < Platform::Native.net_bandwidth_bps());
        }
    }

    #[test]
    fn only_xen_has_writeback_cache() {
        assert!(Platform::XenPara.host_writeback_cache());
        for p in [Platform::Native, Platform::KvmFull, Platform::KvmPara, Platform::Ec2] {
            assert!(!p.host_writeback_cache());
        }
    }
}
