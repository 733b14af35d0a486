// Calibrated cost model for the simulated testbed.
//
// The paper's testbed: 4x Pentium III 700 MHz quads, 1 MB cache, 1 GB RAM,
// Alteon (Tigon2) Gigabit Ethernet NICs, Packet Engines switch, Linux
// 2.4.18.  Every constant below is charged by exactly one model component;
// the comment on each gives its provenance:
//   [paper]   stated directly in Balaji et al., Cluster 2002
//   [emp]     from the EMP papers (Shivam et al., SC'01 / IPDPS'02)
//   [era]     typical for PIII-700 / Linux 2.4 / 32-64 bit PCI hardware
//   [fit]     chosen so the reproduced figures match the paper's shape;
//             see EXPERIMENTS.md for the calibration targets.
//
// Changing a constant changes timing only — protocol correctness never
// depends on these values, and the test suite runs with several distorted
// models to prove it.
#pragma once

#include <cstdint>

#include "sim/time.hpp"

namespace ulsocks::sim {

/// Host CPU / OS costs (charged by src/oskernel).
struct HostCosts {
  /// Entering + leaving the kernel for one system call. [era]
  Duration syscall_ns = 700;
  /// OS scheduler timeslice granularity; a thread that blocks (rather than
  /// polls) observes wake-up latency of this order.  The paper cites
  /// "order of milliseconds" for the blocking-thread alternative. [paper]
  Duration sched_granularity_ns = 4'000'000;
  /// Synchronization cost between two polling threads sharing a CPU; the
  /// paper measured ~20 us for the communication-thread alternative. [paper]
  Duration thread_sync_ns = 20'000;
  /// memcpy: fixed call overhead plus per-byte cost.  ~800 MB/s warm-cache
  /// copy bandwidth on PIII-700 SDRAM. [era]
  Duration memcpy_setup_ns = 150;
  double memcpy_bytes_per_us = 800.0;
  /// Pinning + virtual->physical translation of a buffer (one syscall doing
  /// both, first touch only; later hits come from the translation cache).
  /// [emp]
  Duration pin_region_ns = 9'000;
  /// Translation-cache hit (pure user-space lookup). [emp]
  Duration pin_cache_hit_ns = 120;
  /// Uncontended user-space poll iteration on a completion queue. [fit]
  Duration poll_iteration_ns = 80;
  /// Building one descriptor in user space before posting it. [fit]
  Duration desc_build_ns = 300;
  /// Filesystem call overhead (VFS + RAM-disk block management) and
  /// filesystem data bandwidth; tuned so ftp is filesystem-limited below
  /// the socket peak, as the paper observes (§7.3). [fit]
  Duration fs_op_ns = 18'000;
  double fs_bytes_per_us = 100.0;
  /// Dense floating-point throughput of the PIII-700 running a naive
  /// matmul kernel (~2 flops per inner iteration). [era]
  double flops_per_us = 120.0;
};

/// Alteon Tigon2 NIC costs (charged by src/nic and src/emp).
struct NicCosts {
  /// Host MMIO write to the NIC mailbox (posting a descriptor). [era]
  Duration mailbox_post_ns = 700;
  /// Firmware handling of one freshly posted tx descriptor (fetch, build
  /// transmission record). [fit: EMP small-message latency]
  Duration fw_tx_post_ns = 4'500;
  /// Firmware filing of one freshly posted rx descriptor. [fit]
  Duration fw_rx_post_ns = 2'500;
  /// Firmware per-frame work: a fixed part (descriptor and reliability
  /// bookkeeping) plus a per-byte part (header/DMA programming touches the
  /// data length).  The 88 MHz Tigon cores are the protocol bottleneck:
  /// the full-frame transmit cost (~13.4 us) sets EMP's ~880 Mb/s peak,
  /// and transmit is deliberately >= effective receive cost so a sender
  /// can never build an unbounded backlog in the receiving NIC. [fit]
  Duration fw_tx_frame_ns = 6'500;
  double fw_tx_frame_per_byte_ns = 4.7;
  Duration fw_rx_frame_ns = 7'500;
  double fw_rx_frame_per_byte_ns = 3.5;
  /// Walking one pre-posted descriptor during tag matching. [paper: 550 ns]
  Duration tag_match_per_desc_ns = 550;
  /// Building/sending one ack frame (receive side) and absorbing one ack
  /// frame (transmit side). [fit]
  Duration fw_ack_tx_ns = 2'600;
  Duration fw_ack_rx_ns = 2'200;
  /// DMA engine: per-transfer setup plus per-byte cost over the host bus.
  /// 64-bit/33 MHz PCI moves ~2 bytes/ns peak; ~1.6 sustained. [era]
  Duration dma_setup_ns = 800;
  double dma_bytes_per_us = 1'600.0;
  /// Writing a completion entry to host memory. [fit]
  Duration completion_write_ns = 500;
};

/// Wire and switch characteristics (charged by src/net).
struct WireCosts {
  /// Gigabit Ethernet line rate. [paper]
  std::uint64_t link_bps = 1'000'000'000ull;
  /// Cable propagation (a few tens of metres of copper). [era]
  Duration propagation_ns = 300;
  /// Packet Engines switch: store-and-forward lookup/forwarding latency
  /// in addition to the store (serialization) time. [era]
  Duration switch_latency_ns = 2'200;
  /// Ethernet MTU payload. [paper]
  std::uint32_t mtu = 1500;
  /// Per-port output buffering in the switch. [era]
  std::uint32_t switch_port_buffer_bytes = 262'144;
};

/// Kernel TCP/IP path costs (charged by src/tcp).  These reproduce the
/// baseline: ~120 us 4-byte one-way latency, ~340 Mb/s with the default
/// 16 KB socket buffers and ~550 Mb/s with tuned buffers. [paper]
struct TcpCosts {
  /// tcp_sendmsg/tcp_recvmsg protocol processing per segment. [era]
  Duration tx_segment_ns = 8'500;
  Duration rx_segment_ns = 10'000;
  /// IP + driver (acenic) output path per packet. [era]
  Duration driver_tx_ns = 4'500;
  /// Hard IRQ entry/exit + acenic rx handling per interrupt. [era]
  Duration interrupt_ns = 9'000;
  /// Interrupt mitigation on the stock acenic driver: received frames are
  /// held up to this long before an rx interrupt fires.  Dominates the
  /// kernel path's small-message latency. [era: acenic default coalescing]
  Duration rx_coalesce_ns = 85'000;
  /// Frames arriving within the window share one interrupt.
  std::uint32_t rx_coalesce_frames = 16;
  /// Standard (non-EMP) NIC firmware store-and-forward per frame, each
  /// direction; the stock firmware is much leaner than EMP's. [era]
  Duration nic_frame_ns = 2'000;
  /// Default socket buffers (kernel memory for the NIC to use).  Linux
  /// 2.4 defaults: 16 KB send, ~43 KB receive — the paper's 340 Mb/s
  /// default case is send-buffer-limited. [paper/era]
  std::uint32_t default_sndbuf_bytes = 16'384;
  std::uint32_t default_rcvbuf_bytes = 43'689;
  /// TCP connection establishment also pays listen-queue + process wakeup
  /// work beyond the 3 segments; the paper cites 200-250 us total. [paper]
  Duration accept_overhead_ns = 35'000;
};

/// The complete machine model handed to every component.
struct CostModel {
  HostCosts host{};
  NicCosts nic{};
  WireCosts wire{};
  TcpCosts tcp{};

  /// Cost of copying `bytes` with the host CPU.
  [[nodiscard]] Duration memcpy_cost(std::uint64_t bytes) const {
    return host.memcpy_setup_ns + copy_ns(bytes, host.memcpy_bytes_per_us);
  }

  /// Cost of one DMA transfer of `bytes` between host and NIC.
  [[nodiscard]] Duration dma_cost(std::uint64_t bytes) const {
    return nic.dma_setup_ns + copy_ns(bytes, nic.dma_bytes_per_us);
  }

  /// Firmware time to transmit / receive one frame carrying `bytes`.
  [[nodiscard]] Duration fw_tx_frame_cost(std::uint64_t bytes) const {
    return nic.fw_tx_frame_ns +
           static_cast<Duration>(static_cast<double>(bytes) *
                                 nic.fw_tx_frame_per_byte_ns);
  }
  [[nodiscard]] Duration fw_rx_frame_cost(std::uint64_t bytes) const {
    return nic.fw_rx_frame_ns +
           static_cast<Duration>(static_cast<double>(bytes) *
                                 nic.fw_rx_frame_per_byte_ns);
  }
};

/// The default, calibrated model (see EXPERIMENTS.md for target numbers).
[[nodiscard]] inline CostModel calibrated_cost_model() { return CostModel{}; }

}  // namespace ulsocks::sim
