// Substrate configuration: every knob the paper evaluates.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>

namespace ulsocks::sockets {

/// How unexpected message arrivals are handled (paper §5.2).
enum class FlowControl : std::uint8_t {
  /// Eager with credit-based flow control (§5.2 + §6.1): the adopted
  /// default.  2N descriptors backed by temporary buffers absorb up to N
  /// outstanding writes.
  kEagerCredits,
  /// Rendezvous (§5.2): request/grant/data per message.  Zero-copy, but
  /// message-per-read semantics and deadlock-prone under mutual writes
  /// (Figure 7) — the deadlock is the application's to avoid.
  kRendezvous,
  /// Separate communication thread (§5.2, rejected alternative): kept for
  /// the ablation bench.  Adds the measured ~20 us polling-thread
  /// synchronization cost to every socket call.
  kCommThread,
};

struct SubstrateConfig {
  /// Flow-control credits N (§6.1).  The paper's micro-benchmarks use 32;
  /// the web server uses 4.
  std::uint32_t credits = 32;
  /// Temporary (staging) buffer size per credit; 64 KB in the paper.
  std::uint32_t buffer_bytes = 65'536;
  /// Data streaming (§6.2): TCP-style byte-stream reads.  Disabling it
  /// selects Datagram sockets: message-boundary reads, and writes larger
  /// than buffer_bytes switch to zero-copy rendezvous.
  bool data_streaming = true;
  FlowControl flow = FlowControl::kEagerCredits;
  /// Delayed acknowledgments (§6.3): send a credit ack only after half the
  /// credits have been consumed, shrinking the ack-descriptor fraction the
  /// NIC walks during tag matching.
  bool delayed_acks = true;
  /// Keep acknowledgment buffers on the EMP unexpected queue (§6.4) so
  /// data descriptors are matched first.  Streaming sockets with this set
  /// also piggy-back credit returns on reverse-direction data (§6.1).
  bool unexpected_queue_acks = true;

  /// Messages the receiver consumes between explicit credit acks.
  [[nodiscard]] std::uint32_t ack_every() const {
    return delayed_acks ? (credits >= 2 ? credits / 2 : 1) : 1;
  }

  /// Control descriptors pre-posted alongside the N data descriptors (the
  /// "2N" of §6.1).  With delayed acks at most two acks are in flight;
  /// with the unexpected queue none are pre-posted at all.
  [[nodiscard]] std::uint32_t ctrl_descriptors() const {
    if (unexpected_queue_acks) return 0;
    if (!delayed_acks) return credits;
    return credits >= 2 ? 2 : 1;
  }
};

/// A named substrate configuration: the registry entry behind preset().
/// `label` is the paper's figure label, reused verbatim by the bench JSON
/// emitter so plotted series match the figures.
struct Preset {
  std::string_view name;   // registry key, e.g. "ds_da_uq"
  std::string_view label;  // figure label, e.g. "DS + Delayed Acks + UQ"
  SubstrateConfig cfg;
};

namespace detail {
[[nodiscard]] constexpr SubstrateConfig make_ds() {
  SubstrateConfig c;
  c.delayed_acks = false;
  c.unexpected_queue_acks = false;
  return c;
}
[[nodiscard]] constexpr SubstrateConfig make_ds_da() {
  SubstrateConfig c = make_ds();
  c.delayed_acks = true;
  return c;
}
[[nodiscard]] constexpr SubstrateConfig make_ds_da_uq() {
  SubstrateConfig c = make_ds_da();
  c.unexpected_queue_acks = true;
  return c;
}
[[nodiscard]] constexpr SubstrateConfig make_dg() {
  SubstrateConfig c = make_ds_da_uq();
  c.data_streaming = false;
  return c;
}

inline constexpr Preset kPresets[] = {
    {"ds", "Data Streaming", make_ds()},
    {"ds_da", "DS + Delayed Acks", make_ds_da()},
    {"ds_da_uq", "DS + Delayed Acks + UQ", make_ds_da_uq()},
    {"dg", "Datagram", make_dg()},
};
}  // namespace detail

/// The named-preset registry (the paper's figure configurations).  Unknown
/// names throw.
[[nodiscard]] inline const Preset& preset(std::string_view name) {
  for (const Preset& p : detail::kPresets) {
    if (p.name == name) return p;
  }
  throw std::invalid_argument("unknown substrate preset: " +
                              std::string(name));
}

/// Every registered preset, in registration order.
[[nodiscard]] inline std::span<const Preset> presets() {
  return detail::kPresets;
}

}  // namespace ulsocks::sockets
