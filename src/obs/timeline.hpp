// Span-based timeline tracer with Chrome trace_event export.
//
// Layers record spans stamped with *simulated* time, attributed to a
// (host, component) pair; the export writes Chrome's trace_event JSON so a
// send() can be followed in chrome://tracing (or https://ui.perfetto.dev)
// from the substrate call, through EMP descriptor posting, NIC firmware and
// DMA, across the switch, to the peer's read() — each host a process row,
// each component a thread row.
//
// Off by default: when disabled, complete()/instant() are a single branch,
// so the hot paths pay nothing.  It is the simulator's one tracer:
// protocol decisions (drops, retransmits, unexpected-queue claims) are
// recorded as instants beside the spans.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace ulsocks::obs {

/// One trace_event record.  `ts` is simulated nanoseconds (exported as
/// fractional microseconds, Chrome's native unit).
struct TraceEvent {
  enum class Phase : std::uint8_t { kComplete, kInstant, kCounter };
  Phase phase = Phase::kInstant;
  sim::Time ts = 0;
  sim::Duration dur = 0;    // kComplete only
  std::uint32_t track = 0;  // dense (host, component) track index
  std::string name;
  std::string args;  // pre-rendered JSON object body, may be empty
};

class Tracer {
 public:
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  void set_enabled(bool on) noexcept { enabled_ = on; }

  /// Dense id for a (host, component) pair, e.g. ("h0", "sockets").
  /// Callers cache the id at construction so hot-path events skip the map.
  [[nodiscard]] std::uint32_t track(std::string_view host,
                                    std::string_view component);

  /// Retrospective duration span [start, start+dur] (Chrome "X" event).
  /// Safe from coroutines: overlapping completes on one track render as
  /// stacked slices, with no open/close pairing to keep in order.
  void complete(std::uint32_t track, sim::Time start, sim::Duration dur,
                std::string_view name, std::string args = {}) {
    if (enabled_) push(TraceEvent::Phase::kComplete, track, start, dur, name,
                       std::move(args));
  }

  /// Zero-duration marker (frame on the wire, drop, retransmit).
  void instant(std::uint32_t track, sim::Time now, std::string_view name,
               std::string args = {}) {
    if (enabled_) push(TraceEvent::Phase::kInstant, track, now, 0, name,
                       std::move(args));
  }

  [[nodiscard]] const std::vector<TraceEvent>& events() const noexcept {
    return events_;
  }
  void clear() { events_.clear(); }

  /// Render the Chrome trace_event JSON document (metadata events naming
  /// each process/thread row, then every recorded event in order).
  [[nodiscard]] std::string to_chrome_json() const;

  /// Write to_chrome_json() to `path`; returns false on I/O failure.
  bool export_chrome_json(const std::string& path) const;

 private:
  struct Track {
    std::string host;
    std::string component;
  };

  void push(TraceEvent::Phase phase, std::uint32_t track, sim::Time ts,
            sim::Duration dur, std::string_view name, std::string args) {
    events_.push_back(
        TraceEvent{phase, ts, dur, track, std::string(name), std::move(args)});
  }

  bool enabled_ = false;
  std::vector<Track> tracks_;
  std::map<std::pair<std::string, std::string>, std::uint32_t> track_ids_;
  std::vector<TraceEvent> events_;
};

/// Minimal JSON string escaping for names/labels embedded in the export.
[[nodiscard]] std::string json_escape(std::string_view s);

}  // namespace ulsocks::obs
