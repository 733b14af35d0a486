#include "obs/timeline.hpp"

#include <cstdio>
#include <fstream>

namespace ulsocks::obs {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::uint32_t Tracer::track(std::string_view host,
                            std::string_view component) {
  auto key = std::make_pair(std::string(host), std::string(component));
  auto it = track_ids_.find(key);
  if (it != track_ids_.end()) return it->second;
  auto id = static_cast<std::uint32_t>(tracks_.size());
  tracks_.push_back(Track{key.first, key.second});
  track_ids_.emplace(std::move(key), id);
  return id;
}

std::string Tracer::to_chrome_json() const {
  // pid = dense host index, tid = dense track index within that host; a
  // metadata event names each so chrome://tracing shows "h0" processes with
  // "sockets"/"emp"/"nic"/... thread rows.
  std::map<std::string, int> pids;
  for (const auto& t : tracks_) {
    pids.emplace(t.host, static_cast<int>(pids.size()));
  }

  std::string out = "{\"traceEvents\":[\n";
  char buf[256];
  for (const auto& [host, pid] : pids) {
    std::snprintf(buf, sizeof(buf),
                  "{\"ph\":\"M\",\"pid\":%d,\"name\":\"process_name\","
                  "\"args\":{\"name\":\"%s\"}},\n",
                  pid, json_escape(host).c_str());
    out += buf;
  }
  for (std::size_t i = 0; i < tracks_.size(); ++i) {
    std::snprintf(buf, sizeof(buf),
                  "{\"ph\":\"M\",\"pid\":%d,\"tid\":%zu,"
                  "\"name\":\"thread_name\",\"args\":{\"name\":\"%s\"}},\n",
                  pids.at(tracks_[i].host), i,
                  json_escape(tracks_[i].component).c_str());
    out += buf;
  }

  bool first = true;
  for (const auto& e : events_) {
    if (!first) out += ",\n";
    first = false;
    const Track& t = tracks_.at(e.track);
    const char* ph = "i";
    switch (e.phase) {
      case TraceEvent::Phase::kComplete:
        ph = "X";
        break;
      case TraceEvent::Phase::kInstant:
        ph = "i";
        break;
      case TraceEvent::Phase::kCounter:
        ph = "C";
        break;
    }
    // ts in microseconds with ns resolution (three decimals).
    std::snprintf(buf, sizeof(buf),
                  "{\"ph\":\"%s\",\"pid\":%d,\"tid\":%u,\"ts\":%llu.%03llu",
                  ph, pids.at(t.host), e.track,
                  static_cast<unsigned long long>(e.ts / 1000),
                  static_cast<unsigned long long>(e.ts % 1000));
    out += buf;
    if (e.phase == TraceEvent::Phase::kComplete) {
      std::snprintf(buf, sizeof(buf), ",\"dur\":%llu.%03llu",
                    static_cast<unsigned long long>(e.dur / 1000),
                    static_cast<unsigned long long>(e.dur % 1000));
      out += buf;
    }
    if (!e.name.empty()) {
      out += ",\"cat\":\"sim\",\"name\":\"" + json_escape(e.name) + "\"";
    }
    if (e.phase == TraceEvent::Phase::kInstant) out += ",\"s\":\"t\"";
    if (!e.args.empty()) out += ",\"args\":{" + e.args + "}";
    out += "}";
  }
  out += "\n]}\n";
  return out;
}

bool Tracer::export_chrome_json(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  f << to_chrome_json();
  return static_cast<bool>(f);
}

}  // namespace ulsocks::obs
