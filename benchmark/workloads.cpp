#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <span>

#include "apps/cluster.hpp"
#include "apps/httpd.hpp"
#include "net/link.hpp"
#include "oskernel/process.hpp"
#include "oskernel/socket_api.hpp"
#include "sim/engine.hpp"
#include "sim/shard.hpp"
#include "sim/stats.hpp"
#include "sockets/config.hpp"

namespace ulsocks::benchmark {

namespace {

using apps::Cluster;
using os::SockAddr;
using sim::Task;

constexpr std::uint16_t kPort = 5001;
constexpr std::size_t kChunk = 64 * 1024;

/// Deterministic stream of 64-bit values derived from the workload seed.
class SeedStream {
 public:
  explicit SeedStream(std::uint64_t seed) : state_(sim::Engine::mix64(seed)) {}
  std::uint64_t next() { return sim::Engine::mix64(state_++); }
  /// Uniform-ish draw in [0, n).
  std::uint64_t below(std::uint64_t n) { return n == 0 ? 0 : next() % n; }

 private:
  std::uint64_t state_;
};

std::uint64_t scaled(std::uint64_t full, double scale, std::uint64_t floor) {
  const auto n = static_cast<std::uint64_t>(static_cast<double>(full) * scale);
  return std::max(n, floor);
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "\"%016llx\"",
                static_cast<unsigned long long>(v));
  return buf;
}

bool ends_with(const std::string& s, const char* suffix) {
  const std::size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

/// Fold one registry snapshot into `out` with the host prefix removed.
/// Minima keep the minimum; maxima, quantile bounds and high-water gauges
/// keep the maximum; every other counter, gauge, count and sum adds.
void fold_counts(std::map<std::string, std::int64_t>& out,
                 const std::map<std::string, std::int64_t>& snapshot) {
  for (const auto& [path, v] : snapshot) {
    std::string key = path;
    if (key.size() > 1 && key[0] == 'h' &&
        std::isdigit(static_cast<unsigned char>(key[1])) != 0) {
      const std::size_t slash = key.find('/');
      if (slash != std::string::npos) key.erase(0, slash + 1);
    }
    auto [it, inserted] = out.try_emplace(key, v);
    if (inserted) continue;
    if (ends_with(key, "/min")) {
      it->second = std::min(it->second, v);
    } else if (ends_with(key, "/max") || ends_with(key, "/p50") ||
               ends_with(key, "/p99") || ends_with(key, "_hwm") ||
               key == "ring/sqe_inflight") {
      it->second = std::max(it->second, v);
    } else {
      it->second += v;
    }
  }
}

using Outputs = std::vector<std::pair<std::string, std::string>>;

/// A workload on one serial engine.
class SerialScenario : public Scenario {
 public:
  void run() override {
    // Called through a volatile pointer so the engine loop is not inlined
    // into this driver frame, where the traced run would charge it to the
    // benchmark instead of to sim.
    static void (sim::Engine::*volatile const engine_run)() = &sim::Engine::run;
    (eng_.*engine_run)();
  }

  [[nodiscard]] std::map<std::string, std::int64_t> counts() override {
    std::map<std::string, std::int64_t> out;
    fold_counts(out, eng_.metrics().snapshot());
    return out;
  }

 protected:
  SerialScenario(std::size_t hosts, const sockets::SubstrateConfig& cfg)
      : cluster_(eng_, sim::calibrated_cost_model(), hosts, cfg) {}

  /// Outputs every workload reports, after the workload's own.
  void common_outputs(Outputs& out) const {
    out.emplace_back("events", std::to_string(eng_.events_executed()));
    out.emplace_back("sim_end_ns", std::to_string(eng_.now()));
    out.emplace_back("causal_digest", hex(eng_.causal_digest()));
  }

  sim::Engine eng_;
  Cluster cluster_;
};

// ---- pingpong_4B ---------------------------------------------------------

class PingPong final : public SerialScenario {
 public:
  explicit PingPong(const WorkloadParams& p)
      : SerialScenario(2, sockets::preset("ds_da_uq").cfg),
        round_trips_(scaled(160'000, p.scale, 100)) {
    SeedStream seeds(p.seed);
    pattern_ = static_cast<std::uint32_t>(seeds.next());
    start_ns_ = 10'000 + seeds.below(1'000);
    cluster_.spawn_on(1, server());
    cluster_.spawn_on(0, client());
  }

  [[nodiscard]] std::uint64_t attempted() const override {
    return round_trips_;
  }
  [[nodiscard]] std::uint64_t failed() const override {
    return round_trips_ - verified_;
  }
  [[nodiscard]] Outputs sim_outputs() const override {
    Outputs out{{"one_way_us", num(one_way_us_)},
                {"round_trips", std::to_string(verified_)}};
    common_outputs(out);
    return out;
  }

 private:
  [[nodiscard]] std::array<std::uint8_t, 4> message(std::uint64_t i) const {
    const auto v = static_cast<std::uint32_t>(pattern_ + i * 0x9e3779b1u);
    return {static_cast<std::uint8_t>(v), static_cast<std::uint8_t>(v >> 8),
            static_cast<std::uint8_t>(v >> 16),
            static_cast<std::uint8_t>(v >> 24)};
  }

  Task<void> server() {
    os::SocketApi& api = cluster_.stack(1, Cluster::StackKind::kSubstrate);
    const int ls = co_await api.socket();
    co_await api.bind(ls, SockAddr{1, kPort});
    co_await api.listen(ls, 2);
    const int cs = co_await api.accept(ls, nullptr);
    std::array<std::uint8_t, 4> buf{};
    for (std::uint64_t i = 0; i < round_trips_; ++i) {
      co_await api.read_exact(cs, buf);
      co_await api.write_all(cs, buf);
    }
    co_await api.close(cs);
    co_await api.close(ls);
  }

  Task<void> client() {
    co_await eng_.delay(start_ns_);
    os::SocketApi& api = cluster_.stack(0, Cluster::StackKind::kSubstrate);
    const int s = co_await api.socket();
    co_await api.connect(s, SockAddr{1, kPort});
    std::array<std::uint8_t, 4> reply{};
    const sim::Time t0 = eng_.now();
    for (std::uint64_t i = 0; i < round_trips_; ++i) {
      const std::array<std::uint8_t, 4> msg = message(i);
      co_await api.write_all(s, msg);
      co_await api.read_exact(s, reply);
      if (reply == msg) ++verified_;
    }
    one_way_us_ = sim::to_us(eng_.now() - t0) /
                  (2.0 * static_cast<double>(round_trips_));
    co_await api.close(s);
  }

  std::uint64_t round_trips_;
  std::uint32_t pattern_ = 0;
  sim::Duration start_ns_ = 0;
  std::uint64_t verified_ = 0;
  double one_way_us_ = 0;
};

// ---- stream_64K / tcp_stream_64K -----------------------------------------

/// One-way bulk transfer of 64 KiB writes.  Every chunk carries its index
/// in its first 8 bytes and a seed-derived pattern after that; the receiver
/// drains with read_view and compares every byte it is lent against the
/// pattern, so a lost, duplicated, reordered or corrupted byte fails the
/// chunk it lands in.
class Stream final : public SerialScenario {
 public:
  Stream(const WorkloadParams& p, Cluster::StackKind kind,
         std::uint64_t full_chunks)
      : SerialScenario(2, sockets::preset("ds_da_uq").cfg),
        kind_(kind),
        chunks_(scaled(full_chunks, p.scale, 16)),
        pattern_(kChunk) {
    SeedStream seeds(p.seed);
    for (std::size_t i = 0; i < kChunk; i += 8) {
      const std::uint64_t w = seeds.next();
      std::memcpy(pattern_.data() + i, &w, 8);
    }
    header_salt_ = seeds.next();
    start_ns_ = 10'000 + seeds.below(1'000);
    cluster_.spawn_on(1, receiver());
    cluster_.spawn_on(0, sender());
  }

  [[nodiscard]] std::uint64_t attempted() const override { return chunks_; }
  [[nodiscard]] std::uint64_t failed() const override {
    const std::uint64_t whole = std::min<std::uint64_t>(pos_ / kChunk, chunks_);
    const std::uint64_t good = whole > bad_chunks_ ? whole - bad_chunks_ : 0;
    return pos_ > chunks_ * kChunk ? chunks_ : chunks_ - good;
  }
  [[nodiscard]] Outputs sim_outputs() const override {
    Outputs out{{"mbps", num(mbps_)}, {"bytes", std::to_string(pos_)}};
    common_outputs(out);
    return out;
  }

 private:
  [[nodiscard]] std::uint64_t header(std::uint64_t chunk) const {
    return chunk ^ header_salt_;
  }

  void verify(std::span<const std::uint8_t> part) {
    while (!part.empty()) {
      const std::uint64_t chunk = pos_ / kChunk;
      const std::size_t off = pos_ % kChunk;
      const std::size_t n = std::min(part.size(), kChunk - off);
      bool ok = true;
      std::size_t i = 0;
      if (off < 8) {
        const std::uint64_t h = header(chunk);
        std::uint8_t want[8];
        std::memcpy(want, &h, 8);
        for (; i < n && off + i < 8; ++i) ok = ok && part[i] == want[off + i];
      }
      // An OR-of-XOR loop rather than memcmp: the compiler vectorises it,
      // and the traced run charges it to the benchmark, not to libc.copy.
      std::uint8_t diff = 0;
      for (; i < n; ++i) diff |= part[i] ^ pattern_[off + i];
      ok = ok && diff == 0;
      if (!ok && chunk != last_bad_) {
        ++bad_chunks_;
        last_bad_ = chunk;
      }
      pos_ += n;
      part = part.subspan(n);
    }
  }

  Task<void> receiver() {
    os::SocketApi& api = cluster_.stack(1, kind_);
    const int ls = co_await api.socket();
    co_await api.bind(ls, SockAddr{1, kPort});
    co_await api.listen(ls, 2);
    const int cs = co_await api.accept(ls, nullptr);
    const std::uint64_t total = chunks_ * kChunk;
    os::RecvView view;
    const sim::Time t0 = eng_.now();
    while (pos_ < total) {
      const std::size_t n = co_await api.read_view(cs, view, kChunk);
      if (n == 0) break;
      for (const auto& part : view.parts) verify(part);
    }
    mbps_ = static_cast<double>(pos_) * 8.0 / sim::to_sec(eng_.now() - t0) /
            1e6;
    co_await api.close(cs);
    co_await api.close(ls);
  }

  Task<void> sender() {
    co_await eng_.delay(start_ns_);
    os::SocketApi& api = cluster_.stack(0, kind_);
    const int s = co_await api.socket();
    co_await api.connect(s, SockAddr{1, kPort});
    std::vector<std::uint8_t> chunk = pattern_;
    for (std::uint64_t i = 0; i < chunks_; ++i) {
      const std::uint64_t h = header(i);
      std::memcpy(chunk.data(), &h, 8);
      co_await api.write_all(s, chunk);
    }
    co_await api.close(s);
  }

  Cluster::StackKind kind_;
  std::uint64_t chunks_;
  std::vector<std::uint8_t> pattern_;
  std::uint64_t header_salt_ = 0;
  sim::Duration start_ns_ = 0;
  std::uint64_t pos_ = 0;
  std::uint64_t bad_chunks_ = 0;
  std::uint64_t last_bad_ = ~std::uint64_t{0};
  double mbps_ = 0;
};

// ---- web16_4shards -------------------------------------------------------

/// 16 hosts on a 4-shard group: host 0 serves HTTP/1.1 (8 requests per
/// connection, 8 KiB replies), hosts 1..15 are clients.
class Web16 final : public Scenario {
 public:
  static constexpr std::size_t kHosts = 16;
  static constexpr std::size_t kShards = 4;
  static constexpr std::uint32_t kPerConn = 8;

  explicit Web16(const WorkloadParams& p)
      : group_(kShards, net::shard_lookahead(model_.wire), 1),
        cluster_(group_, model_, kHosts, sockets::preset("ds_da_uq").cfg),
        threads_(p.threads),
        requests_(kHosts - 1),
        stats_(kHosts - 1),
        start_ns_(kHosts - 1) {
    // A fixed total split unevenly by the seed: paired clients trade whole
    // connections, so every client keeps a multiple of 8 requests and the
    // sum never changes.  At most ~3% moves, which keeps the load balance
    // across shards, and with it the throughput, nearly seed-independent.
    const std::uint64_t per_client =
        scaled(768 / kPerConn, p.scale, 1) * kPerConn;
    SeedStream seeds(p.seed);
    std::fill(requests_.begin(), requests_.end(), per_client);
    for (std::size_t i = 0; i + 1 < requests_.size(); i += 2) {
      const std::uint64_t conns = seeds.below(per_client / kPerConn / 32 + 1);
      requests_[i] += conns * kPerConn;
      requests_[i + 1] -= conns * kPerConn;
    }
    for (std::size_t i = 0; i < start_ns_.size(); ++i) {
      start_ns_[i] = 10'000 + i * 700 + seeds.below(500);
    }
    cluster_.spawn_on(0, server());
    for (std::size_t i = 0; i + 1 < kHosts; ++i) {
      cluster_.spawn_on(i + 1, client(i));
    }
  }

  void run() override { group_.run(threads_); }

  [[nodiscard]] std::uint64_t attempted() const override {
    std::uint64_t n = 0;
    for (std::uint64_t r : requests_) n += r;
    return n;
  }
  [[nodiscard]] std::uint64_t failed() const override {
    std::uint64_t bad = 0;
    for (std::size_t i = 0; i < requests_.size(); ++i) {
      if (stats_[i].count() < requests_[i]) {
        bad += requests_[i] - stats_[i].count();
      }
    }
    return bad;
  }
  [[nodiscard]] Outputs sim_outputs() const override {
    std::uint64_t served = 0;
    double total_us = 0;
    for (const sim::OnlineStats& s : stats_) {
      served += s.count();
      total_us += s.mean() * static_cast<double>(s.count());
    }
    return {{"mean_response_us",
             num(served ? total_us / static_cast<double>(served) : 0.0)},
            {"served", std::to_string(served)},
            {"events", std::to_string(group_.events_executed())},
            {"sim_end_ns", std::to_string(group_.now())},
            {"causal_digest", hex(group_.causal_digest())}};
  }
  [[nodiscard]] std::map<std::string, std::int64_t> counts() override {
    std::map<std::string, std::int64_t> out;
    for (std::size_t i = 0; i < group_.size(); ++i) {
      fold_counts(out, group_.shard(i).metrics().snapshot());
    }
    fold_counts(out, group_.metrics().snapshot());
    return out;
  }

 private:
  Task<void> server() {
    os::Process proc(cluster_.node(0).host);
    apps::WebServerOptions so;
    so.requests_per_connection = kPerConn;
    so.max_connections = 0;
    for (std::uint64_t r : requests_) so.max_connections += r / kPerConn;
    co_await apps::web_server(
        proc, cluster_.stack(0, Cluster::StackKind::kSubstrate), so);
  }

  Task<void> client(std::size_t idx) {
    co_await cluster_.node_engine(idx + 1).delay(start_ns_[idx]);
    os::Process proc(cluster_.node(idx + 1).host);
    apps::WebClientOptions co;
    co.server_node = 0;
    co.response_bytes = 8192;
    co.requests_per_connection = kPerConn;
    co.total_requests = requests_[idx];
    co_await apps::web_client(
        proc, cluster_.stack(idx + 1, Cluster::StackKind::kSubstrate), co,
        stats_[idx]);
  }

  sim::CostModel model_ = sim::calibrated_cost_model();
  sim::ShardGroup group_;
  Cluster cluster_;
  unsigned threads_;
  std::vector<std::uint64_t> requests_;
  std::vector<sim::OnlineStats> stats_;
  std::vector<sim::Duration> start_ns_;
};

// ---- c10k_ring -----------------------------------------------------------

/// One os::OpRing web server (host 0) against 3 client hosts that each open
/// 150 near-simultaneous connections, 2 x 256 B requests per connection.
class C10kRing final : public SerialScenario {
 public:
  static constexpr std::size_t kClientHosts = 3;
  static constexpr std::uint32_t kPerConn = 2;

  explicit C10kRing(const WorkloadParams& p)
      : SerialScenario(kClientHosts + 1, config()),
        per_host_(scaled(150, p.scale, 2)),
        stats_(kClientHosts * per_host_),
        jitter_ns_(stats_.size()) {
    SeedStream seeds(p.seed);
    for (sim::Duration& j : jitter_ns_) j = seeds.below(50);
    cluster_.spawn_on(0, server());
    for (std::size_t h = 1; h <= kClientHosts; ++h) {
      for (std::size_t c = 0; c < per_host_; ++c) {
        cluster_.spawn_on(h, connection(h, c));
      }
    }
  }

  [[nodiscard]] std::uint64_t attempted() const override {
    return stats_.size() * kPerConn;
  }
  [[nodiscard]] std::uint64_t failed() const override {
    return attempted() - served();
  }
  [[nodiscard]] Outputs sim_outputs() const override {
    double total_us = 0;
    for (const sim::OnlineStats& s : stats_) {
      total_us += s.mean() * static_cast<double>(s.count());
    }
    const std::uint64_t n = served();
    Outputs out{
        {"mean_response_us",
         num(n ? total_us / static_cast<double>(n) : 0.0)},
        {"served", std::to_string(n)},
        {"connect_retries", std::to_string(retries_)}};
    common_outputs(out);
    return out;
  }

 private:
  // credits=4 is the paper's web-server setting; small staging buffers keep
  // the descriptor memory of hundreds of live connections bounded.
  static sockets::SubstrateConfig config() {
    sockets::SubstrateConfig cfg = sockets::preset("ds_da_uq").cfg;
    cfg.credits = 4;
    cfg.buffer_bytes = 2048;
    return cfg;
  }

  [[nodiscard]] std::uint64_t served() const {
    std::uint64_t n = 0;
    for (const sim::OnlineStats& s : stats_) n += s.count();
    return n;
  }

  Task<void> server() {
    os::Process proc(cluster_.node(0).host);
    apps::WebServerOptions so;
    so.requests_per_connection = kPerConn;
    so.max_connections = stats_.size();
    // Sized for the arrival burst, like a tuned C10K listener.
    so.backlog = 1024;
    so.reap_batch = 64;
    co_await apps::web_server_ring(
        proc, cluster_.stack(0, Cluster::StackKind::kSubstrate), so);
  }

  Task<void> connection(std::size_t host, std::size_t c) {
    const std::size_t idx = (host - 1) * per_host_ + c;
    co_await eng_.delay(10'000 + idx * 50 + jitter_ns_[idx]);
    os::Process proc(cluster_.node(host).host);
    apps::WebClientOptions co;
    co.server_node = 0;
    co.response_bytes = 256;
    co.requests_per_connection = kPerConn;
    co.total_requests = kPerConn;
    // A refused connect under the accept storm backs off and retries, as
    // any C10K client would; only a connection that never gets through
    // fails its requests.
    for (int attempt = 0;; ++attempt) {
      bool retry = false;
      try {
        co_await apps::web_client(
            proc, cluster_.stack(host, Cluster::StackKind::kSubstrate), co,
            stats_[idx]);
      } catch (const os::SocketError& e) {
        if (e.code() != os::SockErr::kRefused || attempt >= 6) throw;
        retry = true;  // co_await is not allowed inside a handler
      }
      if (!retry) break;
      ++retries_;
      co_await eng_.delay(100'000 * (attempt + 1) + idx * 131);
    }
  }

  std::size_t per_host_;
  std::vector<sim::OnlineStats> stats_;
  std::vector<sim::Duration> jitter_ns_;
  std::uint64_t retries_ = 0;
};

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"pingpong_4B", 1,
       [](const WorkloadParams& p) -> std::unique_ptr<Scenario> {
         return std::make_unique<PingPong>(p);
       }},
      {"stream_64K", 1,
       [](const WorkloadParams& p) -> std::unique_ptr<Scenario> {
         // 1.5 GiB of 64 KiB writes.
         return std::make_unique<Stream>(p, Cluster::StackKind::kSubstrate,
                                         24'576);
       }},
      {"tcp_stream_64K", 1,
       [](const WorkloadParams& p) -> std::unique_ptr<Scenario> {
         // 768 MiB of 64 KiB writes.
         return std::make_unique<Stream>(p, Cluster::StackKind::kTcp, 12'288);
       }},
      {"web16_4shards", 4,
       [](const WorkloadParams& p) -> std::unique_ptr<Scenario> {
         return std::make_unique<Web16>(p);
       }},
      {"c10k_ring", 1,
       [](const WorkloadParams& p) -> std::unique_ptr<Scenario> {
         return std::make_unique<C10kRing>(p);
       }},
  };
  return all;
}

}  // namespace ulsocks::benchmark
