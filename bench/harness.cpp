#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>

#include "apps/ftp.hpp"
#include "apps/httpd.hpp"
#include "apps/matmul.hpp"
#include "obs/timeline.hpp"

namespace ulsocks::bench {

namespace {

using os::SockAddr;
using sim::Engine;

constexpr std::uint16_t kPort = 5001;

// Observability state of the run scope: the registry snapshot of the last
// run, and the armed trace path.
std::map<std::string, std::int64_t> g_last_metrics;  // NOLINT
std::string g_trace_path;                            // NOLINT

std::vector<std::uint8_t> payload(std::size_t n) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::uint8_t>(i * 37 + 11);
  }
  return v;
}

Cluster::StackKind cluster_kind(const StackChoice& stack) {
  return stack.kind() == StackChoice::Kind::kTcp
             ? Cluster::StackKind::kTcp
             : Cluster::StackKind::kSubstrate;
}

os::SocketApi& pick(Cluster& cl, std::size_t node, const StackChoice& stack) {
  return cl.stack(node, cluster_kind(stack));
}

/// Configure a TCP socket per the StackChoice.  Every measurement turns
/// Nagle off; the substrate accepts (and charges) the calls as no-ops.
Task<void> apply_tcp_options(os::SocketApi& api, int sd,
                             const StackChoice& stack) {
  if (stack.tcp_sockbuf() > 0) {
    co_await api.set_option(sd, os::SockOpt::kSndBuf, stack.tcp_sockbuf());
    co_await api.set_option(sd, os::SockOpt::kRcvBuf, stack.tcp_sockbuf());
  }
  co_await api.set_option(sd, os::SockOpt::kNoDelay, 1);
}

/// The listening and the accepted descriptor of accept_one().
struct Accepted {
  int listener;
  int conn;
};

/// Server preamble of the two-host socket routines: listen on node 1's
/// kPort, accept one connection and apply the stack's options to it.
Task<Accepted> accept_one(os::SocketApi& api, const StackChoice& stack) {
  const int ls = co_await api.socket();
  co_await api.bind(ls, SockAddr{1, kPort});
  co_await api.listen(ls, 2);
  const int cs = co_await api.accept(ls, nullptr);
  co_await apply_tcp_options(api, cs, stack);
  co_return Accepted{ls, cs};
}

/// Client preamble: connect to node 1's kPort and apply the stack's
/// options.
Task<int> connect_one(os::SocketApi& api, const StackChoice& stack) {
  const int s = co_await api.socket();
  co_await api.connect(s, SockAddr{1, kPort});
  co_await apply_tcp_options(api, s, stack);
  co_return s;
}

/// Raw-EMP ping-pong (no sockets layer at all).  With `extra_descriptors`
/// > 0 the server first pre-posts that many unrelated descriptors ahead of
/// the measurement channel: the NIC walks them (550 ns each) on every
/// incoming data frame.
double raw_emp_latency_us(std::size_t msg_bytes, int iters, int warmup,
                          bool dual_cpu, std::size_t extra_descriptors) {
  Engine eng;
  Cluster cl(eng, sim::calibrated_cost_model(), 2, {}, dual_cpu);
  auto msg = payload(msg_bytes);
  std::vector<std::uint8_t> b0(msg_bytes ? msg_bytes : 1);
  std::vector<std::uint8_t> b1(msg_bytes ? msg_bytes : 1);
  std::vector<std::uint8_t> dummy(16);
  double one_way_us = 0;

  auto server = [&]() -> Task<void> {
    auto& ep = cl.node(1).emp;
    std::vector<emp::RecvHandle> fillers;
    for (std::size_t i = 0; i < extra_descriptors; ++i) {
      fillers.push_back(co_await ep.post_recv(emp::NodeId{0}, 999, dummy));
    }
    for (int i = 0; i < warmup + iters; ++i) {
      auto h = co_await ep.post_recv(emp::NodeId{0}, 1, b1);
      co_await ep.wait_recv(h);
      auto s = co_await ep.post_send(0, 2, msg);
      co_await ep.wait_send_local(s);
    }
    for (auto& f : fillers) {
      bool ok = co_await ep.unpost_recv(f);
      (void)ok;
    }
  };
  auto client = [&]() -> Task<void> {
    auto& ep = cl.node(0).emp;
    // With fillers, start late enough that every one is posted first.
    co_await eng.delay(extra_descriptors > 0 ? 500'000 : 10'000);
    sim::Time t0 = 0;
    for (int i = 0; i < warmup + iters; ++i) {
      if (i == warmup) t0 = eng.now();
      auto h = co_await ep.post_recv(emp::NodeId{1}, 2, b0);
      auto s = co_await ep.post_send(1, 1, msg);
      co_await ep.wait_recv(h);
      (void)s;
    }
    one_way_us = sim::to_us(eng.now() - t0) / (2.0 * iters);
  };
  eng.spawn(server());
  eng.spawn(client());
  run_measured(eng);
  return one_way_us;
}

double socket_latency_us(const StackChoice& stack, std::size_t msg_bytes,
                         int iters, int warmup, bool dual_cpu) {
  Engine eng;
  Cluster cl(eng, sim::calibrated_cost_model(), 2, stack.cfg(), dual_cpu);
  auto msg = payload(msg_bytes);
  double one_way_us = 0;

  auto server = [&]() -> Task<void> {
    auto& api = pick(cl, 1, stack);
    const Accepted a = co_await accept_one(api, stack);
    std::vector<std::uint8_t> buf(msg_bytes);
    for (int i = 0; i < warmup + iters; ++i) {
      co_await api.read_exact(a.conn, buf);
      co_await api.write_all(a.conn, buf);
    }
    co_await api.close(a.conn);
    co_await api.close(a.listener);
  };
  auto client = [&]() -> Task<void> {
    auto& api = pick(cl, 0, stack);
    co_await eng.delay(10'000);
    const int s = co_await connect_one(api, stack);
    std::vector<std::uint8_t> buf = msg;
    sim::Time t0 = 0;
    for (int i = 0; i < warmup + iters; ++i) {
      if (i == warmup) t0 = eng.now();
      co_await api.write_all(s, buf);
      co_await api.read_exact(s, buf);
    }
    one_way_us = sim::to_us(eng.now() - t0) / (2.0 * iters);
    co_await api.close(s);
  };
  eng.spawn(server());
  eng.spawn(client());
  run_measured(eng);
  return one_way_us;
}

double raw_emp_bandwidth_mbps(std::size_t msg_bytes, std::size_t total_bytes,
                              bool dual_cpu) {
  Engine eng;
  Cluster cl(eng, sim::calibrated_cost_model(), 2, {}, dual_cpu);
  auto chunk = payload(msg_bytes);
  std::size_t messages = (total_bytes + msg_bytes - 1) / msg_bytes;
  double mbps = 0;

  auto receiver = [&]() -> Task<void> {
    auto& ep = cl.node(1).emp;
    std::vector<std::uint8_t> buf(msg_bytes);
    // Keep a pipeline of pre-posted descriptors, as an EMP benchmark would.
    std::deque<emp::RecvHandle> pipeline;
    sim::Time t0 = eng.now();
    std::size_t posted = 0;
    std::size_t received = 0;
    while (received < messages) {
      // Keep more receives posted than the sender keeps in flight, so no
      // arrival ever misses a descriptor (a miss costs a full EMP
      // retransmission timeout).
      while (posted < messages && pipeline.size() < 48) {
        pipeline.push_back(co_await ep.post_recv(emp::NodeId{0}, 1, buf));
        ++posted;
      }
      co_await ep.wait_recv(pipeline.front());
      pipeline.pop_front();
      ++received;
    }
    mbps = static_cast<double>(received) * static_cast<double>(msg_bytes) *
           8.0 / sim::to_sec(eng.now() - t0) / 1e6;
  };
  auto sender = [&]() -> Task<void> {
    auto& ep = cl.node(0).emp;
    co_await eng.delay(50'000);
    std::deque<emp::SendHandle> inflight;
    for (std::size_t i = 0; i < messages; ++i) {
      inflight.push_back(co_await ep.post_send(1, 1, chunk));
      if (inflight.size() >= 16) {
        co_await ep.wait_send_acked(inflight.front());
        inflight.pop_front();
      }
    }
    while (!inflight.empty()) {
      co_await ep.wait_send_acked(inflight.front());
      inflight.pop_front();
    }
  };
  eng.spawn(receiver());
  eng.spawn(sender());
  run_measured(eng);
  return mbps;
}

double socket_bandwidth_mbps(const StackChoice& stack, std::size_t msg_bytes,
                             std::size_t total_bytes, bool dual_cpu) {
  Engine eng;
  Cluster cl(eng, sim::calibrated_cost_model(), 2, stack.cfg(), dual_cpu);
  auto chunk = payload(msg_bytes);
  double mbps = 0;

  auto receiver = [&]() -> Task<void> {
    auto& api = pick(cl, 1, stack);
    const Accepted a = co_await accept_one(api, stack);
    std::vector<std::uint8_t> buf(std::max<std::size_t>(msg_bytes, 65'536));
    std::size_t got = 0;
    sim::Time t0 = eng.now();
    while (got < total_bytes) {
      const std::size_t n = co_await api.read(a.conn, buf);
      if (n == 0) break;
      got += n;
    }
    mbps = static_cast<double>(got) * 8.0 / sim::to_sec(eng.now() - t0) /
           1e6;
    co_await api.close(a.conn);
    co_await api.close(a.listener);
  };
  auto sender = [&]() -> Task<void> {
    auto& api = pick(cl, 0, stack);
    co_await eng.delay(10'000);
    const int s = co_await connect_one(api, stack);
    std::size_t sent = 0;
    while (sent < total_bytes) {
      co_await api.write_all(s, chunk);
      sent += chunk.size();
    }
    co_await api.close(s);
  };
  eng.spawn(receiver());
  eng.spawn(sender());
  run_measured(eng);
  return mbps;
}

/// Append a JSON-rendered double ("%.6g"; non-finite values become 0).
void append_number(std::string& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", std::isfinite(v) ? v : 0.0);
  out += buf;
}

}  // namespace

StackChoice StackChoice::substrate(const sockets::Preset& preset) {
  StackChoice s;
  s.kind_ = Kind::kSubstrate;
  s.cfg_ = preset.cfg;
  s.name_ = "substrate";
  s.label_ = std::string(preset.label);
  return s;
}

StackChoice StackChoice::substrate(sockets::SubstrateConfig cfg,
                                   std::string label) {
  StackChoice s;
  s.kind_ = Kind::kSubstrate;
  s.cfg_ = cfg;
  s.name_ = "substrate";
  s.label_ = std::move(label);
  return s;
}

StackChoice StackChoice::tcp(int sockbuf) {
  StackChoice s;
  s.kind_ = Kind::kTcp;
  s.tcp_sockbuf_ = sockbuf;
  s.name_ = "tcp";
  s.label_ = sockbuf > 0 ? "sockbuf=" + std::to_string(sockbuf) : "default";
  return s;
}

StackChoice StackChoice::raw_emp() {
  StackChoice s;
  s.kind_ = Kind::kRawEmp;
  s.name_ = "emp";
  s.label_ = "raw";
  return s;
}

void set_trace_export(std::string path) { g_trace_path = std::move(path); }

BenchOptions parse_bench_args(int argc, char** argv) {
  BenchOptions opt;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: missing value for %s\n", argv[0], argv[i]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--iters") {
      opt.iters = std::atoi(value());
    } else if (arg == "--trace") {
      opt.trace_path = value();
    } else if (arg == "--out") {
      opt.out_dir = value();
    } else if (arg == "--help" || arg == "-h") {
      std::fprintf(stderr,
                   "usage: %s [--iters N] [--trace FILE] [--out DIR]\n",
                   argv[0]);
      std::exit(0);
    } else {
      std::fprintf(stderr, "%s: unknown option %s (try --help)\n", argv[0],
                   argv[i]);
      std::exit(2);
    }
  }
  if (!opt.trace_path.empty()) set_trace_export(opt.trace_path);
  return opt;
}

BenchResults::BenchResults(std::string figure, std::string title)
    : figure_(std::move(figure)), title_(std::move(title)) {}

void BenchResults::add(std::string_view series, const StackChoice& stack,
                       std::string_view x, double value,
                       std::string_view unit) {
  add(series, stack.name(), stack.config_label(), x, value, unit);
}

void BenchResults::add(std::string_view series, std::string_view stack_name,
                       std::string_view config_label, std::string_view x,
                       double value, std::string_view unit) {
  Point p;
  p.series = std::string(series);
  p.stack = std::string(stack_name);
  p.config = std::string(config_label);
  p.x = std::string(x);
  p.value = value;
  p.unit = std::string(unit);
  p.metrics = g_last_metrics;
  points_.push_back(std::move(p));
}

std::string BenchResults::write(const std::string& dir) const {
  std::string json;
  json += "{\n  \"schema\": \"ulsocks.bench.v1\",\n";
  json += "  \"figure\": \"" + obs::json_escape(figure_) + "\",\n";
  json += "  \"title\": \"" + obs::json_escape(title_) + "\",\n";
  json += "  \"points\": [";
  bool first_point = true;
  for (const Point& p : points_) {
    json += first_point ? "\n" : ",\n";
    first_point = false;
    json += "    {\"series\": \"" + obs::json_escape(p.series) + "\", ";
    json += "\"stack\": \"" + obs::json_escape(p.stack) + "\", ";
    json += "\"config\": \"" + obs::json_escape(p.config) + "\", ";
    json += "\"x\": \"" + obs::json_escape(p.x) + "\", ";
    json += "\"value\": ";
    append_number(json, p.value);
    json += ", \"unit\": \"" + obs::json_escape(p.unit) + "\",\n";
    json += "     \"metrics\": {";
    bool first_metric = true;
    for (const auto& [path, v] : p.metrics) {
      json += first_metric ? "" : ", ";
      first_metric = false;
      json += '"';
      json += obs::json_escape(path);
      json += "\": ";
      json += std::to_string(v);
    }
    json += "}}";
  }
  json += "\n  ]\n}\n";

  std::string path = dir.empty() || dir == "."
                         ? "BENCH_" + figure_ + ".json"
                         : dir + "/BENCH_" + figure_ + ".json";
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << json;
  out.close();
  if (!out) {
    std::fprintf(stderr, "error: could not write %s\n", path.c_str());
    return {};
  }
  std::fprintf(stderr, "results written to %s\n", path.c_str());
  return path;
}

void run_measured(Engine& eng) {
  const bool traced = !g_trace_path.empty();
  if (traced) eng.tracer().set_enabled(true);
  eng.run();
  g_last_metrics = eng.metrics().snapshot();
  if (!traced) return;
  if (!eng.tracer().export_chrome_json(g_trace_path)) {
    std::fprintf(stderr, "warning: could not write trace to %s\n",
                 g_trace_path.c_str());
  } else {
    std::fprintf(stderr, "trace written to %s (load in chrome://tracing)\n",
                 g_trace_path.c_str());
  }
  g_trace_path.clear();  // only the first armed run is traced
}

double measure_latency_us(const StackChoice& stack, std::size_t msg_bytes,
                          int iters, int warmup, bool dual_cpu) {
  if (stack.kind() == StackChoice::Kind::kRawEmp) {
    return raw_emp_latency_us(msg_bytes, iters, warmup, dual_cpu, 0);
  }
  return socket_latency_us(stack, msg_bytes, iters, warmup, dual_cpu);
}

double measure_bandwidth_mbps(const StackChoice& stack, std::size_t msg_bytes,
                              std::size_t total_bytes, bool dual_cpu) {
  if (stack.kind() == StackChoice::Kind::kRawEmp) {
    return raw_emp_bandwidth_mbps(msg_bytes, total_bytes, dual_cpu);
  }
  return socket_bandwidth_mbps(stack, msg_bytes, total_bytes, dual_cpu);
}

double measure_ftp_mbps(const StackChoice& stack, std::size_t file_bytes) {
  Engine eng;
  Cluster cl(eng, sim::calibrated_cost_model(), 2, stack.cfg());
  cl.node(0).host.fs().install("/srv/file.bin", payload(file_bytes));
  double mbps = 0;

  auto server = [&]() -> Task<void> {
    os::Process proc(cl.node(0).host);
    apps::FtpServerOptions opt;
    opt.max_sessions = 1;
    co_await apps::ftp_server(proc, pick(cl, 0, stack), opt);
  };
  auto client = [&]() -> Task<void> {
    co_await eng.delay(10'000);
    os::Process proc(cl.node(1).host);
    apps::FtpClient ftp(proc, pick(cl, 1, stack), 0);
    co_await ftp.connect();
    auto xfer = co_await ftp.get("/srv/file.bin", "/tmp/file.bin");
    mbps = xfer.mbps();
    co_await ftp.quit();
  };
  eng.spawn(server());
  eng.spawn(client());
  run_measured(eng);
  return mbps;
}

double measure_web_response_us(const StackChoice& stack,
                               std::uint32_t response_bytes,
                               std::uint32_t requests_per_connection,
                               std::size_t requests_per_client) {
  Engine eng;
  Cluster cl(eng, sim::calibrated_cost_model(), 4, stack.cfg());
  sim::OnlineStats all;
  sim::OnlineStats per_client[3];

  auto server = [&]() -> Task<void> {
    os::Process proc(cl.node(0).host);
    apps::WebServerOptions opt;
    opt.requests_per_connection = requests_per_connection;
    opt.max_connections =
        3 * ((requests_per_client + requests_per_connection - 1) /
             requests_per_connection);
    co_await apps::web_server(proc, pick(cl, 0, stack), opt);
  };
  auto client = [&](std::size_t idx) -> Task<void> {
    co_await eng.delay(10'000 + idx * 700);
    os::Process proc(cl.node(idx + 1).host);
    apps::WebClientOptions opt;
    opt.server_node = 0;
    opt.response_bytes = response_bytes;
    opt.requests_per_connection = requests_per_connection;
    opt.total_requests = requests_per_client;
    co_await apps::web_client(proc, pick(cl, idx + 1, stack), opt,
                              per_client[idx]);
  };
  eng.spawn(server());
  for (std::size_t i = 0; i < 3; ++i) eng.spawn(client(i));
  run_measured(eng);
  for (const auto& st : per_client) {
    // Merge means weighted by count.
    for (std::size_t i = 0; i < st.count(); ++i) all.add(st.mean());
  }
  return all.mean();
}

double measure_matmul_ms(const StackChoice& stack, std::size_t n) {
  Engine eng;
  Cluster cl(eng, sim::calibrated_cost_model(), 4, stack.cfg());
  auto a = apps::make_matrix(n, 1);
  auto b = apps::make_matrix(n, 2);
  double ms = 0;

  auto master = [&]() -> Task<void> {
    co_await eng.delay(50'000);
    os::Process proc(cl.node(0).host);
    std::vector<std::uint16_t> workers{1, 2, 3};
    auto result = co_await apps::matmul_master(proc, pick(cl, 0, stack), a,
                                               b, n, workers);
    ms = sim::to_ms(result.elapsed);
  };
  auto worker = [&](std::size_t idx) -> Task<void> {
    os::Process proc(cl.node(idx).host);
    co_await apps::matmul_worker(proc, pick(cl, idx, stack));
  };
  for (std::size_t i = 1; i <= 3; ++i) eng.spawn(worker(i));
  eng.spawn(master());
  run_measured(eng);
  return ms;
}

double measure_latency_with_extra_descriptors_us(
    std::size_t extra_descriptors, std::size_t msg_bytes) {
  return raw_emp_latency_us(msg_bytes, 50, 5, true, extra_descriptors);
}

std::string size_label(std::size_t bytes) {
  if (bytes >= 1'048'576 && bytes % 1'048'576 == 0) {
    return std::to_string(bytes / 1'048'576) + "M";
  }
  if (bytes >= 1024 && bytes % 1024 == 0) {
    return std::to_string(bytes / 1024) + "K";
  }
  return std::to_string(bytes);
}

}  // namespace ulsocks::bench
