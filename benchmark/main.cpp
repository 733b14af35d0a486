// Benchmark driver: runs one workload's reps in this process.
//
//   ulsb --workload NAME [--seed N] [--seconds S] [--scale F]
//        [--min-reps N] [--max-reps N] [--setup-probes N]
//        [--profile FILE --min-samples N]
//
// Order of work: one warm-up rep (reported, flagged, and ignored by
// run.py), then timed reps until `--seconds` of wall time have passed, at
// least `--min-reps` and at most `--max-reps` of them.  Each rep first
// builds and destroys `--setup-probes` scenarios without running them
// (extra set-up samples, spread over the whole run), then builds its own
// and runs it.  With --profile the sampler runs during every timed rep's
// simulation, and reps continue until it holds `--min-samples` samples.
//
// Output: one JSON object per line on stdout — a "rep" line per rep and a
// closing "final" line.  Each rep carries `ref_s`, the reference kernel's
// CPU time (reference.hpp) measured before and after it, which run.py
// divides the rep's times by.  A rep whose simulation throws reports every
// op failed and the process exits 3.
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>

#include "reference.hpp"
#include "sampler.hpp"
#include "workloads.hpp"

namespace ulsocks::benchmark {
namespace {

struct Args {
  std::string workload;
  WorkloadParams params;
  double seconds = 10;
  int min_reps = 2;
  int max_reps = 20;
  int setup_probes = 20;
  std::string profile;
  std::uint64_t min_samples = 0;
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "ulsb: %s\nusage: ulsb --workload NAME [--seed N] "
               "[--seconds S] [--scale F] [--min-reps N] [--max-reps N] "
               "[--setup-probes N] [--profile FILE --min-samples N]\n",
               msg);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) usage("missing value");
    const char* v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.params.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v, nullptr);
    } else if (flag == "--scale") {
      a.params.scale = std::strtod(v, nullptr);
    } else if (flag == "--min-reps") {
      a.min_reps = std::atoi(v);
    } else if (flag == "--max-reps") {
      a.max_reps = std::atoi(v);
    } else if (flag == "--setup-probes") {
      a.setup_probes = std::atoi(v);
    } else if (flag == "--profile") {
      a.profile = v;
    } else if (flag == "--min-samples") {
      a.min_samples = std::strtoull(v, nullptr, 10);
    } else {
      usage("unknown flag");
    }
  }
  if (a.params.scale <= 0 || a.params.scale > 1) usage("bad --scale");
  if (a.min_reps < 1 || a.max_reps < a.min_reps) usage("bad rep bounds");
  return a;
}

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Peak resident set of this process image, in KiB.  getrusage's ru_maxrss
/// is not used: Linux carries it across execve, so a driver started by a
/// larger parent (the Python runner) would report the parent's peak.
long peak_rss_kb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  long kb = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1) break;
  }
  std::fclose(f);
  return kb;
}

std::string quoted(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

/// Build, run, read out and destroy one scenario; print its "rep" line.
/// Returns false if the simulation threw.
bool run_rep(const Workload& w, const Args& a, int rep, bool warmup,
             Sampler* sampler) {
  const double ref_before = reference_seconds();
  std::string probes;
  for (int k = 0; k < a.setup_probes; ++k) {
    const double p0 = wall_now();
    std::unique_ptr<Scenario> probe = w.make(a.params);
    probes += (k == 0 ? "" : ", ") + num(wall_now() - p0);
  }
  const double t0 = wall_now();
  std::unique_ptr<Scenario> sc = w.make(a.params);
  const double t1 = wall_now();
  const double c1 = cpu_now();
  std::optional<std::string> error;
  if (sampler != nullptr) sampler->start();
  try {
    sc->run();
  } catch (const std::exception& e) {
    error = e.what();
  }
  if (sampler != nullptr) sampler->stop();
  const double t2 = wall_now();
  const double c2 = cpu_now();
  const double ref_s = (ref_before + reference_seconds()) / 2;

  const std::uint64_t attempted = sc->attempted();
  const std::uint64_t failed = error ? attempted : sc->failed();
  std::string line = "{\"rep\": " + std::to_string(rep) +
                     ", \"warmup\": " + (warmup ? "true" : "false") +
                     ", \"ref_s\": " + num(ref_s) +
                     ", \"probes\": [" + probes + "]" +
                     ", \"setup_s\": " + num(t1 - t0) +
                     ", \"wall_s\": " + num(t2 - t1) +
                     ", \"cpu_s\": " + num(c2 - c1) +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed);
  if (error) line += ", \"error\": " + quoted(*error);
  line += ", \"sim\": {";
  bool first = true;
  for (const auto& [k, v] : sc->sim_outputs()) {
    line += (first ? "" : ", ") + quoted(k) + ": " + v;
    first = false;
  }
  line += "}, \"counts\": {";
  first = true;
  for (const auto& [k, v] : sc->counts()) {
    line += (first ? "" : ", ") + quoted(k) + ": " + std::to_string(v);
    first = false;
  }
  const double t3 = wall_now();
  sc.reset();
  const double t4 = wall_now();
  line += "}, \"teardown_s\": " + num(t4 - t3) + "}";
  std::puts(line.c_str());
  std::fflush(stdout);
  return !error;
}

int run(const Args& a) {
  const Workload* w = nullptr;
  for (const Workload& cand : workloads()) {
    if (a.workload == cand.name) w = &cand;
  }
  if (w == nullptr) usage("unknown workload");
  Args args = a;
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  args.params.threads = std::min(w->threads, hw);

  std::unique_ptr<Sampler> sampler;
  if (!args.profile.empty()) sampler = std::make_unique<Sampler>(1u << 16);

  bool ok = run_rep(*w, args, 0, true, nullptr);
  const double timed_start = wall_now();
  for (int rep = 1; ok && rep <= args.max_reps; ++rep) {
    const bool short_of_time = wall_now() - timed_start < args.seconds;
    const bool short_of_samples =
        sampler && sampler->samples() < args.min_samples;
    if (rep > args.min_reps && !short_of_time && !short_of_samples) break;
    ok = run_rep(*w, args, rep, false, sampler.get());
  }

  if (sampler && !sampler->write(args.profile)) {
    std::fprintf(stderr, "ulsb: could not write %s\n", args.profile.c_str());
    return 1;
  }
  std::printf(
      "{\"final\": true, \"peak_rss_kb\": %ld, \"threads\": %u, "
      "\"samples\": %llu, \"dropped\": %llu}\n",
      peak_rss_kb(), args.params.threads,
      static_cast<unsigned long long>(sampler ? sampler->samples() : 0),
      static_cast<unsigned long long>(sampler ? sampler->dropped() : 0));
  return ok ? 0 : 3;
}

}  // namespace
}  // namespace ulsocks::benchmark

int main(int argc, char** argv) {
  return ulsocks::benchmark::run(ulsocks::benchmark::parse(argc, argv));
}
