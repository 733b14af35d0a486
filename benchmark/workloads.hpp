// The benchmark's five workloads.
//
// Each workload builds a fresh simulated testbed per rep from public src/
// APIs only (sim::Engine / sim::ShardGroup, apps::Cluster, os::SocketApi,
// apps::web_*).  All of them are closed loops in simulated time: every
// client waits for its reply before sending again.  The seed sets the
// payload byte pattern, the client start-time jitter and, for
// web16_4shards, how the fixed request total is split across clients; it
// never changes how many operations a rep performs.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace ulsocks::benchmark {

struct WorkloadParams {
  std::uint64_t seed = 1;
  /// Fraction of the full op count to run (the smoke mode uses 0.01).
  double scale = 1.0;
  /// OS threads the workload may run on (only web16_4shards uses > 1).
  unsigned threads = 1;
};

/// One rep: the constructor is the set-up (testbed built, drivers spawned,
/// no event executed yet), run() executes the simulation, and the readers
/// below are valid afterwards.
class Scenario {
 public:
  virtual ~Scenario() = default;
  virtual void run() = 0;
  /// Application-level operations the rep attempted and how many of them
  /// did not complete with verified bytes.
  [[nodiscard]] virtual std::uint64_t attempted() const = 0;
  [[nodiscard]] virtual std::uint64_t failed() const = 0;
  /// Simulated outputs as (name, JSON value) pairs.  A deterministic
  /// function of (workload, seed): identical on every rep and in both
  /// builds, and pinned for seed 1 in expected_seed1.json.
  [[nodiscard]] virtual std::vector<std::pair<std::string, std::string>>
  sim_outputs() const = 0;
  /// The metrics registries of every engine (and shard group), merged
  /// across hosts: "h<N>/emp/acks_tx" on all hosts folds into "emp/acks_tx".
  [[nodiscard]] virtual std::map<std::string, std::int64_t> counts() = 0;
};

struct Workload {
  const char* name;
  /// OS threads the workload runs on at most.
  unsigned threads;
  std::unique_ptr<Scenario> (*make)(const WorkloadParams&);
};

[[nodiscard]] const std::vector<Workload>& workloads();

}  // namespace ulsocks::benchmark
