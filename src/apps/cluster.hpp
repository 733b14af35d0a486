// Cluster: the paper's testbed in one object.
//
// N hosts, each with one CPU, a RAM-disk filesystem, one Tigon2-style NIC on
// a gigabit link into one switch, and both protocol stacks loaded: the
// kernel TCP baseline and EMP + the sockets-over-EMP substrate.  Tests,
// benches and examples build one of these and pick a stack per application
// — the application code itself is stack-agnostic.
#pragma once

#include <memory>
#include <vector>

#include "check/invariant.hpp"
#include "check/registry.hpp"
#include "emp/endpoint.hpp"
#include "net/topology.hpp"
#include "nic/nic_device.hpp"
#include "oskernel/host.hpp"
#include "oskernel/process.hpp"
#include "sim/cost_model.hpp"
#include "sim/engine.hpp"
#include "sim/shard.hpp"
#include "sockets/substrate.hpp"
#include "tcp/tcp_stack.hpp"

namespace ulsocks::apps {

class Cluster {
 public:
  struct Node {
    Node(sim::Engine& eng, const sim::CostModel& model, std::uint16_t id,
         net::Link& link, const sockets::SubstrateConfig& cfg,
         bool dual_cpu_nic)
        : host(eng, model, id),
          nic(eng, model, link, net::StarNetwork::kHostSide,
              net::MacAddress::for_host(id), dual_cpu_nic),
          emp(eng, model, nic, host.cpu(), id),
          tcp(eng, model, host, nic),
          socks(eng, model, host, emp, cfg) {}

    os::Host host;
    nic::NicDevice nic;
    emp::EmpEndpoint emp;
    tcp::TcpStack tcp;
    sockets::EmpSocketStack socks;
  };

  /// Serial testbed: the switch and every node on `eng`.
  Cluster(sim::Engine& eng, const sim::CostModel& model,
          std::size_t node_count, sockets::SubstrateConfig cfg = {},
          bool dual_cpu_nic = true)
      : Cluster(eng, model, node_count, cfg, dual_cpu_nic,
                [&eng](std::size_t) -> sim::Engine& { return eng; }) {}

  /// Sharded testbed: the switch fabric runs on shard 0 and node i runs on
  /// shard `shard_of_node(i, group.size())`.  With a one-shard group this
  /// is byte-identical to the serial constructor above.
  Cluster(sim::ShardGroup& group, const sim::CostModel& model,
          std::size_t node_count, sockets::SubstrateConfig cfg = {},
          bool dual_cpu_nic = true)
      : Cluster(group.shard(0), model, node_count, cfg, dual_cpu_nic,
                [&group](std::size_t i) -> sim::Engine& {
                  return group.shard(shard_of_node(i, group.size()));
                }) {}

  /// Host-to-shard placement of the sharded constructor: the switch owns
  /// shard 0, so node i goes to shard (i + 1) % shards — node 0 (the
  /// server in the web workloads) never shares an engine with the fabric.
  [[nodiscard]] static std::size_t shard_of_node(std::size_t node,
                                                std::size_t shards) {
    return shards <= 1 ? 0 : (node + 1) % shards;
  }

  /// The engine node i's host stack runs on (eng_ in the serial case).
  [[nodiscard]] sim::Engine& node_engine(std::size_t i) {
    return node(i).nic.engine();
  }

  /// Spawn `task` on node i's engine.
  void spawn_on(std::size_t i, sim::Task<void> task) {
    node_engine(i).spawn(std::move(task));
  }

  [[nodiscard]] Node& node(std::size_t i) { return *nodes_.at(i); }
  [[nodiscard]] std::size_t size() const { return nodes_.size(); }
  [[nodiscard]] net::StarNetwork& network() { return net_; }
  [[nodiscard]] sim::Engine& engine() { return eng_; }
  [[nodiscard]] const sim::CostModel& model() const { return model_; }

  /// The stack an application should use for a given run.
  enum class StackKind { kTcp, kSubstrate };
  [[nodiscard]] os::SocketApi& stack(std::size_t node_idx, StackKind kind) {
    Node& n = node(node_idx);
    if (kind == StackKind::kTcp) return n.tcp;
    return n.socks;
  }

 private:
  /// The one build path: the switch fabric on `fabric`, node i on
  /// `engine_of(i)`.
  template <typename EngineOf>
  Cluster(sim::Engine& fabric, const sim::CostModel& model,
          std::size_t node_count, const sockets::SubstrateConfig& cfg,
          bool dual_cpu_nic, EngineOf engine_of)
      : eng_(fabric), model_(model), net_(fabric, model.wire, node_count),
        frame_check_(fabric.checks(), "net.frame_conservation",
                     [this] { check_frame_conservation(); }) {
    nodes_.reserve(node_count);
    for (std::size_t i = 0; i < node_count; ++i) {
      nodes_.push_back(std::make_unique<Node>(
          engine_of(i), model, static_cast<std::uint16_t>(i),
          net_.host_link(i), cfg, dual_cpu_nic));
    }
  }

  /// Frames the switch pushed toward host i either arrived at its NIC
  /// (counted received or filtered) or are still in flight: never more
  /// arrivals than the link carried.  Every shard steps on one thread, so
  /// the fabric's sweep may read a NIC on any shard.
  void check_frame_conservation() {
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      const net::Link& l = net_.host_link(i);
      const std::uint64_t carried = l.frames_sent(net::Link::Side::kB) -
                                    l.frames_dropped(net::Link::Side::kB);
      const std::uint64_t arrived =
          nodes_[i]->nic.frames_rx() + nodes_[i]->nic.frames_filtered();
      ULSOCKS_INVARIANT(
          arrived <= carried,
          check::msgf("host %zu NIC saw %llu frames but its link only "
                      "carried %llu",
                      i, static_cast<unsigned long long>(arrived),
                      static_cast<unsigned long long>(carried)));
    }
  }

  sim::Engine& eng_;
  sim::CostModel model_;
  net::StarNetwork net_;
  std::vector<std::unique_ptr<Node>> nodes_;
  check::ScopedChecker frame_check_;  // last: deregisters first
};

}  // namespace ulsocks::apps
