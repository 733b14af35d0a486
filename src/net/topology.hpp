// Canned topologies.
#pragma once

#include <memory>
#include <vector>

#include "net/link.hpp"
#include "net/switch.hpp"
#include "sim/cost_model.hpp"
#include "sim/engine.hpp"
#include "sim/shard.hpp"

namespace ulsocks::net {

/// The paper's testbed topology: N hosts, each on its own full-duplex
/// gigabit link to one switch.  Hosts attach their NIC MAC to side A of
/// their link; side B belongs to the switch.
class StarNetwork {
 public:
  StarNetwork(sim::Engine& eng, const sim::WireCosts& wire,
              std::size_t host_count)
      : switch_(eng, wire, host_count) {
    links_.reserve(host_count);
    for (std::size_t i = 0; i < host_count; ++i) {
      links_.push_back(std::make_unique<Link>(eng, wire));
      switch_.connect(i, *links_.back(), Link::Side::kB);
    }
  }

  /// Sharded variant: the switch — and the switch side of every link —
  /// lives on shard 0 of `group`; each link posts cross-engine transmits
  /// through the group's post_remote().  The host side of a link binds to
  /// its host's shard when the NIC attaches with its engine, so host
  /// placement is decided by whoever constructs the hosts (see
  /// apps::Cluster).  With a one-shard group every transmit resolves to
  /// the local path and the topology is byte-identical to the serial
  /// constructor.
  StarNetwork(sim::ShardGroup& group, const sim::WireCosts& wire,
              std::size_t host_count)
      : switch_(group.shard(0), wire, host_count) {
    links_.reserve(host_count);
    for (std::size_t i = 0; i < host_count; ++i) {
      links_.push_back(std::make_unique<Link>(group.shard(0), wire));
      links_.back()->set_shard_group(group);
      switch_.connect(i, *links_.back(), Link::Side::kB);
    }
  }

  static constexpr Link::Side kHostSide = Link::Side::kA;

  [[nodiscard]] Link& host_link(std::size_t host) { return *links_.at(host); }
  [[nodiscard]] EthernetSwitch& fabric() { return switch_; }

 private:
  EthernetSwitch switch_;
  std::vector<std::unique_ptr<Link>> links_;
};

/// Two hosts back-to-back on one link (no switch); used by unit tests and
/// latency decomposition ablations.
class BackToBack {
 public:
  BackToBack(sim::Engine& eng, const sim::WireCosts& wire)
      : link_(eng, wire) {}

  [[nodiscard]] Link& link() { return link_; }
  [[nodiscard]] Link::Side side_of(std::size_t host) const {
    return host == 0 ? Link::Side::kA : Link::Side::kB;
  }

 private:
  Link link_;
};

}  // namespace ulsocks::net
