// Canned topologies.
#pragma once

#include <memory>
#include <vector>

#include "net/link.hpp"
#include "net/switch.hpp"
#include "sim/cost_model.hpp"
#include "sim/engine.hpp"

namespace ulsocks::net {

/// The paper's testbed topology: N hosts, each on its own full-duplex
/// gigabit link to one switch.  Hosts attach their NIC MAC to side A of
/// their link; side B belongs to the switch, on `eng`.  A host may attach
/// on another shard of `eng`'s group, and its link then posts across (see
/// apps::Cluster).
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

  static constexpr Link::Side kHostSide = Link::Side::kA;

  [[nodiscard]] Link& host_link(std::size_t host) { return *links_.at(host); }
  [[nodiscard]] EthernetSwitch& fabric() { return switch_; }

 private:
  EthernetSwitch switch_;
  std::vector<std::unique_ptr<Link>> links_;
};

}  // namespace ulsocks::net
