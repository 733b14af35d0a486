// Alteon Tigon2-style programmable NIC.
//
// The device exposes the resources protocol firmware runs on:
//   - two embedded firmware processors (the Tigon2's novelty), one driving
//     the transmit path and one the receive path (a single-CPU mode exists
//     for ablation);
//   - one DMA engine moving bytes between host memory and the NIC across
//     the PCI bus;
//   - a MAC with a line-rate-paced transmit queue.
//
// Protocol personalities (EMP firmware in src/emp, the stock acenic-style
// firmware in src/tcp) schedule their work onto these resources and install
// a receive handler for incoming frames.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <utility>

#include "net/frame.hpp"
#include "net/link.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "sim/cost_model.hpp"
#include "sim/engine.hpp"
#include "sim/resource.hpp"

namespace ulsocks::nic {

class NicDevice final : public net::FrameSink {
 public:
  NicDevice(sim::Engine& eng, const sim::CostModel& model, net::Link& link,
            net::Link::Side side, net::MacAddress mac, bool dual_cpu = true)
      : eng_(&eng),
        model_(model),
        link_(link),
        side_(side),
        mac_(mac),
        dual_cpu_(dual_cpu),
        tx_cpu_(eng),
        rx_cpu_(eng),
        dma_(eng),
        scope_(eng.metrics(), obs::host_label(mac.host_index(), "/nic")),
        frames_tx_(scope_.counter("frames_tx")),
        frames_rx_(scope_.counter("frames_rx")),
        frames_filtered_(scope_.counter("frames_filtered")),
        tracer_(eng.tracer()),
        trk_(eng.tracer().track(obs::host_label(mac.host_index()), "nic")) {
    pool_.bind_hwm_gauge(scope_.gauge("frame_pool_hwm"));
    slice_pool_.bind_hwm_gauge(scope_.gauge("slice_pool_hwm"));
    link_.attach(side_, this, eng);
  }

  [[nodiscard]] net::MacAddress mac() const noexcept { return mac_; }
  [[nodiscard]] const sim::CostModel& model() const noexcept { return model_; }
  [[nodiscard]] sim::Engine& engine() noexcept { return *eng_; }

  /// Firmware processors.  In single-CPU mode both paths share one core.
  [[nodiscard]] sim::SerialResource& tx_cpu() noexcept { return tx_cpu_; }
  [[nodiscard]] sim::SerialResource& rx_cpu() noexcept {
    return dual_cpu_ ? rx_cpu_ : tx_cpu_;
  }

  /// The host's frame recycler: every frame this NIC originates (EMP and
  /// kernel-TCP paths alike) is acquired here and returns here after the
  /// receive side is done with it.
  [[nodiscard]] net::FramePool& frame_pool() noexcept { return pool_; }

  /// The host's pinned-buffer recycler: protocol send paths pin payloads
  /// into slices drawn from here (the simulated DMA-registered region) and
  /// fragment by refcount instead of copying.
  [[nodiscard]] net::SlicePool& slice_pool() noexcept { return slice_pool_; }

  /// Schedule firmware work on the transmit / receive processor.
  void fw_tx(sim::Duration cost, sim::EventFn fn) {
    tx_cpu().run(cost, std::move(fn));
  }
  void fw_rx(sim::Duration cost, sim::EventFn fn) {
    rx_cpu().run(cost, std::move(fn));
  }

  /// One DMA transfer of `bytes` across the host bus (setup + per byte).
  void dma_transfer(std::uint64_t bytes, sim::EventFn done) {
    if (tracer_.enabled()) {
      tracer_.complete(trk_, eng_->now(), model_.dma_cost(bytes), "dma",
                       "\"bytes\":" + std::to_string(bytes));
    }
    dma_.run(model_.dma_cost(bytes), std::move(done));
  }

  /// Hand a frame to the MAC: queued and transmitted at line rate.
  void mac_send(net::FramePtr frame) {
    ++frames_tx_;
    tx_queue_.push_back(std::move(frame));
    if (!tx_draining_) drain_tx();
  }

  /// Install a protocol receive entry point for one EtherType (runs at
  /// frame arrival; the handler is responsible for charging firmware time
  /// via fw_rx).  EMP firmware and the kernel-path driver can coexist on
  /// one NIC, each claiming its own EtherType.
  void set_rx_handler(net::EtherType type,
                      std::function<void(net::FramePtr)> handler) {
    if (type == net::EtherType::kEmp) {
      rx_emp_ = std::move(handler);
    } else {
      rx_ip_ = std::move(handler);
    }
  }

  void frame_arrived(net::FramePtr frame) override {
    // MAC filtering: flooded frames for other hosts (the switch floods
    // unknown destinations) are dropped in hardware.
    if (frame->dst != mac_ && !frame->dst.is_broadcast()) {
      ++frames_filtered_;
      return;
    }
    ++frames_rx_;
    auto& handler =
        frame->type == net::EtherType::kEmp ? rx_emp_ : rx_ip_;
    if (handler) handler(std::move(frame));
  }

  [[nodiscard]] std::uint64_t frames_rx() const noexcept {
    return frames_rx_.value();
  }
  [[nodiscard]] std::uint64_t frames_filtered() const noexcept {
    return frames_filtered_.value();
  }

 private:
  void drain_tx() {
    if (tx_queue_.empty()) {
      tx_draining_ = false;
      return;
    }
    tx_draining_ = true;
    net::FramePtr frame = std::move(tx_queue_.front());
    tx_queue_.pop_front();
    sim::Duration ser = link_.serialization_time(*frame);
    if (tracer_.enabled()) tracer_.complete(trk_, eng_->now(), ser, "mac_tx");
    link_.transmit(side_, std::move(frame));
    eng_->schedule_after(ser, [this] { drain_tx(); });
  }

  sim::Engine* eng_;
  sim::CostModel model_;
  net::Link& link_;
  net::Link::Side side_;
  net::MacAddress mac_;
  bool dual_cpu_;
  sim::SerialResource tx_cpu_;
  sim::SerialResource rx_cpu_;
  sim::SerialResource dma_;
  net::FramePool pool_;
  net::SlicePool slice_pool_;
  std::deque<net::FramePtr> tx_queue_;
  bool tx_draining_ = false;
  std::function<void(net::FramePtr)> rx_emp_;
  std::function<void(net::FramePtr)> rx_ip_;
  obs::Scope scope_;  // "h<N>/nic" registry prefix
  obs::Counter& frames_tx_;
  obs::Counter& frames_rx_;
  obs::Counter& frames_filtered_;
  obs::Tracer& tracer_;
  std::uint32_t trk_;  // ("h<N>", "nic") timeline track
};

}  // namespace ulsocks::nic
