// Registry of cross-layer invariant checkers.
//
// Each protocol layer registers a checker — a callable that inspects its
// own state and throws check::InvariantError on a violation.  The sim
// engine owns one registry and sweeps it periodically (every
// `check_interval` events), so corruption anywhere in the stack surfaces
// within a bounded number of events of its introduction, in every build
// type, without instrumenting each hot path.
//
// Checkers must be read-only: they run between events and must not perturb
// simulation state, or they would break bit-determinism.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "check/invariant.hpp"

namespace ulsocks::check {

class Registry {
 public:
  using Id = std::size_t;
  using Checker = std::function<void()>;

  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Register a named checker; returns an id for removal.  Checkers run
  /// in registration order (deterministic).
  Id add(std::string name, Checker fn) {
    Id id = next_id_++;
    entries_.push_back(Entry{id, std::move(name), std::move(fn)});
    return id;
  }

  void remove(Id id) {
    std::erase_if(entries_, [id](const Entry& e) { return e.id == id; });
  }

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

  /// Run every checker.  A violation is rethrown with the checker's name
  /// prepended so the failing layer is identifiable from what() alone.
  void run_all() const {
    for (const auto& e : entries_) {
      try {
        e.fn();
      } catch (const InvariantError& err) {
        throw InvariantError("[checker " + e.name + "] " + err.what());
      }
    }
  }

 private:
  struct Entry {
    Id id;
    std::string name;
    Checker fn;
  };
  std::vector<Entry> entries_;
  Id next_id_ = 1;
};

/// RAII registration: removes the checker when destroyed.  Must not
/// outlive the registry it registered with (in practice: the engine
/// outlives every protocol object attached to it).
class ScopedChecker {
 public:
  ScopedChecker(Registry& registry, std::string name, Registry::Checker fn)
      : registry_(registry), id_(registry.add(std::move(name),
                                              std::move(fn))) {}
  ScopedChecker(const ScopedChecker&) = delete;
  ScopedChecker& operator=(const ScopedChecker&) = delete;
  ~ScopedChecker() { registry_.remove(id_); }

 private:
  Registry& registry_;
  Registry::Id id_;
};

}  // namespace ulsocks::check
