// Deterministic random number utilities.
//
// Every stochastic choice in the simulation (loss injection, workload
// generation, jitter) draws from an explicitly seeded engine so that runs
// are reproducible and failures can be replayed from a seed.
#pragma once

#include <cstdint>
#include <random>

#include "check/invariant.hpp"

namespace ulsocks::sim {

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 1) : gen_(seed) {}

  /// Uniform integer in [lo, hi] (inclusive).
  std::uint64_t uniform(std::uint64_t lo, std::uint64_t hi) {
    ULSOCKS_INVARIANT(lo <= hi, "uniform(): empty range");
    return std::uniform_int_distribution<std::uint64_t>(lo, hi)(gen_);
  }

  /// Uniform double in [0, 1).
  double uniform01() {
    return std::uniform_real_distribution<double>(0.0, 1.0)(gen_);
  }

  /// Bernoulli trial.
  bool chance(double p) { return uniform01() < p; }

 private:
  std::mt19937_64 gen_;
};

}  // namespace ulsocks::sim
