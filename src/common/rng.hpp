// Deterministic seeded RNG wrapper. All simulated data (OT images, defect
// seeding, workload arrival) flows through this so experiments are
// reproducible run to run.
#pragma once

#include <cstdint>
#include <random>

namespace strata {

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 42) : engine_(seed) {}

  /// Uniform in [lo, hi] inclusive.
  [[nodiscard]] std::int64_t UniformInt(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }
  /// Uniform in [lo, hi).
  [[nodiscard]] double Uniform(double lo = 0.0, double hi = 1.0) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }
  [[nodiscard]] double Normal(double mean, double stddev) {
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }
  [[nodiscard]] bool Bernoulli(double p) {
    return std::bernoulli_distribution(p)(engine_);
  }
  /// 0 for mean <= 0 (a clean job's defect rate): std::poisson_distribution
  /// requires mean > 0.
  [[nodiscard]] std::int64_t Poisson(double mean) {
    if (mean <= 0.0) return 0;
    return std::poisson_distribution<std::int64_t>(mean)(engine_);
  }
  /// Exponential inter-arrival gap for a Poisson process of the given rate.
  [[nodiscard]] double ExponentialGap(double rate) {
    return std::exponential_distribution<double>(rate)(engine_);
  }

  /// Derive an independent child stream (for per-layer / per-specimen
  /// generators that must not perturb each other).
  [[nodiscard]] Rng Fork() { return Rng(engine_()); }

  std::mt19937_64& engine() noexcept { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace strata
