// Deterministic random number generation for simulations.
//
// All stochastic components of the library draw through Rng so that a single
// 64-bit seed reproduces an entire experiment bit-for-bit. Rng also supports
// cheap forking (`fork`) to hand independent, deterministic streams to
// sub-components (per-device noise, per-server perturbations, ...) without
// coupling their consumption order.
#pragma once

#include <cstdint>
#include <random>
#include <vector>

#include "util/check.h"

namespace eotora::util {

class Rng {
 public:
  // A fixed default seed keeps zero-config runs reproducible.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull) : engine_(seed) {}

  // Uniform real in [lo, hi). Requires lo <= hi.
  double uniform(double lo, double hi) {
    EOTORA_REQUIRE_MSG(lo <= hi, "lo=" << lo << " hi=" << hi);
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  // Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    EOTORA_REQUIRE_MSG(lo <= hi, "lo=" << lo << " hi=" << hi);
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  // Index into a container of the given size. Requires size > 0.
  std::size_t index(std::size_t size) {
    EOTORA_REQUIRE(size > 0);
    return static_cast<std::size_t>(
        uniform_int(0, static_cast<std::int64_t>(size) - 1));
  }

  // Standard normal (mean 0, stddev 1).
  double normal() { return std::normal_distribution<double>(0.0, 1.0)(engine_); }

  // Normal with given mean and stddev. Requires stddev >= 0. stddev == 0
  // returns `mean` and still draws a standard normal, so the engine advances
  // exactly as for any other stddev (std::normal_distribution itself
  // requires stddev > 0).
  double normal(double mean, double stddev) {
    EOTORA_REQUIRE_MSG(stddev >= 0.0, "stddev=" << stddev);
    if (stddev == 0.0) {
      (void)normal();
      return mean;
    }
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }

  // Bernoulli draw. Requires p in [0, 1].
  bool bernoulli(double p) {
    EOTORA_REQUIRE_MSG(p >= 0.0 && p <= 1.0, "p=" << p);
    return std::bernoulli_distribution(p)(engine_);
  }

  // Exponential with the given rate. Requires rate > 0.
  double exponential(double rate) {
    EOTORA_REQUIRE_MSG(rate > 0.0, "rate=" << rate);
    return std::exponential_distribution<double>(rate)(engine_);
  }

  // Derives an independent deterministic child stream. Children forked in the
  // same order from the same parent state are identical across runs.
  Rng fork() { return Rng(engine_() ^ 0xD1B54A32D192ED03ull); }

  // Picks an element from a non-empty vector by value.
  template <typename T>
  const T& pick(const std::vector<T>& items) {
    EOTORA_REQUIRE(!items.empty());
    return items[index(items.size())];
  }

  // In-place Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      std::swap(items[i - 1], items[index(i)]);
    }
  }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace eotora::util
