// Tests for the benchmark's own helpers: the tail percentile rule, the
// per-slot fastest pass, the host-speed scale, CPU pinning, the per-layer
// attribution, the sparse delta generator and the shadow decide.
//
//   cmake -S perfbench -B .bench_build -DCMAKE_BUILD_TYPE=Release
//   cmake --build .bench_build --target perfbench_selftest
//   .bench_build/perfbench_selftest
#include <gtest/gtest.h>

#ifdef __linux__
#include <sched.h>
#endif

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "core/counters.h"
#include "harness.h"
#include "sim/delta.h"
#include "sim/policy_params.h"
#include "sim/registry.h"
#include "sim/state_source.h"
#include "util/rng.h"
#include "util/stats.h"
#include "workloads.h"

namespace {

using perfbench::Clock;

void busy_wait(double seconds) {
  const auto start = Clock::now();
  while (perfbench::seconds_between(start, Clock::now()) < seconds) {
  }
}

TEST(TailPercentile, KeepsAtLeastTenSamplesBeyond) {
  for (const std::size_t n : {20u, 40u, 60u, 100u, 500u, 1000u, 2000u, 4000u,
                              20000u}) {
    const double q = perfbench::tail_percentile(n);
    EXPECT_GE(perfbench::samples_beyond(n, q), perfbench::kTailBeyond) << n;
    // Counted on data, not just by the formula.
    std::vector<double> xs(n);
    std::iota(xs.begin(), xs.end(), 0.0);
    eotora::util::Rng rng(n);
    rng.shuffle(xs);
    const double value = eotora::util::percentile(xs, q);
    const auto beyond = std::count_if(xs.begin(), xs.end(),
                                      [value](double x) { return x > value; });
    EXPECT_GE(static_cast<std::size_t>(beyond), perfbench::kTailBeyond) << n;
  }
}

TEST(TailPercentile, PicksTheHighestRungTheSampleSupports) {
  EXPECT_EQ(perfbench::tail_percentile(2000), 99.0);
  EXPECT_EQ(perfbench::tail_percentile(4000), 99.0);
  EXPECT_EQ(perfbench::tail_percentile(1000), 99.0);
  EXPECT_EQ(perfbench::tail_percentile(800), 95.0);
  EXPECT_EQ(perfbench::tail_percentile(100), 90.0);
  EXPECT_EQ(perfbench::tail_percentile(60), 80.0);
  EXPECT_EQ(perfbench::tail_percentile(20000), 99.9);
  EXPECT_EQ(perfbench::tail_percentile(20), 50.0);
  EXPECT_THROW((void)perfbench::tail_percentile(19), std::invalid_argument);
}

TEST(SlotwiseMin, KeepsEachSlotsFastestPass) {
  // Each pass has a slow phase over a different stretch of slots.
  const std::vector<std::vector<double>> passes = {
      {4.0, 4.0, 1.0, 2.0},
      {1.0, 4.0, 4.0, 2.0},
      {1.0, 1.0, 3.0, 8.0},
  };
  EXPECT_EQ(perfbench::slotwise_min(passes),
            (std::vector<double>{1.0, 1.0, 1.0, 2.0}));
  EXPECT_EQ(perfbench::slotwise_min({{5.0, 6.0}}),
            (std::vector<double>{5.0, 6.0}));
  EXPECT_THROW((void)perfbench::slotwise_min({}), std::invalid_argument);
  EXPECT_THROW((void)perfbench::slotwise_min({{1.0, 2.0}, {1.0}}),
               std::invalid_argument);
}

TEST(HostSpeed, ScalesByTheReferenceTime) {
  perfbench::HostSpeed speed;
  EXPECT_THROW((void)speed.reference_ms(), std::logic_error);
  speed.sample();
  speed.sample();
  EXPECT_GT(speed.reference_ms(), 0.0);
  EXPECT_DOUBLE_EQ(speed.scale(), perfbench::HostSpeed::kReferenceMs /
                                      speed.reference_ms());
}

#ifdef __linux__
std::size_t allowed_cpus() {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  EXPECT_EQ(sched_getaffinity(0, sizeof(mask), &mask), 0);
  return static_cast<std::size_t>(CPU_COUNT(&mask));
}

TEST(CpuRotation, PinsInTurnAndRestores) {
  const std::size_t before = allowed_cpus();
  {
    const perfbench::CpuRotation cpus;
    ASSERT_EQ(cpus.size(), before);
    for (std::size_t turn = 0; turn < 2 * cpus.size(); ++turn) {
      cpus.pin(turn);
      EXPECT_EQ(allowed_cpus(), 1u);
    }
  }
  EXPECT_EQ(allowed_cpus(), before);
}
#endif

TEST(LayerClock, SelfTimesAndUnattributedAddUpToDecideTime) {
  perfbench::LayerClock clock(3);
  const auto start = Clock::now();
  {
    const perfbench::LayerClock::Span outer(clock, 0);
    busy_wait(0.002);
    {
      const perfbench::LayerClock::Span inner(clock, 1);
      busy_wait(0.003);
      eotora::core::counters::active().cgba_rounds += 7;
    }
    eotora::core::counters::active().cgba_rounds += 2;
  }
  {
    const perfbench::LayerClock::Span other(clock, 2);
    busy_wait(0.001);
  }
  busy_wait(0.001);  // decide time outside every span
  const double decide = perfbench::seconds_between(start, Clock::now());

  // The inner span's time is the inner layer's, not also the outer's.
  EXPECT_GE(clock.self_seconds(1), 0.003);
  EXPECT_GE(clock.self_seconds(0), 0.002);
  EXPECT_LT(clock.self_seconds(0), 0.003);
  const std::vector<std::size_t> layers = {0, 1, 2};
  const double frac = perfbench::unattributed_frac(decide, clock, layers);
  double attributed = 0.0;
  for (const std::size_t layer : layers) attributed += clock.self_seconds(layer);
  EXPECT_NEAR(attributed + frac * decide, decide, 1e-12);
  EXPECT_GT(frac, 0.0);
  EXPECT_LT(frac, 1.0);
  // Counters land in the innermost open span's layer.
  EXPECT_EQ(clock.counters(0).cgba_rounds, 2u);
  EXPECT_EQ(clock.counters(1).cgba_rounds, 7u);
  EXPECT_EQ(clock.counters_of(layers).cgba_rounds, 9u);
}

eotora::sim::ScenarioConfig small_scenario(std::uint64_t seed) {
  eotora::sim::ScenarioConfig config;
  config.devices = 100;
  config.seed = seed;
  return config;
}

std::vector<eotora::sim::SlotDelta> deltas_for(std::uint64_t seed,
                                               std::size_t slots) {
  eotora::sim::ScenarioSource source(small_scenario(seed), slots);
  return perfbench::sparse_deltas(source, 100, slots, seed);
}

TEST(SparseDeltas, EveryDeltaApplies) {
  const std::size_t slots = 600;
  const auto deltas = deltas_for(7, slots);
  ASSERT_EQ(deltas.size(), slots);
  EXPECT_EQ(deltas.front().joins.size(), 100u);
  eotora::sim::DeltaApplier applier(100, 6);
  eotora::core::SlotState state;
  std::size_t max_away = 0;
  for (const auto& delta : deltas) {
    ASSERT_NO_THROW(applier.apply(delta, state)) << "slot " << delta.slot;
    EXPECT_TRUE(delta.has_price);
    max_away = std::max(max_away, 100 - applier.active_devices());
    if (delta.slot == 0) continue;
    // ~5% fresh rows plus one leave or rejoin.
    EXPECT_EQ(delta.workloads.size(), 5u);
    EXPECT_EQ(delta.channels.size(), 5u);
    EXPECT_EQ(delta.joins.size() + delta.leaves.size(), 1u);
  }
  // Rejoins pull the away count back towards 10% of the devices.
  EXPECT_GT(max_away, 0u);
  EXPECT_LT(max_away, 30u);
}

TEST(SparseDeltas, DependOnlyOnTheSeed) {
  const auto a = deltas_for(11, 300);
  const auto b = deltas_for(11, 300);
  const auto c = deltas_for(12, 300);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t t = 0; t < a.size(); ++t) EXPECT_TRUE(a[t] == b[t]) << t;
  std::size_t differing = 0;
  for (std::size_t t = 1; t < a.size(); ++t) differing += a[t] != c[t] ? 1 : 0;
  EXPECT_GT(differing, 0u);
}

TEST(ShadowDecider, MatchesTheRegistryPolicyBitForBit) {
  eotora::sim::ScenarioConfig config = small_scenario(3);
  config.devices = 30;
  eotora::sim::ScenarioSource source(config, 40);
  const eotora::core::Instance& instance = source.instance();
  const eotora::sim::PolicyParams params;
  const auto policy = eotora::sim::make_policy("dpp-bdma", instance, params);
  perfbench::ShadowDecider shadow(
      instance,
      eotora::sim::dpp_config_from(params, eotora::core::P2aSolverKind::kCgba));
  perfbench::LayerClock clock(perfbench::kLayerCount);
  eotora::util::Rng rng(1);
  eotora::core::SlotState state;
  eotora::core::SlotState first;
  std::size_t slots = 0;
  while (source.next(state)) {
    if (slots == 0) first = state;
    eotora::util::Rng shadow_rng = rng;
    const auto result = policy->step(state, rng);
    const auto replayed = shadow.step(state, shadow_rng, clock);
    EXPECT_TRUE(perfbench::same_decision(result, replayed)) << "slot " << slots;
    EXPECT_TRUE(shadow_rng.engine() == rng.engine()) << "slot " << slots;
    ++slots;
  }
  EXPECT_EQ(slots, 40u);
  EXPECT_EQ(clock.counters(perfbench::kP2aLayer).bdma_iterations, 40u * 5u);
  // A perturbed result is caught.
  eotora::util::Rng a(1), b(1);
  policy->reset();
  perfbench::ShadowDecider fresh(
      instance,
      eotora::sim::dpp_config_from(params, eotora::core::P2aSolverKind::kCgba));
  auto result = policy->step(first, a);
  const auto replayed = fresh.step(first, b, clock);
  ASSERT_TRUE(perfbench::same_decision(result, replayed));
  result.queue_after = std::nextafter(result.queue_after, 1e300);
  EXPECT_FALSE(perfbench::same_decision(result, replayed));
}

}  // namespace
