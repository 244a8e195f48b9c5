#include "core/lyapunov.h"

#include <gtest/gtest.h>

#include "sim/pipeline/assemblies.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace eotora::core {
namespace {

using sim::pipeline::make_dpp_pipeline;

TEST(Lyapunov, DriftIdentityHoldsPerSlot) {
  util::Rng rng(1);
  const Instance instance = test::tiny_instance(4, /*budget=*/1.0);
  DppConfig config;
  config.v = 50.0;
  const auto controller = make_dpp_pipeline(instance, config);
  LyapunovAnalyzer analyzer(config.v);
  for (int t = 0; t < 100; ++t) {
    SlotState state = test::random_state(4, 2, rng);
    state.price_per_mwh = rng.uniform(10.0, 150.0);
    const auto slot = controller->step(state, rng);
    const auto rec = analyzer.record(slot);
    // Δ(t) <= ½θ² + Qθ always; equality when the queue did not clip at 0.
    EXPECT_LE(rec.drift, rec.drift_bound + 1e-9);
    if (!rec.clipped) {
      EXPECT_NEAR(rec.drift, rec.drift_bound,
                  1e-9 * (1.0 + std::abs(rec.drift_bound)));
    }
    EXPECT_NEAR(rec.penalty, config.v * slot.latency, 1e-12);
  }
}

TEST(Lyapunov, DriftTelescopes) {
  util::Rng rng(2);
  const Instance instance = test::tiny_instance(3, /*budget=*/0.5);
  DppConfig config;
  config.v = 20.0;
  config.initial_queue = 5.0;
  const auto controller = make_dpp_pipeline(instance, config);
  LyapunovAnalyzer analyzer(config.v);
  for (int t = 0; t < 60; ++t) {
    SlotState state = test::random_state(3, 2, rng);
    analyzer.record(controller->step(state, rng));
  }
  EXPECT_NEAR(analyzer.drift_sum(), analyzer.telescoped_drift(),
              1e-6 * (1.0 + std::abs(analyzer.drift_sum())));
  EXPECT_EQ(analyzer.slots(), 60u);
}

TEST(Lyapunov, BStatisticsTrackTheta) {
  LyapunovAnalyzer analyzer(10.0);
  DppSlotResult slot;
  slot.queue_before = 0.0;
  slot.theta = 2.0;
  slot.queue_after = 2.0;
  slot.latency = 1.0;
  analyzer.record(slot);
  slot.queue_before = 2.0;
  slot.theta = -4.0;  // clips at zero
  slot.queue_after = 0.0;
  analyzer.record(slot);
  EXPECT_DOUBLE_EQ(analyzer.b_max(), 8.0);   // ½·16
  EXPECT_DOUBLE_EQ(analyzer.b_mean(), 5.0);  // (2 + 8)/2
  // Second slot clipped: drift (−2) < bound (8 − 8 = 0).
}

TEST(Lyapunov, ClippedSlotDetected) {
  LyapunovAnalyzer analyzer(1.0);
  DppSlotResult slot;
  slot.queue_before = 1.0;
  slot.theta = -3.0;
  slot.queue_after = 0.0;
  const auto rec = analyzer.record(slot);
  EXPECT_TRUE(rec.clipped);
  EXPECT_LT(rec.drift, rec.drift_bound);
}

TEST(Lyapunov, Theorem4GapScalesInverselyWithV) {
  LyapunovAnalyzer small_v(10.0);
  LyapunovAnalyzer large_v(1000.0);
  DppSlotResult slot;
  slot.queue_before = 0.0;
  slot.theta = 1.0;
  slot.queue_after = 1.0;
  small_v.record(slot);
  large_v.record(slot);
  EXPECT_NEAR(small_v.theorem4_gap(24.0), 100.0 * large_v.theorem4_gap(24.0),
              1e-9);
}

TEST(Lyapunov, EmptyAnalyzerIsZero) {
  const LyapunovAnalyzer analyzer(5.0);
  EXPECT_DOUBLE_EQ(analyzer.b_mean(), 0.0);
  EXPECT_DOUBLE_EQ(analyzer.average_drift_plus_penalty(), 0.0);
  EXPECT_EQ(analyzer.slots(), 0u);
}

}  // namespace
}  // namespace eotora::core
