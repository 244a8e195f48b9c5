// Slot-level feasibility auditor: a clean slot passes every check, and each
// corrupted field trips exactly the constraint family that guards it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/latency.h"
#include "core/lemma1.h"
#include "sim/audit.h"
#include "sim/registry.h"
#include "support/sim_oracles.h"
#include "test_helpers.h"

namespace eotora {
namespace {

using sim::AuditConfig;
using sim::AuditMode;
using sim::AuditReport;
using sim::AuditViolation;
using sim::SlotAuditor;

// A hand-assembled, exactly consistent slot result on tiny_instance: every
// device on bs-0 / server 0|1 (both in room-0, reachable from bs-0),
// minimum frequencies, Lemma-1 allocation, recomputed metrics, and a
// correct queue step from Q(t) = q_before.
core::DppSlotResult consistent_slot(const core::Instance& instance,
                                    const core::SlotState& state,
                                    double q_before = 0.0) {
  core::DppSlotResult result;
  const std::size_t devices = instance.num_devices();
  result.decision.assignment.bs_of.assign(devices, 0);
  result.decision.assignment.server_of.resize(devices);
  for (std::size_t i = 0; i < devices; ++i) {
    result.decision.assignment.server_of[i] = i % 2;  // servers 0 and 1
  }
  result.decision.frequencies = instance.min_frequencies();
  result.decision.allocation =
      core::optimal_allocation(instance, state, result.decision.assignment);
  result.latency = core::latency_under_allocation(
      instance, state, result.decision.assignment, result.decision.frequencies,
      result.decision.allocation);
  result.energy_cost = instance.energy_cost(result.decision.frequencies,
                                            state.price_per_mwh);
  result.theta = result.energy_cost - instance.budget_per_slot();
  result.queue_before = q_before;
  result.queue_after = std::max(q_before + result.theta, 0.0);
  return result;
}

bool has_constraint(const AuditReport& report, const std::string& id) {
  return std::any_of(report.violations.begin(), report.violations.end(),
                     [&](const AuditViolation& v) { return v.constraint == id; });
}

class AuditTest : public ::testing::Test {
 protected:
  AuditTest()
      : instance_(test::tiny_instance(3)),
        state_(test::uniform_state(3, 2)),
        clean_(consistent_slot(instance_, state_)) {}

  AuditReport audit(const core::DppSlotResult& slot,
                    AuditConfig config = {}) const {
    return sim::audit_slot(instance_, state_, slot, config);
  }

  core::Instance instance_;
  core::SlotState state_;
  core::DppSlotResult clean_;
};

TEST_F(AuditTest, ConsistentSlotIsClean) {
  const AuditReport report = audit(clean_);
  EXPECT_TRUE(report.clean()) << report.summary();
  EXPECT_EQ(report.slots_audited, 1u);
  EXPECT_EQ(report.slots_observed, 1u);
  EXPECT_EQ(report.slots_with_violations, 0u);
}

TEST_F(AuditTest, DppPolicyStepIsClean) {
  auto policy = sim::make_policy("dpp-bdma", instance_);
  util::Rng rng(7);
  SlotAuditor auditor(instance_);
  for (std::size_t t = 0; t < 5; ++t) {
    core::SlotState state = test::random_state(3, 2, rng);
    state.slot = t;
    auditor.observe(state, policy->step(state, rng));
  }
  EXPECT_TRUE(auditor.report().clean()) << auditor.report().summary();
  EXPECT_EQ(auditor.report().slots_audited, 5u);
}

TEST_F(AuditTest, BadBaseStationIndexIsCaught) {
  core::DppSlotResult bad = clean_;
  bad.decision.assignment.bs_of[0] = 5;  // only 2 stations exist
  const AuditReport report = audit(bad);
  EXPECT_TRUE(has_constraint(report, "coverage.bs_index"));
}

TEST_F(AuditTest, UnreachableServerIsCaught) {
  core::DppSlotResult bad = clean_;
  // bs-1's fronthaul reaches room-1 only (server 2); server 0 is room-0.
  bad.decision.assignment.bs_of[0] = 1;
  bad.decision.assignment.server_of[0] = 0;
  const AuditReport report = audit(bad);
  EXPECT_TRUE(has_constraint(report, "coverage.reachability"))
      << report.summary();
}

TEST_F(AuditTest, UnusableChannelIsCaught) {
  core::SlotState state = state_;
  state.channel[1][0] = 0.0;  // device 1's link to its chosen bs-0 dies
  const AuditReport report = sim::audit_slot(instance_, state, clean_);
  EXPECT_TRUE(has_constraint(report, "coverage.channel"));
}

TEST_F(AuditTest, FrequencyOutsideBoxIsCaught) {
  core::DppSlotResult bad = clean_;
  bad.decision.frequencies[0] = 10.0;  // F^U for s0 is 3.6 GHz
  AuditReport report = audit(bad);
  EXPECT_TRUE(has_constraint(report, "frequency.upper"));

  bad = clean_;
  bad.decision.frequencies[1] = 0.5;  // F^L for s1 is 1.8 GHz
  report = audit(bad);
  EXPECT_TRUE(has_constraint(report, "frequency.lower"));

  bad = clean_;
  bad.decision.frequencies[2] = std::nan("");
  report = audit(bad);
  EXPECT_TRUE(has_constraint(report, "frequency.finite"));
}

TEST_F(AuditTest, ShareOutsideSimplexIsCaught) {
  core::DppSlotResult bad = clean_;
  bad.decision.allocation.phi[0] = 1.5;
  AuditReport report = audit(bad);
  EXPECT_TRUE(has_constraint(report, "simplex.phi.range"));

  bad = clean_;
  bad.decision.allocation.psi_access[0] = -0.1;
  report = audit(bad);
  EXPECT_TRUE(has_constraint(report, "simplex.psi_access.range"));
}

TEST_F(AuditTest, OversubscribedResourceIsCaught) {
  core::DppSlotResult bad = clean_;
  // Keep every share in (0, 1] individually but oversubscribe bs-0's
  // fronthaul: all three devices claim 90%.
  for (double& share : bad.decision.allocation.psi_fronthaul) share = 0.9;
  const AuditReport report = audit(bad);
  EXPECT_TRUE(has_constraint(report, "simplex.psi_fronthaul.sum"));
}

TEST_F(AuditTest, NonLemma1AllocationIsCaught) {
  core::DppSlotResult bad = clean_;
  // Swap two devices' compute shares: still a valid simplex point on their
  // shared server only if they are on the same server — devices 0 and 2
  // both sit on server 0, so sums are unchanged but the closed form is not.
  std::swap(bad.decision.allocation.phi[0], bad.decision.allocation.phi[2]);
  bad.decision.allocation.phi[0] *= 0.5;
  bad.decision.allocation.phi[2] *= 1.5;
  const AuditReport report = audit(bad);
  EXPECT_TRUE(has_constraint(report, "lemma1.phi")) << report.summary();
}

TEST_F(AuditTest, WrongMetricsAreCaught) {
  core::DppSlotResult bad = clean_;
  bad.latency += 1.0;
  AuditReport report = audit(bad);
  EXPECT_TRUE(has_constraint(report, "metric.latency"));

  bad = clean_;
  bad.energy_cost += 1.0;
  report = audit(bad);
  EXPECT_TRUE(has_constraint(report, "metric.energy_cost"));
  // theta was derived from the uncorrupted energy, so it no longer matches.
  EXPECT_TRUE(has_constraint(report, "metric.theta"));
}

TEST_F(AuditTest, QueueLedgerIsChecked) {
  core::DppSlotResult bad = consistent_slot(instance_, state_, 2.0);
  bad.queue_after += 0.25;
  AuditReport report = audit(bad);
  EXPECT_TRUE(has_constraint(report, "queue.update"));

  bad = consistent_slot(instance_, state_, 2.0);
  bad.queue_before = -1.0;
  bad.queue_after = std::max(bad.queue_before + bad.theta, 0.0);
  report = audit(bad);
  EXPECT_TRUE(has_constraint(report, "queue.nonnegative"));
}

TEST_F(AuditTest, QueueContinuityAcrossSlots) {
  SlotAuditor auditor(instance_);
  const core::DppSlotResult first = consistent_slot(instance_, state_, 1.0);
  auditor.observe(state_, first);
  // Second slot claims a Q(t) that does not match the first's Q(t+1).
  core::DppSlotResult second =
      consistent_slot(instance_, state_, first.queue_after + 0.5);
  auditor.observe(state_, second);
  EXPECT_TRUE(has_constraint(auditor.report(), "queue.continuity"));
}

TEST_F(AuditTest, CheckQueueFalseSuppressesLedgerChecks) {
  // Queue-free baselines report Q == 0 while theta != 0; with check_queue
  // off that is not a violation.
  core::DppSlotResult slot = clean_;
  slot.queue_before = 0.0;
  slot.queue_after = 0.0;
  ASSERT_NE(slot.theta, 0.0);
  AuditConfig config;
  config.check_queue = false;
  EXPECT_TRUE(audit(slot, config).clean());
  if (slot.theta > 0.0) {  // with the ledger on, the same slot trips
    EXPECT_FALSE(audit(slot).clean());
  }
}

TEST_F(AuditTest, MalformedShapesShortCircuit) {
  core::DppSlotResult bad = clean_;
  bad.decision.allocation.phi.pop_back();
  const AuditReport report = audit(bad);
  EXPECT_TRUE(has_constraint(report, "shape.decision"));
  // The shape gate stops before any per-device indexing.
  for (const auto& v : report.violations) {
    EXPECT_EQ(v.constraint, "shape.decision");
  }
}

TEST_F(AuditTest, SampledModeAuditsEveryKthSlot) {
  AuditConfig config;
  config.mode = AuditMode::kSampled;
  config.sample_period = 4;
  SlotAuditor auditor(instance_, config);
  for (std::size_t t = 0; t < 10; ++t) auditor.observe(state_, clean_);
  EXPECT_EQ(auditor.report().slots_observed, 10u);
  EXPECT_EQ(auditor.report().slots_audited, 3u);  // indices 0, 4, 8
}

TEST_F(AuditTest, OffModeAuditsNothing) {
  AuditConfig config;
  config.mode = AuditMode::kOff;
  SlotAuditor auditor(instance_, config);
  core::DppSlotResult bad = clean_;
  bad.latency = -1.0;
  for (std::size_t t = 0; t < 5; ++t) auditor.observe(state_, bad);
  EXPECT_EQ(auditor.report().slots_observed, 5u);
  EXPECT_EQ(auditor.report().slots_audited, 0u);
  EXPECT_TRUE(auditor.report().clean());
}

TEST_F(AuditTest, MaxViolationsCapsStorageNotCounting) {
  AuditConfig config;
  config.max_violations = 2;
  SlotAuditor auditor(instance_, config);
  core::DppSlotResult bad = clean_;
  for (double& share : bad.decision.allocation.phi) share = 2.0;  // 3 range hits
  auditor.observe(state_, bad);
  const AuditReport& report = auditor.report();
  EXPECT_EQ(report.violations.size(), 2u);
  EXPECT_GT(report.violations_dropped, 0u);
  EXPECT_GE(report.total_violations(), 3u);
  EXPECT_FALSE(report.clean());
}

TEST_F(AuditTest, DescribeAndSummaryNameTheConstraint) {
  core::DppSlotResult bad = clean_;
  bad.decision.frequencies[0] = 10.0;
  const AuditReport report = audit(bad);
  ASSERT_FALSE(report.violations.empty());
  EXPECT_NE(report.violations.front().describe().find("frequency.upper"),
            std::string::npos);
  EXPECT_NE(report.summary().find("violation"), std::string::npos);
  EXPECT_NE(AuditReport{}.summary().find("clean"), std::string::npos);
}

}  // namespace
}  // namespace eotora
