#include "des/flow_sim.h"

#include <gtest/gtest.h>

#include "core/alloc_rules.h"
#include "core/latency.h"
#include "core/lemma1.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace eotora::des {
namespace {

using core::Assignment;
using core::Frequencies;
using core::Instance;
using core::ResourceAllocation;
using core::SlotState;

TEST(FlowSimStatic, SingleFlowMatchesHandComputation) {
  const Instance instance = test::tiny_instance(1);
  const SlotState state = test::uniform_state(1, 2, /*f=*/1e8, /*d=*/5e6,
                                              /*h=*/25.0);
  Assignment assignment;
  assignment.bs_of = {0};
  assignment.server_of = {0};
  const Frequencies freq = {2.0, 2.0, 2.5};
  const ResourceAllocation alloc{{1.0}, {1.0}, {1.0}};
  const auto result = simulate_slot(instance, state, assignment, freq, alloc,
                                    SharingDiscipline::kStaticShares);
  const double access = 5e6 / (80e6 * 25.0);
  const double fronthaul = 5e6 / (0.8e9 * 10.0);
  const double compute = 1e8 / (64.0 * 2e9);
  EXPECT_NEAR(result.access_done[0], access, 1e-12);
  EXPECT_NEAR(result.fronthaul_done[0], access + fronthaul, 1e-12);
  EXPECT_NEAR(result.finish[0], access + fronthaul + compute, 1e-12);
  EXPECT_EQ(result.events, 3u);  // three stage completions, one flow
}

// The core validation: with Lemma-1 static shares, the DES-measured total
// latency equals the analytic reduced latency T_t exactly.
class StaticMatchesAnalytic : public ::testing::TestWithParam<int> {};

TEST_P(StaticMatchesAnalytic, TotalsAgree) {
  util::Rng rng(5000 + GetParam());
  const std::size_t devices = 2 + rng.index(6);
  const Instance instance = test::tiny_instance(devices);
  const SlotState state = test::random_state(devices, 2, rng);
  Assignment assignment;
  for (std::size_t i = 0; i < devices; ++i) {
    assignment.bs_of.push_back(0);
    assignment.server_of.push_back(rng.index(3));
  }
  const Frequencies freq = instance.max_frequencies();
  const auto alloc = core::optimal_allocation(instance, state, assignment);
  const auto result = simulate_slot(instance, state, assignment, freq, alloc,
                                    SharingDiscipline::kStaticShares);
  const double analytic =
      core::reduced_latency(instance, state, assignment, freq);
  EXPECT_NEAR(result.total_latency(), analytic, 1e-6 * analytic);
  // And per-device: finish time equals the device's three analytic terms.
  for (std::size_t i = 0; i < devices; ++i) {
    const auto device = core::device_latency_under_allocation(
        instance, state, assignment, freq, alloc, i);
    EXPECT_NEAR(result.finish[i], device.total(), 1e-6 * device.total());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StaticMatchesAnalytic,
                         ::testing::Range(0, 12));

TEST(FlowSimPs, TwoIdenticalFlowsHandComputed) {
  // Two identical devices through one BS and one server under processor
  // sharing: they split every resource 50/50 and finish simultaneously; the
  // trajectory is the same as static halves, so finish time equals
  // 2*(d/(W h) + d/(W^F h^F) + f/(cap σ))... i.e. each stage at half rate.
  const Instance instance = test::tiny_instance(2);
  const SlotState state = test::uniform_state(2, 2, 1e8, 5e6, 25.0);
  Assignment assignment;
  assignment.bs_of = {0, 0};
  assignment.server_of = {0, 0};
  const Frequencies freq = instance.max_frequencies();
  const ResourceAllocation unused;
  const auto result = simulate_slot(instance, state, assignment, freq, unused,
                                    SharingDiscipline::kProcessorSharing);
  const double access = 5e6 / (0.5 * 80e6 * 25.0);
  const double fronthaul = 5e6 / (0.5 * 0.8e9 * 10.0);
  const double compute = 1e8 / (0.5 * 64.0 * 3.6e9);
  EXPECT_NEAR(result.finish[0], access + fronthaul + compute, 1e-9);
  EXPECT_NEAR(result.finish[1], result.finish[0], 1e-12);
}

TEST(FlowSimPs, FreedCapacitySpeedsUpStragglers) {
  // One small and one large task through the same resources: once the small
  // one leaves a stage, the big one gets the full resource — so its PS
  // finish time must beat its static-equal-share finish time.
  const Instance instance = test::tiny_instance(2);
  SlotState state = test::uniform_state(2, 2, 1e8, 5e6, 25.0);
  state.task_cycles = {2e7, 4e8};
  state.data_bits = {1e6, 9e6};
  Assignment assignment;
  assignment.bs_of = {0, 0};
  assignment.server_of = {0, 0};
  const Frequencies freq = instance.max_frequencies();
  const auto equal = core::equal_share_allocation(instance, state, assignment);
  const auto ps = simulate_slot(instance, state, assignment, freq, equal,
                                SharingDiscipline::kProcessorSharing);
  const auto fixed = simulate_slot(instance, state, assignment, freq, equal,
                                   SharingDiscipline::kStaticShares);
  EXPECT_LT(ps.finish[1], fixed.finish[1]);
  // The small task is never slower under PS than under a half reservation.
  EXPECT_LE(ps.finish[0], fixed.finish[0] + 1e-12);
}

TEST(FlowSimPs, WorkConservationBeatsStaticOnAverage) {
  util::Rng rng(6);
  double ps_total = 0.0;
  double static_total = 0.0;
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t devices = 4 + rng.index(4);
    const Instance instance = test::tiny_instance(devices);
    const SlotState state = test::random_state(devices, 2, rng);
    Assignment assignment;
    for (std::size_t i = 0; i < devices; ++i) {
      assignment.bs_of.push_back(0);
      assignment.server_of.push_back(rng.index(3));
    }
    const Frequencies freq = instance.max_frequencies();
    const auto alloc = core::optimal_allocation(instance, state, assignment);
    ps_total += simulate_slot(instance, state, assignment, freq, alloc,
                              SharingDiscipline::kProcessorSharing)
                    .total_latency();
    static_total += simulate_slot(instance, state, assignment, freq, alloc,
                                  SharingDiscipline::kStaticShares)
                        .total_latency();
  }
  EXPECT_LT(ps_total, static_total);
}

TEST(FlowSim, EventCountBounded) {
  util::Rng rng(7);
  const std::size_t devices = 8;
  const Instance instance = test::tiny_instance(devices);
  const SlotState state = test::random_state(devices, 2, rng);
  Assignment assignment;
  for (std::size_t i = 0; i < devices; ++i) {
    assignment.bs_of.push_back(0);
    assignment.server_of.push_back(i % 3);
  }
  const Frequencies freq = instance.max_frequencies();
  const auto alloc = core::optimal_allocation(instance, state, assignment);
  for (auto discipline : {SharingDiscipline::kStaticShares,
                          SharingDiscipline::kProcessorSharing}) {
    const auto result =
        simulate_slot(instance, state, assignment, freq, alloc, discipline);
    EXPECT_LE(result.events, 3 * devices);
    EXPECT_GE(result.events, 3u);
    EXPECT_GT(result.makespan(), 0.0);
    EXPECT_GE(result.total_latency(), result.makespan());
  }
}

TEST(FlowSim, StagesAreOrderedPerDevice) {
  util::Rng rng(8);
  const std::size_t devices = 5;
  const Instance instance = test::tiny_instance(devices);
  const SlotState state = test::random_state(devices, 2, rng);
  Assignment assignment;
  for (std::size_t i = 0; i < devices; ++i) {
    assignment.bs_of.push_back(0);
    assignment.server_of.push_back(rng.index(3));
  }
  const Frequencies freq = instance.max_frequencies();
  const auto alloc = core::optimal_allocation(instance, state, assignment);
  const auto result = simulate_slot(instance, state, assignment, freq, alloc,
                                    SharingDiscipline::kProcessorSharing);
  for (std::size_t i = 0; i < devices; ++i) {
    EXPECT_GT(result.access_done[i], 0.0);
    EXPECT_GT(result.fronthaul_done[i], result.access_done[i]);
    EXPECT_GT(result.finish[i], result.fronthaul_done[i]);
  }
}

TEST(FlowSim, RejectsBadInput) {
  const Instance instance = test::tiny_instance(1);
  SlotState state = test::uniform_state(1, 2);
  Assignment assignment;
  assignment.bs_of = {0};
  assignment.server_of = {0};
  const ResourceAllocation alloc{{1.0}, {1.0}, {1.0}};
  // Unusable channel.
  state.channel[0][0] = 0.0;
  EXPECT_THROW(simulate_slot(instance, state, assignment,
                             instance.max_frequencies(), alloc,
                             SharingDiscipline::kStaticShares),
               std::invalid_argument);
  // Zero static share.
  state.channel[0][0] = 30.0;
  const ResourceAllocation zero{{0.0}, {1.0}, {1.0}};
  EXPECT_THROW(simulate_slot(instance, state, assignment,
                             instance.max_frequencies(), zero,
                             SharingDiscipline::kStaticShares),
               std::invalid_argument);
  // Infeasible frequencies.
  EXPECT_THROW(simulate_slot(instance, state, assignment, {9.0, 2.0, 2.5},
                             alloc, SharingDiscipline::kStaticShares),
               std::invalid_argument);
}

}  // namespace
}  // namespace eotora::des

namespace eotora::des {
namespace {

// --- property fuzz over random instances --------------------------------
//
// The acceptance invariant: under kStaticShares every task's completion
// time equals the analytic three-term sum L^{C,A} + L^{C,F} + L^P to 1e-9
// seconds, and a work-conserving (PS) run never finishes a task later than
// the equal-share static run it shadows.

core::Assignment random_assignment(std::size_t devices, util::Rng& rng) {
  core::Assignment assignment;
  for (std::size_t i = 0; i < devices; ++i) {
    // bs-1 only reaches room-1 (server 2); keep the pairing feasible.
    const std::size_t bs = rng.index(2);
    assignment.bs_of.push_back(bs);
    assignment.server_of.push_back(bs == 1 ? 2 : rng.index(3));
  }
  return assignment;
}

class FlowSimFuzz : public ::testing::TestWithParam<int> {};

TEST_P(FlowSimFuzz, StaticCompletionEqualsAnalyticTo1e9) {
  util::Rng rng(9000 + GetParam());
  const std::size_t devices = 2 + rng.index(7);
  const core::Instance instance = test::tiny_instance(devices);
  const core::SlotState state = test::random_state(devices, 2, rng);
  const core::Assignment assignment = random_assignment(devices, rng);
  const core::Frequencies freq = instance.max_frequencies();
  const auto alloc = core::optimal_allocation(instance, state, assignment);
  const auto result = simulate_slot(instance, state, assignment, freq, alloc,
                                    SharingDiscipline::kStaticShares);
  for (std::size_t i = 0; i < devices; ++i) {
    const auto device = core::device_latency_under_allocation(
        instance, state, assignment, freq, alloc, i);
    EXPECT_NEAR(result.finish[i], device.total(), 1e-9)
        << "device " << i << " of " << devices;
  }
}

TEST_P(FlowSimFuzz, ProcessorSharingNeverSlowerThanEqualShares) {
  util::Rng rng(9100 + GetParam());
  const std::size_t devices = 2 + rng.index(7);
  const core::Instance instance = test::tiny_instance(devices);
  const core::SlotState state = test::random_state(devices, 2, rng);
  const core::Assignment assignment = random_assignment(devices, rng);
  const core::Frequencies freq = instance.max_frequencies();
  // Equal shares are PS's static shadow: at every instant a PS flow's rate
  // is at least its equal-share reservation, so no task finishes later.
  const auto equal = core::equal_share_allocation(instance, state, assignment);
  const auto ps = simulate_slot(instance, state, assignment, freq, equal,
                                SharingDiscipline::kProcessorSharing);
  const auto fixed = simulate_slot(instance, state, assignment, freq, equal,
                                   SharingDiscipline::kStaticShares);
  for (std::size_t i = 0; i < devices; ++i) {
    EXPECT_LE(ps.finish[i], fixed.finish[i] + 1e-9) << "device " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlowSimFuzz, ::testing::Range(0, 30));

// --- the multi-slot engine ----------------------------------------------

// `slots` random per-slot states + decisions over the tiny instance,
// replayed into a FlowSimulator under `config`.
HorizonResult run_horizon(const core::Instance& instance, HorizonConfig config,
                          std::size_t slots, std::uint64_t seed,
                          double cycle_scale = 1.0) {
  util::Rng rng(seed);
  const std::size_t devices = instance.num_devices();
  FlowSimulator sim(instance, config);
  for (std::size_t t = 0; t < slots; ++t) {
    core::SlotState state = test::random_state(devices, 2, rng);
    state.slot = t;
    for (double& f : state.task_cycles) f *= cycle_scale;
    core::Decision decision;
    decision.assignment = random_assignment(devices, rng);
    decision.frequencies = instance.max_frequencies();
    decision.allocation =
        core::optimal_allocation(instance, state, decision.assignment);
    sim.push_slot(state, decision);
  }
  return sim.finish();
}

class FlowSimulatorMulti : public ::testing::TestWithParam<int> {};

TEST_P(FlowSimulatorMulti, StaticSojournEqualsAnalyticForBothArrivalModels) {
  const core::Instance instance = test::tiny_instance(5);
  for (auto arrivals : {ArrivalModel::kSlotStart, ArrivalModel::kPoisson}) {
    HorizonConfig config;
    config.discipline = SharingDiscipline::kStaticShares;
    config.arrivals = arrivals;
    const HorizonResult result =
        run_horizon(instance, config, 6, 400 + GetParam());
    ASSERT_EQ(result.tasks.size(), 6u * 5u);
    for (const TaskRecord& task : result.tasks) {
      // Reserved rates are oblivious to arrival phase: the sojourn matches
      // the fluid model exactly even mid-slot.
      EXPECT_NEAR(task.sojourn(), task.analytic, 1e-9)
          << "slot " << task.slot << " device " << task.device;
    }
    for (const SlotGap& gap : result.slots) {
      EXPECT_LE(gap.max_device_gap, 1e-9);
      EXPECT_NEAR(gap.analytic, gap.realized, 1e-6);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlowSimulatorMulti, ::testing::Range(0, 5));

TEST(FlowSimulator, PoissonArrivalsLandInsideTheirSlot) {
  const core::Instance instance = test::tiny_instance(4);
  const double slot_seconds = instance.slot_hours() * 3600.0;
  HorizonConfig config;
  config.arrivals = ArrivalModel::kPoisson;
  config.arrival_rate = 2.5;
  const HorizonResult result = run_horizon(instance, config, 4, 11);
  ASSERT_EQ(result.tasks.size(), 4u * 4u);
  bool some_offset = false;
  for (const TaskRecord& task : result.tasks) {
    const double start = static_cast<double>(task.slot) * slot_seconds;
    EXPECT_GE(task.arrival, start);
    EXPECT_LT(task.arrival, start + slot_seconds);
    some_offset = some_offset || task.arrival > start;
  }
  EXPECT_TRUE(some_offset);  // the truncated-exponential draws really fire
}

TEST(FlowSimulator, StragglersSpillAcrossSlotBoundaries) {
  const core::Instance instance = test::tiny_instance(4);
  const double slot_seconds = instance.slot_hours() * 3600.0;
  HorizonConfig config;
  config.discipline = SharingDiscipline::kProcessorSharing;
  // ~1e15-cycle tasks need thousands of seconds even at a server's full
  // 2.3e11 cycles/s, so every slot spills into the next.
  const HorizonResult result =
      run_horizon(instance, config, 3, 12, /*cycle_scale=*/5e6);
  std::size_t spillovers = 0;
  for (const SlotGap& gap : result.slots) spillovers += gap.spillovers;
  EXPECT_GT(spillovers, 0u);
  for (const TaskRecord& task : result.tasks) {
    EXPECT_GT(task.finish, task.arrival);
  }
  // The horizon result still accounts every admitted task exactly once.
  EXPECT_EQ(result.tasks.size(), 3u * 4u);
  EXPECT_GT(result.total_realized(), 3.0 * slot_seconds);
}

TEST(FlowSimulator, EventOrderIsByteIdenticalAcrossReruns) {
  const core::Instance instance = test::tiny_instance(6);
  for (auto discipline : {SharingDiscipline::kStaticShares,
                          SharingDiscipline::kProcessorSharing}) {
    HorizonConfig config;
    config.discipline = discipline;
    config.arrivals = ArrivalModel::kPoisson;
    config.record_events = true;
    const HorizonResult first = run_horizon(instance, config, 5, 21);
    const HorizonResult second = run_horizon(instance, config, 5, 21);
    ASSERT_EQ(first.event_log.size(), second.event_log.size());
    ASSERT_GT(first.event_log.size(), 0u);
    for (std::size_t e = 0; e < first.event_log.size(); ++e) {
      EXPECT_TRUE(first.event_log[e] == second.event_log[e]) << "event " << e;
    }
    EXPECT_EQ(first.events, second.events);
  }
}

TEST(FlowSimulator, FinishExhaustsTheEngine) {
  const core::Instance instance = test::tiny_instance(2);
  HorizonConfig config;
  FlowSimulator sim(instance, config);
  util::Rng rng(3);
  core::SlotState state = test::random_state(2, 2, rng);
  core::Decision decision;
  decision.assignment.bs_of = {0, 0};
  decision.assignment.server_of = {0, 1};
  decision.frequencies = instance.max_frequencies();
  decision.allocation =
      core::optimal_allocation(instance, state, decision.assignment);
  sim.push_slot(state, decision);
  (void)sim.finish();
  EXPECT_THROW(sim.push_slot(state, decision), std::logic_error);
  EXPECT_THROW((void)sim.finish(), std::logic_error);
}

TEST(FlowSim, SimultaneousCompletionsBatchIntoOneEvent) {
  // Eight IDENTICAL devices through identical resources: every stage
  // completes simultaneously for all flows, so the whole slot takes exactly
  // three events regardless of the device count.
  const core::Instance instance = test::tiny_instance(8);
  const core::SlotState state = test::uniform_state(8, 2);
  core::Assignment assignment;
  assignment.bs_of.assign(8, 0);
  assignment.server_of.assign(8, 0);
  const auto alloc = core::equal_share_allocation(instance, state, assignment);
  for (auto discipline : {SharingDiscipline::kStaticShares,
                          SharingDiscipline::kProcessorSharing}) {
    const auto result = simulate_slot(instance, state, assignment,
                                      instance.max_frequencies(), alloc,
                                      discipline);
    EXPECT_EQ(result.events, 3u);
    for (std::size_t i = 1; i < 8; ++i) {
      EXPECT_DOUBLE_EQ(result.finish[i], result.finish[0]);
    }
  }
}

}  // namespace
}  // namespace eotora::des
