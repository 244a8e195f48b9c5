// The benchmark's workloads and the layers it times from outside the
// library.
//
// Every workload runs the registry policy "dpp-bdma" (z = 5, V = 100):
//   paper-100         the paper scenario, 100 devices, closed-loop batch
//                     drains on one thread, 5 passes over 16 scenario
//                     instances
//   metro-10k         64 metro districts, 10^4 devices, 512 servers, a
//                     budget scaled per server, sharded P2-A on up to 4
//                     pool workers, 4 passes of closed-loop batch drains
//   serve-sparse-100  the paper scenario fed as sparse EOT1 delta frames to
//                     an in-process ServeLoop, open loop at a fixed rate,
//                     10 passes over 8 scenario instances in turn
//
// Drain and stream lengths are sized from --seconds.
//
// Only public library calls are used, and none of DppController, bdma() or
// DppPolicy, so the benchmark survives their removal.
#pragma once

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "core/bdma.h"
#include "core/dpp.h"
#include "core/instance.h"
#include "core/lemma1.h"
#include "harness.h"
#include "sim/delta.h"
#include "sim/policy_params.h"
#include "sim/scenario.h"
#include "sim/state_source.h"
#include "util/rng.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

[[nodiscard]] std::vector<std::string> workload_names();

// Runs one workload and returns its metrics (end-to-end with trace off,
// per-layer with trace on) and gate outcomes. Progress and provenance go to
// `log`. Throws std::invalid_argument for an unknown workload and
// std::runtime_error when the workload's budget is infeasible.
[[nodiscard]] RunResult run_workload(const Options& options, std::ostream& log);

// The sparse delta stream of serve-sparse-100. The first delta joins every
// device (a full snapshot of the source's first state). Each later slot t
// carries state t's price tick, fresh workload and channel rows for 5% of
// the present devices, and 1% of the devices leaving or rejoining (a rejoin
// carries state t's values; rejoins grow likelier as the away count nears
// 10% of the devices, so it hovers there). Which devices change depends
// only on `seed`; the values come from `source`'s states.
[[nodiscard]] std::vector<eotora::sim::SlotDelta> sparse_deltas(
    eotora::sim::StateSource& source, std::size_t devices, std::size_t slots,
    std::uint64_t seed);

// Layers the traced batch run times, in report order.
enum Layer : std::size_t {
  kStateLayer,        // sim.scenario: ScenarioSource::next
  kWcgLayer,          // core.wcg: bdma_begin_slot
  kP2aLayer,          // core.cgba + core.sharded: bdma_p2a_iterate
  kP2bLayer,          // core.p2b + core.kernels: bdma_p2b_iterate
  kDecisionOutLayer,  // core.lemma1: bdma_finish_slot, optimal_allocation,
                      // and the queue update
  kAuditLayer,        // sim.audit: SlotAuditor::observe
  kLayerCount,
};

// Replays the dpp-bdma decision of one slot through the public BDMA halves,
// with a span around each call: begin_slot, z x (P2-A, P2-B), finish_slot +
// optimal_allocation, then the queue update. Fed the same states and an rng
// in the same state, it reproduces the registry policy's step() bit for
// bit.
class ShadowDecider {
 public:
  // `instance` must outlive the shadow.
  ShadowDecider(const eotora::core::Instance& instance,
                eotora::core::DppConfig config);

  eotora::core::DppSlotResult step(const eotora::core::SlotState& state,
                                   eotora::util::Rng& rng, LayerClock& clock);

  // WCG options of every slot so far, summed.
  [[nodiscard]] std::uint64_t options_total() const { return options_total_; }
  // Largest shard count one P2-A solve used (0 when unsharded).
  [[nodiscard]] std::size_t shards() const { return shards_; }
  // Max over mean of the per-shard CGBA moves accumulated so far (0 when
  // unsharded).
  [[nodiscard]] double shard_skew() const;

 private:
  const eotora::core::Instance* instance_;
  eotora::core::DppConfig config_;
  double queue_;
  eotora::core::BdmaWorkspace workspace_;
  eotora::core::BdmaLoopState loop_;
  eotora::core::Lemma1Workspace lemma1_;
  std::uint64_t options_total_ = 0;
  std::size_t shards_ = 0;
  std::vector<std::uint64_t> shard_moves_;
};

// Whether two slot results carry the same decision, latency, Θ and Q(t+1),
// compared by IEEE bit pattern.
[[nodiscard]] bool same_decision(const eotora::core::DppSlotResult& a,
                                 const eotora::core::DppSlotResult& b);

}  // namespace perfbench
