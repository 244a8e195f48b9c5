// The stage catalog — every concrete Stage the canned assemblies
// (sim/pipeline/assemblies.h) are built from.
//
// Every stage reads the graph inputs ctx.instance and ctx.state; each class
// comment names the other StageContext fields the stage reads and writes.
// The DPP stages call the solver-loop halves that core::bdma() composes
// (core/bdma.h); the golden fixtures (tests/golden/) pin every assembly's
// per-slot decisions.
#pragma once

#include <vector>

#include "core/bdma.h"
#include "core/beta_only.h"
#include "core/lemma1.h"
#include "core/wcg.h"
#include "sim/mpc_policy.h"
#include "sim/pipeline/stage.h"
#include "trace/online_trend.h"

namespace eotora::sim::pipeline {

// Owns the virtual queue Q(t) of Eq. (21). run() publishes the backlog the
// solvers price against; commit() — after the decision stage has emitted
// Θ — folds it back: Q(t+1) = max{Q(t) + Θ, 0}.
// run() writes ctx.queue_before; commit() reads ctx.result.theta and
// writes ctx.result.queue_after.
class QueueUpdateStage final : public Stage {
 public:
  explicit QueueUpdateStage(double initial_queue);

  [[nodiscard]] const char* name() const override { return "queue_update"; }
  [[nodiscard]] const char* span_name() const override {
    return "stage/queue_update";
  }
  void run(StageContext& ctx) override;
  void commit(StageContext& ctx) override;
  void reset() override { queue_ = initial_queue_; }

  [[nodiscard]] double queue() const { return queue_; }

 private:
  double initial_queue_;
  double queue_;
};

// Line 3 of Algorithm 2: one P2-A solve at the current Ω. Owns the BDMA
// workspace (the slot's WCG components + the assignment carried across
// slots, which reset() clears with the workspace); the first loop iteration
// of each slot runs bdma_begin_slot. ctx.bdma is loop-carried: iteration
// k+1 solves at the Ω the downstream P2-B stage wrote at k.
// Reads ctx.rng, ctx.loop_iteration and ctx.bdma; writes ctx.bdma.
class P2aSolveStage final : public Stage {
 public:
  explicit P2aSolveStage(core::BdmaConfig config) : config_(config) {}

  [[nodiscard]] const char* name() const override { return "p2a_solve"; }
  [[nodiscard]] const char* span_name() const override {
    return "stage/p2a_solve";
  }
  void run(StageContext& ctx) override;
  void reset() override {
    workspace_ = core::BdmaWorkspace{};
    shard_counters_.clear();
  }
  [[nodiscard]] std::vector<core::counters::SolverCounters> shard_counters()
      const override {
    return shard_counters_;
  }

 private:
  core::BdmaConfig config_;
  core::BdmaWorkspace workspace_;
  // Per-component effort accumulated across every P2-A solve this stage
  // ran, by component index.
  std::vector<core::counters::SolverCounters> shard_counters_;
};

// Lines 4-8 of Algorithm 2: one P2-B solve at the fixed assignment, the
// best-pair tracking, and the Ω hand-off to the next P2-A iteration. It
// reads the load sums the P2-A stage's components left, through
// ctx.bdma.workspace, and keeps no state of its own.
// Reads ctx.queue_before and ctx.bdma; writes ctx.bdma (Ω and the best
// pair).
class P2bSolveStage final : public Stage {
 public:
  P2bSolveStage(double v, core::BdmaConfig config) : v_(v), config_(config) {}

  [[nodiscard]] const char* name() const override { return "p2b_solve"; }
  [[nodiscard]] const char* span_name() const override {
    return "stage/p2b_solve";
  }
  void run(StageContext& ctx) override;

 private:
  double v_;
  core::BdmaConfig config_;
};

// Assembles the DPP slot decision from BDMA's best pair, with the Lemma-1
// allocation at its assignment.
// Reads ctx.queue_before and ctx.bdma, which bdma_finish_slot rewrites;
// writes ctx.result.
class DppDecisionOutStage final : public Stage {
 public:
  [[nodiscard]] const char* name() const override { return "decision_out"; }
  [[nodiscard]] const char* span_name() const override {
    return "stage/decision_out";
  }
  void run(StageContext& ctx) override;

 private:
  core::Lemma1Workspace lemma1_;
};

// The greedy per-slot-budget frequency rule (greedy_budget_fraction's
// bisection): the largest uniform fraction whose cost fits C̄ at the
// current price.
// Writes ctx.frequencies.
class BudgetFrequencyStage final : public Stage {
 public:
  [[nodiscard]] const char* name() const override {
    return "budget_frequency";
  }
  [[nodiscard]] const char* span_name() const override {
    return "stage/budget_frequency";
  }
  void run(StageContext& ctx) override;
};

// A constant frequency vector at a fixed fraction of every server's range
// (the "fixed-*" ablation knob; 0.0 is the floor Ω^L), precomputed at
// construction. Throws for a fraction outside [0, 1].
// Writes ctx.frequencies.
class FixedFrequencyStage final : public Stage {
 public:
  FixedFrequencyStage(const core::Instance& instance, double fraction);

  [[nodiscard]] const char* name() const override {
    return "fixed_frequency";
  }
  [[nodiscard]] const char* span_name() const override {
    return "stage/fixed_frequency";
  }
  void run(StageContext& ctx) override;

 private:
  core::Frequencies frequencies_;
};

// One CGBA assignment solve at the published frequencies, per connected
// component of the slot's WCG (core/components.h): the components are
// built and solved on up to shard_workers pool workers, from the draws of
// random_profile in global device order with each device keeping its
// carried (bs, server) pair where that is still an option. Owns the
// components (rebuilt in place every slot) and the slot's assignment, which
// seeds the next slot's start until reset() clears it. The reported cost is
// the final loads' social cost summed in global resource order — the
// global solve's bits; ctx.p2a carries no per-device profile
// (ctx.assignment does).
// Reads ctx.rng and ctx.frequencies; writes ctx.p2a and ctx.assignment.
class CgbaAssignStage final : public Stage {
 public:
  explicit CgbaAssignStage(core::CgbaConfig config) : config_(config) {}

  [[nodiscard]] const char* name() const override { return "cgba_assign"; }
  [[nodiscard]] const char* span_name() const override {
    return "stage/cgba_assign";
  }
  void run(StageContext& ctx) override;
  void reset() override {
    wcg_ = core::WcgComponents{};
    carried_ = core::Assignment{};
    shard_counters_.clear();
  }
  [[nodiscard]] std::vector<core::counters::SolverCounters> shard_counters()
      const override {
    return shard_counters_;
  }

 private:
  core::CgbaConfig config_;
  core::WcgComponents wcg_;
  core::Assignment carried_;  // the previous slot's assignment
  // Per-run scratch, per component: the solve's profile, final tracked
  // loads, moves, convergence and effort.
  std::vector<core::Profile> profiles_;
  std::vector<std::vector<double>> loads_;
  std::vector<std::size_t> moves_;
  std::vector<char> converged_;
  std::vector<core::counters::SolverCounters> slot_counters_;
  // Per-component effort accumulated across every run, by component index.
  std::vector<core::counters::SolverCounters> shard_counters_;
};

// Assembles the slot decision of the CGBA-assignment baselines
// ("greedy-budget", "fixed-*"): latency is the P2-A cost, energy is priced
// at the published frequencies.
// Reads ctx.frequencies, ctx.p2a and ctx.assignment; writes ctx.result.
class CgbaDecisionOutStage final : public Stage {
 public:
  [[nodiscard]] const char* name() const override { return "decision_out"; }
  [[nodiscard]] const char* span_name() const override {
    return "stage/decision_out";
  }
  void run(StageContext& ctx) override;

 private:
  core::Lemma1Workspace lemma1_;
};

// The Lemma-2 β-only oracle solve at the per-slot budget.
// Writes ctx.oracle.
class BetaOracleStage final : public Stage {
 public:
  explicit BetaOracleStage(core::BetaOnlyConfig config) : config_(config) {}

  [[nodiscard]] const char* name() const override { return "beta_oracle"; }
  [[nodiscard]] const char* span_name() const override {
    return "stage/beta_oracle";
  }
  void run(StageContext& ctx) override;

 private:
  core::BetaOnlyConfig config_;
};

// Assembles the slot decision from the β-only oracle.
// Reads ctx.oracle; writes ctx.result.
class BetaDecisionOutStage final : public Stage {
 public:
  [[nodiscard]] const char* name() const override { return "decision_out"; }
  [[nodiscard]] const char* span_name() const override {
    return "stage/decision_out";
  }
  void run(StageContext& ctx) override;

 private:
  core::Lemma1Workspace lemma1_;
};

// Owns MPC's online trend estimators: feeds them the observation, then
// publishes the certainty-equivalence plan inputs (or the bootstrap
// window-of-one while not every phase has been seen).
// Writes ctx.forecast.
class TrendObserveStage final : public Stage {
 public:
  explicit TrendObserveStage(MpcConfig config);

  [[nodiscard]] const char* name() const override { return "trend_observe"; }
  [[nodiscard]] const char* span_name() const override {
    return "stage/trend_observe";
  }
  void run(StageContext& ctx) override;
  void reset() override;

 private:
  MpcConfig config_;
  trace::OnlineTrendEstimator price_trend_;
  trace::OnlineTrendEstimator demand_trend_;
};

// MPC's plan: one multiplier λ for the forecast window (bisection), then
// the current slot's frequencies at that λ, which replace the floor the
// assignment was solved at.
// Reads ctx.assignment and ctx.forecast; writes ctx.frequencies.
class MpcPlanStage final : public Stage {
 public:
  explicit MpcPlanStage(MpcConfig config) : config_(config) {}

  [[nodiscard]] const char* name() const override { return "mpc_plan"; }
  [[nodiscard]] const char* span_name() const override {
    return "stage/mpc_plan";
  }
  void run(StageContext& ctx) override;

 private:
  MpcConfig config_;
};

// Assembles the MPC slot decision: latency re-evaluated at the planned
// frequencies via reduced_latency.
// Reads ctx.frequencies, ctx.p2a and ctx.assignment; writes ctx.result.
class MpcDecisionOutStage final : public Stage {
 public:
  [[nodiscard]] const char* name() const override { return "decision_out"; }
  [[nodiscard]] const char* span_name() const override {
    return "stage/decision_out";
  }
  void run(StageContext& ctx) override;

 private:
  core::Lemma1Workspace lemma1_;
};

}  // namespace eotora::sim::pipeline
