// Certainty-equivalence receding-horizon control (MPC) — the classic
// alternative to the paper's Lyapunov approach.
//
// Where DPP needs no model of the future (the virtual queue reacts), MPC
// exploits the known structure: prices and workloads are periodic trends
// plus noise. Each slot it
//   1. updates online trend estimates (trace::OnlineTrendEstimator) of the
//      price and of the mean task size from the observed stream;
//   2. forecasts the next `window` slots by certainty equivalence
//      (noise replaced by zero);
//   3. picks ONE Lagrange multiplier λ for the whole window by bisection so
//      the forecast energy spend over the window equals window·C̄ — i.e. it
//      plans to spend cheap forecast hours harder than expensive ones;
//   4. executes only the current slot: CGBA assignment, frequencies from
//      the per-server convex problem at (V = 1, Q = λ).
// Until every phase of the period has been observed, it falls back to the
// greedy per-slot-budget rule (no trend to exploit yet).
//
// The registry's "mpc" policy runs these steps as pipeline stages
// (make_mpc_pipeline in sim/pipeline/assemblies.h); this header holds their
// config and math.
//
// The comparison against DPP (bench/ablation_mpc) shows the trade: MPC
// matches DPP when its forecasts are good and degrades as the noise share
// grows; DPP needs no forecasts at all — which is the paper's argument.
#pragma once

#include <vector>

#include "core/cgba.h"
#include "core/instance.h"
#include "trace/online_trend.h"

namespace eotora::sim {

struct MpcConfig {
  std::size_t window = 24;   // look-ahead horizon (one period by default)
  std::size_t period = 24;   // D: slots per day
  double trend_alpha = 0.15; // EMA weight for the online trend estimators
  double max_multiplier = 1e6;
  int bisection_iterations = 40;
  core::CgbaConfig cgba;
};

// The inputs one MPC plan is solved against: per-slot price and load-scale
// forecasts over the look-ahead window (slot 0 is the observed slot) and
// the budget the forecast spend must fit. Before the trend estimators have
// seen every phase this degrades to a window of one at the observed price
// (the greedy per-slot-budget bootstrap).
struct MpcPlanInputs {
  std::vector<double> prices;
  std::vector<double> load_scale;
  double budget = 0.0;
};

// The MPC math, as the free functions the sim::pipeline MPC stages
// (TrendObserve, MpcPlan) call.

// Per-server load sums A_n = Σ_i sqrt(F_i / e_{i,n}) under `assignment`.
[[nodiscard]] std::vector<double> mpc_compute_load(
    const core::Instance& instance, const core::SlotState& state,
    const core::Assignment& assignment);

// Frequencies minimizing  A_n/capacity(ω) + λ·price·cost(ω)  per server.
[[nodiscard]] core::Frequencies mpc_frequencies_for(
    const core::Instance& instance, const std::vector<double>& compute_load,
    double lambda, double price);

// Total energy cost of the forecast window at multiplier λ.
[[nodiscard]] double mpc_window_cost(const core::Instance& instance,
                                     const std::vector<double>& compute_load,
                                     double lambda,
                                     const std::vector<double>& prices,
                                     const std::vector<double>& load_scale);

// Certainty-equivalence forecast of the window from the online trends, or
// the bootstrap window-of-one when either estimator is not ready yet.
[[nodiscard]] MpcPlanInputs mpc_plan_inputs(
    const MpcConfig& config, const core::Instance& instance,
    const core::SlotState& state,
    const trace::OnlineTrendEstimator& price_trend,
    const trace::OnlineTrendEstimator& demand_trend);

// One multiplier λ for the whole window, bisected so the forecast spend
// fits inputs.budget (0 when the unconstrained plan already fits).
[[nodiscard]] double mpc_plan_multiplier(
    const MpcConfig& config, const core::Instance& instance,
    const std::vector<double>& compute_load, const MpcPlanInputs& inputs);

}  // namespace eotora::sim
