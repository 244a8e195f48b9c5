#include "sim/mpc_policy.h"

#include <cmath>

#include "math/minimize1d.h"

namespace eotora::sim {

std::vector<double> mpc_compute_load(const core::Instance& instance,
                                     const core::SlotState& state,
                                     const core::Assignment& assignment) {
  std::vector<double> compute_load(instance.num_servers(), 0.0);
  for (std::size_t i = 0; i < instance.num_devices(); ++i) {
    const std::size_t n = assignment.server_of[i];
    compute_load[n] +=
        std::sqrt(state.task_cycles[i] / instance.suitability(i, n));
  }
  return compute_load;
}

core::Frequencies mpc_frequencies_for(const core::Instance& instance,
                                      const std::vector<double>& compute_load,
                                      double lambda, double price) {
  const auto& topo = instance.topology();
  core::Frequencies freq(topo.num_servers());
  for (std::size_t n = 0; n < topo.num_servers(); ++n) {
    const auto& server = topo.server(topology::ServerId{n});
    const double a_n = compute_load[n] * compute_load[n];
    if (a_n == 0.0) {
      freq[n] = server.freq_min_ghz;
      continue;
    }
    if (lambda == 0.0) {
      freq[n] = server.freq_max_ghz;
      continue;
    }
    const double cores = static_cast<double>(server.cores);
    const double cost_scale = lambda * price * instance.slot_hours() / 1e6;
    auto objective = [&](double w) {
      return a_n / (cores * w * 1e9) + cost_scale * server.power_watts(w);
    };
    auto derivative = [&](double w) {
      return -a_n / (cores * w * w * 1e9) +
             cost_scale * server.power_derivative_watts(w);
    };
    freq[n] = math::derivative_bisection(objective, derivative,
                                         server.freq_min_ghz,
                                         server.freq_max_ghz, 1e-7)
                  .x;
  }
  return freq;
}

double mpc_window_cost(const core::Instance& instance,
                       const std::vector<double>& compute_load, double lambda,
                       const std::vector<double>& prices,
                       const std::vector<double>& load_scale) {
  double total = 0.0;
  std::vector<double> scaled(compute_load.size());
  for (std::size_t w = 0; w < prices.size(); ++w) {
    for (std::size_t n = 0; n < compute_load.size(); ++n) {
      scaled[n] = compute_load[n] * load_scale[w];
    }
    const auto freq = mpc_frequencies_for(instance, scaled, lambda, prices[w]);
    total += instance.energy_cost(freq, prices[w]);
  }
  return total;
}

MpcPlanInputs mpc_plan_inputs(const MpcConfig& config,
                              const core::Instance& instance,
                              const core::SlotState& state,
                              const trace::OnlineTrendEstimator& price_trend,
                              const trace::OnlineTrendEstimator& demand_trend) {
  MpcPlanInputs inputs;
  if (!(price_trend.ready() && demand_trend.ready())) {
    // Bootstrap: greedy per-slot budget via the multiplier at this slot
    // alone (window of one, current price).
    inputs.prices = {state.price_per_mwh};
    inputs.load_scale = {1.0};
    inputs.budget = instance.budget_per_slot();
    return inputs;
  }
  // Forecast the window by certainty equivalence.
  const std::size_t phase_now =
      (price_trend.observations() - 1) % config.period;
  inputs.prices.resize(config.window);
  inputs.load_scale.resize(config.window);
  const double demand_now = demand_trend.trend_at(phase_now);
  inputs.prices[0] = state.price_per_mwh;  // the current slot is observed
  inputs.load_scale[0] = 1.0;
  for (std::size_t w = 1; w < config.window; ++w) {
    const std::size_t phase = (phase_now + w) % config.period;
    inputs.prices[w] = price_trend.trend_at(phase);
    inputs.load_scale[w] =
        demand_now > 0.0
            ? std::sqrt(demand_trend.trend_at(phase) / demand_now)
            : 1.0;
  }
  // One multiplier for the window so forecast spend == window budget.
  inputs.budget =
      instance.budget_per_slot() * static_cast<double>(config.window);
  return inputs;
}

double mpc_plan_multiplier(const MpcConfig& config,
                           const core::Instance& instance,
                           const std::vector<double>& compute_load,
                           const MpcPlanInputs& inputs) {
  double lambda = 0.0;
  if (mpc_window_cost(instance, compute_load, 0.0, inputs.prices,
                      inputs.load_scale) > inputs.budget) {
    double lo = 0.0;
    double hi = config.max_multiplier;
    for (int iter = 0; iter < config.bisection_iterations; ++iter) {
      const double mid = 0.5 * (lo + hi);
      if (mpc_window_cost(instance, compute_load, mid, inputs.prices,
                          inputs.load_scale) <= inputs.budget) {
        hi = mid;
      } else {
        lo = mid;
      }
    }
    lambda = hi;
  }
  return lambda;
}

}  // namespace eotora::sim
