// Domain example: edge video analytics with a strong diurnal demand cycle.
//
// Mobile cameras upload clips for object detection on edge servers. Demand
// follows the daily pattern the paper motivates with Fig. 2 (high evenings,
// quiet nights), and electricity prices peak in the same hours — the worst
// case for an energy-budgeted operator. This example runs BDMA-based DPP for
// two weeks and breaks latency, clock frequency, and energy cost down by
// hour of day, showing how the controller shifts consumption into cheap
// hours without giving up evening latency.
//
//   $ ./examples/video_analytics
#include <algorithm>
#include <array>
#include <iostream>

#include "eotora/eotora.h"

int main() {
  using namespace eotora;

  sim::ScenarioConfig config;
  config.devices = 120;          // camera fleet
  config.budget_per_slot = 1.2;  // $/hour energy budget across both rooms
  config.workload_trend_weight = 0.9;  // strongly diurnal demand
  config.seed = 31;
  sim::Scenario scenario(config);
  sim::print_scenario(std::cout, scenario);

  sim::PolicyParams params;
  params.v = 100.0;
  params.bdma_iterations = 5;
  const auto policy =
      sim::make_policy("dpp-bdma", scenario.instance(), params);

  const std::size_t horizon = 24 * 14;
  const auto states = scenario.generate_states(horizon);

  // Per-hour-of-day accumulators.
  std::array<util::RunningStats, 24> latency_by_hour;
  std::array<util::RunningStats, 24> price_by_hour;
  std::array<util::RunningStats, 24> cost_by_hour;
  std::array<util::RunningStats, 24> frequency_by_hour;
  std::array<util::RunningStats, 24> demand_by_hour;

  util::Rng rng(1);
  std::vector<double> worst_device_latencies;  // fairness tail across slots
  double final_queue = 0.0;
  for (const auto& state : states) {
    const auto slot = policy->step(state, rng);
    final_queue = slot.queue_after;
    const auto per_device = core::reduced_device_latencies(
        scenario.instance(), state, slot.decision.assignment,
        slot.decision.frequencies);
    worst_device_latencies.push_back(
        *std::max_element(per_device.begin(), per_device.end()));
    const std::size_t hour = state.slot % 24;
    latency_by_hour[hour].add(slot.latency);
    price_by_hour[hour].add(state.price_per_mwh);
    cost_by_hour[hour].add(slot.energy_cost);
    double mean_freq = 0.0;
    for (double w : slot.decision.frequencies) mean_freq += w;
    frequency_by_hour[hour].add(mean_freq /
                                slot.decision.frequencies.size());
    double demand = 0.0;
    for (double f : state.task_cycles) demand += f / 1e6;
    demand_by_hour[hour].add(demand);
  }

  std::cout << "\nhour-of-day profile over " << horizon << " slots:\n";
  util::Table table({"hour", "demand (Mcycles)", "price $/MWh",
                     "mean clock GHz", "energy $/slot", "latency s"});
  for (std::size_t hour = 0; hour < 24; ++hour) {
    table.add_numeric_row(
        {static_cast<double>(hour), demand_by_hour[hour].mean(),
         price_by_hour[hour].mean(), frequency_by_hour[hour].mean(),
         cost_by_hour[hour].mean(), latency_by_hour[hour].mean()},
        2);
  }
  table.print(std::cout);

  // The price-tracking behaviour in one number: clock frequency should be
  // anti-correlated with price once the queue has converged.
  std::vector<double> prices;
  std::vector<double> freqs;
  for (std::size_t hour = 0; hour < 24; ++hour) {
    prices.push_back(price_by_hour[hour].mean());
    freqs.push_back(frequency_by_hour[hour].mean());
  }
  std::cout << "\nper-device fairness: median worst-device latency = "
            << util::format_double(
                   util::percentile(worst_device_latencies, 50.0), 3)
            << " s, p95 = "
            << util::format_double(
                   util::percentile(worst_device_latencies, 95.0), 3)
            << " s\n";
  std::cout << "correlation(price, clock frequency) = "
            << util::format_double(util::correlation(prices, freqs), 3)
            << "  (negative = the controller slows down in expensive hours)\n"
            << "final queue backlog = " << final_queue << "\n";
  return 0;
}
