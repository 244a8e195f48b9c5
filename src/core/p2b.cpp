#include "core/p2b.h"

#include <cmath>

#include "core/kernels/kernels.h"
#include "core/latency.h"
#include "energy/linear_energy.h"
#include "energy/quadratic_energy.h"
#include "math/minimize1d.h"
#include "util/check.h"

namespace eotora::core {

namespace {

// The energy-derivative as an affine function slope·w + intercept, when the
// model admits one with the exact bits of its virtual power_derivative():
//   QuadraticEnergy: 2a·w + b  — its derivative computes (2.0·a)·w + b.
//   LinearEnergy:    0·w + slope — 0.0·w is +0.0 for finite w > 0, and
//                    0.0 + slope == slope exactly (slope >= 0).
// Other models (piecewise) get no lane and keep the scalar path.
bool affine_derivative(const energy::EnergyModel& model, double& slope,
                       double& intercept) {
  if (const auto* quad = dynamic_cast<const energy::QuadraticEnergy*>(&model)) {
    slope = 2.0 * quad->a();
    intercept = quad->b();
    return true;
  }
  if (const auto* lin = dynamic_cast<const energy::LinearEnergy*>(&model)) {
    slope = 0.0;
    intercept = lin->slope();
    return true;
  }
  return false;
}

// The frequency half of the solve, from the per-server loads. Servers with
// an affine derivative accumulate into the batch lanes and solve through
// the kernel layer; the rest run math::derivative_bisection exactly as the
// pre-kernel code did.
void solve_frequencies(const Instance& instance, const SlotState& state,
                       const std::vector<double>& load, double v, double q,
                       double tolerance, P2bWorkspace& w,
                       Frequencies& frequencies) {
  EOTORA_REQUIRE_MSG(v >= 0.0, "V=" << v);
  EOTORA_REQUIRE_MSG(q >= 0.0, "Q=" << q);
  const auto& topo = instance.topology();
  const std::size_t servers = topo.num_servers();
  EOTORA_REQUIRE(load.size() == servers);
  frequencies.resize(servers);
  const double price = state.price_per_mwh;
  const double cost_scale = q * price * instance.slot_hours() / 1e6;

  w.neg_va.clear();
  w.cores.clear();
  w.lo.clear();
  w.hi.clear();
  w.d_slope.clear();
  w.d_intercept.clear();
  w.lane_server.clear();
  for (std::size_t n = 0; n < servers; ++n) {
    const auto& server = topo.server(topology::ServerId{n});
    const double a_n = load[n] * load[n];
    if (q == 0.0 && a_n > 0.0) {
      // No queue pressure: latency dominates, run flat out.
      frequencies[n] = server.freq_max_ghz;
      continue;
    }
    if (a_n == 0.0) {
      // Idle server: only the energy term remains; its minimum over a convex
      // nondecreasing cost is the lowest frequency.
      frequencies[n] = server.freq_min_ghz;
      continue;
    }
    const double cores = static_cast<double>(server.cores);
    double slope = 0.0;
    double intercept = 0.0;
    if (affine_derivative(*server.energy_model, slope, intercept)) {
      w.neg_va.push_back(-v * a_n);
      w.cores.push_back(cores);
      w.lo.push_back(server.freq_min_ghz);
      w.hi.push_back(server.freq_max_ghz);
      w.d_slope.push_back(slope);
      w.d_intercept.push_back(intercept);
      w.lane_server.push_back(static_cast<std::uint32_t>(n));
      continue;
    }
    auto objective = [&](double ghz) {
      return v * a_n / (cores * ghz * 1e9) +
             cost_scale * server.power_watts(ghz);
    };
    auto derivative = [&](double ghz) {
      return -v * a_n / (cores * ghz * ghz * 1e9) +
             cost_scale * server.power_derivative_watts(ghz);
    };
    const auto minimum = math::derivative_bisection(
        objective, derivative, server.freq_min_ghz, server.freq_max_ghz,
        tolerance);
    frequencies[n] = minimum.x;
  }

  if (!w.lane_server.empty()) {
    kernels::P2bBatchView batch;
    batch.n = w.lane_server.size();
    batch.neg_va = w.neg_va.data();
    batch.cores = w.cores.data();
    batch.lo = w.lo.data();
    batch.hi = w.hi.data();
    batch.d_slope = w.d_slope.data();
    batch.d_intercept = w.d_intercept.data();
    batch.scale = cost_scale;
    batch.tolerance = tolerance;
    w.x.resize(batch.n);
    kernels::p2b_batch(batch, w.x.data());
    for (std::size_t lane = 0; lane < batch.n; ++lane) {
      frequencies[w.lane_server[lane]] = w.x[lane];
    }
  }
}

}  // namespace

P2bResult solve_p2b(const Instance& instance, const SlotState& state,
                    const Assignment& assignment, double v, double q,
                    double tolerance) {
  P2bWorkspace workspace;
  P2bResult result;
  solve_p2b(instance, state, assignment, v, q, tolerance, workspace, result);
  return result;
}

void solve_p2b(const Instance& instance, const SlotState& state,
               const Assignment& assignment, double v, double q,
               double tolerance, P2bWorkspace& workspace, P2bResult& out) {
  const auto& topo = instance.topology();
  const std::size_t devices = instance.num_devices();
  EOTORA_REQUIRE(assignment.bs_of.size() == devices);
  EOTORA_REQUIRE(assignment.server_of.size() == devices);
  EOTORA_REQUIRE(state.task_cycles.size() == devices);
  EOTORA_REQUIRE(state.data_bits.size() == devices);
  EOTORA_REQUIRE(state.channel.size() == devices);

  // The load sums of Eqs. (18)-(19), in device order, exactly as
  // reduced_latency_breakdown accumulates them.
  P2bLoads& loads = workspace.loads;
  loads.compute.assign(topo.num_servers(), 0.0);
  loads.access.assign(topo.num_base_stations(), 0.0);
  loads.fronthaul.assign(topo.num_base_stations(), 0.0);
  for (std::size_t i = 0; i < devices; ++i) {
    const std::size_t k = assignment.bs_of[i];
    const std::size_t n = assignment.server_of[i];
    EOTORA_REQUIRE(k < topo.num_base_stations());
    EOTORA_REQUIRE(n < topo.num_servers());
    const double h = state.channel[i][k];
    EOTORA_REQUIRE_MSG(h > 0.0, "device " << i << " channel is unusable");
    const auto& bs = topo.base_station(topology::BaseStationId{k});
    loads.compute[n] +=
        std::sqrt(state.task_cycles[i] / instance.suitability(i, n));
    loads.access[k] += std::sqrt(state.data_bits[i] / h);
    loads.fronthaul[k] +=
        std::sqrt(state.data_bits[i] / bs.fronthaul_spectral_efficiency);
  }
  solve_p2b(instance, state, loads, v, q, tolerance, workspace, out);
}

void solve_p2b(const Instance& instance, const SlotState& state,
               const P2bLoads& loads, double v, double q, double tolerance,
               P2bWorkspace& workspace, P2bResult& out) {
  const auto& topo = instance.topology();
  EOTORA_REQUIRE(loads.access.size() == topo.num_base_stations());
  EOTORA_REQUIRE(loads.fronthaul.size() == topo.num_base_stations());
  solve_frequencies(instance, state, loads.compute, v, q, tolerance, workspace,
                    out.frequencies);
  // T_t and Θ summed term by term as reduced_latency_breakdown and
  // Instance::theta sum them, so the objective has dpp_objective's bits.
  double processing = 0.0;
  for (std::size_t n = 0; n < topo.num_servers(); ++n) {
    const auto& server = topo.server(topology::ServerId{n});
    processing += loads.compute[n] * loads.compute[n] /
                  server.capacity_hz(out.frequencies[n]);
  }
  double communication = 0.0;
  for (std::size_t k = 0; k < topo.num_base_stations(); ++k) {
    const auto& bs = topo.base_station(topology::BaseStationId{k});
    communication +=
        loads.access[k] * loads.access[k] / bs.access_bandwidth_hz;
    communication +=
        loads.fronthaul[k] * loads.fronthaul[k] / bs.fronthaul_bandwidth_hz;
  }
  out.latency = processing + communication;
  out.theta = instance.theta(out.frequencies, state.price_per_mwh);
  out.objective = v * out.latency + q * out.theta;
}

double dpp_objective(const Instance& instance, const SlotState& state,
                     const Assignment& assignment,
                     const Frequencies& frequencies, double v, double q) {
  const double latency =
      reduced_latency(instance, state, assignment, frequencies);
  const double theta = instance.theta(frequencies, state.price_per_mwh);
  return v * latency + q * theta;
}

}  // namespace eotora::core
