#include "support/core_oracles.h"

#include <cmath>
#include <vector>

#include "math/minimize1d.h"
#include "util/check.h"

namespace eotora::core {

namespace {

// P_r(z) of every resource, each summed in ascending device order.
std::vector<double> loads(const WcgProblem& problem, const Profile& z) {
  EOTORA_REQUIRE(z.size() == problem.num_devices());
  std::vector<double> p(problem.num_resources(), 0.0);
  for (std::size_t i = 0; i < z.size(); ++i) {
    EOTORA_REQUIRE(z[i] < problem.options(i).size());
    const Option& opt = problem.options(i)[z[i]];
    p[opt.r_compute] += opt.p_compute;
    p[opt.r_access] += opt.p_access;
    p[opt.r_fronthaul] += opt.p_fronthaul;
  }
  return p;
}

}  // namespace

double player_cost(const WcgProblem& problem, const Profile& z,
                   std::size_t device) {
  EOTORA_REQUIRE(device < problem.num_devices());
  const std::vector<double> p = loads(problem, z);
  const Option& opt = problem.options(device)[z[device]];
  return problem.weight(opt.r_compute) * opt.p_compute * p[opt.r_compute] +
         problem.weight(opt.r_access) * opt.p_access * p[opt.r_access] +
         problem.weight(opt.r_fronthaul) * opt.p_fronthaul *
             p[opt.r_fronthaul];
}

double potential(const WcgProblem& problem, const Profile& z) {
  const std::vector<double> p = loads(problem, z);
  std::vector<double> squares(problem.num_resources(), 0.0);
  for (std::size_t i = 0; i < z.size(); ++i) {
    const Option& opt = problem.options(i)[z[i]];
    squares[opt.r_compute] += opt.p_compute * opt.p_compute;
    squares[opt.r_access] += opt.p_access * opt.p_access;
    squares[opt.r_fronthaul] += opt.p_fronthaul * opt.p_fronthaul;
  }
  double phi = 0.0;
  for (std::size_t r = 0; r < p.size(); ++r) {
    phi += 0.5 * problem.weight(r) * (p[r] * p[r] + squares[r]);
  }
  return phi;
}

Profile to_profile(const WcgProblem& problem, const Assignment& assignment) {
  EOTORA_REQUIRE(assignment.bs_of.size() == problem.num_devices());
  EOTORA_REQUIRE(assignment.server_of.size() == problem.num_devices());
  Profile z(problem.num_devices(), 0);
  for (std::size_t i = 0; i < z.size(); ++i) {
    z[i] = problem.find_option(i, assignment.bs_of[i],
                               assignment.server_of[i]);
    EOTORA_REQUIRE_MSG(z[i] < problem.options(i).size(),
                       "device " << i << " assignment (bs="
                                 << assignment.bs_of[i] << ", server="
                                 << assignment.server_of[i]
                                 << ") is not a feasible option");
  }
  return z;
}

Profile warm_profile(const WcgProblem& problem, const Assignment& carried,
                     util::Rng& rng) {
  Profile z = problem.random_profile(rng);
  if (carried.bs_of.empty() && carried.server_of.empty()) return z;
  EOTORA_REQUIRE_MSG(carried.bs_of.size() == problem.num_devices() &&
                         carried.server_of.size() == problem.num_devices(),
                     "carried assignment entries="
                         << carried.bs_of.size() << "/"
                         << carried.server_of.size()
                         << ", devices=" << problem.num_devices());
  for (std::size_t i = 0; i < z.size(); ++i) {
    const std::size_t o =
        problem.find_option(i, carried.bs_of[i], carried.server_of[i]);
    if (o < problem.options(i).size()) z[i] = o;
  }
  return z;
}

P2bResult solve_p2b_reference(const Instance& instance, const SlotState& state,
                              const Assignment& assignment, double v, double q,
                              double tolerance) {
  EOTORA_REQUIRE_MSG(v >= 0.0, "V=" << v);
  EOTORA_REQUIRE_MSG(q >= 0.0, "Q=" << q);
  const auto& topo = instance.topology();
  const std::size_t devices = instance.num_devices();
  EOTORA_REQUIRE(assignment.server_of.size() == devices);

  std::vector<double> load(topo.num_servers(), 0.0);
  for (std::size_t i = 0; i < devices; ++i) {
    const std::size_t n = assignment.server_of[i];
    EOTORA_REQUIRE(n < topo.num_servers());
    load[n] += std::sqrt(state.task_cycles[i] / instance.suitability(i, n));
  }

  P2bResult result;
  result.frequencies.resize(topo.num_servers());
  const double price = state.price_per_mwh;
  for (std::size_t n = 0; n < topo.num_servers(); ++n) {
    const auto& server = topo.server(topology::ServerId{n});
    const double a_n = load[n] * load[n];
    if (q == 0.0 && a_n > 0.0) {
      result.frequencies[n] = server.freq_max_ghz;
      continue;
    }
    if (a_n == 0.0) {
      result.frequencies[n] = server.freq_min_ghz;
      continue;
    }
    const double cores = static_cast<double>(server.cores);
    const double cost_scale = q * price * instance.slot_hours() / 1e6;
    auto objective = [&](double w) {
      return v * a_n / (cores * w * 1e9) +
             cost_scale * server.power_watts(w);
    };
    auto derivative = [&](double w) {
      return -v * a_n / (cores * w * w * 1e9) +
             cost_scale * server.power_derivative_watts(w);
    };
    const auto minimum = math::derivative_bisection(
        objective, derivative, server.freq_min_ghz, server.freq_max_ghz,
        tolerance);
    result.frequencies[n] = minimum.x;
  }
  result.objective =
      dpp_objective(instance, state, assignment, result.frequencies, v, q);
  return result;
}

bool allocation_feasible(const Instance& instance, const Assignment& assignment,
                         const ResourceAllocation& allocation,
                         double tolerance) {
  const auto& topo = instance.topology();
  if (allocation.phi.size() != instance.num_devices() ||
      allocation.psi_access.size() != instance.num_devices() ||
      allocation.psi_fronthaul.size() != instance.num_devices()) {
    return false;
  }
  std::vector<double> phi_sum(topo.num_servers(), 0.0);
  std::vector<double> psi_a_sum(topo.num_base_stations(), 0.0);
  std::vector<double> psi_f_sum(topo.num_base_stations(), 0.0);
  for (std::size_t i = 0; i < instance.num_devices(); ++i) {
    const double phi = allocation.phi[i];
    const double psi_a = allocation.psi_access[i];
    const double psi_f = allocation.psi_fronthaul[i];
    if (phi < 0.0 || phi > 1.0 + tolerance) return false;
    if (psi_a < 0.0 || psi_a > 1.0 + tolerance) return false;
    if (psi_f < 0.0 || psi_f > 1.0 + tolerance) return false;
    phi_sum[assignment.server_of[i]] += phi;
    psi_a_sum[assignment.bs_of[i]] += psi_a;
    psi_f_sum[assignment.bs_of[i]] += psi_f;
  }
  for (double s : phi_sum) {
    if (s > 1.0 + tolerance) return false;
  }
  for (double s : psi_a_sum) {
    if (s > 1.0 + tolerance) return false;
  }
  for (double s : psi_f_sum) {
    if (s > 1.0 + tolerance) return false;
  }
  return true;
}

}  // namespace eotora::core
