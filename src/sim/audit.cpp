#include "sim/audit.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "core/latency.h"
#include "core/lemma1.h"
#include "util/check.h"

namespace eotora::sim {

namespace {

// |a - b| <= tol * max(|a|, |b|, 1): relative with an absolute floor, so
// near-zero quantities (theta around a met budget) do not trip on noise.
bool rel_close(double a, double b, double tol) {
  const double scale = std::max({std::abs(a), std::abs(b), 1.0});
  return std::abs(a - b) <= tol * scale;
}

}  // namespace

std::string AuditViolation::describe() const {
  std::ostringstream oss;
  oss.precision(17);
  oss << "slot " << slot;
  if (device != kNoDevice) oss << " device " << device;
  oss << " " << constraint << ": lhs=" << lhs << " rhs=" << rhs
      << " gap=" << gap;
  if (!detail.empty()) oss << " (" << detail << ")";
  return oss.str();
}

std::string AuditReport::summary() const {
  std::ostringstream oss;
  oss << "audited " << slots_audited << "/" << slots_observed << " slots: ";
  if (clean()) {
    oss << "clean";
  } else {
    oss << total_violations() << " violation(s) in " << slots_with_violations
        << " slot(s); first: " << violations.front().describe();
  }
  return oss.str();
}

SlotAuditor::SlotAuditor(const core::Instance& instance, AuditConfig config)
    : instance_(&instance), config_(config) {
  EOTORA_REQUIRE_MSG(config.sample_period > 0,
                     "sample_period=" << config.sample_period);
}

bool SlotAuditor::should_audit(std::size_t observed_index) const {
  switch (config_.mode) {
    case AuditMode::kOff:
      return false;
    case AuditMode::kSampled:
      return observed_index % config_.sample_period == 0;
    case AuditMode::kEverySlot:
      return true;
  }
  return false;
}

void SlotAuditor::observe(const core::SlotState& state,
                          const core::DppSlotResult& slot) {
  const bool run = should_audit(report_.slots_observed);
  ++report_.slots_observed;
  if (run) run_checks(state, slot);
  note_slot(slot);
}

void SlotAuditor::note_slot(const core::DppSlotResult& slot) {
  prev_queue_after_ = slot.queue_after;
  have_prev_ = true;
}

void SlotAuditor::add(AuditViolation violation) {
  ++total_found_;
  if (report_.violations.size() < config_.max_violations) {
    report_.violations.push_back(std::move(violation));
  } else {
    ++report_.violations_dropped;
  }
}

void SlotAuditor::run_checks(const core::SlotState& state,
                             const core::DppSlotResult& result) {
  ++report_.slots_audited;
  const std::size_t found_before = total_found_;
  const auto& topo = instance_->topology();
  const std::size_t devices = instance_->num_devices();
  const std::size_t servers = topo.num_servers();
  const std::size_t stations = topo.num_base_stations();
  const std::size_t slot_id = state.slot;

  const core::Assignment& assignment = result.decision.assignment;
  const core::Frequencies& freq = result.decision.frequencies;
  const core::ResourceAllocation& alloc = result.decision.allocation;

  auto violate = [&](long device, const char* constraint, double lhs,
                     double rhs, double gap, std::string detail = {}) {
    AuditViolation v;
    v.slot = slot_id;
    v.device = device;
    v.constraint = constraint;
    v.lhs = lhs;
    v.rhs = rhs;
    v.gap = gap;
    v.detail = std::move(detail);
    add(std::move(v));
  };

  // Shape gate: a malformed result cannot be audited field by field.
  bool shapes_ok = true;
  auto shape = [&](std::size_t got, std::size_t want, const char* what) {
    if (got != want) {
      violate(AuditViolation::kNoDevice, "shape.decision",
              static_cast<double>(got), static_cast<double>(want),
              std::abs(static_cast<double>(got) - static_cast<double>(want)),
              what);
      shapes_ok = false;
    }
  };
  shape(assignment.bs_of.size(), devices, "assignment.bs_of");
  shape(assignment.server_of.size(), devices, "assignment.server_of");
  shape(freq.size(), servers, "frequencies");
  shape(alloc.phi.size(), devices, "allocation.phi");
  shape(alloc.psi_access.size(), devices, "allocation.psi_access");
  shape(alloc.psi_fronthaul.size(), devices, "allocation.psi_fronthaul");
  shape(state.task_cycles.size(), devices, "state.task_cycles");
  shape(state.data_bits.size(), devices, "state.data_bits");
  shape(state.channel.size(), devices, "state.channel");
  if (!shapes_ok) {
    if (total_found_ > found_before) ++report_.slots_with_violations;
    return;
  }

  // Constraint (7): frequency box Ω_n ∈ [F^L_n, F^U_n].
  bool frequencies_ok = true;
  for (std::size_t n = 0; n < servers; ++n) {
    const auto& server = topo.server(topology::ServerId{n});
    if (!std::isfinite(freq[n])) {
      violate(AuditViolation::kNoDevice, "frequency.finite", freq[n], 0.0,
              0.0, "server " + std::to_string(n));
      frequencies_ok = false;
      continue;
    }
    if (freq[n] < server.freq_min_ghz - config_.frequency_tolerance) {
      violate(AuditViolation::kNoDevice, "frequency.lower", freq[n],
              server.freq_min_ghz, server.freq_min_ghz - freq[n],
              "server " + std::to_string(n));
      frequencies_ok = false;
    }
    if (freq[n] > server.freq_max_ghz + config_.frequency_tolerance) {
      violate(AuditViolation::kNoDevice, "frequency.upper", freq[n],
              server.freq_max_ghz, freq[n] - server.freq_max_ghz,
              "server " + std::to_string(n));
      frequencies_ok = false;
    }
  }

  // Constraints (1)-(3): the selection must be covered and reachable.
  bool selection_ok = true;
  for (std::size_t i = 0; i < devices; ++i) {
    const std::size_t k = assignment.bs_of[i];
    const std::size_t n = assignment.server_of[i];
    if (k >= stations) {
      violate(static_cast<long>(i), "coverage.bs_index",
              static_cast<double>(k), static_cast<double>(stations), 0.0);
      selection_ok = false;
      continue;
    }
    if (n >= servers) {
      violate(static_cast<long>(i), "coverage.server_index",
              static_cast<double>(n), static_cast<double>(servers), 0.0);
      selection_ok = false;
      continue;
    }
    const double h = state.channel[i][k];
    if (!(h > 0.0)) {
      violate(static_cast<long>(i), "coverage.channel", h, 0.0, -h,
              "base station " + std::to_string(k) + " unusable");
      selection_ok = false;
    }
    const auto& reachable = topo.reachable_servers(topology::BaseStationId{k});
    if (!std::binary_search(reachable.begin(), reachable.end(),
                            topology::ServerId{n})) {
      violate(static_cast<long>(i), "coverage.reachability",
              static_cast<double>(n), static_cast<double>(k), 0.0,
              "server " + std::to_string(n) +
                  " not on the fronthaul of base station " +
                  std::to_string(k));
      selection_ok = false;
    }
  }

  // Constraints (4)-(6): shares in (0, 1], per-resource sums <= 1.
  const double tol = config_.share_tolerance;
  bool shares_ok = true;
  std::vector<double> phi_sum(servers, 0.0);
  std::vector<double> psi_a_sum(stations, 0.0);
  std::vector<double> psi_f_sum(stations, 0.0);
  struct ShareKind {
    const char* range_id;
    const std::vector<double>& values;
  };
  const ShareKind kinds[] = {
      {"simplex.phi.range", alloc.phi},
      {"simplex.psi_access.range", alloc.psi_access},
      {"simplex.psi_fronthaul.range", alloc.psi_fronthaul},
  };
  for (const auto& kind : kinds) {
    for (std::size_t i = 0; i < devices; ++i) {
      const double share = kind.values[i];
      if (!(share > 0.0) || share > 1.0 + tol || !std::isfinite(share)) {
        violate(static_cast<long>(i), kind.range_id, share, 1.0,
                share > 1.0 ? share - 1.0 : -share);
        shares_ok = false;
      }
    }
  }
  if (selection_ok) {
    for (std::size_t i = 0; i < devices; ++i) {
      phi_sum[assignment.server_of[i]] += alloc.phi[i];
      psi_a_sum[assignment.bs_of[i]] += alloc.psi_access[i];
      psi_f_sum[assignment.bs_of[i]] += alloc.psi_fronthaul[i];
    }
    for (std::size_t n = 0; n < servers; ++n) {
      if (phi_sum[n] > 1.0 + tol) {
        violate(AuditViolation::kNoDevice, "simplex.phi.sum", phi_sum[n], 1.0,
                phi_sum[n] - 1.0, "server " + std::to_string(n));
        shares_ok = false;
      }
    }
    for (std::size_t k = 0; k < stations; ++k) {
      if (psi_a_sum[k] > 1.0 + tol) {
        violate(AuditViolation::kNoDevice, "simplex.psi_access.sum",
                psi_a_sum[k], 1.0, psi_a_sum[k] - 1.0,
                "base station " + std::to_string(k));
        shares_ok = false;
      }
      if (psi_f_sum[k] > 1.0 + tol) {
        violate(AuditViolation::kNoDevice, "simplex.psi_fronthaul.sum",
                psi_f_sum[k], 1.0, psi_f_sum[k] - 1.0,
                "base station " + std::to_string(k));
        shares_ok = false;
      }
    }
  }

  // Lemma-1 consistency: the reported allocation must be the closed-form
  // optimum for (x, y) — recomputed from scratch, compared share by share.
  if (selection_ok) {
    try {
      const core::ResourceAllocation closed =
          core::optimal_allocation(*instance_, state, assignment);
      const double atol = config_.allocation_rel_tolerance;
      for (std::size_t i = 0; i < devices; ++i) {
        if (!rel_close(alloc.phi[i], closed.phi[i], atol)) {
          violate(static_cast<long>(i), "lemma1.phi", alloc.phi[i],
                  closed.phi[i], std::abs(alloc.phi[i] - closed.phi[i]));
        }
        if (!rel_close(alloc.psi_access[i], closed.psi_access[i], atol)) {
          violate(static_cast<long>(i), "lemma1.psi_access",
                  alloc.psi_access[i], closed.psi_access[i],
                  std::abs(alloc.psi_access[i] - closed.psi_access[i]));
        }
        if (!rel_close(alloc.psi_fronthaul[i], closed.psi_fronthaul[i],
                       atol)) {
          violate(static_cast<long>(i), "lemma1.psi_fronthaul",
                  alloc.psi_fronthaul[i], closed.psi_fronthaul[i],
                  std::abs(alloc.psi_fronthaul[i] - closed.psi_fronthaul[i]));
        }
      }
    } catch (const std::exception& error) {
      violate(AuditViolation::kNoDevice, "audit.recompute_error", 0.0, 0.0,
              0.0, error.what());
    }
  }

  // Metric recomputation: latency from the reported allocation, energy from
  // the frequency vector and price, θ = C_t − C̄.
  const double mtol = config_.metric_rel_tolerance;
  if (selection_ok && shares_ok && frequencies_ok) {
    try {
      const double latency = core::latency_under_allocation(
          *instance_, state, assignment, freq, alloc);
      if (!rel_close(latency, result.latency, mtol)) {
        violate(AuditViolation::kNoDevice, "metric.latency", result.latency,
                latency, std::abs(result.latency - latency),
                "reported vs recomputed L_t");
      }
    } catch (const std::exception& error) {
      violate(AuditViolation::kNoDevice, "audit.recompute_error", 0.0, 0.0,
              0.0, error.what());
    }
  }
  if (frequencies_ok) {
    const double energy = instance_->energy_cost(freq, state.price_per_mwh);
    if (!rel_close(energy, result.energy_cost, mtol)) {
      violate(AuditViolation::kNoDevice, "metric.energy_cost",
              result.energy_cost, energy,
              std::abs(result.energy_cost - energy),
              "reported vs recomputed C_t");
    }
  }
  const double theta = result.energy_cost - instance_->budget_per_slot();
  if (!rel_close(theta, result.theta, mtol)) {
    violate(AuditViolation::kNoDevice, "metric.theta", result.theta, theta,
            std::abs(result.theta - theta), "theta vs C_t - budget");
  }

  // Eq. (21): the virtual-queue ledger.
  if (config_.check_queue) {
    const double qtol = config_.queue_tolerance;
    if (result.queue_before < -qtol || result.queue_after < -qtol) {
      violate(AuditViolation::kNoDevice, "queue.nonnegative",
              std::min(result.queue_before, result.queue_after), 0.0,
              -std::min(result.queue_before, result.queue_after));
    }
    const double expected =
        std::max(result.queue_before + result.theta, 0.0);
    if (std::abs(result.queue_after - expected) > qtol) {
      violate(AuditViolation::kNoDevice, "queue.update", result.queue_after,
              expected, std::abs(result.queue_after - expected),
              "Q(t+1) != max(Q(t) + theta, 0)");
    }
    if (have_prev_ &&
        std::abs(result.queue_before - prev_queue_after_) > qtol) {
      violate(AuditViolation::kNoDevice, "queue.continuity",
              result.queue_before, prev_queue_after_,
              std::abs(result.queue_before - prev_queue_after_),
              "Q(t) != previous slot's Q(t+1)");
    }
  }

  if (total_found_ > found_before) ++report_.slots_with_violations;
}

}  // namespace eotora::sim
