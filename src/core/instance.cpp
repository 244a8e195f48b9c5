#include "core/instance.h"

#include <algorithm>
#include <atomic>

#include "util/check.h"

namespace eotora::core {

namespace {
// The last stamp an Instance took (see stamp()).
std::atomic<std::uint64_t> last_stamp{0};
}  // namespace

Instance::Instance(std::shared_ptr<const topology::Topology> topology,
                   double budget_per_slot, double slot_hours)
    : topology_(std::move(topology)),
      budget_per_slot_(budget_per_slot),
      slot_hours_(slot_hours),
      stamp_(last_stamp.fetch_add(1, std::memory_order_relaxed) + 1) {
  EOTORA_REQUIRE(topology_ != nullptr);
  EOTORA_REQUIRE_MSG(budget_per_slot_ > 0.0,
                     "budget=" << budget_per_slot_);
  EOTORA_REQUIRE_MSG(slot_hours_ > 0.0, "slot_hours=" << slot_hours_);
}

Instance::Instance(std::shared_ptr<const topology::Topology> topology,
                   const SuitabilityMatrix& sigma, double budget_per_slot,
                   double slot_hours)
    : Instance(std::move(topology), budget_per_slot, slot_hours) {
  const topology::Topology& topo = *topology_;
  EOTORA_REQUIRE_MSG(sigma.size() == topo.num_devices(),
                     "sigma rows=" << sigma.size() << " devices="
                                   << topo.num_devices());
  sigma_.reserve(topo.num_reachable_pairs());
  for (std::size_t i = 0; i < sigma.size(); ++i) {
    EOTORA_REQUIRE_MSG(sigma[i].size() == topo.num_servers(),
                       "sigma row " << i << " has " << sigma[i].size()
                                    << " entries");
    for (double s : sigma[i]) {
      EOTORA_REQUIRE_MSG(s > 0.0 && s <= 1.0, "sigma=" << s);
    }
    for (topology::ServerId n :
         topo.reachable_servers(topology::DeviceId{i})) {
      sigma_.push_back(sigma[i][n.value]);
    }
  }
}

Instance Instance::random(std::shared_ptr<const topology::Topology> topology,
                          util::Rng& rng, double budget_per_slot,
                          double slot_hours) {
  Instance instance(std::move(topology), budget_per_slot, slot_hours);
  const topology::Topology& topo = *instance.topology_;
  const std::size_t servers = topo.num_servers();
  instance.sigma_.reserve(topo.num_reachable_pairs());
  // A uniform double takes exactly one word of the 64-bit engine, so
  // discarding one word per unreachable entry keeps the dense stream.
  std::size_t drawn = 0;  // dense row-major entries consumed so far
  for (std::size_t i = 0; i < topo.num_devices(); ++i) {
    for (topology::ServerId n :
         topo.reachable_servers(topology::DeviceId{i})) {
      const std::size_t entry = i * servers + n.value;
      rng.engine().discard(entry - drawn);
      instance.sigma_.push_back(rng.uniform(0.5, 1.0));
      drawn = entry + 1;
    }
  }
  rng.engine().discard(topo.num_devices() * servers - drawn);
  return instance;
}

double Instance::suitability(std::size_t device, std::size_t server) const {
  const std::span<const topology::ServerId> row =
      topology_->reachable_servers(topology::DeviceId{device});
  const auto it =
      std::lower_bound(row.begin(), row.end(), topology::ServerId{server});
  EOTORA_REQUIRE_MSG(it != row.end() && it->value == server,
                     "server " << server << " is out of device " << device
                               << "'s reach");
  return sigma_[topology_->reachable_offset(topology::DeviceId{device}) +
                static_cast<std::size_t>(it - row.begin())];
}

std::span<const double> Instance::suitability_row(std::size_t device) const {
  const topology::DeviceId i{device};
  return std::span<const double>(sigma_).subspan(
      topology_->reachable_offset(i), topology_->reachable_servers(i).size());
}

double Instance::server_cost(std::size_t server, double ghz,
                             double price_per_mwh) const {
  EOTORA_REQUIRE(server < num_servers());
  const auto& s = topology_->server(topology::ServerId{server});
  return price_per_mwh * s.power_watts(ghz) * slot_hours_ / 1e6;
}

double Instance::energy_cost(const Frequencies& freq,
                             double price_per_mwh) const {
  EOTORA_REQUIRE_MSG(freq.size() == num_servers(),
                     "freq entries=" << freq.size());
  double cost = 0.0;
  for (std::size_t n = 0; n < freq.size(); ++n) {
    cost += server_cost(n, freq[n], price_per_mwh);
  }
  return cost;
}

Frequencies Instance::min_frequencies() const {
  Frequencies freq;
  freq.reserve(num_servers());
  for (const auto& s : topology_->servers()) freq.push_back(s.freq_min_ghz);
  return freq;
}

Frequencies Instance::max_frequencies() const {
  Frequencies freq;
  freq.reserve(num_servers());
  for (const auto& s : topology_->servers()) freq.push_back(s.freq_max_ghz);
  return freq;
}

bool Instance::frequencies_feasible(const Frequencies& freq) const {
  if (freq.size() != num_servers()) return false;
  for (std::size_t n = 0; n < freq.size(); ++n) {
    const auto& s = topology_->server(topology::ServerId{n});
    // Tiny tolerance so solver round-off at the interval ends still counts.
    if (freq[n] < s.freq_min_ghz - 1e-12 || freq[n] > s.freq_max_ghz + 1e-12) {
      return false;
    }
  }
  return true;
}

}  // namespace eotora::core
