#include "core/kernels/kernels.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <stdexcept>

#include "core/kernels/kernels_detail.h"

namespace eotora::core::kernels {

namespace {

// Process-global selection. Solvers read it through dispatch() on every
// kernel call, so shard workers and late-constructed engines all agree; the
// CLI (or a test) sets it once up front.
std::atomic<const Backend*> g_backend{nullptr};

// Compiled-in backends in specialization order: scalar first, SIMD after.
std::vector<const Backend*> compiled_backends() {
  std::vector<const Backend*> out;
  out.push_back(detail::scalar_backend());
  if (const Backend* b = detail::avx2_backend()) out.push_back(b);
  return out;
}

const Backend* find_available(const std::string& name) {
  for (const Backend* b : compiled_backends()) {
    if (name == b->name && b->supported()) return b;
  }
  return nullptr;
}

}  // namespace

std::vector<const Backend*> available_backends() {
  std::vector<const Backend*> out;
  for (const Backend* b : compiled_backends()) {
    if (b->supported()) out.push_back(b);
  }
  return out;
}

std::string available_backend_names() {
  std::string names;
  for (const Backend* b : available_backends()) {
    if (!names.empty()) names += ", ";
    names += b->name;
  }
  return names;
}

void set_backend(const std::string& name) {
  const Backend* b = find_available(name);
  if (b == nullptr) {
    throw std::invalid_argument("unknown kernel backend '" + name +
                                "'; available: " + available_backend_names());
  }
  g_backend.store(b, std::memory_order_release);
}

const Backend& dispatch() {
  if (const Backend* b = g_backend.load(std::memory_order_acquire)) return *b;
  // First use. EOTORA_KERNEL_BACKEND overrides (unknown names fail fast with
  // the available list); otherwise take the most specialized supported
  // backend. A racing first call resolves to the same answer, so the plain
  // store is benign.
  if (const char* env = std::getenv("EOTORA_KERNEL_BACKEND");
      env != nullptr && *env != '\0') {
    set_backend(env);
  } else {
    g_backend.store(available_backends().back(), std::memory_order_release);
  }
  return *g_backend.load(std::memory_order_acquire);
}

const char* backend_name() { return dispatch().name; }

void lemma1_batch(const Lemma1Io& io) {
  const Backend& b = dispatch();
  b.sqrt_div(io.compute_num, io.compute_den, io.sqrt_compute, io.devices);
  b.sqrt_div(io.access_num, io.access_den, io.sqrt_access, io.devices);
  b.sqrt_div(io.fronthaul_num, io.fronthaul_den, io.sqrt_fronthaul,
             io.devices);
  // Denominator scatter stays scalar on every backend: the device-order
  // accumulation is part of the bit-identity contract (same rounding as the
  // open-coded loop in the pre-kernel core/lemma1.cpp).
  std::fill_n(io.server_denominator, io.num_servers, 0.0);
  std::fill_n(io.access_denominator, io.num_stations, 0.0);
  std::fill_n(io.fronthaul_denominator, io.num_stations, 0.0);
  for (std::size_t i = 0; i < io.devices; ++i) {
    io.server_denominator[io.server_key[i]] += io.sqrt_compute[i];
    io.access_denominator[io.bs_key[i]] += io.sqrt_access[i];
    io.fronthaul_denominator[io.bs_key[i]] += io.sqrt_fronthaul[i];
  }
  b.div_gather(io.sqrt_compute, io.server_denominator, io.server_key, io.phi,
               io.devices);
  b.div_gather(io.sqrt_access, io.access_denominator, io.bs_key,
               io.psi_access, io.devices);
  b.div_gather(io.sqrt_fronthaul, io.fronthaul_denominator, io.bs_key,
               io.psi_fronthaul, io.devices);
}

ScanHit best_response_scan(const double* tc,
                           const std::uint32_t* server_of_entry,
                           const ScanGroup* groups, std::size_t num_groups,
                           const double* ta, const double* tf,
                           std::uint32_t skip_entry, double bound) {
  return dispatch().scan(tc, server_of_entry, groups, num_groups, ta, tf,
                         skip_entry, bound);
}

void p2b_batch(const P2bBatchView& batch, double* out_x) {
  dispatch().p2b_bisect(batch, out_x);
}

double weighted_sumsq(const double* w, const double* x, std::size_t n) {
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) sum += w[i] * x[i] * x[i];
  return sum;
}

}  // namespace eotora::core::kernels
