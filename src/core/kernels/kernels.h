// Data-oriented kernel layer: the batched, branch-light arithmetic the
// per-slot solvers are built on (ROADMAP "fast as the hardware allows").
//
// Three kernels cover the decide loop's inner arithmetic:
//   lemma1_batch       — the closed-form share evaluation of core/lemma1.h,
//                        restructured as sqrt(num/den) sweeps, a scalar
//                        scatter, and gather-divides over contiguous spans;
//   best_response_scan — BestResponseEngine's grouped option scan: a
//                        first-wins strict-< argmin over cached cost terms;
//   p2b_batch          — the N independent P2-B derivative bisections run in
//                        lockstep lanes (core/p2b.h).
// plus weighted_sumsq, the Σ m_r P_r² social-cost reduction.
//
// Backends: a portable scalar backend (always available) and an AVX2
// backend on x86-64, selected at runtime by dispatch().
// Selection order is "most specialized supported backend"; the
// EOTORA_KERNEL_BACKEND environment variable or set_backend() overrides it
// (eotora_cli surfaces the choice as --kernel-backend / --list-kernels).
//
// Bit-identity contract: every backend produces the SAME BITS as the scalar
// backend for every kernel. This works because the lanes only use IEEE-754
// correctly-rounded operations (+, -, *, /, sqrt) applied in the same
// per-element order as the open-coded loops they replaced — no FMA
// contraction, no reassociated reductions, and every order-sensitive
// accumulation (the Lemma-1 denominator scatter, the weighted_sumsq
// left-to-right sum) stays scalar. The golden fixtures therefore hold on
// every backend (tests/test_kernels.cpp pins the contract).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace eotora::core::kernels {

// ---------------------------------------------------------------------------
// best_response_scan

// A contiguous arena run of one device's options on one base station (the
// grouping BestResponseEngine scans by: the access and fronthaul terms are
// shared across the run, the compute term varies per entry).
struct ScanGroup {
  std::uint32_t begin = 0;  // arena range [begin, end)
  std::uint32_t end = 0;
  std::uint32_t bs = 0;
};

inline constexpr std::uint32_t kNoEntry = 0xffffffffu;

// Result of a scan: the first arena entry whose cost is strictly below every
// earlier candidate and the initial bound, or kNoEntry when no candidate
// beats the bound (the caller keeps its current option).
struct ScanHit {
  std::uint32_t entry = kNoEntry;
  double cost = 0.0;
};

// ---------------------------------------------------------------------------
// lemma1_batch

// One batched Lemma-1 evaluation over `devices` devices. All pointer spans
// have length `devices` unless noted. The kernel fills the three sqrt
// scratch vectors with sqrt(num/den), zeroes and accumulates the per-resource
// denominators IN DEVICE ORDER (the scatter stays scalar on every backend —
// the accumulation order is part of the bit-identity contract), then writes
// share[i] = sqrt_val[i] / denominator[key[i]] for each category.
struct Lemma1Io {
  std::size_t devices = 0;
  // compute: num = f_i, den = σ_{i,n_i}, keyed by the selected server n_i.
  const double* compute_num = nullptr;
  const double* compute_den = nullptr;
  const std::uint32_t* server_key = nullptr;
  std::size_t num_servers = 0;
  // access: num = d_i, den = h_{i,k_i}; fronthaul: num = d_i, den = h^F_{k_i};
  // both keyed by the selected base station k_i.
  const double* access_num = nullptr;
  const double* access_den = nullptr;
  const double* fronthaul_num = nullptr;
  const double* fronthaul_den = nullptr;
  const std::uint32_t* bs_key = nullptr;
  std::size_t num_stations = 0;
  // Caller-sized scratch: the three sqrt vectors (length devices).
  double* sqrt_compute = nullptr;
  double* sqrt_access = nullptr;
  double* sqrt_fronthaul = nullptr;
  // Caller-sized per-resource denominators (num_servers / num_stations /
  // num_stations); zeroed by the kernel.
  double* server_denominator = nullptr;
  double* access_denominator = nullptr;
  double* fronthaul_denominator = nullptr;
  // Outputs (length devices): φ*, ψ^A*, ψ^F*.
  double* phi = nullptr;
  double* psi_access = nullptr;
  double* psi_fronthaul = nullptr;
};

// ---------------------------------------------------------------------------
// p2b_batch

// SoA view of the P2-B servers that need an interior bisection (the q == 0
// and idle-server closed forms are resolved by the caller). Lanes solve
//   d/dw [ V·A_n/(cores·w·1e9) + scale·power_watts(w) ] = 0   on [lo, hi]
// with the affine energy-model derivative slope·w + intercept (2a·w + b for
// the quadratic model, 0·w + slope for the linear one). Every lane
// reproduces math::derivative_bisection's endpoint tests, midpoint updates,
// and iteration cutoff bit-for-bit; non-affine models never enter a batch —
// core/p2b.cpp keeps them on the per-server scalar path.
struct P2bBatchView {
  std::size_t n = 0;
  const double* neg_va = nullptr;      // (-V) · A_n
  const double* cores = nullptr;       // core counts as doubles
  const double* lo = nullptr;          // F^L_n
  const double* hi = nullptr;          // F^U_n
  const double* d_slope = nullptr;     // energy-derivative slope per lane
  const double* d_intercept = nullptr; // energy-derivative intercept per lane
  double scale = 0.0;                  // Q · price · slot_h / 1e6
  double tolerance = 1e-7;
  int max_iterations = 200;
};

// ---------------------------------------------------------------------------
// Backend

struct Backend {
  const char* name = nullptr;
  const char* description = nullptr;
  bool (*supported)() = nullptr;  // runtime CPU capability check

  // out[i] = sqrt(num[i] / den[i]) — lane-exact on every backend.
  void (*sqrt_div)(const double* num, const double* den, double* out,
                   std::size_t n) = nullptr;
  // out[i] = num[i] / den[key[i]] — lane-exact gather-divide.
  void (*div_gather)(const double* num, const double* den,
                     const std::uint32_t* key, double* out,
                     std::size_t n) = nullptr;
  // First-wins strict-< argmin over the groups' entries: candidate cost of
  // arena entry a in group g is (tc[server_of_entry[a]] + ta[g.bs]) + tf[g.bs]
  // (left-associated). Entry `skip_entry` is excluded; `bound` seeds the
  // champion cost.
  ScanHit (*scan)(const double* tc, const std::uint32_t* server_of_entry,
                  const ScanGroup* groups, std::size_t num_groups,
                  const double* ta, const double* tf, std::uint32_t skip_entry,
                  double bound) = nullptr;
  // Lockstep derivative bisection over the batch lanes (see P2bBatchView).
  void (*p2b_bisect)(const P2bBatchView& batch, double* out_x) = nullptr;
};

// The active backend. First call resolves the default: the
// EOTORA_KERNEL_BACKEND environment variable if set (throwing
// std::invalid_argument for an unknown or unsupported name), otherwise the
// most specialized backend the CPU supports. Thread-safe; shard workers read
// the same process-global selection.
[[nodiscard]] const Backend& dispatch();

// Compiled-in backends the current CPU supports, scalar first.
[[nodiscard]] std::vector<const Backend*> available_backends();

// Comma-separated names of available_backends() — for diagnostics.
[[nodiscard]] std::string available_backend_names();

// Selects a backend by name. Throws std::invalid_argument naming the
// available backends when `name` is unknown here. NOT safe to call
// concurrently with in-flight solves; set it up front (the CLI does).
void set_backend(const std::string& name);

// Name of the backend dispatch() currently resolves to.
[[nodiscard]] const char* backend_name();

// ---------------------------------------------------------------------------
// Kernel entry points (the first three route through dispatch()).

void lemma1_batch(const Lemma1Io& io);

[[nodiscard]] ScanHit best_response_scan(const double* tc,
                                         const std::uint32_t* server_of_entry,
                                         const ScanGroup* groups,
                                         std::size_t num_groups,
                                         const double* ta, const double* tf,
                                         std::uint32_t skip_entry,
                                         double bound);

void p2b_batch(const P2bBatchView& batch, double* out_x);

// Σ ((w[i]·x[i])·x[i]) left-to-right — the exact social-cost reduction.
// Order-sensitive, so it is the same scalar loop on every backend.
[[nodiscard]] double weighted_sumsq(const double* w, const double* x,
                                    std::size_t n);

}  // namespace eotora::core::kernels
