// Kernel-layer contracts (core/kernels): every compiled-in backend the CPU
// supports must reproduce the scalar reference BIT FOR BIT, for all three
// kernels, across randomized shapes — this is what lets the golden fixtures
// hold on every backend.
#include "core/kernels/kernels.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/p2b.h"
#include "core/wcg.h"
#include "math/minimize1d.h"
#include "support/core_oracles.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace eotora::core::kernels {
namespace {

constexpr int kFuzzSeeds = 25;

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// Restores the process-global backend selection a test overrides.
class KernelStateGuard {
 public:
  KernelStateGuard() : backend_(backend_name()) {}
  ~KernelStateGuard() { set_backend(backend_); }

 private:
  std::string backend_;
};

// ---------------------------------------------------------------------------
// Backend registry

TEST(KernelRegistry, ScalarBackendIsAlwaysFirst) {
  const std::vector<const Backend*> backends = available_backends();
  ASSERT_FALSE(backends.empty());
  EXPECT_STREQ(backends[0]->name, "scalar");
  EXPECT_TRUE(backends[0]->supported());
  EXPECT_NE(available_backend_names().find("scalar"), std::string::npos);
}

TEST(KernelRegistry, SetBackendRejectsUnknownNamingAvailable) {
  try {
    set_backend("definitely-not-a-backend");
    FAIL() << "set_backend accepted an unknown name";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("definitely-not-a-backend"), std::string::npos);
    EXPECT_NE(what.find("scalar"), std::string::npos);
  }
}

TEST(KernelRegistry, SetBackendSwitchesDispatch) {
  const KernelStateGuard guard;
  for (const Backend* b : available_backends()) {
    set_backend(b->name);
    EXPECT_STREQ(backend_name(), b->name);
  }
}

// ---------------------------------------------------------------------------
// Elementwise lanes: sqrt_div / div_gather

TEST(KernelFuzz, SqrtDivBitIdenticalAcrossBackends) {
  const std::vector<const Backend*> backends = available_backends();
  for (int seed = 0; seed < kFuzzSeeds; ++seed) {
    util::Rng rng(1000 + seed);
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(1, 97));
    std::vector<double> num(n);
    std::vector<double> den(n);
    for (std::size_t i = 0; i < n; ++i) {
      num[i] = rng.uniform(1e6, 1e12);
      den[i] = rng.uniform(1e-3, 1.0);
    }
    std::vector<double> reference(n);
    backends[0]->sqrt_div(num.data(), den.data(), reference.data(), n);
    for (const Backend* b : backends) {
      std::vector<double> out(n, -1.0);
      b->sqrt_div(num.data(), den.data(), out.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(bits(out[i]), bits(reference[i]))
            << b->name << " seed=" << seed << " i=" << i;
      }
    }
  }
}

TEST(KernelFuzz, DivGatherBitIdenticalAcrossBackends) {
  const std::vector<const Backend*> backends = available_backends();
  for (int seed = 0; seed < kFuzzSeeds; ++seed) {
    util::Rng rng(2000 + seed);
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(1, 97));
    const std::size_t table = static_cast<std::size_t>(rng.uniform_int(1, 9));
    std::vector<double> num(n);
    std::vector<double> den(table);
    std::vector<std::uint32_t> key(n);
    for (std::size_t i = 0; i < n; ++i) {
      num[i] = rng.uniform(-5.0, 5.0);
      key[i] = static_cast<std::uint32_t>(rng.index(table));
    }
    for (std::size_t t = 0; t < table; ++t) den[t] = rng.uniform(0.1, 40.0);
    std::vector<double> reference(n);
    backends[0]->div_gather(num.data(), den.data(), key.data(),
                            reference.data(), n);
    for (const Backend* b : backends) {
      std::vector<double> out(n, -1.0);
      b->div_gather(num.data(), den.data(), key.data(), out.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(bits(out[i]), bits(reference[i]))
            << b->name << " seed=" << seed << " i=" << i;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// lemma1_batch

struct Lemma1Fixture {
  std::size_t devices = 0;
  std::size_t servers = 0;
  std::size_t stations = 0;
  std::vector<double> compute_num, compute_den, access_num, access_den;
  std::vector<double> fronthaul_num, fronthaul_den;
  std::vector<std::uint32_t> server_key, bs_key;
  std::vector<double> sqrt_compute, sqrt_access, sqrt_fronthaul;
  std::vector<double> server_den, access_den_sum, fronthaul_den_sum;
  std::vector<double> phi, psi_access, psi_fronthaul;

  explicit Lemma1Fixture(util::Rng& rng) {
    devices = static_cast<std::size_t>(rng.uniform_int(1, 60));
    servers = static_cast<std::size_t>(rng.uniform_int(1, 7));
    stations = static_cast<std::size_t>(rng.uniform_int(1, 5));
    compute_num.resize(devices);
    compute_den.resize(devices);
    access_num.resize(devices);
    access_den.resize(devices);
    fronthaul_num.resize(devices);
    fronthaul_den.resize(devices);
    server_key.resize(devices);
    bs_key.resize(devices);
    for (std::size_t i = 0; i < devices; ++i) {
      compute_num[i] = rng.uniform(5e7, 2e8);
      compute_den[i] = rng.uniform(0.2, 1.0);
      access_num[i] = rng.uniform(3e6, 1e7);
      access_den[i] = rng.uniform(15.0, 50.0);
      fronthaul_num[i] = access_num[i];
      fronthaul_den[i] = rng.uniform(5.0, 15.0);
      server_key[i] = static_cast<std::uint32_t>(rng.index(servers));
      bs_key[i] = static_cast<std::uint32_t>(rng.index(stations));
    }
    sqrt_compute.resize(devices);
    sqrt_access.resize(devices);
    sqrt_fronthaul.resize(devices);
    server_den.resize(servers);
    access_den_sum.resize(stations);
    fronthaul_den_sum.resize(stations);
    phi.resize(devices);
    psi_access.resize(devices);
    psi_fronthaul.resize(devices);
  }

  Lemma1Io io() {
    Lemma1Io out;
    out.devices = devices;
    out.compute_num = compute_num.data();
    out.compute_den = compute_den.data();
    out.server_key = server_key.data();
    out.num_servers = servers;
    out.access_num = access_num.data();
    out.access_den = access_den.data();
    out.fronthaul_num = fronthaul_num.data();
    out.fronthaul_den = fronthaul_den.data();
    out.bs_key = bs_key.data();
    out.num_stations = stations;
    out.sqrt_compute = sqrt_compute.data();
    out.sqrt_access = sqrt_access.data();
    out.sqrt_fronthaul = sqrt_fronthaul.data();
    out.server_denominator = server_den.data();
    out.access_denominator = access_den_sum.data();
    out.fronthaul_denominator = fronthaul_den_sum.data();
    out.phi = phi.data();
    out.psi_access = psi_access.data();
    out.psi_fronthaul = psi_fronthaul.data();
    return out;
  }
};

TEST(KernelFuzz, Lemma1BatchBitIdenticalAcrossBackends) {
  const KernelStateGuard guard;
  for (int seed = 0; seed < kFuzzSeeds; ++seed) {
    util::Rng setup_rng(3000 + seed);
    Lemma1Fixture reference(setup_rng);
    set_backend("scalar");
    const Lemma1Io ref_io = reference.io();
    lemma1_batch(ref_io);
    for (const Backend* b : available_backends()) {
      util::Rng replay_rng(3000 + seed);
      Lemma1Fixture candidate(replay_rng);
      set_backend(b->name);
      const Lemma1Io io = candidate.io();
      lemma1_batch(io);
      for (std::size_t i = 0; i < reference.devices; ++i) {
        ASSERT_EQ(bits(candidate.phi[i]), bits(reference.phi[i]))
            << b->name << " seed=" << seed << " i=" << i;
        ASSERT_EQ(bits(candidate.psi_access[i]), bits(reference.psi_access[i]))
            << b->name << " seed=" << seed << " i=" << i;
        ASSERT_EQ(bits(candidate.psi_fronthaul[i]),
                  bits(reference.psi_fronthaul[i]))
            << b->name << " seed=" << seed << " i=" << i;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// best_response_scan

struct ScanFixture {
  std::size_t servers = 0;
  std::size_t stations = 0;
  std::vector<double> tc, ta, tf;
  std::vector<std::uint32_t> server_of_entry;
  std::vector<ScanGroup> groups;
  std::uint32_t skip_entry = kNoEntry;
  double bound = std::numeric_limits<double>::infinity();

  explicit ScanFixture(util::Rng& rng) {
    servers = static_cast<std::size_t>(rng.uniform_int(1, 9));
    stations = static_cast<std::size_t>(rng.uniform_int(1, 6));
    tc.resize(servers);
    ta.resize(stations);
    tf.resize(stations);
    for (std::size_t n = 0; n < servers; ++n) tc[n] = rng.uniform(0.0, 3.0);
    for (std::size_t k = 0; k < stations; ++k) {
      ta[k] = rng.uniform(0.0, 2.0);
      tf[k] = rng.uniform(0.0, 1.0);
    }
    const std::size_t num_groups =
        static_cast<std::size_t>(rng.uniform_int(1, 8));
    std::uint32_t arena = 0;
    for (std::size_t g = 0; g < num_groups; ++g) {
      ScanGroup grp;
      grp.begin = arena;
      arena += static_cast<std::uint32_t>(rng.uniform_int(1, 6));
      grp.end = arena;
      grp.bs = static_cast<std::uint32_t>(rng.index(stations));
      groups.push_back(grp);
    }
    server_of_entry.resize(arena);
    for (std::uint32_t a = 0; a < arena; ++a) {
      server_of_entry[a] = static_cast<std::uint32_t>(rng.index(servers));
      // Duplicate costs are common in real arenas (shared servers across
      // stations); force some exact ties so first-wins ordering is exercised.
      if (a > 0 && rng.bernoulli(0.3)) {
        server_of_entry[a] = server_of_entry[a - 1];
      }
    }
    skip_entry = static_cast<std::uint32_t>(rng.index(arena));
    if (rng.bernoulli(0.5)) {
      const ScanGroup* home = nullptr;
      for (const ScanGroup& grp : groups) {
        if (skip_entry >= grp.begin && skip_entry < grp.end) home = &grp;
      }
      bound = (tc[server_of_entry[skip_entry]] + ta[home->bs]) + tf[home->bs];
    }
  }

  // Independent re-statement of the contract: first-wins strict-< argmin
  // over the exact left-associated costs.
  ScanHit expected() const {
    ScanHit best{kNoEntry, bound};
    for (const ScanGroup& grp : groups) {
      for (std::uint32_t a = grp.begin; a < grp.end; ++a) {
        if (a == skip_entry) continue;
        const double c = (tc[server_of_entry[a]] + ta[grp.bs]) + tf[grp.bs];
        if (c < best.cost) {
          best.cost = c;
          best.entry = a;
        }
      }
    }
    return best;
  }

  ScanHit run(const Backend& b) const {
    return b.scan(tc.data(), server_of_entry.data(), groups.data(),
                  groups.size(), ta.data(), tf.data(), skip_entry, bound);
  }
};

TEST(KernelFuzz, BestResponseScanBitIdenticalAcrossBackends) {
  for (int seed = 0; seed < kFuzzSeeds; ++seed) {
    util::Rng rng(4000 + seed);
    const ScanFixture fixture(rng);
    const ScanHit expected = fixture.expected();
    for (const Backend* b : available_backends()) {
      const ScanHit hit = fixture.run(*b);
      ASSERT_EQ(hit.entry, expected.entry) << b->name << " seed=" << seed;
      ASSERT_EQ(bits(hit.cost), bits(expected.cost))
          << b->name << " seed=" << seed;
    }
  }
}

// ---------------------------------------------------------------------------
// p2b_batch

struct P2bFixture {
  std::size_t n = 0;
  std::vector<double> neg_va, cores, lo, hi, d_slope, d_intercept;
  double scale = 0.0;

  explicit P2bFixture(util::Rng& rng) {
    n = static_cast<std::size_t>(rng.uniform_int(1, 33));
    neg_va.resize(n);
    cores.resize(n);
    lo.resize(n);
    hi.resize(n);
    d_slope.resize(n);
    d_intercept.resize(n);
    scale = rng.uniform(1e-6, 1e-3);
    for (std::size_t i = 0; i < n; ++i) {
      neg_va[i] = -rng.uniform(1.0, 1e6);
      cores[i] = static_cast<double>(rng.uniform_int(4, 128));
      lo[i] = rng.uniform(0.5, 2.0);
      hi[i] = lo[i] + rng.uniform(0.1, 3.0);
      // Mix quadratic-style (slope > 0) and linear-style (slope == 0) lanes,
      // the two energy models core/p2b.cpp batches.
      d_slope[i] = rng.bernoulli(0.3) ? 0.0 : rng.uniform(1.0, 20.0);
      d_intercept[i] = rng.uniform(0.0, 10.0);
    }
  }

  P2bBatchView view() const {
    P2bBatchView batch;
    batch.n = n;
    batch.neg_va = neg_va.data();
    batch.cores = cores.data();
    batch.lo = lo.data();
    batch.hi = hi.data();
    batch.d_slope = d_slope.data();
    batch.d_intercept = d_intercept.data();
    batch.scale = scale;
    return batch;
  }
};

TEST(KernelFuzz, P2bBisectBitIdenticalAcrossBackends) {
  for (int seed = 0; seed < kFuzzSeeds; ++seed) {
    util::Rng rng(6000 + seed);
    const P2bFixture fixture(rng);
    const P2bBatchView batch = fixture.view();
    std::vector<double> reference(fixture.n, -1.0);
    available_backends()[0]->p2b_bisect(batch, reference.data());
    for (const Backend* b : available_backends()) {
      std::vector<double> out(fixture.n, -1.0);
      b->p2b_bisect(batch, out.data());
      for (std::size_t i = 0; i < fixture.n; ++i) {
        ASSERT_EQ(bits(out[i]), bits(reference[i]))
            << b->name << " seed=" << seed << " lane=" << i;
      }
    }
  }
}

TEST(KernelFuzz, P2bBisectMatchesMathDerivativeBisection) {
  // The scalar lanes must reproduce math::derivative_bisection on the same
  // derivative, endpoint tests and iteration cutoff included.
  for (int seed = 0; seed < kFuzzSeeds; ++seed) {
    util::Rng rng(7000 + seed);
    const P2bFixture fixture(rng);
    const P2bBatchView batch = fixture.view();
    std::vector<double> out(fixture.n, -1.0);
    available_backends()[0]->p2b_bisect(batch, out.data());
    for (std::size_t i = 0; i < fixture.n; ++i) {
      const auto derivative = [&](double w) {
        const double pd = fixture.d_slope[i] * w + fixture.d_intercept[i];
        return fixture.neg_va[i] / (fixture.cores[i] * w * w * 1e9) +
               fixture.scale * (pd * fixture.cores[i] / 4.0);
      };
      const math::Minimize1DResult expected = math::derivative_bisection(
          [](double) { return 0.0; }, derivative, fixture.lo[i],
          fixture.hi[i], batch.tolerance, batch.max_iterations);
      ASSERT_EQ(bits(out[i]), bits(expected.x))
          << "seed=" << seed << " lane=" << i;
    }
  }
}

// ---------------------------------------------------------------------------
// weighted_sumsq

TEST(KernelFuzz, WeightedSumsqBitIdenticalAcrossBackends) {
  const KernelStateGuard guard;
  for (int seed = 0; seed < kFuzzSeeds; ++seed) {
    util::Rng rng(8000 + seed);
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(1, 129));
    std::vector<double> w(n);
    std::vector<double> x(n);
    for (std::size_t i = 0; i < n; ++i) {
      w[i] = rng.uniform(1e-10, 10.0);
      x[i] = rng.uniform(0.0, 1e4);
    }
    // The contract's left-to-right Σ ((w·x)·x).
    double reference = 0.0;
    for (std::size_t i = 0; i < n; ++i) reference += w[i] * x[i] * x[i];
    for (const Backend* b : available_backends()) {
      set_backend(b->name);
      const double sum = weighted_sumsq(w.data(), x.data(), n);
      ASSERT_EQ(bits(sum), bits(reference)) << b->name << " seed=" << seed;
    }
  }
}

// ---------------------------------------------------------------------------
// End to end: the batched P2-B against the pre-kernel per-server oracle.

TEST(KernelDifferential, SolveP2bMatchesReferenceOnEveryBackend) {
  const KernelStateGuard guard;
  const Instance instance = test::tiny_instance(10);
  WcgProblem problem;
  P2bWorkspace workspace;
  P2bResult result;
  for (int seed = 0; seed < kFuzzSeeds; ++seed) {
    util::Rng rng(9000 + seed);
    const SlotState state = test::random_state(10, 2, rng);
    problem.rebuild(instance, state, instance.min_frequencies());
    const Profile profile = problem.random_profile(rng);
    const Assignment assignment = problem.to_assignment(profile);
    const double v = rng.uniform(0.0, 500.0);
    const double q = rng.uniform(0.0, 200.0);
    const P2bResult expected =
        solve_p2b_reference(instance, state, assignment, v, q);
    for (const Backend* b : available_backends()) {
      set_backend(b->name);
      solve_p2b(instance, state, assignment, v, q, 1e-7, workspace, result);
      ASSERT_EQ(result.frequencies.size(), expected.frequencies.size());
      for (std::size_t s = 0; s < expected.frequencies.size(); ++s) {
        ASSERT_EQ(bits(result.frequencies[s]), bits(expected.frequencies[s]))
            << b->name << " seed=" << seed << " server=" << s;
      }
      ASSERT_EQ(bits(result.objective), bits(expected.objective))
          << b->name << " seed=" << seed;
      // The load-sum overload, fed the chosen options' p-values summed in
      // device order from the WCG arena (as BDMA sums each component's):
      // same bits as the sqrt-chain recompute above.
      P2bLoads loads;
      loads.compute.assign(instance.num_servers(), 0.0);
      loads.access.assign(instance.num_base_stations(), 0.0);
      loads.fronthaul.assign(instance.num_base_stations(), 0.0);
      for (std::size_t i = 0; i < profile.size(); ++i) {
        const Option& opt = problem.options(i)[profile[i]];
        loads.compute[opt.server] += opt.p_compute;
        loads.access[opt.bs] += opt.p_access;
        loads.fronthaul[opt.bs] += opt.p_fronthaul;
      }
      solve_p2b(instance, state, loads, v, q, 1e-7, workspace, result);
      for (std::size_t s = 0; s < expected.frequencies.size(); ++s) {
        ASSERT_EQ(bits(result.frequencies[s]), bits(expected.frequencies[s]))
            << b->name << " seed=" << seed << " server=" << s << " (loads)";
      }
      ASSERT_EQ(bits(result.objective), bits(expected.objective))
          << b->name << " seed=" << seed << " (loads)";
    }
  }
}

}  // namespace
}  // namespace eotora::core::kernels
