#include "des/flow_sim.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <functional>
#include <limits>
#include <queue>
#include <utility>

#include "core/latency.h"
#include "util/check.h"
#include "util/rng.h"

namespace eotora::des {

namespace {

constexpr int kAccess = 0;
constexpr int kFronthaul = 1;
constexpr int kCompute = 2;
constexpr int kDone = 3;
constexpr int kPendingArrival = -1;

// A pending event: an arrival (epoch == 0) or a stage completion (epoch ==
// the flow's current epoch — anything else is stale and skipped). The heap
// is a min-heap on (time, flow, epoch): equal-time events resolve in
// admission order, which is the pinned deterministic tie-break.
struct HeapEntry {
  double time = 0.0;
  std::uint64_t flow = 0;
  std::uint64_t epoch = 0;

  bool operator>(const HeapEntry& other) const {
    if (time != other.time) return time > other.time;
    if (flow != other.flow) return flow > other.flow;
    return epoch > other.epoch;
  }
};

struct FlowState {
  std::size_t device = 0;
  std::size_t slot = 0;
  int stage = kPendingArrival;
  double remaining = 0.0;   // bits or cycles left in the current stage
  double rate = 0.0;        // current service rate
  double settled_at = 0.0;  // time at which `remaining` was last accurate
  double pending_dt = 0.0;  // exact duration scheduled at the last reprice
  double elapsed = 0.0;     // sojourn so far (sum of served segments)
  std::uint64_t epoch = 0;  // bumped on every (re)schedule
  double arrival = 0.0;
  double work[3] = {0.0, 0.0, 0.0};       // d, d, f
  double unit_rate[3] = {0.0, 0.0, 0.0};  // share-1.0 service rates
  double share[3] = {1.0, 1.0, 1.0};      // static reservations
  std::size_t res[3] = {0, 0, 0};         // bs, bs, server index
  double stage_done[3] = {0.0, 0.0, 0.0};
  double analytic = 0.0;
};

// Per-resource list of the flows it currently serves. Removal is
// swap-remove: list order is arbitrary but per-flow arithmetic never
// depends on it (each flow's share is 1/occupants).
struct ResourcePool {
  std::vector<std::vector<std::uint64_t>> access;     // per base station
  std::vector<std::vector<std::uint64_t>> fronthaul;  // per base station
  std::vector<std::vector<std::uint64_t>> compute;    // per server

  std::vector<std::uint64_t>& list(int stage, std::size_t index) {
    switch (stage) {
      case kAccess:
        return access[index];
      case kFronthaul:
        return fronthaul[index];
      default:
        return compute[index];
    }
  }
};

struct Engine {
  const core::Instance& instance;
  HorizonConfig config;
  bool check_analytic = true;  // simulate_slot() disables for bare PS runs
  double slot_seconds = 0.0;

  std::vector<FlowState> flows;
  ResourcePool pool;
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, std::greater<>> heap;
  util::Rng arrival_rng;

  HorizonResult result;
  std::size_t slots = 0;
  std::size_t unfinished = 0;
  bool exhausted = false;
  // Batch state: equal-time events collapse into one logical event, and only
  // batches containing at least one completion count.
  double last_batch_time = -std::numeric_limits<double>::infinity();
  bool last_batch_counted = false;

  Engine(const core::Instance& inst, HorizonConfig cfg)
      : instance(inst),
        config(cfg),
        slot_seconds(inst.slot_hours() * 3600.0),
        arrival_rng(cfg.arrival_seed) {
    EOTORA_REQUIRE(slot_seconds > 0.0);
    if (config.arrivals == ArrivalModel::kPoisson) {
      EOTORA_REQUIRE_MSG(config.arrival_rate > 0.0,
                         "Poisson arrivals need arrival_rate > 0");
    }
    const auto& topo = instance.topology();
    pool.access.resize(topo.num_base_stations());
    pool.fronthaul.resize(topo.num_base_stations());
    pool.compute.resize(topo.num_servers());
  }

  [[nodiscard]] bool is_static() const {
    return config.discipline == SharingDiscipline::kStaticShares;
  }

  // Brings `flow`'s remaining work up to date at time `now`. Segments served
  // at a since-invalidated rate accumulate inexactly (now - settled_at); the
  // final segment of every stage is credited exactly via pending_dt, so a
  // static-shares flow (never repriced) accumulates the exact analytic sum.
  void settle(FlowState& flow, double now) {
    const double dt = now - flow.settled_at;
    if (dt <= 0.0) return;
    flow.elapsed += dt;
    const double served = dt * flow.rate;
    flow.remaining -= served;
    if (flow.remaining <= 1e-9 * served + 1e-12) flow.remaining = 0.0;
    flow.settled_at = now;
  }

  void schedule(std::uint64_t id, double now) {
    FlowState& flow = flows[id];
    flow.pending_dt = flow.remaining / flow.rate;
    ++flow.epoch;
    heap.push(HeapEntry{now + flow.pending_dt, id, flow.epoch});
  }

  // Re-splits one resource among its current occupants (processor sharing
  // only): settle everyone at `now`, then reprice and reschedule.
  void reprice(int stage, std::size_t index, double now) {
    auto& list = pool.list(stage, index);
    if (list.empty()) return;
    const double share = 1.0 / static_cast<double>(list.size());
    for (std::uint64_t id : list) {
      FlowState& flow = flows[id];
      settle(flow, now);
      flow.rate = share * flow.unit_rate[flow.stage];
      EOTORA_ASSERT(flow.rate > 0.0);
      schedule(id, now);
    }
  }

  void enter_resource(std::uint64_t id, int stage, double now) {
    FlowState& flow = flows[id];
    flow.stage = stage;
    flow.remaining = flow.work[stage];
    flow.settled_at = now;
    pool.list(stage, flow.res[stage]).push_back(id);
    if (is_static()) {
      flow.rate = flow.share[stage] * flow.unit_rate[stage];
      EOTORA_ASSERT(flow.rate > 0.0);
      schedule(id, now);
    } else {
      reprice(stage, flow.res[stage], now);
    }
  }

  void leave_resource(std::uint64_t id, int stage, double now) {
    FlowState& flow = flows[id];
    auto& list = pool.list(stage, flow.res[stage]);
    const auto it = std::find(list.begin(), list.end(), id);
    EOTORA_ASSERT(it != list.end());
    *it = list.back();
    list.pop_back();
    if (!is_static()) reprice(stage, flow.res[stage], now);
  }

  void count_batch(double now, bool completion) {
    if (now != last_batch_time) {
      last_batch_time = now;
      last_batch_counted = false;
    }
    if (completion && !last_batch_counted) {
      last_batch_counted = true;
      ++result.events;
      const std::size_t slot = std::min(
          static_cast<std::size_t>(std::max(0.0, std::floor(now / slot_seconds))),
          slots == 0 ? std::size_t{0} : slots - 1);
      if (slot < result.slots.size()) ++result.slots[slot].events;
    }
  }

  void complete_stage(std::uint64_t id, double now) {
    FlowState& flow = flows[id];
    const int stage = flow.stage;
    // The popped event IS the completion: credit the scheduled duration
    // exactly rather than re-deriving it from the (rounded) event time.
    flow.elapsed += flow.pending_dt;
    flow.remaining = 0.0;
    flow.settled_at = now;
    flow.pending_dt = 0.0;
    flow.stage_done[stage] = now;
    ++flow.epoch;  // no successor event until the next stage is scheduled
    leave_resource(id, stage, now);
    if (stage < kCompute) {
      enter_resource(id, stage + 1, now);
    } else {
      flow.stage = kDone;
      --unfinished;
      SlotGap& gap = result.slots[flow.slot];
      gap.analytic += flow.analytic;
      gap.realized += flow.elapsed;
      gap.max_device_gap =
          std::max(gap.max_device_gap, std::abs(flow.elapsed - flow.analytic));
      if (now > (static_cast<double>(flow.slot) + 1.0) * slot_seconds) {
        ++gap.spillovers;
      }
      if (config.keep_tasks) {
        TaskRecord record;
        record.slot = flow.slot;
        record.device = flow.device;
        record.arrival = flow.arrival;
        record.access_done = flow.stage_done[kAccess];
        record.fronthaul_done = flow.stage_done[kFronthaul];
        record.finish = flow.stage_done[kCompute];
        record.analytic = flow.analytic;
        result.tasks.push_back(record);
      }
    }
    if (config.record_events) {
      result.event_log.push_back(FlowEvent{now, id, stage});
    }
    count_batch(now, /*completion=*/true);
  }

  void admit(std::uint64_t id, double now) {
    FlowState& flow = flows[id];
    EOTORA_ASSERT(flow.stage == kPendingArrival);
    flow.arrival = now;
    enter_resource(id, kAccess, now);
    count_batch(now, /*completion=*/false);
  }

  // Processes every event strictly before `limit` (+inf drains everything).
  void run_until(double limit) {
    while (!heap.empty() && heap.top().time < limit) {
      const HeapEntry entry = heap.top();
      heap.pop();
      FlowState& flow = flows[entry.flow];
      if (entry.epoch == 0) {
        admit(entry.flow, entry.time);
        continue;
      }
      if (entry.epoch != flow.epoch || flow.stage == kDone ||
          flow.stage == kPendingArrival) {
        continue;  // stale: the flow was repriced after this was scheduled
      }
      complete_stage(entry.flow, entry.time);
    }
  }

  void push_slot(const core::SlotState& state, const core::Decision& decision) {
    EOTORA_REQUIRE_MSG(!exhausted, "FlowSimulator already finished");
    const auto& topo = instance.topology();
    const std::size_t devices = instance.num_devices();
    const core::Assignment& assignment = decision.assignment;
    const core::ResourceAllocation& allocation = decision.allocation;
    EOTORA_REQUIRE(assignment.bs_of.size() == devices);
    EOTORA_REQUIRE(assignment.server_of.size() == devices);
    EOTORA_REQUIRE(state.task_cycles.size() == devices);
    EOTORA_REQUIRE(state.data_bits.size() == devices);
    EOTORA_REQUIRE_MSG(instance.frequencies_feasible(decision.frequencies),
                       "frequencies outside [F^L, F^U]");
    const bool need_shares = is_static() || check_analytic;
    if (need_shares) {
      EOTORA_REQUIRE(allocation.phi.size() == devices);
      EOTORA_REQUIRE(allocation.psi_access.size() == devices);
      EOTORA_REQUIRE(allocation.psi_fronthaul.size() == devices);
    }

    const std::size_t slot = slots;
    const double slot_start = static_cast<double>(slot) * slot_seconds;
    // Arrivals for this slot land at >= slot_start, so everything scheduled
    // before it is already fixed: process it now to keep the heap small.
    run_until(slot_start);

    SlotGap gap;
    gap.slot = slot;
    result.slots.push_back(gap);
    ++slots;

    // Poisson offsets: the first event of a rate-λ process conditioned to
    // land inside the slot — inverse CDF of the truncated exponential.
    // Draws are slot-major, device-minor from a dedicated stream, so the
    // arrival pattern is independent of the discipline under test.
    const double lambda = config.arrival_rate;
    const double truncated_mass = -std::expm1(-lambda);  // 1 - e^{-λ}

    flows.reserve(flows.size() + devices);
    for (std::size_t i = 0; i < devices; ++i) {
      const std::size_t k = assignment.bs_of[i];
      const std::size_t n = assignment.server_of[i];
      EOTORA_REQUIRE(k < topo.num_base_stations());
      EOTORA_REQUIRE(n < topo.num_servers());
      EOTORA_REQUIRE_MSG(state.channel[i][k] > 0.0,
                         "device " << i << " channel is unusable");

      FlowState flow;
      flow.device = i;
      flow.slot = slot;
      const auto& bs = topo.base_station(topology::BaseStationId{k});
      flow.work[kAccess] = state.data_bits[i];
      flow.work[kFronthaul] = state.data_bits[i];
      flow.work[kCompute] = state.task_cycles[i];
      flow.unit_rate[kAccess] = bs.access_bandwidth_hz * state.channel[i][k];
      flow.unit_rate[kFronthaul] =
          bs.fronthaul_bandwidth_hz * bs.fronthaul_spectral_efficiency;
      const auto& server = topo.server(topology::ServerId{n});
      flow.unit_rate[kCompute] =
          server.capacity_hz(decision.frequencies[n]) * instance.suitability(i, n);
      flow.res[kAccess] = k;
      flow.res[kFronthaul] = k;
      flow.res[kCompute] = n;
      if (is_static()) {
        flow.share[kAccess] = allocation.psi_access[i];
        flow.share[kFronthaul] = allocation.psi_fronthaul[i];
        flow.share[kCompute] = allocation.phi[i];
        EOTORA_REQUIRE_MSG(
            flow.share[kAccess] > 0.0 && flow.share[kFronthaul] > 0.0 &&
                flow.share[kCompute] > 0.0,
            "device " << i << " has a zero share");
      }
      if (check_analytic) {
        flow.analytic = core::device_latency_under_allocation(
                            instance, state, assignment, decision.frequencies,
                            allocation, i)
                            .total();
      }

      double offset = 0.0;
      if (config.arrivals == ArrivalModel::kPoisson) {
        const double u = arrival_rng.uniform(0.0, 1.0);
        offset = -std::log1p(-u * truncated_mass) / lambda * slot_seconds;
      }
      const std::uint64_t id = flows.size();
      flows.push_back(flow);
      heap.push(HeapEntry{slot_start + offset, id, /*epoch=*/0});
      ++unfinished;
    }
  }

  HorizonResult finish() {
    EOTORA_REQUIRE_MSG(!exhausted, "FlowSimulator already finished");
    exhausted = true;
    run_until(std::numeric_limits<double>::infinity());
    EOTORA_ASSERT(unfinished == 0);
    std::sort(result.tasks.begin(), result.tasks.end(),
              [](const TaskRecord& a, const TaskRecord& b) {
                return a.slot != b.slot ? a.slot < b.slot : a.device < b.device;
              });
    return std::move(result);
  }
};

}  // namespace

struct FlowSimulator::Impl : Engine {
  using Engine::Engine;
};

FlowSimulator::FlowSimulator(const core::Instance& instance,
                             HorizonConfig config)
    : impl_(std::make_unique<Impl>(instance, config)) {}

FlowSimulator::~FlowSimulator() = default;

void FlowSimulator::push_slot(const core::SlotState& state,
                              const core::Decision& decision) {
  impl_->push_slot(state, decision);
}

HorizonResult FlowSimulator::finish() { return impl_->finish(); }


FlowResult simulate_slot(const core::Instance& instance,
                         const core::SlotState& state,
                         const core::Assignment& assignment,
                         const core::Frequencies& frequencies,
                         const core::ResourceAllocation& allocation,
                         SharingDiscipline discipline) {
  HorizonConfig config;
  config.discipline = discipline;
  config.arrivals = ArrivalModel::kSlotStart;
  Engine engine(instance, config);
  // The single-slot form predates the analytic-gap reporting and admits
  // processor-sharing runs without any allocation at all; skip the per-task
  // analytic evaluation (and its positive-share requirement).
  engine.check_analytic = false;
  core::Decision decision;
  decision.assignment = assignment;
  decision.frequencies = frequencies;
  decision.allocation = allocation;
  engine.push_slot(state, decision);
  const HorizonResult horizon = engine.finish();

  const std::size_t devices = instance.num_devices();
  FlowResult result;
  result.access_done.assign(devices, 0.0);
  result.fronthaul_done.assign(devices, 0.0);
  result.finish.assign(devices, 0.0);
  result.events = horizon.events;
  for (const TaskRecord& task : horizon.tasks) {
    result.access_done[task.device] = task.access_done;
    result.fronthaul_done[task.device] = task.fronthaul_done;
    result.finish[task.device] = task.finish;
  }
  return result;
}

}  // namespace eotora::des
