#include "sim/pipeline/graph.h"

#include <sstream>
#include <stdexcept>

#include "util/check.h"
#include "util/timer.h"
#include "util/trace.h"

namespace eotora::sim::pipeline {

const char* port_type_name(PortType type) {
  switch (type) {
    case PortType::kSlotState: return "SlotState";
    case PortType::kQueue: return "Queue";
    case PortType::kFrequencies: return "Frequencies";
    case PortType::kP2aSolution: return "P2aSolution";
    case PortType::kAssignment: return "Assignment";
    case PortType::kSolverLoop: return "SolverLoop";
    case PortType::kBestSolution: return "BestSolution";
    case PortType::kOracle: return "Oracle";
    case PortType::kForecast: return "Forecast";
    case PortType::kDecision: return "Decision";
  }
  return "?";
}

namespace {

struct ProducedPort {
  const char* name;
  PortType type;
  std::size_t producer;  // stage index
};

void append_available(std::ostringstream& message,
                      const std::vector<ProducedPort>& produced) {
  if (produced.empty()) {
    message << " (no upstream ports)";
    return;
  }
  message << "; available upstream ports:";
  for (const auto& port : produced) {
    message << " " << port.name << " (" << port_type_name(port.type) << ")";
  }
}

// Validates the typed-port contract of `stages` under `loop`. The produced
// set grows stage by stage; inside [loop.first, loop.last] the outputs of
// EVERY loop stage are visible (loop-carried dependencies are legal there,
// because iteration k+1 sees what iteration k wrote).
void validate_ports(const std::string& label,
                    const std::vector<std::unique_ptr<Stage>>& stages,
                    const LoopSpec& loop) {
  const bool has_loop = loop.iterations > 0;
  std::vector<ProducedPort> produced;
  std::vector<ProducedPort> loop_produced;
  if (has_loop) {
    for (std::size_t i = loop.first; i <= loop.last; ++i) {
      for (const PortSpec& out : stages[i]->outputs()) {
        loop_produced.push_back({out.name, out.type, i});
      }
    }
  }
  for (std::size_t i = 0; i < stages.size(); ++i) {
    const Stage& stage = *stages[i];
    const bool in_loop = has_loop && i >= loop.first && i <= loop.last;
    for (const PortSpec& in : stage.inputs()) {
      const std::string want = in.name;
      const ProducedPort* match = nullptr;
      const ProducedPort* name_only = nullptr;
      auto scan = [&](const std::vector<ProducedPort>& ports) {
        for (const auto& port : ports) {
          if (want != port.name) continue;
          name_only = &port;
          if (port.type == in.type) match = &port;
        }
      };
      scan(produced);
      if (in_loop) scan(loop_produced);
      if (match != nullptr) continue;
      std::ostringstream message;
      message << "policy graph \"" << label << "\": stage '" << stage.name()
              << "' input port '" << in.name << "' ("
              << port_type_name(in.type) << ") ";
      if (name_only != nullptr) {
        message << "is produced by stage '"
                << stages[name_only->producer]->name()
                << "' with mismatched type "
                << port_type_name(name_only->type);
      } else {
        message << "is not produced by any upstream stage";
      }
      append_available(message, produced);
      throw std::invalid_argument(message.str());
    }
    for (const PortSpec& out : stage.outputs()) {
      // Re-producing a port under a different type would make downstream
      // declarations ambiguous; same-type overwrite (last writer wins,
      // e.g. MPC's planned frequencies replacing the floor) is legal.
      for (const auto& port : produced) {
        if (std::string(out.name) == port.name && out.type != port.type) {
          std::ostringstream message;
          message << "policy graph \"" << label << "\": stage '"
                  << stage.name() << "' output port '" << out.name << "' ("
                  << port_type_name(out.type)
                  << ") conflicts with the same-named "
                  << port_type_name(port.type) << " port from stage '"
                  << stages[port.producer]->name() << "'";
          throw std::invalid_argument(message.str());
        }
      }
      produced.push_back({out.name, out.type, i});
    }
  }
}

}  // namespace

PolicyGraph::PolicyGraph(std::string label, const core::Instance& instance,
                         std::vector<std::unique_ptr<Stage>> stages,
                         LoopSpec loop)
    : label_(std::move(label)), instance_(&instance), loop_(loop) {
  if (stages.empty()) {
    throw std::invalid_argument("policy graph \"" + label_ +
                                "\" has no stages");
  }
  for (const auto& stage : stages) {
    EOTORA_ASSERT(stage != nullptr);
  }
  if (loop_.iterations > 0) {
    if (loop_.first > loop_.last || loop_.last >= stages.size()) {
      std::ostringstream message;
      message << "policy graph \"" << label_ << "\": loop region ["
              << loop_.first << ", " << loop_.last
              << "] is out of range for " << stages.size() << " stages";
      throw std::invalid_argument(message.str());
    }
  }
  validate_ports(label_, stages, loop_);
  slots_.reserve(stages.size());
  for (auto& stage : stages) {
    Slot slot;
    slot.stats.name = stage->name();
    slot.stage = std::move(stage);
    slots_.push_back(std::move(slot));
  }
}

void PolicyGraph::run_slot(Slot& slot, StageContext& ctx) {
  util::trace::Span span(slot.stage->span_name());
  core::counters::SolverCounters delta;
  util::Timer timer;
  {
    const core::counters::Scope scope(delta);
    slot.stage->run(ctx);
  }
  slot.stats.seconds += timer.elapsed_seconds();
  slot.stats.runs += 1;
  slot.stats.counters.merge(delta);
  // Forward the stage's effort to whatever sink the caller installed, so
  // the per-solve totals the simulator captures are unchanged.
  core::counters::active().merge(delta);
}

core::DppSlotResult PolicyGraph::step(const core::SlotState& state,
                                      util::Rng& rng) {
  StageContext& ctx = ctx_;
  ctx.instance = instance_;
  ctx.state = &state;
  ctx.rng = &rng;
  ctx.loop_iteration = 0;
  ctx.result = core::DppSlotResult{};

  const bool has_loop = loop_.iterations > 0;
  const std::size_t loop_entry = has_loop ? loop_.first : slots_.size();
  for (std::size_t i = 0; i < loop_entry; ++i) run_slot(slots_[i], ctx);
  if (has_loop) {
    util::trace::Span loop_span(loop_.span);
    for (std::size_t iter = 0; iter < loop_.iterations; ++iter) {
      util::trace::Span iteration_span(loop_.iteration_span);
      ctx.loop_iteration = iter;
      for (std::size_t i = loop_.first; i <= loop_.last; ++i) {
        run_slot(slots_[i], ctx);
      }
    }
    ctx.loop_iteration = 0;
    for (std::size_t i = loop_.last + 1; i < slots_.size(); ++i) {
      run_slot(slots_[i], ctx);
    }
  }
  // Commit pass: fold downstream results back into stage scratch (the
  // virtual-queue update reads the emitted Θ).
  for (auto& slot : slots_) {
    util::Timer timer;
    slot.stage->commit(ctx);
    slot.stats.seconds += timer.elapsed_seconds();
  }
  return ctx.result;
}

void PolicyGraph::reset() {
  for (auto& slot : slots_) {
    slot.stage->reset();
    slot.stats.runs = 0;
    slot.stats.seconds = 0.0;
    slot.stats.counters.reset();
  }
}

std::vector<StageStats> PolicyGraph::stage_stats() const {
  std::vector<StageStats> stats;
  stats.reserve(slots_.size());
  for (const auto& slot : slots_) {
    stats.push_back(slot.stats);
    // Per-component breakdowns live in the stage (it owns the solves);
    // attach them at read time so run_slot's hot path stays untouched.
    stats.back().shards = slot.stage->shard_counters();
  }
  return stats;
}

std::string PolicyGraph::wiring_description() const {
  std::ostringstream out;
  out << "policy " << label_ << " (" << slots_.size() << " stages";
  if (loop_.iterations > 0) {
    out << ", loop stages [" << loop_.first << ".." << loop_.last << "] x"
        << loop_.iterations;
  }
  out << ")\n";
  const auto print_ports = [&out](const std::vector<PortSpec>& ports) {
    if (ports.empty()) {
      out << "(none)";
      return;
    }
    for (std::size_t p = 0; p < ports.size(); ++p) {
      if (p > 0) out << " ";
      out << ports[p].name << ":" << port_type_name(ports[p].type);
    }
  };
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const Stage& stage = *slots_[i].stage;
    out << "  [" << i << "] " << stage.name() << "  ";
    print_ports(stage.inputs());
    out << " -> ";
    print_ports(stage.outputs());
    out << "\n";
  }
  return out.str();
}

Stage* PolicyGraph::find_stage(const std::string& name) {
  for (auto& slot : slots_) {
    if (name == slot.stage->name()) return slot.stage.get();
  }
  return nullptr;
}

}  // namespace eotora::sim::pipeline
