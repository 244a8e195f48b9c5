#include "util/trace.h"

#include <algorithm>
#include <memory>
#include <mutex>
#include <vector>

#include "util/json.h"

namespace eotora::util::trace {

namespace internal {
std::atomic<bool> g_enabled{false};
}  // namespace internal

namespace {

enum class Phase : std::uint8_t { kSpan, kCounter };

struct Event {
  const char* name = nullptr;
  Phase phase = Phase::kSpan;
  Clock::time_point begin{};
  Clock::duration duration{};  // kSpan only
  double value = 0.0;          // kCounter only
};

struct ThreadBuffer {
  int tid = 0;
  std::vector<Event> events;
  std::size_t dropped = 0;
};

// The registry owns every buffer (shared_ptr) so events survive thread
// exit — PrefetchSource producer threads die long before the dump. The
// hot path holds a thread_local raw pointer and appends without locking;
// the mutex guards only registration and dump/clear, which by contract
// (header) never race with emission.
struct Registry {
  std::mutex mutex;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  int next_tid = 1;
};

Registry& registry() {
  static Registry* instance = new Registry();  // leaked: usable at exit
  return *instance;
}

ThreadBuffer& local_buffer() {
  thread_local ThreadBuffer* buffer = [] {
    auto owned = std::make_shared<ThreadBuffer>();
    Registry& reg = registry();
    const std::lock_guard<std::mutex> lock(reg.mutex);
    owned->tid = reg.next_tid++;
    reg.buffers.push_back(owned);
    return owned.get();
  }();
  return *buffer;
}

void append(const Event& event) {
  ThreadBuffer& buffer = local_buffer();
  if (buffer.events.size() >= kMaxEventsPerThread) {
    ++buffer.dropped;
    return;
  }
  buffer.events.push_back(event);
}

}  // namespace

void set_enabled(bool on) {
  internal::g_enabled.store(on, std::memory_order_relaxed);
}

void clear() {
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  for (const auto& buffer : reg.buffers) {
    buffer->events.clear();
    buffer->dropped = 0;
  }
}

std::size_t event_count() {
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  std::size_t total = 0;
  for (const auto& buffer : reg.buffers) total += buffer->events.size();
  return total;
}

std::size_t dropped_count() {
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  std::size_t total = 0;
  for (const auto& buffer : reg.buffers) total += buffer->dropped;
  return total;
}

void emit_span(const char* name, Clock::time_point begin,
               Clock::time_point end) {
  if (!enabled()) return;
  Event event;
  event.name = name;
  event.phase = Phase::kSpan;
  event.begin = begin;
  event.duration = end - begin;
  append(event);
}

void emit_counter(const char* name, double value) {
  if (!enabled()) return;
  Event event;
  event.name = name;
  event.phase = Phase::kCounter;
  event.begin = Clock::now();
  event.value = value;
  append(event);
}

Json to_chrome_json() {
  struct Tagged {
    Event event;
    int tid = 0;
  };
  std::vector<Tagged> all;
  {
    Registry& reg = registry();
    const std::lock_guard<std::mutex> lock(reg.mutex);
    std::size_t total = 0;
    for (const auto& buffer : reg.buffers) total += buffer->events.size();
    all.reserve(total);
    for (const auto& buffer : reg.buffers) {
      for (const Event& event : buffer->events) {
        all.push_back({event, buffer->tid});
      }
    }
  }
  // Chrome's viewer expects ts-sorted events; stable so same-timestamp
  // events keep a deterministic (tid-registration) order.
  std::stable_sort(all.begin(), all.end(),
                   [](const Tagged& a, const Tagged& b) {
                     return a.event.begin < b.event.begin;
                   });
  const Clock::time_point base =
      all.empty() ? Clock::time_point{} : all.front().event.begin;
  const auto micros = [](Clock::duration d) {
    return std::chrono::duration<double, std::micro>(d).count();
  };

  Json events = Json::array();
  for (const Tagged& tagged : all) {
    Json entry = Json::object();
    entry["name"] = tagged.event.name;
    entry["ph"] = tagged.event.phase == Phase::kSpan ? "X" : "C";
    entry["ts"] = micros(tagged.event.begin - base);
    if (tagged.event.phase == Phase::kSpan) {
      entry["dur"] = micros(tagged.event.duration);
    } else {
      Json args = Json::object();
      args["value"] = tagged.event.value;
      entry["args"] = std::move(args);
    }
    entry["pid"] = 1;
    entry["tid"] = tagged.tid;
    events.push_back(std::move(entry));
  }
  Json doc = Json::object();
  doc["traceEvents"] = std::move(events);
  doc["displayTimeUnit"] = "ms";
  return doc;
}

void write_chrome_json(const std::string& path) {
  write_json_file(path, to_chrome_json());
}

}  // namespace eotora::util::trace
