#include "obs/profiler.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <new>
#include <ostream>

namespace prts::obs {
namespace {

/// Per-thread allocation tally. Trivial type + constinit: no TLS guard,
/// safe to touch from the first allocation a thread ever makes (gtest
/// and the runtime allocate before main, from multiple threads).
struct AllocTally {
  std::uint64_t count;
  std::uint64_t bytes;
};
constinit thread_local AllocTally g_alloc_tally{0, 0};

inline void tally(std::size_t size) noexcept {
  g_alloc_tally.count += 1;
  g_alloc_tally.bytes += static_cast<std::uint64_t>(size);
}

/// Shared backend of every operator new replacement: malloc (or
/// posix_memalign for over-aligned types), retrying through the
/// installed new_handler exactly like the default implementation.
void* profiled_allocate(std::size_t size, std::size_t align,
                        bool nothrow) noexcept(false) {
  if (size == 0) size = 1;  // unique-pointer guarantee
  for (;;) {
    void* ptr = nullptr;
    if (align <= alignof(std::max_align_t)) {
      ptr = std::malloc(size);
    } else {
      // posix_memalign wants a multiple of sizeof(void*).
      std::size_t effective = align;
      if (effective < sizeof(void*)) effective = sizeof(void*);
      if (posix_memalign(&ptr, effective, size) != 0) ptr = nullptr;
    }
    if (ptr != nullptr) {
      tally(size);
      return ptr;
    }
    const std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) {
      if (nothrow) return nullptr;
      throw std::bad_alloc();
    }
    if (nothrow) {
      // The nothrow forms swallow a handler that throws bad_alloc.
      try {
        handler();
      } catch (...) {
        return nullptr;
      }
    } else {
      handler();
    }
  }
}

void write_number(std::ostream& out, double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.9g", value);
  out << buffer;
}

}  // namespace

AllocCounts thread_alloc_counts() noexcept {
  return AllocCounts{g_alloc_tally.count, g_alloc_tally.bytes};
}

double thread_cpu_seconds() noexcept {
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0.0;
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) / 1e9;
}

// ------------------------------------------------------------ Profiler

Profiler::Profiler(Registry& registry) : registry_(registry) {}

Profiler::Component& Profiler::component(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = components_[name];
  if (!slot) {
    const std::string prefix = "profile_" + name;
    slot = std::make_unique<Component>(Component{
        registry_.counter(prefix + "_samples_total"),
        registry_.counter(prefix + "_wall_us_total"),
        registry_.counter(prefix + "_cpu_us_total"),
        registry_.counter(prefix + "_allocs_total"),
        registry_.counter(prefix + "_alloc_bytes_total")});
  }
  return *slot;
}

void Profiler::record(Component& component, const WorkSample& sample) noexcept {
  const auto to_us = [](double seconds) {
    return seconds <= 0.0 ? std::uint64_t{0}
                          : static_cast<std::uint64_t>(seconds * 1e6 + 0.5);
  };
  component.samples.add();
  component.wall_us.add(to_us(sample.wall_seconds));
  component.cpu_us.add(to_us(sample.cpu_seconds));
  component.allocs.add(sample.alloc_count);
  component.alloc_bytes.add(sample.alloc_bytes);
}

void Profiler::record(const std::string& name, const WorkSample& sample) {
  record(component(name), sample);
}

namespace {

/// True when `name` is "<prefix><middle><suffix>"; extracts the middle.
bool strip_affixes(const std::string& name, const std::string& prefix,
                   const std::string& suffix, std::string& middle) {
  if (name.size() <= prefix.size() + suffix.size()) return false;
  if (name.compare(0, prefix.size(), prefix) != 0) return false;
  if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return false;
  }
  middle = name.substr(prefix.size(),
                       name.size() - prefix.size() - suffix.size());
  return true;
}

std::uint64_t counter_or_zero(const RegistrySnapshot& snap,
                              const std::string& name) {
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

}  // namespace

std::vector<Profiler::ComponentStats> Profiler::stats(
    const std::string& filter) const {
  std::vector<ComponentStats> out;
  // Decoded from the registry, not the handle map: components recorded
  // by other layers of this rank (frame server, router) show up even
  // though they resolved their handles through the same Profiler — and
  // a merged remote snapshot could be decoded the same way.
  const RegistrySnapshot snap = registry_.snapshot();
  for (const auto& [name, value] : snap.counters) {
    std::string component_name;
    if (!strip_affixes(name, "profile_", "_samples_total", component_name)) {
      continue;
    }
    if (!filter.empty() && component_name != filter) continue;
    ComponentStats stats;
    stats.name = component_name;
    stats.samples = value;
    const std::string prefix = "profile_" + component_name;
    stats.wall_seconds =
        static_cast<double>(counter_or_zero(snap, prefix + "_wall_us_total")) /
        1e6;
    stats.cpu_seconds =
        static_cast<double>(counter_or_zero(snap, prefix + "_cpu_us_total")) /
        1e6;
    stats.blocked_seconds = stats.wall_seconds > stats.cpu_seconds
                                ? stats.wall_seconds - stats.cpu_seconds
                                : 0.0;
    stats.alloc_count = counter_or_zero(snap, prefix + "_allocs_total");
    stats.alloc_bytes = counter_or_zero(snap, prefix + "_alloc_bytes_total");
    out.push_back(std::move(stats));
  }
  return out;  // registry maps are ordered: already name-sorted
}

std::vector<Profiler::MutexStats> Profiler::mutexes() const {
  std::vector<MutexStats> out;
  const RegistrySnapshot snap = registry_.snapshot();
  for (const auto& [name, value] : snap.counters) {
    std::string mutex_name;
    if (!strip_affixes(name, "mutex_", "_acquisitions_total", mutex_name)) {
      continue;
    }
    MutexStats stats;
    stats.name = mutex_name;
    stats.acquisitions = value;
    stats.contended =
        counter_or_zero(snap, "mutex_" + mutex_name + "_contended_total");
    const auto hist =
        snap.histograms.find("mutex_" + mutex_name + "_wait_seconds");
    if (hist != snap.histograms.end()) {
      stats.wait_seconds = hist->second.sum;
      stats.wait_p99 = hist->second.quantile(0.99);
    }
    out.push_back(std::move(stats));
  }
  std::sort(out.begin(), out.end(), [](const MutexStats& a,
                                       const MutexStats& b) {
    if (a.contended != b.contended) return a.contended > b.contended;
    return a.name < b.name;
  });
  return out;
}

void Profiler::write_json(std::ostream& out, const std::string& filter) const {
  out << "{\"enabled\":" << (enabled() ? "true" : "false")
      << ",\"components\":[";
  bool first = true;
  for (const ComponentStats& component : stats(filter)) {
    if (!first) out << ",";
    first = false;
    out << "{\"name\":\"" << component.name
        << "\",\"samples\":" << component.samples << ",\"wall_seconds\":";
    write_number(out, component.wall_seconds);
    out << ",\"cpu_seconds\":";
    write_number(out, component.cpu_seconds);
    out << ",\"blocked_seconds\":";
    write_number(out, component.blocked_seconds);
    out << ",\"allocs\":" << component.alloc_count
        << ",\"alloc_bytes\":" << component.alloc_bytes << "}";
  }
  out << "],\"mutexes\":[";
  first = true;
  for (const MutexStats& mutex : mutexes()) {
    if (!first) out << ",";
    first = false;
    out << "{\"name\":\"" << mutex.name
        << "\",\"acquisitions\":" << mutex.acquisitions
        << ",\"contended\":" << mutex.contended << ",\"wait_seconds\":";
    write_number(out, mutex.wait_seconds);
    out << ",\"wait_p99\":";
    write_number(out, mutex.wait_p99);
    out << "}";
  }
  out << "]}";
}

ProfiledMutex::Probe ProfiledMutex::make_probe(Registry& registry,
                                               const std::string& name) {
  Probe probe;
  probe.acquisitions =
      &registry.counter("mutex_" + name + "_acquisitions_total");
  probe.contended = &registry.counter("mutex_" + name + "_contended_total");
  probe.wait = &registry.histogram("mutex_" + name + "_wait_seconds");
  return probe;
}

}  // namespace prts::obs

// ----------------------------------------------- global operator new/delete
//
// Library-wide allocation hooks: every binary linking prts routes its
// allocations through here, which is what makes AllocScope deltas
// meaningful anywhere in the fabric. The per-allocation cost is two
// thread-local integer adds on top of malloc. Deallocation is
// deliberately untracked — the profiler's question is "how many
// allocations does a request cost", not a heap census.

void* operator new(std::size_t size) {
  return prts::obs::profiled_allocate(size, 0, /*nothrow=*/false);
}

void* operator new[](std::size_t size) {
  return prts::obs::profiled_allocate(size, 0, /*nothrow=*/false);
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return prts::obs::profiled_allocate(size, 0, /*nothrow=*/true);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return prts::obs::profiled_allocate(size, 0, /*nothrow=*/true);
}

void* operator new(std::size_t size, std::align_val_t align) {
  return prts::obs::profiled_allocate(size, static_cast<std::size_t>(align),
                                      /*nothrow=*/false);
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return prts::obs::profiled_allocate(size, static_cast<std::size_t>(align),
                                      /*nothrow=*/false);
}

void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return prts::obs::profiled_allocate(size, static_cast<std::size_t>(align),
                                      /*nothrow=*/true);
}

void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return prts::obs::profiled_allocate(size, static_cast<std::size_t>(align),
                                      /*nothrow=*/true);
}

void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete(void* ptr, const std::nothrow_t&) noexcept {
  std::free(ptr);
}
void operator delete[](void* ptr, const std::nothrow_t&) noexcept {
  std::free(ptr);
}
void operator delete(void* ptr, std::align_val_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::align_val_t) noexcept {
  std::free(ptr);
}
void operator delete(void* ptr, std::size_t, std::align_val_t) noexcept {
  std::free(ptr);
}
void operator delete[](void* ptr, std::size_t, std::align_val_t) noexcept {
  std::free(ptr);
}
void operator delete(void* ptr, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(ptr);
}
void operator delete[](void* ptr, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(ptr);
}
