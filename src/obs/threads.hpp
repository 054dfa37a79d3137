// Thread identity for the fabric's observability.
//
//   1. name_this_thread: every long-lived thread names itself by role
//      (engine, mux-writer, mux-reader, srv-reader, srv-accept,
//      fabric-timer, flight-rec, watchdog, checkpointer, and the
//      campaign and monte-carlo pools), so per-role
//      CPU and context switches can be read from
//      /proc/<pid>/task/*/{comm,stat} without a profiler.
//   2. The hop probe: while armed, every thread that does work for a
//      request at one of the fabric's hand-off points (router submit,
//      mux writer and reader, server reader and responder, engine
//      worker) records itself once. With one request in flight, the
//      probe counts the threads that request crosses, each boundary
//      being a wake-up and a cache migration. Disarmed, a touch is one
//      relaxed atomic load.
#pragma once

#include <atomic>
#include <string>
#include <vector>

namespace prts::obs {

/// Names the calling thread; the kernel keeps the first 15 bytes.
void name_this_thread(const char* name) noexcept;

/// The calling thread's name ("" when it cannot be read).
std::string this_thread_name();

namespace hop_probe {

namespace detail {
extern std::atomic<bool> armed;
void record();
}  // namespace detail

/// Clears the record and starts recording.
void arm();

/// Stops recording; returns the name of every distinct thread touched
/// since arm(), in first-touch order.
std::vector<std::string> disarm();

/// Records the calling thread while the probe is armed.
inline void touch() noexcept {
  if (detail::armed.load(std::memory_order_relaxed)) detail::record();
}

}  // namespace hop_probe
}  // namespace prts::obs
