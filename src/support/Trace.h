//===- support/Trace.h - Chrome trace-event span recorder -------*- C++ -*-===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Span tracing for sweeps: RAII `trace::Span` objects mark the extent of
/// engine runs, per-shard analyze/reduce/cache-probe phases, improver
/// records, and native kernel invocations. Recorded spans render as Chrome
/// trace-event JSON (the `{"traceEvents":[...]}` format), which
/// `herbgrind_batch --trace-out` writes and chrome://tracing or Perfetto
/// (ui.perfetto.dev) load directly.
///
/// Recording is globally gated: when tracing is off (the default), a Span
/// is two relaxed loads and no stores -- cheap enough to leave the
/// instrumentation compiled in everywhere. When on, span completion
/// appends one event to the calling thread's buffer under that buffer's
/// own (uncontended) mutex; spans here are shard- and record-grained,
/// never per-shadow-op, so this is far off the hot path.
///
/// Like all telemetry, spans observe and never steer: report bytes are
/// identical with tracing on or off (tested in test_telemetry.cpp).
///
//===----------------------------------------------------------------------===//

#ifndef HERBGRIND_SUPPORT_TRACE_H
#define HERBGRIND_SUPPORT_TRACE_H

#include "support/Metrics.h"

#include <cstdint>
#include <string>
#include <vector>

namespace herbgrind {
namespace trace {

/// One completed span ("ph":"X" in trace-event terms).
struct Event {
  std::string Name;    ///< Span name, e.g. "shard.analyze".
  const char *Cat;     ///< Category literal, e.g. "engine" (static storage).
  uint64_t StartNanos; ///< Relative to the start() timebase.
  uint64_t DurNanos;
  uint32_t Tid;   ///< Sequential per-thread id (registration order).
  std::string Args; ///< Optional pre-rendered JSON object ("" = none).
};

/// Starts recording: clears prior events and sets the timebase.
void start();

/// Stops recording; already-recorded events remain until clear().
void stop();

/// Whether spans are currently being recorded.
bool enabled();

/// Discards all recorded events.
void clear();

/// RAII span: captures the start time at construction, records one
/// complete event at destruction. Name/category may be temporaries; an
/// optional \p Args is a pre-rendered JSON object (e.g. "{\"shard\":3}")
/// attached to the event.
class Span {
public:
  Span(const char *Name, const char *Cat, std::string Args = std::string());
  /// Also records the span's duration into \p T whether or not tracing is
  /// on, so one object times a lifecycle point for both the trace and the
  /// metrics registry.
  Span(const char *Name, const char *Cat, metrics::Timer T,
       std::string Args = std::string());
  ~Span();
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  std::string Name;
  std::string ArgsJson;
  const char *Cat = nullptr;
  uint64_t StartNanos = 0;
  metrics::Timer T;
  bool Timed = false;
  bool Armed = false;
};

/// Copies out every recorded event (all threads, exited ones included),
/// sorted by (StartNanos, Tid, Name) for deterministic rendering.
std::vector<Event> collect();

/// Renders all recorded events as a Chrome trace-event JSON document.
std::string renderChromeTrace();

} // namespace trace
} // namespace herbgrind

#endif // HERBGRIND_SUPPORT_TRACE_H
