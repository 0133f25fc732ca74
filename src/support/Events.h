//===- support/Events.h - Structured NDJSON event stream --------*- C++ -*-===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The structured live event stream: where `support/Trace` records spans
/// for post-hoc visualization and `support/Metrics` folds counters for
/// end-of-run totals, this module streams lifecycle events AS THEY HAPPEN
/// as newline-delimited JSON (`herbgrind_batch --events-out`), so an
/// external supervisor can tail a sweep's progress -- sweep begin/end,
/// per-shard queue/cache-hit/analyze/escalate/reduce transitions, improve
/// records -- without parsing stderr heartbeats.
///
/// Each line is one self-contained JSON object:
///
///   {"ts":<ns>,"seq":<n>,"event":"shard.analyzed","bench":3,"shard":0,...}
///
/// `ts` is metrics::nowNanos() (monotonic, same timebase as spans), `seq`
/// a global monotone sequence number so consumers can detect reordering
/// or truncation. Event-specific fields follow, pre-rendered by the call
/// site exactly like trace span args.
///
/// Like all telemetry, the stream observes and never steers: report bytes
/// are identical with events on or off (tested in test_telemetry.cpp).
/// When off (the default), emit() is one relaxed load. When on, each line
/// is rendered off-lock and written under one mutex with a single fwrite,
/// so concurrent workers never interleave partial lines.
///
//===----------------------------------------------------------------------===//

#ifndef HERBGRIND_SUPPORT_EVENTS_H
#define HERBGRIND_SUPPORT_EVENTS_H

#include <string>

namespace herbgrind {
namespace events {

/// Opens \p Path ("-" = stdout) and starts streaming. Resets the
/// sequence counter. Returns false (with \p Err set) when the file
/// cannot be opened.
bool start(const std::string &Path, std::string &Err);

/// Stops streaming and closes the sink (flushes first). Returns false when
/// any write, flush or close of this stream failed -- a lost event is
/// sticky until the stream stops -- so the caller can fail the run instead
/// of exiting 0 with events missing. Idempotent: with no stream open it
/// returns true.
bool stop();

/// Whether events are currently being streamed.
bool enabled();

/// Emits one event line. \p Type is the event name ("sweep.begin",
/// "shard.analyzed", ...); \p FieldsJson is an optional pre-rendered
/// fragment of additional key/value pairs WITHOUT surrounding braces
/// (e.g. "\"bench\":3,\"shard\":0"), spliced after the standard
/// ts/seq/event fields. No-op when streaming is off; call sites should
/// still guard expensive fragment rendering with enabled().
void emit(const char *Type, const std::string &FieldsJson = std::string());

} // namespace events
} // namespace herbgrind

#endif // HERBGRIND_SUPPORT_EVENTS_H
