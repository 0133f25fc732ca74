//===- support/Trace.cpp - Chrome trace-event span recorder ---------------===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "support/Trace.h"

#include "support/Format.h"
#include "support/Metrics.h"

#include <algorithm>
#include <atomic>
#include <mutex>

namespace herbgrind {
namespace trace {
namespace {

struct ThreadBuf {
  std::mutex M;
  std::vector<Event> Events;
  uint32_t Tid = 0;
};

struct Registry {
  std::mutex M;
  std::vector<ThreadBuf *> Live;
  std::vector<Event> Retired; ///< Events of threads that have exited.
  uint32_t NextTid = 0;
};

// Leaked: thread_local destructors may run arbitrarily late at process
// exit and must always find the registry alive.
Registry &registry() {
  static Registry *R = new Registry();
  return *R;
}

std::atomic<bool> Enabled{false};
std::atomic<uint64_t> TimeBase{0};

/// The calling thread's buffer; registered on first span, folded into
/// Registry::Retired at thread exit.
struct ThreadBufOwner {
  ThreadBuf *B = nullptr;

  ThreadBuf *get() {
    if (!B) {
      B = new ThreadBuf();
      Registry &R = registry();
      std::lock_guard<std::mutex> L(R.M);
      B->Tid = R.NextTid++;
      R.Live.push_back(B);
    }
    return B;
  }

  ~ThreadBufOwner() {
    if (!B)
      return;
    Registry &R = registry();
    std::lock_guard<std::mutex> L(R.M);
    {
      std::lock_guard<std::mutex> LB(B->M);
      R.Retired.insert(R.Retired.end(),
                       std::make_move_iterator(B->Events.begin()),
                       std::make_move_iterator(B->Events.end()));
    }
    R.Live.erase(std::find(R.Live.begin(), R.Live.end(), B));
    delete B;
  }
};

thread_local ThreadBufOwner TLBuf;

} // namespace

void start() {
  clear();
  TimeBase.store(metrics::nowNanos(), std::memory_order_relaxed);
  Enabled.store(true, std::memory_order_release);
}

void stop() { Enabled.store(false, std::memory_order_release); }

bool enabled() { return Enabled.load(std::memory_order_acquire); }

void clear() {
  Registry &R = registry();
  std::lock_guard<std::mutex> L(R.M);
  R.Retired.clear();
  for (ThreadBuf *B : R.Live) {
    std::lock_guard<std::mutex> LB(B->M);
    B->Events.clear();
  }
}

Span::Span(const char *Name, const char *Cat, std::string Args) {
  if (!enabled())
    return;
  Armed = true;
  this->Name = Name;
  this->ArgsJson = std::move(Args);
  this->Cat = Cat;
  StartNanos = metrics::nowNanos();
}

Span::Span(const char *Name, const char *Cat, metrics::Timer T,
           std::string Args)
    : Span(Name, Cat, std::move(Args)) {
  this->T = T;
  Timed = true;
  if (!Armed)
    StartNanos = metrics::nowNanos();
}

Span::~Span() {
  if (!Armed && !Timed)
    return;
  uint64_t End = metrics::nowNanos();
  if (Timed)
    T.record(End - StartNanos);
  if (!Armed || !enabled())
    return;
  uint64_t T0 = TimeBase.load(std::memory_order_relaxed);
  ThreadBuf *B = TLBuf.get();
  Event E;
  E.Name = std::move(Name);
  E.Cat = Cat;
  E.StartNanos = StartNanos > T0 ? StartNanos - T0 : 0;
  E.DurNanos = End > StartNanos ? End - StartNanos : 0;
  E.Tid = B->Tid;
  E.Args = std::move(ArgsJson);
  std::lock_guard<std::mutex> L(B->M);
  B->Events.push_back(std::move(E));
}

std::vector<Event> collect() {
  Registry &R = registry();
  std::lock_guard<std::mutex> L(R.M);
  std::vector<Event> Out = R.Retired;
  for (ThreadBuf *B : R.Live) {
    std::lock_guard<std::mutex> LB(B->M);
    Out.insert(Out.end(), B->Events.begin(), B->Events.end());
  }
  std::sort(Out.begin(), Out.end(), [](const Event &A, const Event &B) {
    if (A.StartNanos != B.StartNanos)
      return A.StartNanos < B.StartNanos;
    if (A.Tid != B.Tid)
      return A.Tid < B.Tid;
    return A.Name < B.Name;
  });
  return Out;
}

std::string renderChromeTrace() {
  std::vector<Event> Events = collect();
  std::string Out;
  Out.reserve(128 + Events.size() * 96);
  Out += "{\"traceEvents\":[";
  bool First = true;
  for (const Event &E : Events) {
    if (!First)
      Out += ",";
    First = false;
    // Trace-event timestamps are microseconds; keep sub-microsecond
    // precision with a fractional part (Perfetto accepts doubles).
    Out += format("{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                  "\"ts\":%llu.%03llu,\"dur\":%llu.%03llu,"
                  "\"pid\":1,\"tid\":%u",
                  jsonEscape(E.Name).c_str(), jsonEscape(E.Cat).c_str(),
                  (unsigned long long)(E.StartNanos / 1000),
                  (unsigned long long)(E.StartNanos % 1000),
                  (unsigned long long)(E.DurNanos / 1000),
                  (unsigned long long)(E.DurNanos % 1000), E.Tid);
    if (!E.Args.empty()) {
      Out += ",\"args\":";
      Out += E.Args;
    }
    Out += "}";
  }
  Out += "],\"displayTimeUnit\":\"ns\"}\n";
  return Out;
}

} // namespace trace
} // namespace herbgrind
