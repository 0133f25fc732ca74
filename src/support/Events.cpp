//===- support/Events.cpp - Structured NDJSON event stream ----------------===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "support/Events.h"

#include "support/Format.h"
#include "support/Metrics.h"

#include <atomic>
#include <cstdio>
#include <mutex>

using namespace herbgrind;

namespace {

std::atomic<bool> Enabled{false};
std::mutex SinkMutex; ///< Guards Sink/OwnsSink/WriteFailed and
                      ///< serializes writes.
FILE *Sink = nullptr;
bool OwnsSink = false;
bool WriteFailed = false; ///< Some write or flush of this stream failed.
std::atomic<uint64_t> Seq{0};

} // namespace

bool herbgrind::events::start(const std::string &Path, std::string &Err) {
  std::lock_guard<std::mutex> Lock(SinkMutex);
  if (Sink) {
    Err = "event stream already started";
    return false;
  }
  if (Path == "-") {
    Sink = stdout;
    OwnsSink = false;
  } else {
    Sink = std::fopen(Path.c_str(), "w");
    if (!Sink) {
      Err = format("cannot open events file '%s'", Path.c_str());
      return false;
    }
    OwnsSink = true;
  }
  WriteFailed = false;
  Seq.store(0, std::memory_order_relaxed);
  Enabled.store(true, std::memory_order_release);
  return true;
}

bool herbgrind::events::stop() {
  Enabled.store(false, std::memory_order_release);
  std::lock_guard<std::mutex> Lock(SinkMutex);
  if (!Sink)
    return true;
  bool Ok = !WriteFailed && std::fflush(Sink) == 0 && !std::ferror(Sink);
  if (OwnsSink && std::fclose(Sink) != 0)
    Ok = false;
  Sink = nullptr;
  OwnsSink = false;
  return Ok;
}

bool herbgrind::events::enabled() {
  return Enabled.load(std::memory_order_relaxed);
}

void herbgrind::events::emit(const char *Type, const std::string &FieldsJson) {
  if (!enabled())
    return;
  // Render off-lock; take the sequence number inside the lock so lines
  // land in the file in seq order.
  std::string Line;
  std::lock_guard<std::mutex> Lock(SinkMutex);
  if (!Sink)
    return;
  uint64_t N = Seq.fetch_add(1, std::memory_order_relaxed);
  Line = format("{\"ts\":%llu,\"seq\":%llu,\"event\":\"%s\"",
                static_cast<unsigned long long>(metrics::nowNanos()),
                static_cast<unsigned long long>(N), Type);
  if (!FieldsJson.empty()) {
    Line += ',';
    Line += FieldsJson;
  }
  Line += "}\n";
  // One fwrite per line: concurrent emitters never interleave.
  if (std::fwrite(Line.data(), 1, Line.size(), Sink) != Line.size() ||
      std::fflush(Sink) != 0)
    WriteFailed = true;
}
