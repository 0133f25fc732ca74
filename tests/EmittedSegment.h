//===- tests/EmittedSegment.h - Reading an emit directory -------*- C++ -*-===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one way the tests read what an emitting sweep
/// (EngineConfig::EmitShardDir) leaves behind: a directory holding exactly
/// one segment file, read through engine::readSegmentShards -- the reader
/// `herbgrind_batch --merge-shards` uses. The library writes no telemetry
/// sidecar (the CLI does), so anything else in the directory is a failure.
///
//===----------------------------------------------------------------------===//

#ifndef HERBGRIND_TESTS_EMITTEDSEGMENT_H
#define HERBGRIND_TESTS_EMITTEDSEGMENT_H

#include "analysis/Serialize.h"
#include "engine/Engine.h"
#include "engine/ResultCache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

namespace herbgrind {
namespace emitted {

/// Sets \p Path to the one segment in \p Dir.
inline ::testing::AssertionResult segmentOf(const std::string &Dir,
                                            std::string &Path) {
  std::vector<std::filesystem::path> Files;
  std::error_code Ec;
  for (std::filesystem::directory_iterator It(Dir, Ec), End;
       !Ec && It != End; It.increment(Ec))
    Files.push_back(It->path());
  if (Ec)
    return ::testing::AssertionFailure()
           << "cannot list " << Dir << ": " << Ec.message();
  if (Files.size() != 1 || Files[0].extension() != engine::SegmentExtension)
    return ::testing::AssertionFailure()
           << Dir << " holds " << Files.size()
           << " file(s), not exactly one segment";
  Path = Files[0].string();
  return ::testing::AssertionSuccess();
}

/// Reads every document of the one segment in \p Dir into \p Entries, in
/// key order: the segment's own order is the order workers finished
/// shards in.
inline ::testing::AssertionResult
readSegmentOf(const std::string &Dir,
              std::vector<engine::SegmentEntry> &Entries) {
  std::string Path, Err;
  ::testing::AssertionResult Found = segmentOf(Dir, Path);
  if (!Found)
    return Found;
  if (!engine::readSegment(Path, Entries, Err))
    return ::testing::AssertionFailure() << Err;
  std::sort(Entries.begin(), Entries.end(),
            [](const engine::SegmentEntry &A, const engine::SegmentEntry &B) {
              return A.Key < B.Key;
            });
  return ::testing::AssertionSuccess();
}

/// Appends the shard documents of the one segment in \p Dir to \p Docs,
/// through engine::readSegmentShards.
inline ::testing::AssertionResult readShardsOf(const std::string &Dir,
                                               std::vector<ShardDoc> &Docs) {
  std::string Path, Err;
  ::testing::AssertionResult Found = segmentOf(Dir, Path);
  if (!Found)
    return Found;
  if (!engine::readSegmentShards({Path}, Docs, Err))
    return ::testing::AssertionFailure() << Err;
  return ::testing::AssertionSuccess();
}

} // namespace emitted
} // namespace herbgrind

#endif // HERBGRIND_TESTS_EMITTEDSEGMENT_H
