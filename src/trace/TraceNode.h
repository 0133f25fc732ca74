//===- trace/TraceNode.h - Concrete expression traces -----------*- C++ -*-===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Concrete expression traces (Section 4.3): every shadowed float value
/// carries a DAG recording the float operations that built it. Nodes are
/// reference-counted and pool-allocated (Section 6 "Sharing"), shared
/// across copies through temporaries, thread state, and memory, and
/// depth-bounded (Section 6.1) so that long-running programs do not
/// accumulate unbounded history. Function boundaries and heap traffic are
/// deliberately *not* recorded: copying a value shares its trace node, so
/// the trace abstracts over them exactly as the paper describes.
///
//===----------------------------------------------------------------------===//

#ifndef HERBGRIND_TRACE_TRACENODE_H
#define HERBGRIND_TRACE_TRACENODE_H

#include "ir/Opcode.h"
#include "support/Pool.h"

#include <cstdint>
#include <string>
#include <vector>

namespace herbgrind {

/// One node of a concrete expression trace. Leaves are values with no
/// recorded float provenance: program inputs, literals, values loaded from
/// unshadowed memory, integer-to-float conversions, or subtrees truncated
/// by the depth bound.
struct TraceNode {
  enum class TNKind : uint8_t { Op, Leaf };

  TNKind Kind = TNKind::Leaf;
  Opcode Op = Opcode::AddF64; ///< Valid when Kind == Op.
  uint8_t NumKids = 0;
  bool FPValid = false; ///< Whether CachedFP is populated.
  uint32_t RefCount = 0;
  uint32_t Depth = 1; ///< Longest path to a leaf, counting this node.
  uint32_t Site = UINT32_MAX; ///< Producing pc (UINT32_MAX for leaves).
  double Value = 0.0; ///< The concrete double this node carried.
  TraceNode *Kids[3] = {nullptr, nullptr, nullptr};

  /// Cached bounded-depth structural fingerprint (see TraceArena::
  /// fingerprint).
  uint64_t CachedFP = 0;

  /// This node cut to Depth - 1 levels, built on the first request and
  /// owned by this node (one reference), so it dies with it. Null until
  /// requested. One slot suffices: every node is at most MaxDepth deep,
  /// so every trim that does work cuts exactly one level.
  TraceNode *Trimmed = nullptr;

  std::string str() const;
};

static_assert(sizeof(TraceNode) <= 64, "a trace node fits one cache line");

/// Owns trace nodes: pool allocation, reference counting, depth-bounded
/// construction with per-node memoized trimming, and bounded-depth
/// fingerprints for the anti-unification equivalence classes (Section 6.1).
/// A released node frees its trimmed copy too, so live nodes are bounded by
/// the live values' traces, not by the history that built them. Release
/// keeps its work stack on the arena, so it allocates nothing once the
/// stack has grown.
class TraceArena {
public:
  /// \p MaxDepth bounds trace depth (Fig 5c/d sweep knob); \p EquivDepth
  /// bounds the equivalence fingerprint; \p UsePool toggles the Section 6
  /// pool-allocator optimization for the ablation bench.
  explicit TraceArena(uint32_t MaxDepth = 64, uint32_t EquivDepth = 5,
                      bool UsePool = true)
      : NodePool(UsePool), MaxDepth(MaxDepth ? MaxDepth : 1),
        EquivDepth(EquivDepth) {}

  TraceArena(const TraceArena &) = delete;
  TraceArena &operator=(const TraceArena &) = delete;

  /// Creates (or reuses) a provenance-free leaf carrying \p Value.
  /// The caller receives one reference.
  TraceNode *leaf(double Value);

  /// Creates an op node; kids deeper than MaxDepth-1 are trimmed (their
  /// top levels preserved, lower levels replaced by value leaves; the kid
  /// keeps the trimmed copy for later requests). Takes no ownership of the
  /// kid references passed in (it retains its own); the caller receives one
  /// reference to the result.
  TraceNode *node(Opcode Op, uint32_t Site, double Value, TraceNode *const *Kids,
                  unsigned NumKids);

  void retain(TraceNode *N);
  void release(TraceNode *N);

  /// Recycles the arena for a fresh analysis round by rewinding the node
  /// pool's slabs. Every node must already have been released. This is
  /// what lets the batch engine reuse a shard-local arena across shards
  /// instead of rebuilding it.
  void resetForReuse() { NodePool.reset(); }

  /// Structural fingerprint of a subtree to EquivDepth levels, used to
  /// decide which subtrees anti-unification may map to the same variable.
  uint64_t fingerprint(TraceNode *N);

  /// Structural equality to EquivDepth levels (guards against fingerprint
  /// collisions).
  bool equivalent(TraceNode *A, TraceNode *B);

  size_t liveNodes() const { return NodePool.live(); }
  size_t totalAllocated() const { return NodePool.totalAllocated(); }
  uint32_t maxDepth() const { return MaxDepth; }
  uint32_t equivDepth() const { return EquivDepth; }

private:
  TraceNode *trim(TraceNode *N, uint32_t ToDepth);
  uint64_t fingerprintRec(TraceNode *N, uint32_t DepthLeft);
  bool equivalentRec(TraceNode *A, TraceNode *B, uint32_t DepthLeft);

  Pool<TraceNode> NodePool;
  uint32_t MaxDepth;
  uint32_t EquivDepth;
  std::vector<TraceNode *> ReleaseWork; ///< release()'s work stack.
};

} // namespace herbgrind

#endif // HERBGRIND_TRACE_TRACENODE_H
