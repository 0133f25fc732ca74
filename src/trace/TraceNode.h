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
/// The depth bound is a property of the read, not of the node. Every
/// reader (symbolize, antiUnify, fingerprint, equivalent, str) walks a
/// trace with a depth budget that starts at rootBudget() and drops by one
/// per level; a node read at budget 1 is a leaf carrying its value. So a
/// reader sees exactly the top MaxDepth levels of the trace the program
/// built, however many more levels the nodes hold. A trace holds at most
/// CompactionFactor x MaxDepth usable levels: when a new node's kid
/// reaches that depth, every kid deeper than MaxDepth - 1 is replaced by a
/// compacted copy, with one copy per node of the kid's window shared by
/// every reference to it. A loop-carried value therefore pays for one
/// window of copies every (CompactionFactor - 1) x MaxDepth levels instead
/// of on every op.
///
//===----------------------------------------------------------------------===//

#ifndef HERBGRIND_TRACE_TRACENODE_H
#define HERBGRIND_TRACE_TRACENODE_H

#include "ir/Opcode.h"
#include "support/Pool.h"
#include "support/StampedTable.h"

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
  /// Levels a reader can use below this node, counting it: 1 for a leaf,
  /// 1 + the deepest kid's for an op node, and at most its budget for a
  /// compacted copy (which is never read deeper). Saturates at
  /// TraceArena::DepthCap.
  uint16_t Depth = 1;
  uint16_t TrimBudget = 0; ///< The budget Trimmed was cut for.
  uint32_t Site = UINT32_MAX; ///< Producing pc (UINT32_MAX for leaves).
  double Value = 0.0; ///< The concrete double this node carried.
  TraceNode *Kids[3] = {nullptr, nullptr, nullptr};

  /// Cached structural fingerprint (see TraceArena::fingerprint), valid
  /// for reads whose budget never cuts the fingerprinted levels.
  uint64_t CachedFP = 0;

  /// This node compacted to TrimBudget levels, owned by this node (one
  /// reference), so it dies with it. Null until a compaction asks for it;
  /// a later compaction that needs more levels replaces it with a wider
  /// copy, and one that needs no more levels shares it.
  TraceNode *Trimmed = nullptr;

  /// Renders the top \p Budget levels in FPCore syntax; a node at budget 1
  /// prints as its value.
  std::string str(uint32_t Budget) const;
};

static_assert(sizeof(TraceNode) <= 64, "a trace node fits one cache line");

/// Owns trace nodes: pool allocation, reference counting, construction
/// with amortized compaction, and budgeted fingerprints for the
/// anti-unification equivalence classes (Section 6.1). A released node
/// frees its compacted copy too, so live nodes are bounded by the live
/// values' traces, not by the history that built them. Release and
/// compaction keep their work lists on the arena, so neither allocates
/// once the lists have grown.
class TraceArena {
public:
  /// A kid this deep, in multiples of MaxDepth, makes node() compact.
  static constexpr uint64_t CompactionFactor = 3;
  /// TraceNode::Depth saturates here.
  static constexpr uint32_t DepthCap = UINT16_MAX;

  /// \p MaxDepth bounds the levels a reader sees (Fig 5c/d sweep knob);
  /// \p EquivDepth bounds the equivalence fingerprint; \p UsePool toggles
  /// the Section 6 pool-allocator optimization for the ablation bench.
  explicit TraceArena(uint32_t MaxDepth = 64, uint32_t EquivDepth = 5,
                      bool UsePool = true);

  TraceArena(const TraceArena &) = delete;
  TraceArena &operator=(const TraceArena &) = delete;

  /// Creates (or reuses) a provenance-free leaf carrying \p Value.
  /// The caller receives one reference.
  TraceNode *leaf(double Value);

  /// Creates an op node over \p Kids. When a kid is at least
  /// CompactionFactor x MaxDepth deep, every kid deeper than MaxDepth - 1
  /// is replaced by its compacted copy (its top MaxDepth - 1 levels, lower
  /// levels replaced by value leaves; the kid keeps the copy for later
  /// requests). Takes no ownership of the kid references passed in (it
  /// retains its own); the caller receives one reference to the result.
  TraceNode *node(Opcode Op, uint32_t Site, double Value, TraceNode *const *Kids,
                  unsigned NumKids);

  void retain(TraceNode *N);
  void release(TraceNode *N);

  /// Recycles the arena for a fresh analysis round by rewinding the node
  /// pool's slabs. Every node must already have been released. This is
  /// what lets the batch engine reuse a shard-local arena across shards
  /// instead of rebuilding it.
  void resetForReuse() { NodePool.reset(); }

  /// The budget a reader starts with at a trace's root: max(MaxDepth, 2),
  /// so that MaxDepth 1 still shows the producing op over value leaves.
  uint32_t rootBudget() const { return MaxDepth > 2 ? MaxDepth : 2; }

  /// Structural fingerprint of a subtree read at \p Budget, to EquivDepth
  /// levels, used to decide which subtrees anti-unification may map to the
  /// same variable.
  uint64_t fingerprint(TraceNode *N, uint32_t Budget);

  /// Structural equality of two subtrees read at \p Budget, to EquivDepth
  /// levels (guards against fingerprint collisions).
  bool equivalent(TraceNode *A, TraceNode *B, uint32_t Budget);

  size_t liveNodes() const { return NodePool.live(); }
  size_t totalAllocated() const { return NodePool.totalAllocated(); }
  uint32_t maxDepth() const { return MaxDepth; }
  uint32_t equivDepth() const { return EquivDepth; }

private:
  /// One node of a compaction: the budget of its first (breadth-first,
  /// so largest) visit, its copy once built, and its kids' items.
  struct CompactItem {
    TraceNode *N;
    TraceNode *Copy;
    uint32_t Budget;
    uint32_t Kids[3];
  };

  uint32_t compactKids(TraceNode *N);
  TraceNode *compact(TraceNode *K, uint32_t Budget);
  TraceNode *keepCopy(TraceNode *N, TraceNode *Copy, uint32_t Budget);
  uint64_t fingerprintRec(TraceNode *N, uint32_t DepthLeft, uint32_t Budget);
  bool equivalentRec(TraceNode *A, TraceNode *B, uint32_t DepthLeft,
                     uint32_t Budget);

  Pool<TraceNode> NodePool;
  uint32_t MaxDepth;
  uint32_t EquivDepth;
  uint32_t CompactAt; ///< Kid depth that makes node() compact.
  std::vector<TraceNode *> ReleaseWork; ///< release()'s work stack.
  StampedTable CompactSeen;             ///< Node -> its CompactWork item.
  std::vector<CompactItem> CompactWork; ///< Items in breadth-first order.
  std::vector<uint32_t> CompactStack;   ///< The building pass's work stack.
};

} // namespace herbgrind

#endif // HERBGRIND_TRACE_TRACENODE_H
