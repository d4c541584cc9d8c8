#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cache/config.hpp"
#include "support/small_vector.hpp"

namespace ucp::analysis {

using cache::MemBlockId;

/// Abstract LRU age of a block inside one cache set. In the must domain an
/// age is an *upper* bound (block guaranteed resident with age <= h); in the
/// may domain it is a *lower* bound (block possibly resident, earliest age h).
/// These are the abstract cache states of Ferdinand's analysis, reviewed in
/// Section 3.1 of the paper (Definitions 1-2).
struct AgedBlock {
  MemBlockId block;
  std::uint8_t age;

  friend bool operator==(const AgedBlock&, const AgedBlock&) = default;
};

/// One abstract cache set: blocks sorted by id, each with an abstract age in
/// [0, assoc). Blocks aged past assoc-1 are dropped (abstractly evicted).
///
/// Entries live in a small inline buffer (the must domain holds at most
/// `assoc` blocks, the may domain rarely more), so updates, joins and state
/// copies on the fixpoint hot path perform no heap allocation.
class AbstractSet {
 public:
  /// Inline entry capacity; covers assoc <= 4 (the whole Table-2 grid) with
  /// join headroom before the heap fallback kicks in.
  static constexpr std::size_t kInlineEntries = 8;

  explicit AbstractSet(std::uint8_t assoc = 1) : assoc_(assoc) {}

  /// Age of `block`, or -1 if absent.
  int age_of(MemBlockId block) const;
  bool contains(MemBlockId block) const { return age_of(block) >= 0; }
  std::size_t size() const { return entries_.size(); }
  const SmallVector<AgedBlock, kInlineEntries>& entries() const {
    return entries_;
  }
  std::uint8_t assoc() const { return assoc_; }

  /// Must-domain LRU update on access to `block` (Ferdinand's U-hat).
  void update_must(MemBlockId block);
  /// May-domain LRU update on access to `block`.
  void update_may(MemBlockId block);

  /// Must join: intersection, maximal age. The result is what is guaranteed
  /// cached no matter which path executed.
  static AbstractSet join_must(const AbstractSet& a, const AbstractSet& b);
  /// May join: union, minimal age. The result is what may be cached on some
  /// path.
  static AbstractSet join_may(const AbstractSet& a, const AbstractSet& b);

  /// In-place accumulating joins for the fixpoint inner loop: *this becomes
  /// join(*this, other); returns true iff *this changed. Allocation-free.
  bool join_must_with(const AbstractSet& other);
  bool join_may_with(const AbstractSet& other);

  /// Read-only probes: true iff the matching in-place join would change
  /// *this. They let a copy-on-write owner skip cloning for no-op joins.
  bool join_must_changes(const AbstractSet& other) const;
  bool join_may_changes(const AbstractSet& other) const;

  friend bool operator==(const AbstractSet&, const AbstractSet&) = default;

  std::string to_string() const;

 private:
  void insert_at_zero_aging(MemBlockId block, int old_age, bool may_domain);

  std::uint8_t assoc_;
  SmallVector<AgedBlock, kInlineEntries> entries_;  // sorted by block id
};

/// A whole abstract cache state: one AbstractSet per cache set. The paper's
/// c-hat : L -> P(S). Geometry (set count, associativity, set mapping) is
/// borrowed from a shared CacheConfig instead of copied per state.
///
/// Storage is copy-on-write at two levels. The state holds a refcounted
/// payload, a pointer array over refcounted chunks of `kChunkSets`
/// consecutive sets (a config with fewer sets has one partial chunk).
/// Copying a state bumps one refcount. A write detaches the pointer array
/// (one refcount bump per chunk) and then clones only the chunk it touches,
/// so a basic block that touches two sets of a 512-set cache pays for two
/// chunks, not for 512 sets. Joins and `operator==` skip chunks whose
/// pointers are equal, and a join that would leave a chunk unchanged probes
/// first and never clones it, so no-op joins keep sharing storage. Payload
/// pointer equality is both a free equality witness and a join fast path
/// (`join(x, x) = x`), which is what makes the hash-consing in the fixpoint
/// driver pay off — identical states collapse to one allocation and compare
/// in O(1).
class AbstractCache {
 public:
  /// Sets per copy-on-write chunk: the unit a write clones.
  static constexpr std::uint32_t kChunkSets = 16;

  explicit AbstractCache(const cache::CacheConfig& config);

  std::uint32_t num_sets() const { return set_mask_ + 1; }
  std::uint32_t set_index_of(MemBlockId block) const {
    return block & set_mask_;
  }
  const AbstractSet& set_for_block(MemBlockId block) const {
    return set_ref(set_index_of(block));
  }
  const AbstractSet& set_at(std::uint32_t index) const;

  void update_must(MemBlockId block) {
    mutable_set(set_index_of(block)).update_must(block);
  }
  void update_may(MemBlockId block) {
    mutable_set(set_index_of(block)).update_may(block);
  }
  bool must_contain(MemBlockId block) const {
    return set_for_block(block).contains(block);
  }
  bool may_contain(MemBlockId block) const {
    return set_for_block(block).contains(block);
  }

  static AbstractCache join_must(const AbstractCache& a,
                                 const AbstractCache& b);
  static AbstractCache join_may(const AbstractCache& a, const AbstractCache& b);

  /// In-place accumulating joins; *this becomes join(*this, other). Returns
  /// true iff any set changed. Joining a state with itself (shared payload)
  /// is a pointer compare — the dominant reconvergence case under interning
  /// — and only chunks the join changes are cloned.
  bool join_must_with(const AbstractCache& other);
  bool join_may_with(const AbstractCache& other);

  /// True iff both states alias one payload (=> equal, O(1)).
  bool shares_storage_with(const AbstractCache& other) const {
    return payload_ == other.payload_;
  }

  /// FNV-1a over the entry lists in set order; the hash-consing key of the
  /// fixpoint's state interner (deep equality confirms on collision).
  std::uint64_t content_hash() const;

  friend bool operator==(const AbstractCache& a, const AbstractCache& b);

  std::string to_string() const;

 private:
  struct Chunk {
    std::array<AbstractSet, kChunkSets> sets;
  };
  struct Payload {
    std::vector<std::shared_ptr<Chunk>> chunks;
  };

  /// Sets in use per chunk: kChunkSets, or fewer for a single partial chunk.
  std::uint32_t chunk_sets() const {
    return std::min(num_sets(), kChunkSets);
  }
  const AbstractSet& set_ref(std::uint32_t index) const {
    return payload_->chunks[index / kChunkSets]->sets[index % kChunkSets];
  }
  /// Detaches the pointer array, then chunk `c`, and returns it writable.
  Chunk& mutable_chunk(std::size_t c);
  AbstractSet& mutable_set(std::uint32_t index) {
    return mutable_chunk(index / kChunkSets).sets[index % kChunkSets];
  }
  template <typename Changes, typename Join>
  bool join_with(const AbstractCache& other, Changes changes, Join join);

  std::uint32_t set_mask_ = 0;  ///< num_sets - 1 (power of two)
  std::shared_ptr<Payload> payload_;
};

}  // namespace ucp::analysis
