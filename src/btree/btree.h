#ifndef LSS_BTREE_BTREE_H_
#define LSS_BTREE_BTREE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "btree/buffer_pool.h"
#include "btree/node.h"
#include "btree/page.h"
#include "core/types.h"

namespace lss {

/// A disk-format B+-tree over a buffer pool: 4 KB slotted pages,
/// arbitrary byte-string keys (memcmp order) and values, leaf-chained
/// range scans. This is the storage engine under the TPC-C workload whose
/// page-write trace drives the paper's §6.3 experiment.
///
/// Single-threaded (docs/ARCHITECTURE.md, "One-writer TPC-C engine").
/// Descents pin root->leaf, pinning each child before unpinning its
/// parent; a write first tries the leaf alone and re-descends holding
/// the whole path only when the leaf must split. That pin/unpin order
/// decides the buffer pool's LRU order and so the page-write trace.
///
/// Scope notes (documented simplifications, see docs/ARCHITECTURE.md):
/// deletes do not rebalance (underfull leaves persist, as in
/// lazy-deletion engines); pages are never returned to the pager, so
/// leaf-chain links never dangle; the record count is maintained in
/// memory, not persisted. Key+value payload is limited to
/// NodeView::kMaxPayload bytes so splits always succeed.
class BTree {
 public:
  /// Creates an empty tree whose pages are allocated from `pool`.
  explicit BTree(BufferPool* pool);

  BTree(const BTree&) = delete;
  BTree& operator=(const BTree&) = delete;

  /// Inserts a new record; kInvalidArgument if the key already exists or
  /// the payload exceeds kMaxPayload.
  Status Insert(std::string_view key, std::string_view value);

  /// Inserts or overwrites.
  Status Put(std::string_view key, std::string_view value);

  /// Fetches a record. Returns false if absent. `value` may be null to
  /// test existence only.
  bool Get(std::string_view key, std::string* value) const;

  /// Removes a record. Returns false if absent.
  bool Delete(std::string_view key);

  /// Records currently stored.
  uint64_t Size() const { return size_; }

  PageNo root() const { return root_; }

  /// Forward iterator over records. Pins pages only while reading; the
  /// current key/value are materialised copies. The iterator stays valid
  /// across tree writes made between its steps: every Load checks the
  /// tree's modification counter and, when any write has intervened,
  /// re-seeks to the first key after the last one returned (so a stale
  /// position can never read a reorganised leaf).
  class Iterator {
   public:
    bool Valid() const { return valid_; }
    const std::string& key() const { return key_; }
    const std::string& value() const { return value_; }
    /// Advances to the next record in key order.
    void Next();

   private:
    friend class BTree;
    Iterator(const BTree* tree, PageNo leaf, uint16_t slot,
             uint64_t mod_snapshot, std::string bound, bool bound_inclusive);
    // Loads key_/value_ from (leaf_, slot_), hopping over empty leaves;
    // falls back to Reposition() when the tree changed under us.
    void Load();
    // Re-derives the position by key: first record >= bound_ (or >
    // bound_ when !bound_inclusive_).
    void Reposition();

    const BTree* tree_ = nullptr;
    PageNo leaf_ = kInvalidPageNo;
    uint16_t slot_ = 0;
    bool valid_ = false;
    std::string key_;
    std::string value_;
    // Write-invalidation guard: tree_->mods_ value this position is
    // valid for, and the key bound to re-seek from when it moves on.
    uint64_t mod_snapshot_ = 0;
    std::string bound_;
    bool bound_inclusive_ = true;
  };

  /// Iterator at the first record with key >= `key`.
  Iterator Seek(std::string_view key) const;
  /// Iterator at the smallest key.
  Iterator Begin() const;

  /// Full structural validation: node consistency, key ordering within
  /// and across nodes, leaf chain coverage. O(tree).
  Status CheckIntegrity() const;

  /// Height of the tree (1 = root is a leaf). For tests/diagnostics.
  uint32_t Height() const { return height_; }

 private:
  // Returns the pinned leaf for `key` (the empty key routes to the first
  // leaf). Crabbing order: each child is pinned before its parent is
  // unpinned. Reads and the first write attempt both use it.
  PageRef Descend(std::string_view key) const;
  // Fills `path` with pinned refs root->leaf for the split path.
  void DescendPath(std::string_view key, std::vector<PageRef>* path);

  // Restart write path: a descent holding the whole path, then insert
  // or overwrite (`overwrite`), splitting as needed over the held refs.
  Status WriteHoldingPath(std::string_view key, std::string_view value,
                          bool overwrite);
  // Inserts `key`/`value` into the leaf path->back() (known to need a
  // split), then propagates separators up the held path.
  Status SplitAndInsert(std::vector<PageRef>* path, std::string_view key,
                        std::string_view value);

  // Routing decision within an internal node.
  static PageNo RouteChild(const NodeView& node, std::string_view key);

  Status CheckSubtree(PageNo page, std::string_view lo, std::string_view hi,
                      uint32_t depth, uint32_t* leaf_depth,
                      uint64_t* records) const;

  BufferPool* pool_;
  PageNo root_ = kInvalidPageNo;
  uint32_t height_ = 1;
  uint64_t size_ = 0;
  // Bumped by every successful mutation; iterators snapshot it to detect
  // intervening writes.
  uint64_t mods_ = 0;
};

}  // namespace lss

#endif  // LSS_BTREE_BTREE_H_
