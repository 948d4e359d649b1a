#include "btree/btree.h"

#include <cassert>
#include <utility>

namespace lss {

BTree::BTree(BufferPool* pool) : pool_(pool) {
  uint8_t* data = nullptr;
  root_ = pool_->AllocatePinned(&data);
  NodeView::Init(data, NodeView::kLeaf);
  pool_->Unpin(root_, /*dirty=*/true);
}

PageNo BTree::RouteChild(const NodeView& node, std::string_view key) {
  const uint16_t n = node.count();
  assert(n > 0);
  const uint16_t lb = node.LowerBound(key);
  if (lb < n && node.Key(lb) == key) return node.Child(lb);
  if (lb == 0) return node.leftmost_child();
  return node.Child(lb - 1);
}

// --- Descents -------------------------------------------------------------
//
// The pin and unpin order below is part of the page-write trace: the
// buffer pool's LRU order follows it, and so does every write-back.
// `ref = std::move(child)` unpins the parent after the child was pinned.

PageRef BTree::Descend(std::string_view key) const {
  PageRef ref(pool_, root_);
  NodeView node(ref.data());
  while (!node.IsLeaf()) {
    PageRef child(pool_, RouteChild(node, key));
    ref = std::move(child);
    node = NodeView(ref.data());
  }
  return ref;
}

void BTree::DescendPath(std::string_view key, std::vector<PageRef>* path) {
  path->clear();
  path->emplace_back(pool_, root_);
  NodeView node(path->back().data());
  while (!node.IsLeaf()) {
    const PageNo child = RouteChild(node, key);
    path->emplace_back(pool_, child);
    node = NodeView(path->back().data());
  }
}

// --- Writes -------------------------------------------------------------

Status BTree::Insert(std::string_view key, std::string_view value) {
  if (key.size() + value.size() > NodeView::kMaxPayload || key.empty()) {
    return Status::InvalidArgument("key/value payload out of bounds");
  }
  {
    PageRef leaf_ref = Descend(key);
    NodeView leaf(leaf_ref.data());
    uint16_t slot;
    if (leaf.Find(key, &slot)) {
      return Status::InvalidArgument("key already exists");
    }
    const uint32_t cell = NodeView::LeafCellSize(key, value);
    if (leaf.HasRoomFor(cell)) {
      leaf.InsertLeaf(leaf.LowerBound(key), key, value);
      leaf_ref.MarkDirty();
      ++size_;
      ++mods_;
      return Status::OK();
    }
  }
  // The leaf is full: unpin it and re-descend holding the whole path so
  // the split can propagate.
  return WriteHoldingPath(key, value, /*overwrite=*/false);
}

Status BTree::Put(std::string_view key, std::string_view value) {
  if (key.size() + value.size() > NodeView::kMaxPayload || key.empty()) {
    return Status::InvalidArgument("key/value payload out of bounds");
  }
  {
    PageRef leaf_ref = Descend(key);
    NodeView leaf(leaf_ref.data());
    uint16_t slot;
    if (leaf.Find(key, &slot)) {
      const size_t old_size = leaf.Value(slot).size();
      if (value.size() <= old_size ||
          leaf.HasRoomFor(static_cast<uint32_t>(value.size() - old_size))) {
        leaf.UpdateLeafValue(slot, value);
        leaf_ref.MarkDirty();
        ++mods_;
        return Status::OK();
      }
      // Grown beyond this node's free space: fall through to the path
      // descent, which removes and re-inserts (splitting).
    } else {
      const uint32_t cell = NodeView::LeafCellSize(key, value);
      if (leaf.HasRoomFor(cell)) {
        leaf.InsertLeaf(leaf.LowerBound(key), key, value);
        leaf_ref.MarkDirty();
        ++size_;
        ++mods_;
        return Status::OK();
      }
    }
  }
  return WriteHoldingPath(key, value, /*overwrite=*/true);
}

Status BTree::WriteHoldingPath(std::string_view key, std::string_view value,
                               bool overwrite) {
  std::vector<PageRef> path;
  DescendPath(key, &path);
  NodeView leaf(path.back().data());
  uint16_t slot;
  if (leaf.Find(key, &slot)) {
    if (!overwrite) return Status::InvalidArgument("key already exists");
    const size_t old_size = leaf.Value(slot).size();
    if (value.size() <= old_size ||
        leaf.HasRoomFor(static_cast<uint32_t>(value.size() - old_size))) {
      leaf.UpdateLeafValue(slot, value);
      path.back().MarkDirty();
      ++mods_;
      return Status::OK();
    }
    leaf.Remove(slot);
    path.back().MarkDirty();
    --size_;
  }
  const uint32_t cell = NodeView::LeafCellSize(key, value);
  if (leaf.HasRoomFor(cell)) {
    leaf.InsertLeaf(leaf.LowerBound(key), key, value);
    path.back().MarkDirty();
    ++size_;
    ++mods_;
    return Status::OK();
  }
  Status s = SplitAndInsert(&path, key, value);
  if (s.ok()) {
    ++size_;
    ++mods_;
  }
  return s;
}

Status BTree::SplitAndInsert(std::vector<PageRef>* path, std::string_view key,
                             std::string_view value) {
  // Split the leaf into a freshly allocated right page.
  PageRef& leaf_ref = path->back();
  uint8_t* right_data = nullptr;
  const PageNo right_no = pool_->AllocatePinned(&right_data);
  NodeView::Init(right_data, NodeView::kLeaf);
  NodeView right(right_data);
  NodeView left(leaf_ref.data());
  std::string sep = left.SplitInto(right);
  right.set_right_sibling(left.right_sibling());
  left.set_right_sibling(right_no);
  // Insert the record into the proper half (routing sends
  // key >= separator right).
  NodeView& target = (key < sep) ? left : right;
  assert(target.HasRoomFor(NodeView::LeafCellSize(key, value)));
  target.InsertLeaf(target.LowerBound(key), key, value);
  leaf_ref.MarkDirty();
  pool_->Unpin(right_no, /*dirty=*/true);

  // Propagate the separator up the held path (leaf-1 .. root).
  PageNo new_child = right_no;
  for (size_t i = path->size() - 1; i-- > 0;) {
    PageRef& ref = (*path)[i];
    NodeView parent(ref.data());
    assert(!parent.IsLeaf());
    const uint32_t cell = NodeView::InternalCellSize(sep);
    if (parent.HasRoomFor(cell)) {
      parent.InsertInternal(parent.LowerBound(sep), sep, new_child);
      ref.MarkDirty();
      return Status::OK();
    }
    // Split the internal node; its middle key moves up.
    uint8_t* pr_data = nullptr;
    const PageNo pr_no = pool_->AllocatePinned(&pr_data);
    NodeView::Init(pr_data, NodeView::kInternal);
    NodeView pright(pr_data);
    std::string up = parent.SplitInto(pright);
    NodeView& t = (sep < up) ? parent : pright;
    t.InsertInternal(t.LowerBound(sep), sep, new_child);
    ref.MarkDirty();
    pool_->Unpin(pr_no, /*dirty=*/true);
    sep = std::move(up);
    new_child = pr_no;
  }

  // The root itself split: grow the tree by one level.
  const PageNo old_root = (*path)[0].page();
  uint8_t* nr_data = nullptr;
  const PageNo new_root = pool_->AllocatePinned(&nr_data);
  NodeView::Init(nr_data, NodeView::kInternal);
  NodeView nroot(nr_data);
  nroot.set_leftmost_child(old_root);
  nroot.InsertInternal(0, sep, new_child);
  pool_->Unpin(new_root, /*dirty=*/true);
  root_ = new_root;
  ++height_;
  return Status::OK();
}

// --- Reads --------------------------------------------------------------

bool BTree::Get(std::string_view key, std::string* value) const {
  PageRef ref = Descend(key);
  NodeView leaf(ref.data());
  uint16_t slot;
  if (!leaf.Find(key, &slot)) return false;
  if (value != nullptr) value->assign(leaf.Value(slot));
  return true;
}

bool BTree::Delete(std::string_view key) {
  PageRef ref = Descend(key);
  NodeView leaf(ref.data());
  uint16_t slot;
  if (!leaf.Find(key, &slot)) return false;
  leaf.Remove(slot);
  ref.MarkDirty();
  --size_;
  ++mods_;
  return true;
}

// --- Iterator -----------------------------------------------------------

BTree::Iterator::Iterator(const BTree* tree, PageNo leaf, uint16_t slot,
                          uint64_t mod_snapshot, std::string bound,
                          bool bound_inclusive)
    : tree_(tree), leaf_(leaf), slot_(slot), mod_snapshot_(mod_snapshot),
      bound_(std::move(bound)), bound_inclusive_(bound_inclusive) {
  Load();
}

void BTree::Iterator::Load() {
  valid_ = false;
  while (leaf_ != kInvalidPageNo) {
    PageRef ref(tree_->pool_, leaf_);
    if (tree_->mods_ != mod_snapshot_) {
      // A write landed somewhere in the tree since this position was
      // derived: (leaf_, slot_) may point into a reorganised page.
      // Re-seek from the last returned key instead of trusting it.
      ref.Release();
      Reposition();
      return;
    }
    NodeView node(ref.data());
    assert(node.IsLeaf());
    if (slot_ < node.count()) {
      key_.assign(node.Key(slot_));
      value_.assign(node.Value(slot_));
      valid_ = true;
      return;
    }
    leaf_ = node.right_sibling();
    slot_ = 0;
  }
}

void BTree::Iterator::Reposition() {
  PageRef ref = tree_->Descend(bound_);
  NodeView node(ref.data());
  uint16_t slot = node.LowerBound(bound_);
  mod_snapshot_ = tree_->mods_;
  for (;;) {
    if (slot < node.count()) {
      const std::string_view k = node.Key(slot);
      if (bound_inclusive_ || k != bound_) {
        key_.assign(k);
        value_.assign(node.Value(slot));
        leaf_ = ref.page();
        slot_ = slot;
        valid_ = true;
        return;
      }
      ++slot;
      continue;
    }
    const PageNo next = node.right_sibling();
    if (next == kInvalidPageNo) {
      leaf_ = kInvalidPageNo;
      return;
    }
    // Leaf-chain hop: the next leaf is pinned before the current one is
    // unpinned; pages are never returned to the pager, so the link stays
    // valid.
    PageRef nref(tree_->pool_, next);
    ref = std::move(nref);
    node = NodeView(ref.data());
    slot = 0;
  }
}

void BTree::Iterator::Next() {
  assert(valid_);
  bound_ = key_;
  bound_inclusive_ = false;
  ++slot_;
  Load();
}

BTree::Iterator BTree::Seek(std::string_view key) const {
  PageNo leaf_no;
  uint16_t slot;
  {
    PageRef ref = Descend(key);
    NodeView leaf(ref.data());
    slot = leaf.LowerBound(key);
    leaf_no = ref.page();
  }
  // The leaf is unpinned here and pinned again by the Iterator's Load.
  return Iterator(this, leaf_no, slot, mods_, std::string(key),
                  /*bound_inclusive=*/true);
}

BTree::Iterator BTree::Begin() const {
  const PageNo leaf_no = Descend({}).page();
  return Iterator(this, leaf_no, 0, mods_, std::string(),
                  /*bound_inclusive=*/true);
}

// --- Validation -----------------------------------------------------------

Status BTree::CheckSubtree(PageNo page, std::string_view lo,
                           std::string_view hi, uint32_t depth,
                           uint32_t* leaf_depth, uint64_t* records) const {
  PageRef ref(pool_, page);
  NodeView node(ref.data());
  if (!node.CheckConsistent()) {
    return Status::Corruption("node failed self-check");
  }
  // Keys must lie within (lo, hi]. Empty bounds mean unbounded.
  for (uint16_t i = 0; i < node.count(); ++i) {
    const std::string_view k = node.Key(i);
    if (!lo.empty() && k < lo) return Status::Corruption("key below bound");
    if (!hi.empty() && k >= hi) return Status::Corruption("key above bound");
  }
  if (node.IsLeaf()) {
    if (*leaf_depth == 0) {
      *leaf_depth = depth;
    } else if (*leaf_depth != depth) {
      return Status::Corruption("leaves at differing depths");
    }
    *records += node.count();
    return Status::OK();
  }
  if (node.count() == 0) return Status::Corruption("empty internal node");
  // leftmost child: keys < key[0].
  Status s = CheckSubtree(node.leftmost_child(), lo, node.Key(0), depth + 1,
                          leaf_depth, records);
  if (!s.ok()) return s;
  for (uint16_t i = 0; i < node.count(); ++i) {
    const std::string_view child_lo = node.Key(i);
    const std::string_view child_hi =
        (i + 1 < node.count()) ? node.Key(i + 1) : hi;
    s = CheckSubtree(node.Child(i), child_lo, child_hi, depth + 1, leaf_depth,
                     records);
    if (!s.ok()) return s;
  }
  return Status::OK();
}

Status BTree::CheckIntegrity() const {
  uint32_t leaf_depth = 0;
  uint64_t records = 0;
  Status s = CheckSubtree(root(), {}, {}, 1, &leaf_depth, &records);
  if (!s.ok()) return s;
  if (records != size_) {
    return Status::Corruption("record count mismatch");
  }
  if (leaf_depth != Height()) {
    return Status::Corruption("height disagrees with leaf depth");
  }
  // Leaf chain must visit exactly `records` keys in strictly increasing
  // order.
  uint64_t seen = 0;
  std::string prev;
  for (Iterator it = Begin(); it.Valid(); it.Next()) {
    if (seen > 0 && !(prev < it.key())) {
      return Status::Corruption("leaf chain out of order");
    }
    prev = it.key();
    ++seen;
  }
  if (seen != records) {
    return Status::Corruption("leaf chain missed records");
  }
  return Status::OK();
}

}  // namespace lss
