#ifndef ALPHASORT_SORT_TOURNAMENT_TREE_H_
#define ALPHASORT_SORT_TOURNAMENT_TREE_H_

#include <cassert>
#include <cstddef>
#include <concepts>
#include <cstdint>
#include <vector>

#include "common/tracer.h"

namespace alphasort {

// Maps heap-numbered tournament nodes (1-based, parent i/2) to array
// positions. The paper (§4) investigates clustering "tournament nodes so
// that most parent-child node pairs are contained in the same cache line",
// reporting a 2-3x miss reduction; both layouts are provided so the cache
// simulator can reproduce that comparison (Figure 4).
enum class TreeLayout {
  kFlat,       // position = heap index (classic layout)
  kClustered,  // subtrees of `cluster_height` levels packed contiguously
};

class TreeLayoutMap {
 public:
  // `num_nodes` internal nodes, heap-numbered 1..num_nodes. For the
  // clustered layout, each subtree of `cluster_height` levels (2^h - 1
  // nodes) is padded to `slots_per_cluster` and placed at a
  // cluster-aligned position, so an aligned backing array keeps every
  // parent-child pair inside one cache line.
  TreeLayoutMap(size_t num_nodes, TreeLayout layout, int cluster_height = 2);

  size_t Position(size_t heap_index) const {
    assert(heap_index >= 1 && heap_index <= num_nodes_);
    return layout_ == TreeLayout::kFlat ? heap_index - 1
                                        : map_[heap_index];
  }

  // Array slots the layout occupies (>= num_nodes for the padded
  // clustered layout).
  size_t PositionsNeeded() const { return positions_needed_; }

  // Cluster padding in slots; an aligned allocation should align the
  // array base to this many elements.
  size_t SlotsPerCluster() const { return slots_per_cluster_; }

 private:
  void NumberSubtree(size_t root, size_t* next_pos);

  size_t num_nodes_;
  TreeLayout layout_;
  int cluster_height_;
  size_t slots_per_cluster_;
  size_t positions_needed_;
  std::vector<uint32_t> map_;  // heap index -> position (clustered only)
};

// An order the tournament can play on integer keys. Key(item) is a 64-bit
// key that agrees with the order: an item with a smaller key sorts first.
// Compare(a, b) orders two items whose keys are equal, three-way.
// CountCompares(n) charges n item compares to the order's statistics.
template <typename Less, typename Item>
concept KeyedOrder = requires(Less& less, const Item& item, uint64_t n) {
  { less.Key(item) } -> std::convertible_to<uint64_t>;
  { less.Compare(item, item) } -> std::convertible_to<int>;
  less.CountCompares(n);
};

// K-way loser tree ("tournament of replacement-selection", paper §4).
//
// Leaves hold one candidate item per input stream; internal nodes hold the
// losers of their sub-tournaments, and the overall winner is cached at the
// root. Replacing the winner costs exactly one leaf-to-root path of
// compares: O(log K) per extracted item.
//
// Item is any copyable value; Less is a strict weak ordering. A
// KeyedOrder's key is cached per leaf, so a level whose keys differ costs
// one integer compare and a branch-free select of the winner; equal keys
// take the full order. Other orders have no key and play every level on
// the full order. Exhausted streams carry an explicit flag, checked before
// any key, rather than a sentinel key, so any key value (all ones
// included) is legal input.
template <typename Item, typename Less, typename Tracer = NullTracer>
class LoserTree {
 public:
  // `k` streams (k >= 1). All leaves start exhausted; call Replace() for
  // each stream, then Rebuild(), before the first Winner().
  // `tracer` may be null only when Tracer is default-constructible (a
  // default-constructed instance is used then).
  LoserTree(size_t k, Less less, TreeLayout layout = TreeLayout::kFlat,
            Tracer* tracer = nullptr)
      : k_(k),
        less_(less),
        mem_(tracer != nullptr ? tracer : &default_tracer_),
        layout_map_(k > 1 ? k - 1 : 1, layout),
        node_storage_(layout_map_.PositionsNeeded() +
                          layout_map_.SlotsPerCluster(),
                      kInfinite),
        leaves_(k),
        keys_(kKeyed ? k : 0),
        leaf_infinite_(k, true) {
    assert(k >= 1);
    // Align the node array to the cluster size so a clustered layout's
    // parent-child blocks coincide with cache lines.
    const size_t align_bytes =
        layout_map_.SlotsPerCluster() * sizeof(size_t);
    const uintptr_t base = reinterpret_cast<uintptr_t>(node_storage_.data());
    const size_t skew = (align_bytes - base % align_bytes) % align_bytes;
    nodes_ = node_storage_.data() + skew / sizeof(size_t);
  }

  size_t k() const { return k_; }

  // Sets stream `s`'s current candidate (does not re-run the tournament;
  // use during initial fill, then call Rebuild()).
  void SetLeaf(size_t s, const Item& item) {
    mem_.TouchWrite(&leaves_[s], sizeof(Item));
    leaves_[s] = item;
    leaf_infinite_[s] = false;
    if constexpr (kKeyed) mem_.Store(&keys_[s], uint64_t{less_.Key(item)});
  }

  void SetLeafExhausted(size_t s) { leaf_infinite_[s] = true; }

  // Plays the full tournament; O(K). Call once after initial SetLeaf()s.
  void Rebuild();

  // True iff every stream is exhausted.
  bool Empty() const { return winner_ == kInfinite; }

  // Stream index of the current winner. Requires !Empty().
  size_t WinnerStream() const {
    assert(!Empty());
    return winner_;
  }

  const Item& WinnerItem() const {
    assert(!Empty());
    return leaves_[winner_];
  }

  // Replaces the winner's leaf with the stream's next item (or marks the
  // stream exhausted) and replays the winner's leaf-to-root path.
  void ReplaceWinner(const Item& item) {
    const size_t s = WinnerStream();
    SetLeaf(s, item);
    Replay(s);
  }

  void ExhaustWinner() {
    const size_t s = WinnerStream();
    SetLeafExhausted(s);
    Replay(s);
  }

  // Item compares: one per played level whose two streams are both live
  // (a level against an exhausted stream is free), Rebuild's up to K-1
  // included. A KeyedOrder's CountCompares sees the same count.
  uint64_t compares() const { return compares_; }

 private:
  static constexpr size_t kInfinite = static_cast<size_t>(-1);
  static constexpr bool kKeyed = KeyedOrder<Less, Item>;

  // Stream s's cached key (meaningful while s is live); a keyless
  // order's keys are all 0, so every level ties.
  uint64_t KeyOf(size_t s) {
    if constexpr (kKeyed) {
      return mem_.Load(&keys_[s]);
    } else {
      return 0;
    }
  }

  // True iff live stream a sorts before live stream b, given that their
  // keys are equal: the full order decides, then the stream index
  // (stability across equal items).
  bool TieBefore(size_t a, size_t b) {
    mem_.TouchRead(&leaves_[a], sizeof(Item));
    mem_.TouchRead(&leaves_[b], sizeof(Item));
    int c;
    if constexpr (kKeyed) {
      c = less_.Compare(leaves_[a], leaves_[b]);
    } else {
      c = less_(leaves_[a], leaves_[b]) ? -1
          : less_(leaves_[b], leaves_[a]) ? 1
                                          : 0;
    }
    return c < 0 || (c == 0 && a < b);
  }

  void ChargeCompares(uint64_t n) {
    compares_ += n;
    if constexpr (kKeyed) less_.CountCompares(n);
  }

  size_t& NodeAt(size_t heap_index) {
    return nodes_[layout_map_.Position(heap_index)];
  }

  // Replays the path from leaf `s` to the root: at each node the incoming
  // winner meets the stored loser; the loser stays, the winner moves up.
  // Leaf s sits at virtual heap index k_+s; internal nodes are 1..k_-1
  // (Knuth's tree-of-losers numbering). An exhausted loser never wins, so
  // its level is free; an exhausted winner (after ExhaustWinner) loses to
  // the first live loser it meets. Between live streams, keys that differ
  // decide with no branch on the outcome: the result becomes a mask that
  // selects the new winner, its key, and the loser stored back. A tie
  // reads both records, and there the outcome is a branch: a select would
  // make the next pop wait for those loads, where a predicted branch runs
  // ahead of them (a Zipfian merge ran up to 2x slower with a select).
  void Replay(size_t s) {
    size_t winner = s;
    uint64_t winner_key = KeyOf(s);
    bool winner_live = !leaf_infinite_[s];
    uint64_t live_levels = 0;
    for (size_t node = (k_ + s) / 2; node >= 1; node /= 2) {
      size_t* slot = &NodeAt(node);
      const size_t loser = mem_.Load(slot);
      if (leaf_infinite_[loser]) continue;
      const uint64_t loser_key = KeyOf(loser);
      if (!winner_live || loser_key == winner_key) {
        live_levels += winner_live;
        if (!winner_live || TieBefore(loser, winner)) {
          mem_.Store(slot, winner);
          winner = loser;
          winner_key = loser_key;
          winner_live = true;
        }
        continue;
      }
      ++live_levels;
      const size_t mask = -static_cast<size_t>(loser_key < winner_key);
      const size_t swap = (winner ^ loser) & mask;
      mem_.Store(slot, loser ^ swap);
      winner ^= swap;
      winner_key ^= (winner_key ^ loser_key) & mask;
    }
    ChargeCompares(live_levels);
    winner_ = winner_live ? winner : kInfinite;
  }

  size_t RebuildSubtree(size_t node);

  size_t k_;
  Less less_;
  Tracer default_tracer_{};
  Mem<Tracer> mem_;
  TreeLayoutMap layout_map_;
  std::vector<size_t> node_storage_;  // backing store (over-allocated)
  size_t* nodes_ = nullptr;  // aligned view: losing stream per position
  std::vector<Item> leaves_;
  std::vector<uint64_t> keys_;  // per leaf; empty for a keyless order
  std::vector<char> leaf_infinite_;
  size_t winner_ = kInfinite;
  uint64_t compares_ = 0;
};

template <typename Item, typename Less, typename Tracer>
size_t LoserTree<Item, Less, Tracer>::RebuildSubtree(size_t node) {
  // Returns the winning stream of the subtree rooted at heap node `node`,
  // storing losers on the way up. A child index c < k_ is an internal
  // node; c >= k_ is leaf c - k_ (the numbering Replay() inverts).
  auto resolve = [&](size_t c) -> size_t {
    if (c < k_) return RebuildSubtree(c);
    return c - k_;
  };
  const size_t w_left = resolve(2 * node);
  const size_t w_right = resolve(2 * node + 1);
  const bool left_live = !leaf_infinite_[w_left];
  const bool right_live = !leaf_infinite_[w_right];
  ChargeCompares(left_live && right_live);
  const uint64_t left_key = KeyOf(w_left);
  const uint64_t right_key = KeyOf(w_right);
  const bool right_wins =
      right_live &&
      (!left_live || (right_key != left_key ? right_key < left_key
                                            : TieBefore(w_right, w_left)));
  if (right_wins) {
    NodeAt(node) = w_left;
    return w_right;
  }
  NodeAt(node) = w_right;
  return w_left;
}

template <typename Item, typename Less, typename Tracer>
void LoserTree<Item, Less, Tracer>::Rebuild() {
  const size_t w = k_ == 1 ? 0 : RebuildSubtree(1);
  winner_ = leaf_infinite_[w] ? kInfinite : w;
}

}  // namespace alphasort

#endif  // ALPHASORT_SORT_TOURNAMENT_TREE_H_
