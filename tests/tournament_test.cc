#include <algorithm>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "sort/merger.h"
#include "sort/tournament_tree.h"

namespace alphasort {
namespace {

struct IntLess {
  bool operator()(int a, int b) const { return a < b; }
};

using IntTree = LoserTree<int, IntLess>;

// Merges k sorted int vectors through the loser tree.
std::vector<int> MergeWithTree(const std::vector<std::vector<int>>& runs,
                               TreeLayout layout) {
  const size_t k = runs.size();
  IntTree tree(k == 0 ? 1 : k, IntLess{}, layout);
  std::vector<size_t> cursor(k, 0);
  for (size_t s = 0; s < k; ++s) {
    if (!runs[s].empty()) {
      tree.SetLeaf(s, runs[s][0]);
      cursor[s] = 1;
    }
  }
  tree.Rebuild();
  std::vector<int> out;
  while (!tree.Empty()) {
    const size_t s = tree.WinnerStream();
    out.push_back(tree.WinnerItem());
    if (cursor[s] < runs[s].size()) {
      tree.ReplaceWinner(runs[s][cursor[s]++]);
    } else {
      tree.ExhaustWinner();
    }
  }
  return out;
}

class LoserTreeKSweep
    : public ::testing::TestWithParam<std::tuple<size_t, TreeLayout>> {};

// Property: merging k sorted runs yields the sorted union, for every fan-in
// (including awkward non-powers-of-two) and both node layouts.
TEST_P(LoserTreeKSweep, MergesKSortedRuns) {
  const auto [k, layout] = GetParam();
  Random rng(1000 + k);
  std::vector<std::vector<int>> runs(k);
  std::vector<int> all;
  for (auto& run : runs) {
    const size_t len = rng.Uniform(50);
    for (size_t i = 0; i < len; ++i) {
      run.push_back(static_cast<int>(rng.Uniform(1000)));
    }
    std::sort(run.begin(), run.end());
    all.insert(all.end(), run.begin(), run.end());
  }
  std::sort(all.begin(), all.end());
  EXPECT_EQ(MergeWithTree(runs, layout), all);
}

INSTANTIATE_TEST_SUITE_P(
    FanInsAndLayouts, LoserTreeKSweep,
    ::testing::Combine(::testing::Values(size_t{1}, size_t{2}, size_t{3},
                                         size_t{4}, size_t{5}, size_t{7},
                                         size_t{8}, size_t{13}, size_t{16},
                                         size_t{33}, size_t{100}),
                       ::testing::Values(TreeLayout::kFlat,
                                         TreeLayout::kClustered)),
    [](const auto& info) {
      std::string name = "k";
      name += std::to_string(std::get<0>(info.param));
      name += std::get<1>(info.param) == TreeLayout::kFlat ? "_flat"
                                                           : "_clustered";
      return name;
    });

TEST(LoserTreeTest, EmptyRunsAreSkipped) {
  std::vector<std::vector<int>> runs = {{}, {1, 3}, {}, {2}, {}};
  EXPECT_EQ(MergeWithTree(runs, TreeLayout::kFlat),
            (std::vector<int>{1, 2, 3}));
}

TEST(LoserTreeTest, AllRunsEmptyIsEmptyTree) {
  std::vector<std::vector<int>> runs(4);
  EXPECT_TRUE(MergeWithTree(runs, TreeLayout::kFlat).empty());
}

TEST(LoserTreeTest, SingleStreamPassesThrough) {
  std::vector<std::vector<int>> runs = {{5, 6, 7}};
  EXPECT_EQ(MergeWithTree(runs, TreeLayout::kFlat),
            (std::vector<int>{5, 6, 7}));
}

TEST(LoserTreeTest, EqualItemsPreferLowerStream) {
  // Tie-break by stream index: stream 0's equal item must win first.
  IntTree tree(3, IntLess{});
  tree.SetLeaf(0, 7);
  tree.SetLeaf(1, 7);
  tree.SetLeaf(2, 7);
  tree.Rebuild();
  EXPECT_EQ(tree.WinnerStream(), 0u);
  tree.ExhaustWinner();
  EXPECT_EQ(tree.WinnerStream(), 1u);
  tree.ExhaustWinner();
  EXPECT_EQ(tree.WinnerStream(), 2u);
  tree.ExhaustWinner();
  EXPECT_TRUE(tree.Empty());
}

TEST(LoserTreeTest, ComparesPerPopAreLogK) {
  // K-way merge does ~log2(K) compares per extraction, not K.
  const size_t k = 64;
  const size_t per_run = 100;
  std::vector<std::vector<int>> runs(k);
  int v = 0;
  for (auto& run : runs) {
    for (size_t i = 0; i < per_run; ++i) run.push_back(v++);
    std::sort(run.begin(), run.end());
  }
  IntTree tree(k, IntLess{});
  std::vector<size_t> cursor(k, 0);
  for (size_t s = 0; s < k; ++s) {
    tree.SetLeaf(s, runs[s][0]);
    cursor[s] = 1;
  }
  tree.Rebuild();
  size_t pops = 0;
  while (!tree.Empty()) {
    const size_t s = tree.WinnerStream();
    ++pops;
    if (cursor[s] < runs[s].size()) {
      tree.ReplaceWinner(runs[s][cursor[s]++]);
    } else {
      tree.ExhaustWinner();
    }
  }
  EXPECT_EQ(pops, k * per_run);
  // <= log2(64) = 6 item compares per pop (exhausted-leaf steps are free).
  EXPECT_LE(tree.compares(), pops * 6);
  EXPECT_GT(tree.compares(), pops * 2);  // sanity: it did real work
}

// The merge's own tournament: a keyed order over prefix entries, so the
// tree plays levels on the cached 64-bit prefix and only equal prefixes
// take the full-key tie path.
using EntryTree = LoserTree<PrefixEntry, CountingEntryLess<>>;

// 16-byte records with a 10-byte key: prefixes are bytes 0-7, and bytes
// 8-9 are seen only by a full-key compare.
constexpr RecordFormat kKeyedFormat(16, 10);

enum class KeyShape {
  kUniform,        // random 10-byte keys: prefixes (almost) never tie
  kPrefixTies,     // one shared prefix; keys differ only in bytes 8-9
  kDuplicates,     // four distinct full keys, repeated across streams
  kAllOnesPrefix,  // half the keys have the all-ones prefix (the value
                   // a sentinel for exhausted streams would take), so each
                   // run ends in a tail of them and streams exhaust while
                   // others still hold one
};

std::string ShapeName(KeyShape shape) {
  switch (shape) {
    case KeyShape::kUniform: return "uniform";
    case KeyShape::kPrefixTies: return "prefix_ties";
    case KeyShape::kDuplicates: return "duplicates";
    case KeyShape::kAllOnesPrefix: return "all_ones_prefix";
  }
  return "unknown";
}

// k sorted runs of records of `shape`; run lengths vary (some are empty)
// so streams exhaust at different times.
struct KeyedRuns {
  std::vector<std::vector<char>> records;  // per run
  std::vector<std::vector<PrefixEntry>> runs;

  KeyedRuns(size_t k, KeyShape shape, uint64_t seed) : records(k), runs(k) {
    Random rng(seed);
    char dups[4][10];
    for (auto& key : dups) {
      for (char& c : key) c = static_cast<char>(rng.Uniform(256));
    }
    const size_t r = kKeyedFormat.record_size;
    for (size_t s = 0; s < k; ++s) {
      const size_t len = rng.Uniform(300);
      records[s].assign(len * r, 0);
      for (size_t i = 0; i < len; ++i) {
        char* key = records[s].data() + i * r;
        for (size_t b = 0; b < 10; ++b) {
          key[b] = static_cast<char>(rng.Uniform(256));
        }
        switch (shape) {
          case KeyShape::kUniform:
            break;
          case KeyShape::kPrefixTies:
            memset(key, 'p', 8);
            break;
          case KeyShape::kDuplicates:
            memcpy(key, dups[rng.Uniform(4)], 10);
            break;
          case KeyShape::kAllOnesPrefix:
            if (rng.OneIn(2)) memset(key, 0xFF, 8);
            break;
        }
        // The rest of the record tags its origin, for failure messages.
        key[10] = static_cast<char>(s);
      }
      for (size_t i = 0; i < len; ++i) {
        runs[s].push_back(
            MakePrefixEntry(kKeyedFormat, records[s].data() + i * r));
      }
      std::stable_sort(runs[s].begin(), runs[s].end(), FullKeyLess);
    }
  }

  static bool FullKeyLess(const PrefixEntry& a, const PrefixEntry& b) {
    return kKeyedFormat.CompareKeys(a.record, b.record) < 0;
  }

  // The merge's required output: every run's records in full-key order,
  // equal keys in stream order (then run order).
  std::vector<const char*> StableSorted() const {
    std::vector<PrefixEntry> all;
    for (const auto& run : runs) all.insert(all.end(), run.begin(), run.end());
    std::stable_sort(all.begin(), all.end(), FullKeyLess);
    std::vector<const char*> out;
    for (const auto& e : all) out.push_back(e.record);
    return out;
  }
};

size_t CeilLog2(size_t k) {
  size_t levels = 0;
  while ((size_t{1} << levels) < k) ++levels;
  return levels;
}

class KeyedTreeSweep
    : public ::testing::TestWithParam<std::tuple<size_t, KeyShape>> {};

// Property: the keyed tree's output is the stable sort of its runs by full
// key, each pop costs at most ceil(log2 k) counted compares, and each
// counted compare whose prefixes tie reads the full keys exactly once.
TEST_P(KeyedTreeSweep, MergeEqualsStableSortByFullKey) {
  const auto [k, shape] = GetParam();
  const KeyedRuns input(k, shape, 7000 + k);
  SortStats stats;
  EntryTree tree(k, CountingEntryLess<>{kKeyedFormat, &stats});
  std::vector<size_t> cursor(k, 0);
  for (size_t s = 0; s < k; ++s) {
    if (!input.runs[s].empty()) {
      tree.SetLeaf(s, input.runs[s][0]);
      cursor[s] = 1;
    }
  }
  tree.Rebuild();
  std::vector<const char*> out;
  while (!tree.Empty()) {
    const size_t s = tree.WinnerStream();
    out.push_back(tree.WinnerItem().record);
    if (cursor[s] < input.runs[s].size()) {
      tree.ReplaceWinner(input.runs[s][cursor[s]++]);
    } else {
      tree.ExhaustWinner();
    }
  }
  const std::vector<const char*> expected = input.StableSorted();
  ASSERT_EQ(out.size(), expected.size());
  for (size_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i], expected[i])
        << "position " << i << ": got stream " << int(out[i][10])
        << ", expected stream " << int(expected[i][10]);
  }

  EXPECT_LE(tree.compares(), out.size() * CeilLog2(k));
  // The order's statistics see the same compares, Rebuild's included.
  EXPECT_EQ(stats.compares, tree.compares());
  switch (shape) {
    case KeyShape::kUniform:
      EXPECT_EQ(stats.tie_breaks, 0u);
      break;
    case KeyShape::kPrefixTies:
      // Every compare is a prefix tie, and each costs one tie-break.
      EXPECT_EQ(stats.tie_breaks, stats.compares);
      break;
    case KeyShape::kDuplicates:
    case KeyShape::kAllOnesPrefix:
      EXPECT_LE(stats.tie_breaks, stats.compares);
      if (k > 1 && !out.empty()) {
        EXPECT_GT(stats.tie_breaks, 0u);
      }
      break;
  }
}

INSTANTIATE_TEST_SUITE_P(
    FanInsAndShapes, KeyedTreeSweep,
    ::testing::Combine(::testing::Values(size_t{1}, size_t{2}, size_t{3},
                                         size_t{5}, size_t{14}, size_t{20},
                                         size_t{64}),
                       ::testing::Values(KeyShape::kUniform,
                                         KeyShape::kPrefixTies,
                                         KeyShape::kDuplicates,
                                         KeyShape::kAllOnesPrefix)),
    [](const auto& info) {
      std::string name = "k";
      name += std::to_string(std::get<0>(info.param));
      name += "_";
      name += ShapeName(std::get<1>(info.param));
      return name;
    });

// Live streams whose key is the all-ones prefix meet exhausted streams:
// the exhausted flag, not the key, must decide, in Rebuild and in every
// replay, and the live tie must go to the full key.
TEST(KeyedTreeTest, AllOnesKeysOutlastExhaustedStreams) {
  std::vector<char> records(4 * kKeyedFormat.record_size, '\xFF');
  SortStats stats;
  EntryTree tree(4, CountingEntryLess<>{kKeyedFormat, &stats});
  // Streams 0 and 3 start exhausted; 1 and 2 hold all-ones keys, and
  // stream 2's full key (bytes 8-9) is the smaller.
  records[1 * kKeyedFormat.record_size + 9] = 0x00;
  const char* stream1 = records.data() + 0 * kKeyedFormat.record_size;
  const char* stream2 = records.data() + 1 * kKeyedFormat.record_size;
  tree.SetLeaf(1, MakePrefixEntry(kKeyedFormat, stream1));
  tree.SetLeaf(2, MakePrefixEntry(kKeyedFormat, stream2));
  tree.Rebuild();
  ASSERT_FALSE(tree.Empty());
  EXPECT_EQ(tree.WinnerStream(), 2u);
  tree.ExhaustWinner();
  ASSERT_FALSE(tree.Empty());
  EXPECT_EQ(tree.WinnerStream(), 1u);
  EXPECT_EQ(tree.WinnerItem().record, stream1);
  tree.ExhaustWinner();
  EXPECT_TRUE(tree.Empty());
  // One live-live level (in Rebuild), one prefix tie.
  EXPECT_EQ(stats.compares, 1u);
  EXPECT_EQ(stats.tie_breaks, 1u);
}

TEST(TreeLayoutMapTest, FlatLayoutIsIdentity) {
  TreeLayoutMap map(15, TreeLayout::kFlat);
  for (size_t i = 1; i <= 15; ++i) EXPECT_EQ(map.Position(i), i - 1);
}

TEST(TreeLayoutMapTest, ClusteredLayoutIsInjectiveWithinBounds) {
  for (size_t n : {1u, 2u, 3u, 7u, 10u, 31u, 100u, 255u}) {
    TreeLayoutMap map(n, TreeLayout::kClustered);
    std::set<size_t> seen;
    for (size_t i = 1; i <= n; ++i) {
      const size_t p = map.Position(i);
      EXPECT_LT(p, map.PositionsNeeded());
      EXPECT_TRUE(seen.insert(p).second) << "duplicate position " << p;
    }
    // Each cluster holds at least one node and takes SlotsPerCluster
    // positions, so padding costs at most that factor.
    EXPECT_LE(map.PositionsNeeded(), map.SlotsPerCluster() * (n + 1));
  }
}

TEST(TreeLayoutMapTest, ClustersStartAtAlignedPositions) {
  TreeLayoutMap map(255, TreeLayout::kClustered, 2);
  // Every cluster root (node whose depth is even) lands on a multiple of
  // SlotsPerCluster, so an aligned array keeps each cluster in one line.
  EXPECT_EQ(map.Position(1) % map.SlotsPerCluster(), 0u);
  EXPECT_EQ(map.Position(4) % map.SlotsPerCluster(), 0u);
  EXPECT_EQ(map.Position(16) % map.SlotsPerCluster(), 0u);
}

TEST(TreeLayoutMapTest, ClusteredKeepsParentAndChildrenAdjacent) {
  // With cluster_height=2, a parent at even depth and its two children
  // occupy three consecutive positions.
  TreeLayoutMap map(31, TreeLayout::kClustered, 2);
  const size_t root = map.Position(1);
  EXPECT_EQ(map.Position(2), root + 1);
  EXPECT_EQ(map.Position(3), root + 2);
  // Node 4 starts its own cluster with children 8, 9.
  const size_t four = map.Position(4);
  EXPECT_EQ(map.Position(8), four + 1);
  EXPECT_EQ(map.Position(9), four + 2);
}

}  // namespace
}  // namespace alphasort
