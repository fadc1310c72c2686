// The partition graph's cell -> members index and what is served from it:
// Members() against a domain scan, thread-safe first access, and the
// closed-form unconstrained cell-histogram sensitivity against edge
// enumeration.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "core/policy.h"
#include "core/secret_graph.h"
#include "core/sensitivity.h"

namespace blowfish {
namespace {

std::vector<ValueIndex> ScanMembers(const PartitionGraph& graph,
                                    uint64_t cell) {
  std::vector<ValueIndex> out;
  for (ValueIndex x = 0; x < graph.num_vertices(); ++x) {
    if (graph.CellOf(x) == cell) out.push_back(x);
  }
  return out;
}

std::vector<ValueIndex> AsVector(PartitionGraph::ValueRun run) {
  return std::vector<ValueIndex>(run.begin(), run.end());
}

std::set<uint64_t> AllCells(const PartitionGraph& graph) {
  std::set<uint64_t> cells;
  for (ValueIndex x = 0; x < graph.num_vertices(); ++x) {
    cells.insert(graph.CellOf(x));
  }
  return cells;
}

/// Cells that are neither contiguous nor densely numbered.
std::unique_ptr<PartitionGraph> ScatteredCells(uint64_t n) {
  return std::make_unique<PartitionGraph>(
      n, [](ValueIndex x) { return 1000 + 17 * ((x * 7) % 5); },
      "partition|scattered");
}

TEST(CellIndexTest, MembersMatchDomainScanForUniformGrid) {
  // 12 x 10 grid cut 3 x 4: blocks 4 x 3, the last column block short.
  auto dom = std::make_shared<const Domain>(
      Domain::Create({Attribute{"x", 12, 1.0}, Attribute{"y", 10, 1.0}})
          .value());
  auto graph = PartitionGraph::UniformGrid(dom, {3, 4}).value();
  const std::set<uint64_t> cells = AllCells(*graph);
  ASSERT_EQ(cells.size(), 12u);
  size_t total = 0;
  for (uint64_t c : cells) {
    EXPECT_EQ(AsVector(graph->Members(c)), ScanMembers(*graph, c)) << c;
    total += graph->Members(c).size();
  }
  EXPECT_EQ(total, dom->size());
  EXPECT_TRUE(graph->Members(12).empty());
  EXPECT_TRUE(graph->Members(~uint64_t{0}).empty());
}

TEST(CellIndexTest, MembersMatchDomainScanForScatteredCells) {
  auto graph = ScatteredCells(53);
  const std::set<uint64_t> cells = AllCells(*graph);
  ASSERT_EQ(cells.size(), 5u);
  for (uint64_t c : cells) {
    EXPECT_EQ(AsVector(graph->Members(c)), ScanMembers(*graph, c)) << c;
  }
  EXPECT_TRUE(graph->Members(0).empty());
  EXPECT_TRUE(graph->Members(1001).empty());
}

// The index is built lazily; racing first calls must all see one
// complete index (TSan flags an unsynchronized build).
TEST(CellIndexTest, ConcurrentFirstAccessIsSafe) {
  auto graph = ScatteredCells(4096);
  const std::set<uint64_t> cells = AllCells(*graph);
  constexpr int kThreads = 4;
  std::vector<std::vector<std::vector<ValueIndex>>> seen(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (uint64_t c : cells) seen[t].push_back(AsVector(graph->Members(c)));
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    size_t k = 0;
    for (uint64_t c : cells) {
      EXPECT_EQ(seen[t][k++], ScanMembers(*graph, c)) << "thread " << t;
    }
  }
}

TEST(CellIndexTest, EdgesAreTheWithinCellPairs) {
  auto graph = ScatteredCells(40);
  uint64_t edges = 0;
  ASSERT_TRUE(graph
                  ->ForEachEdge(
                      [&](ValueIndex x, ValueIndex y) {
                        EXPECT_LT(x, y);
                        EXPECT_EQ(graph->CellOf(x), graph->CellOf(y));
                        ++edges;
                      },
                      1000)
                  .ok());
  uint64_t expected = 0;
  for (uint64_t c : AllCells(*graph)) {
    const uint64_t m = graph->Members(c).size();
    expected += m * (m - 1) / 2;
  }
  EXPECT_EQ(edges, expected);
}

/// Every non-empty subset of a graph's cells (small cell counts only).
std::vector<std::vector<uint64_t>> CellSubsets(const PartitionGraph& graph) {
  const std::vector<uint64_t> cells = [&] {
    std::set<uint64_t> s = AllCells(graph);
    return std::vector<uint64_t>(s.begin(), s.end());
  }();
  std::vector<std::vector<uint64_t>> subsets;
  for (uint64_t mask = 1; mask < (uint64_t{1} << cells.size()); ++mask) {
    std::vector<uint64_t> subset;
    for (size_t i = 0; i < cells.size(); ++i) {
      if (mask >> i & 1) subset.push_back(cells[i]);
    }
    subsets.push_back(subset);
  }
  return subsets;
}

void ExpectClosedFormMatchesEnumeration(const Policy& policy) {
  const auto& graph = dynamic_cast<const PartitionGraph&>(policy.graph());
  for (const std::vector<uint64_t>& cells : CellSubsets(graph)) {
    CellRestrictedHistogramQuery query(
        graph, std::set<uint64_t>(cells.begin(), cells.end()));
    const double enumerated =
        UnconstrainedSensitivity(query, graph, uint64_t{1} << 20).value();
    const double closed =
        ConstrainedCellHistogramSensitivity(policy, cells, uint64_t{1} << 20,
                                            uint64_t{1} << 20, 16)
            .value();
    EXPECT_EQ(closed, enumerated) << cells.size() << " cells from "
                                  << cells.front();
  }
}

TEST(CellIndexTest, ClosedFormSensitivityMatchesEdgeEnumeration) {
  // Line(5) in 3 blocks of 2: cells {0,1}, {2,3} and the singleton {4}.
  auto line = std::make_shared<const Domain>(Domain::Line(5).value());
  ExpectClosedFormMatchesEnumeration(
      Policy::GridPartition(line, {3}).value());
  // 3 x 3 grid in 2 x 2 blocks: one 4-cell, two 2-cells, one singleton.
  auto grid = std::make_shared<const Domain>(Domain::Grid(3, 2).value());
  ExpectClosedFormMatchesEnumeration(
      Policy::GridPartition(grid, {2, 2}).value());
  // Finest partition: every cell a singleton, so S = 0 for every set.
  auto small = std::make_shared<const Domain>(Domain::Grid(2, 2).value());
  ExpectClosedFormMatchesEnumeration(
      Policy::GridPartition(small, {2, 2}).value());
  // Non-contiguous cells.
  ExpectClosedFormMatchesEnumeration(
      Policy::Create(line, std::shared_ptr<const SecretGraph>(
                               ScatteredCells(line->size())))
          .value());
}

// The closed form enumerates nothing, so an edge budget the graph far
// exceeds no longer refuses an unconstrained cell histogram.
TEST(CellIndexTest, ClosedFormIgnoresTheEdgeBudget) {
  auto grid = std::make_shared<const Domain>(Domain::Grid(16, 2).value());
  Policy policy = Policy::GridPartition(grid, {2, 2}).value();
  EXPECT_EQ(ConstrainedCellHistogramSensitivity(policy, {3}, 1, 1, 16)
                .value(),
            2.0);
}

}  // namespace
}  // namespace blowfish
