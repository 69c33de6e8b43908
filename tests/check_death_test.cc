// Death tests: API misuse must trap loudly through LOCS_CHECK rather than
// corrupt state (the library is exception-free by design).

#include <gtest/gtest.h>

#include "core/core_index.h"
#include "gen/classic.h"
#include "graph/builder.h"
#include "graph/graph.h"
#include "util/check.h"

namespace locs {
namespace {

TEST(CheckDeathTest, CheckMacroAborts) {
  EXPECT_DEATH(LOCS_CHECK(1 == 2), "LOCS_CHECK failed");
  EXPECT_DEATH(LOCS_CHECK_MSG(false, "context"), "context");
  EXPECT_DEATH(LOCS_CHECK_LT(5, 3), "LOCS_CHECK failed");
}

TEST(CheckDeathTest, BuilderRejectsOutOfRangeVertex) {
  GraphBuilder builder(3);
  EXPECT_DEATH(builder.AddEdge(0, 3), "LOCS_CHECK failed");
}

TEST(CheckDeathTest, FromCsrRejectsMalformedOffsets) {
  EXPECT_DEATH(Graph::FromCsr({}, {}), "LOCS_CHECK failed");
  EXPECT_DEATH(Graph::FromCsr({1, 2}, {0, 0}), "LOCS_CHECK failed");
  // Offsets must end at the neighbor count.
  EXPECT_DEATH(Graph::FromCsr({0, 1}, {}), "LOCS_CHECK failed");
}

TEST(CheckDeathTest, Figure1LabelBounds) {
  EXPECT_DEATH(gen::Figure1Vertex('z'), "LOCS_CHECK failed");
  EXPECT_DEATH(gen::Figure1Label(14), "LOCS_CHECK failed");
}

TEST(CheckDeathTest, CycleRequiresThreeVertices) {
  EXPECT_DEATH(gen::Cycle(2), "LOCS_CHECK failed");
}

// Barbell(6, 2) has 14 vertices but 17 merge-tree nodes: ids in [14, 17)
// name internal nodes, not vertices, and must be rejected as such.
TEST(CheckDeathTest, CoreIndexCstMembersRejectsTreeNodeId) {
  const Graph g = gen::Barbell(6, 2);
  const CoreIndex index(g);
  ASSERT_GT(index.NumTreeNodes(), g.NumVertices());
  EXPECT_DEATH(index.CstMembers(14, 1), "LOCS_CHECK failed");
}

TEST(CheckDeathTest, CoreIndexCsmRejectsTreeNodeId) {
  const Graph g = gen::Barbell(6, 2);
  const CoreIndex index(g);
  ASSERT_GT(index.NumTreeNodes(), g.NumVertices());
  EXPECT_DEATH(index.Csm(14), "LOCS_CHECK failed");
}

}  // namespace
}  // namespace locs
