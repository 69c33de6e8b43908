// Death tests: API misuse must trap loudly through LOCS_CHECK rather than
// corrupt state (the library is exception-free by design).

#include <gtest/gtest.h>

#include <vector>

#include "core/kcore.h"
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

// The one-shot component helpers trap an out-of-range vertex and a core
// array that does not match the graph.
TEST(CheckDeathTest, KCoreComponentOfRejectsMismatchedInput) {
  const Graph g = gen::Barbell(6, 2);
  const CoreDecomposition cores = ComputeCores(g);
  EXPECT_DEATH(KCoreComponentOf(g, cores.core, 14, 1), "LOCS_CHECK failed");
  EXPECT_DEATH(MaxCoreComponentOf(g, cores.core, 14), "LOCS_CHECK failed");
  const std::vector<uint32_t> short_core(3, 0);
  EXPECT_DEATH(KCoreComponentOf(g, short_core, 0, 0), "LOCS_CHECK failed");
}

}  // namespace
}  // namespace locs
