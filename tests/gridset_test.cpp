#include <gtest/gtest.h>

#include "artemis/dsl/parser.hpp"
#include "artemis/sim/gridset.hpp"

namespace artemis::sim {
namespace {

const char* kProg = R"(
  parameter L=4, M=6, N=8;
  iterator k, j, i;
  double a[L,M,N], b[L,M,N], w[N], line[M], c, d;
  copyin a, w, c;
  stencil s (B, A, c) { B[k][j][i] = c * A[k][j][i]; }
  s (b, a, c);
  copyout b;
)";

TEST(GridSet, ExtentsOfMapsTrailingAxes) {
  const auto prog = dsl::parse(kProg);
  EXPECT_EQ(extents_of(prog, *prog.find_array("a")), (Extents{4, 6, 8}));
  EXPECT_EQ(extents_of(prog, *prog.find_array("w")), (Extents{1, 1, 8}));
  EXPECT_EQ(extents_of(prog, *prog.find_array("line")), (Extents{1, 1, 6}));
}

TEST(GridSet, CopyinArraysGetRandomContents) {
  const auto prog = dsl::parse(kProg);
  const GridSet gs = GridSet::from_program(prog, 11);
  double sum_a = 0;
  for (const double v : gs.grid("a").raw()) sum_a += std::abs(v);
  EXPECT_GT(sum_a, 0.0);
  // Non-copyin arrays are zero.
  for (const double v : gs.grid("b").raw()) EXPECT_EQ(v, 0.0);
  // Copyin scalars in [0.5, 1.5]; others zero.
  EXPECT_GE(gs.scalar("c"), 0.5);
  EXPECT_LE(gs.scalar("c"), 1.5);
  EXPECT_EQ(gs.scalar("d"), 0.0);
}

TEST(GridSet, SeedDeterminism) {
  const auto prog = dsl::parse(kProg);
  const GridSet g1 = GridSet::from_program(prog, 42);
  const GridSet g2 = GridSet::from_program(prog, 42);
  const GridSet g3 = GridSet::from_program(prog, 43);
  EXPECT_EQ(Grid3D::max_abs_diff(g1.grid("a"), g2.grid("a")), 0.0);
  EXPECT_GT(Grid3D::max_abs_diff(g1.grid("a"), g3.grid("a")), 0.0);
}

TEST(GridSet, SwapExchangesBindings) {
  const auto prog = dsl::parse(kProg);
  GridSet gs = GridSet::from_program(prog, 1);
  gs.grid("a").at(0, 0, 0) = 7.0;
  gs.grid("b").at(0, 0, 0) = 9.0;
  gs.swap("a", "b");
  EXPECT_DOUBLE_EQ(gs.grid("a").at(0, 0, 0), 9.0);
  EXPECT_DOUBLE_EQ(gs.grid("b").at(0, 0, 0), 7.0);
  EXPECT_THROW(gs.swap("a", "nope"), Error);
}

TEST(GridSet, CloneIsDeep) {
  const auto prog = dsl::parse(kProg);
  GridSet gs = GridSet::from_program(prog, 1);
  GridSet copy = gs.clone();
  gs.grid("a").at(1, 1, 1) = 123.0;
  EXPECT_NE(copy.grid("a").at(1, 1, 1), 123.0);
}

TEST(GridSet, LargeGridsSetUpInParallelLikeSerial) {
  // 37*61*67 doubles is 1.2 MiB, above the parallel set-up threshold, and
  // its 4087-element planes do not divide the work chunks evenly.
  const auto prog = dsl::parse(R"(
    parameter L=37, M=61, N=67;
    iterator k, j, i;
    double a[L,M,N], b[L,M,N], w[N], c;
    copyin w, a, c;
    stencil s (B, A, c) { B[k][j][i] = c * A[k][j][i]; }
    s (b, a, c);
    copyout b;
  )");
  GridSet gs = GridSet::from_program(prog, 5);
  // One serial stream in declaration order, whatever the worker count.
  Rng rng(5);
  for (const double v : gs.grid("a").raw()) {
    ASSERT_EQ(v, rng.uniform(-1.0, 1.0));
  }
  for (const double v : gs.grid("w").raw()) {
    ASSERT_EQ(v, rng.uniform(-1.0, 1.0));
  }
  EXPECT_EQ(gs.scalar("c"), rng.uniform(0.5, 1.5));
  for (const double v : gs.grid("b").raw()) ASSERT_EQ(v, 0.0);

  GridSet copy = gs.clone();
  for (const char* name : {"a", "b", "w"}) {
    EXPECT_EQ(copy.grid(name).raw(), gs.grid(name).raw()) << name;
  }
  gs.grid("a").at(36, 60, 66) = 9.0;
  EXPECT_NE(copy.grid("a").at(36, 60, 66), 9.0);
}

TEST(GridSet, AddGridRejectsDuplicates) {
  const auto prog = dsl::parse(kProg);
  GridSet gs = GridSet::from_program(prog, 1);
  gs.add_grid("extra", {2, 2, 2}, 1.0);
  EXPECT_DOUBLE_EQ(gs.grid("extra").at(0, 0, 0), 1.0);
  EXPECT_THROW(gs.add_grid("extra", {2, 2, 2}), Error);
  EXPECT_THROW(gs.grid("missing"), Error);
  EXPECT_THROW(gs.scalar("missing"), Error);
}

TEST(GridSet, ZeroBoundaryShellsOnly) {
  Grid3D g({4, 4, 4}, 1.0);
  zero_boundary(g, 1);
  for (std::int64_t z = 0; z < 4; ++z) {
    for (std::int64_t y = 0; y < 4; ++y) {
      for (std::int64_t x = 0; x < 4; ++x) {
        const bool interior =
            z >= 1 && z < 3 && y >= 1 && y < 3 && x >= 1 && x < 3;
        EXPECT_DOUBLE_EQ(g.at(z, y, x), interior ? 1.0 : 0.0);
      }
    }
  }
}

TEST(GridSet, ZeroBoundarySkipsThinAxes) {
  // A 1x1xN grid must not be wiped entirely.
  Grid3D g({1, 1, 8}, 2.0);
  zero_boundary(g, 1);
  EXPECT_DOUBLE_EQ(g.at(0, 0, 0), 0.0);
  EXPECT_DOUBLE_EQ(g.at(0, 0, 4), 2.0);
  EXPECT_DOUBLE_EQ(g.at(0, 0, 7), 0.0);
}

}  // namespace
}  // namespace artemis::sim
