#include <array>
#include <cstring>
#include <tuple>

#include <gtest/gtest.h>

#include "baselines/blossom.h"
#include "core/integral_matching.h"
#include "fault/durable.h"
#include "graph/validation.h"
#include "test_util.h"
#include "util/fnv.h"

namespace mpcg {
namespace {

using testing::kFamilies;
using testing::make_family;
using testing::TempDir;

IntegralMatchingOptions opts(double eps = 0.1, std::uint64_t seed = 1) {
  IntegralMatchingOptions o;
  o.eps = eps;
  o.seed = seed;
  return o;
}

TEST(IntegralMatching, EmptyGraph) {
  const Graph g = GraphBuilder(4).build();
  const auto r = integral_matching(g, opts());
  EXPECT_TRUE(r.matching.empty());
  EXPECT_TRUE(r.cover.empty());
}

TEST(IntegralMatching, SingleEdge) {
  const Graph g = path_graph(2);
  const auto r = integral_matching(g, opts());
  EXPECT_EQ(r.matching.size(), 1U);
  EXPECT_TRUE(is_vertex_cover(g, r.cover));
}

TEST(IntegralMatching, OutputsAreValid) {
  for (const char* family : kFamilies) {
    const Graph g = make_family(family, 350, 3);
    const auto r = integral_matching(g, opts(0.1, 3));
    EXPECT_TRUE(is_matching(g, r.matching)) << family;
    EXPECT_TRUE(is_vertex_cover(g, r.cover)) << family;
  }
}

TEST(IntegralMatching, TwoPlusEpsFactorAgainstExact) {
  for (const char* family : {"gnp_sparse", "gnp_dense", "bipartite",
                             "power_law", "grid", "cliques"}) {
    const Graph g = make_family(family, 300, 5);
    if (g.num_edges() == 0) continue;
    const double eps = 0.1;
    const auto r = integral_matching(g, opts(eps, 5));
    const double nu = static_cast<double>(maximum_matching_size(g));
    EXPECT_GE(static_cast<double>(r.matching.size()) * (2.0 + eps),
              nu - 1e-9)
        << family << " |M|=" << r.matching.size() << " nu=" << nu;
  }
}

TEST(IntegralMatching, CoverTwoPlusEpsAgainstMatchingLowerBound) {
  // |VC*| >= nu, so cover <= (2+50eps) nu certifies the factor against the
  // only efficiently computable lower bound.
  for (const char* family : {"gnp_sparse", "gnp_dense", "bipartite"}) {
    const Graph g = make_family(family, 300, 7);
    if (g.num_edges() == 0) continue;
    const double eps = 0.1;
    const auto r = integral_matching(g, opts(eps, 7));
    const double nu = static_cast<double>(maximum_matching_size(g));
    EXPECT_LE(static_cast<double>(r.cover.size()),
              (2.0 + 50.0 * eps) * nu + 1e-9)
        << family;
  }
}

TEST(IntegralMatching, SmallMatchingPathWinsOnStars) {
  // A star has nu = 1; the filtering path must deliver it even though the
  // fractional pipeline spreads weight thinly.
  const Graph g = star_graph(500);
  const auto r = integral_matching(g, opts(0.1, 9));
  EXPECT_EQ(r.matching.size(), 1U);
  EXPECT_GE(r.small_path_size, 1U);
}

TEST(IntegralMatching, ReportsBothPaths) {
  const Graph g = make_family("gnp_dense", 400, 11);
  const auto r = integral_matching(g, opts(0.1, 11));
  EXPECT_EQ(r.matching.size(), std::max(r.a_path_size, r.small_path_size));
  EXPECT_GE(r.total_rounds, 1U);
  EXPECT_GE(r.iterations, 1U);
}

TEST(IntegralMatching, DeterministicPerSeed) {
  const Graph g = make_family("rmat", 300, 13);
  const auto a = integral_matching(g, opts(0.1, 17));
  const auto b = integral_matching(g, opts(0.1, 17));
  EXPECT_EQ(a.matching, b.matching);
  EXPECT_EQ(a.cover, b.cover);
}

class IntegralSweep
    : public ::testing::TestWithParam<std::tuple<const char*, std::uint64_t>> {
};

TEST_P(IntegralSweep, ValidityAndFactorAcrossSeeds) {
  const auto [family, seed] = GetParam();
  const Graph g = make_family(family, 260, seed);
  const auto r = integral_matching(g, opts(0.1, seed));
  EXPECT_TRUE(is_matching(g, r.matching));
  EXPECT_TRUE(is_vertex_cover(g, r.cover));
  if (g.num_edges() > 0) {
    const double nu = static_cast<double>(maximum_matching_size(g));
    EXPECT_GE(static_cast<double>(r.matching.size()) * 2.1, nu - 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, IntegralSweep,
    ::testing::Combine(::testing::ValuesIn(kFamilies),
                       ::testing::Values(1ULL, 2ULL)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param)) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

// ------------------------------------------------------------ golden pin

/// FNV-1a over everything a caller of integral_matching observes: the
/// matching, the cover, the iteration and round counts, and the bytes of
/// the first simulation call's Metrics (a disk format with unique object
/// representations, so its bytes are exact).
std::uint64_t result_digest(const IntegralMatchingResult& r) {
  std::uint64_t h = Fnv::kOffset;
  const auto add = [&h](std::uint64_t w) { h = Fnv::fold(h, w); };
  add(r.matching.size());
  for (const EdgeId e : r.matching) add(e);
  add(r.cover.size());
  for (const VertexId v : r.cover) add(v);
  add(r.iterations);
  add(r.total_rounds);
  std::array<std::uint64_t, sizeof(mpc::Metrics) / sizeof(std::uint64_t)> w{};
  std::memcpy(w.data(), &r.first_run_metrics, sizeof(mpc::Metrics));
  for (const std::uint64_t x : w) add(x);
  return h;
}

struct GoldenCase {
  const char* family;
  std::uint64_t seed;
  std::uint64_t digest;
};

// Recorded before the outer loop induced each residual from the previous
// one; any drift here means observable behavior changed.
constexpr GoldenCase kGolden[] = {
    {"gnp_dense", 1, 0x5378ea9f0821c64aULL},
    {"gnp_dense", 2, 0x10c918b688be5fa0ULL},
    {"rmat", 1, 0xd3d6f9100f1965caULL},
    {"rmat", 2, 0x8cc9f4b2837374b5ULL},
    {"star", 1, 0x0696c4e3ad75817fULL},
    {"star", 2, 0x83fbc106e0f93ee6ULL},
    {"power_law", 1, 0x18000bbb83e67313ULL},
    {"power_law", 2, 0x847d247ee4553511ULL},
};

TEST(IntegralMatchingGolden, DigestsMatchThePinAtEveryWidth) {
  for (const GoldenCase& c : kGolden) {
    const Graph g = make_family(c.family, 4096, c.seed);
    for (const std::size_t threads : {1U, 4U}) {
      IntegralMatchingOptions o = opts(0.1, c.seed);
      o.simulation.threads = threads;
      EXPECT_EQ(result_digest(integral_matching(g, o)), c.digest)
          << c.family << " seed=" << c.seed << " t=" << threads;
    }
  }
}

TEST(IntegralMatchingGolden, StopInALaterIterationResumesToThePin) {
  // On this graph iteration 0's simulation call has fewer than 36 safe
  // points and a later one has more, so the stop lands in an outer
  // iteration > 0. The resumed process induces its first residual from the
  // input graph rather than from a predecessor residual, and must still
  // land on the digest of an uninterrupted durable run (the first call's
  // Metrics carry its disk counters, restored from the outer cursor).
  constexpr std::uint64_t kDurableDigest = 0x0beaa6a6f52a693aULL;
  const Graph g = make_family("gnp_dense", 4096, 1);
  for (const std::size_t threads : {1U, 4U}) {
    TempDir td;
    IntegralMatchingOptions d = opts(0.1, 1);
    d.simulation.threads = threads;
    d.durable.dir = td.path + "/ck";
    d.durable.stop_after_safe_points = 36;
    EXPECT_THROW((void)integral_matching(g, d), fault::ResumableInterrupt);
    d.durable.stop_after_safe_points = 0;
    d.durable.resume = true;
    const auto res = integral_matching(g, d);
    // Iteration 0 was not the interrupted one: its Metrics come from the
    // outer cursor, not from a resumed simulation call.
    EXPECT_EQ(res.first_run_metrics.resume_loads, 0U) << "t=" << threads;
    EXPECT_EQ(result_digest(res), kDurableDigest) << "t=" << threads;
  }
}

}  // namespace
}  // namespace mpcg
