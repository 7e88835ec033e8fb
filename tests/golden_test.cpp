// Golden regression tests: exact expected outputs for fixed seeds on the
// integer-only code paths (greedy MIS and its MPC/CC simulations involve
// no floating point, so these values are platform-stable). A change here
// means algorithm *behavior* changed — which must be deliberate.
#include <array>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/greedy_mis.h"
#include "core/mis_cclique.h"
#include "core/mis_mpc.h"
#include "gen/families.h"
#include "gen/generators.h"
#include "util/fnv.h"
#include "util/permutation.h"

namespace mpcg {
namespace {

Graph golden_graph() {
  Rng rng(0xfeed);
  return erdos_renyi_gnp(500, 0.02, rng);
}

TEST(Golden, GraphGenerationIsStable) {
  const Graph g = golden_graph();
  EXPECT_EQ(g.num_vertices(), 500U);
  EXPECT_EQ(g.num_edges(), 2473U);
  EXPECT_EQ(g.max_degree(), 22U);
}

TEST(Golden, PermutationIsStable) {
  Rng rng(0xbeef);
  const auto perm = random_permutation(10, rng);
  EXPECT_EQ(perm, (std::vector<std::uint32_t>{0, 6, 7, 8, 2, 3, 5, 9, 4, 1}));
}

TEST(Golden, GreedyMisSizeIsStable) {
  const Graph g = golden_graph();
  Rng rng(42);
  const auto perm = random_permutation(g.num_vertices(), rng);
  const auto trace = greedy_mis_trace(g, perm);
  EXPECT_EQ(trace.mis.size(), 127U);
  EXPECT_EQ(trace.mis.front(), 353U);
  EXPECT_EQ(trace.mis.back(), 416U);
}

TEST(Golden, MisMpcExactModeIsStable) {
  const Graph g = golden_graph();
  MisMpcOptions opt;
  opt.seed = 42;
  opt.use_sparsified_stage = false;
  const auto r = mis_mpc(g, opt);
  EXPECT_EQ(r.mis.size(), 127U);
  EXPECT_EQ(r.metrics.violations, 0U);
}

// ------------------------------------------------------ MIS driver pins

/// FNV-1a over the MIS and the bytes of the run's Metrics (both engines'
/// Metrics are all-size_t structs with unique object representations, so
/// their bytes are exact).
template <typename Metrics>
std::uint64_t mis_digest(const std::vector<VertexId>& mis,
                         const Metrics& metrics) {
  std::uint64_t h = Fnv::kOffset;
  h = Fnv::fold(h, mis.size());
  for (const VertexId v : mis) h = Fnv::fold(h, v);
  std::array<std::uint64_t, sizeof(Metrics) / sizeof(std::uint64_t)> w{};
  std::memcpy(w.data(), &metrics, sizeof(Metrics));
  for (const std::uint64_t x : w) h = Fnv::fold(h, x);
  return h;
}

struct MisGoldenCase {
  const char* family;
  std::uint64_t seed;
  std::uint64_t mpc;      // mis_mpc, plain and with integrity + audit
  std::uint64_t cclique;  // mis_cclique
};

// S = 4n and a gather budget of n/8 make every staging loop of both
// drivers run at n = 4096: rank phases, the sparsified stage (except on
// star, whose one rank phase finishes the graph) and the final gather.
// Recorded before the engine lost its dense box matrix and the drivers
// their sequential staging loops (back then the plain mis_mpc runs staged
// dense and the integrity + audit runs flat). The digests hold at every
// thread count, and integrity and audit must not move them: neither
// touches the logical Metrics on a fault-free run.
constexpr MisGoldenCase kMisGolden[] = {
    {"gnp_dense", 1, 0x81bfb9fb74fd0515ULL, 0xf759efb64bdd7858ULL},
    {"gnp_dense", 2, 0x02e71e4e62b34cd8ULL, 0x5ce284f8e0f9eba6ULL},
    {"rmat", 1, 0xb20770c04c524bf2ULL, 0xa93cc491523e2fdfULL},
    {"rmat", 2, 0x5982898ad90ad6eaULL, 0x43a326a2da3188afULL},
    {"star", 1, 0x3e578ae0391eae4fULL, 0x7692209d70effa55ULL},
    {"star", 2, 0x1f127b752c1628b6ULL, 0xfc1fdfbb7e5b7471ULL},
    {"power_law", 1, 0x64ee5fa9661cf872ULL, 0x97450a60ff8300e1ULL},
    {"power_law", 2, 0x2be0b893c97d4e9dULL, 0x8812a5f95451570fULL},
};

// Both models run one process (core/mis_greedy.h), so for equal schedules
// they agree on every decision: the members, the phase structure and each
// gather's edge count — with the sparsified stage in play (n/8) and with
// one early final gather (4n).
TEST(Golden, MisMpcAndCcliqueAgreeExactly) {
  for (const MisGoldenCase& c : kMisGolden) {
    const Graph g = graph_family(c.family, 4096, c.seed);
    const std::size_t n = g.num_vertices();
    for (const std::size_t budget : {n / 8, 4 * n}) {
      MisMpcOptions mo;
      mo.seed = c.seed;
      mo.gather_budget = budget;
      MisCcliqueOptions co;
      co.seed = c.seed;
      co.gather_budget = budget;
      const MisMpcResult m = mis_mpc(g, mo);
      const MisCcliqueResult cc = mis_cclique(g, co);
      const std::string label = std::string(c.family) +
                                " seed=" + std::to_string(c.seed) +
                                " budget=" + std::to_string(budget);
      EXPECT_EQ(m.mis, cc.mis) << label;
      EXPECT_EQ(m.rank_phases, cc.rank_phases) << label;
      EXPECT_EQ(m.sparsified_iterations, cc.sparsified_iterations) << label;
      EXPECT_EQ(m.final_gather_edges, cc.final_gather_edges) << label;
      EXPECT_EQ(m.window_edges_per_phase, cc.window_edges_per_phase) << label;
    }
  }
}

TEST(Golden, MisDriversMatchThePinAtEveryWidth) {
  for (const MisGoldenCase& c : kMisGolden) {
    const Graph g = graph_family(c.family, 4096, c.seed);
    const std::size_t n = g.num_vertices();
    for (const std::size_t threads : {1U, 4U}) {
      MisMpcOptions mo;
      mo.seed = c.seed;
      mo.words_per_machine = 4 * n;
      mo.gather_budget = n / 8;
      mo.threads = threads;
      const MisMpcResult plain = mis_mpc(g, mo);
      EXPECT_EQ(mis_digest(plain.mis, plain.metrics), c.mpc)
          << std::hex << c.family << " seed=" << c.seed << " t=" << threads
          << " got 0x" << mis_digest(plain.mis, plain.metrics);
      mo.integrity = true;
      mo.audit = true;
      const MisMpcResult checked = mis_mpc(g, mo);
      EXPECT_EQ(mis_digest(checked.mis, checked.metrics), c.mpc)
          << std::hex << c.family << " seed=" << c.seed << " t=" << threads
          << " integrity+audit got 0x"
          << mis_digest(checked.mis, checked.metrics);

      MisCcliqueOptions co;
      co.seed = c.seed;
      co.gather_budget = n / 8;
      co.threads = threads;
      const MisCcliqueResult cc = mis_cclique(g, co);
      EXPECT_EQ(mis_digest(cc.mis, cc.metrics), c.cclique)
          << std::hex << c.family << " seed=" << c.seed << " t=" << threads
          << " cclique got 0x" << mis_digest(cc.mis, cc.metrics);
    }
  }
}

}  // namespace
}  // namespace mpcg
