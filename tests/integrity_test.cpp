// Message integrity and audit mode (data-integrity layer).
//
// The load-bearing property mirrors the crash-recovery coupling: a run with
// an injected payload-corruption schedule, caught by the per-sender FNV-1a
// stream checksums and repaired through detect->retransmit (escalating to
// the round checkpoint when the budget is blown), must be bit-identical to
// the fault-free run — same outputs, same logical Metrics — with the repair
// cost visible only in the dedicated fields (corruptions_injected,
// corruptions_detected, words_retransmitted).  Without integrity checking
// the same schedule corrupts delivered words silently.  Audit mode is a
// pure observer: it must pass on every clean and every recovered run.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/matching_mpc.h"
#include "core/mis_cclique.h"
#include "core/mis_mpc.h"
#include "core/vertex_cover.h"
#include "fault/checkpoint.h"
#include "fault/fault_plan.h"
#include "fault/supervisor.h"
#include "graph/validation.h"
#include "mpc/engine.h"
#include "test_util.h"
#include "util/fnv.h"
#include "util/rng.h"

namespace mpcg {
namespace {

using testing::make_family;

// A schedule of corrupt events blanketing the early rounds of both worker
// machines: whichever rounds carry traffic get flipped bits, the rest are
// no-ops (corrupt of an empty flush injects nothing).
fault::FaultPlan blanket_corrupts(std::size_t rounds, std::size_t machines,
                                  std::size_t per_machine_rounds) {
  fault::FaultPlan plan;
  for (std::size_t r = 1; r + 1 < rounds && r <= per_machine_rounds; ++r) {
    for (std::size_t m = 0; m < machines; ++m) plan.add_corrupt(m, r);
  }
  return plan;
}

// ------------------------------------------------------------ Fnv basics

TEST(Fnv, DigestMatchesIncrementalFolds) {
  const std::vector<std::uint64_t> words = {0, 1, 0xdeadbeefULL,
                                            ~0ULL, 42};
  std::uint64_t h = Fnv::kOffset;
  for (const auto w : words) h = Fnv::fold(h, w);
  EXPECT_EQ(h, Fnv::digest(words));
  EXPECT_EQ(Fnv::digest(std::span<const std::uint64_t>{}), Fnv::kOffset);
  // A single flipped bit anywhere changes the digest.
  auto flipped = words;
  flipped[2] ^= 1ULL << 17;
  EXPECT_NE(Fnv::digest(flipped), Fnv::digest(words));
}

// --------------------------------------------------- engine-level behavior

TEST(EngineIntegrity, CorruptionIsDetectedAndRetransmittedExactly) {
  fault::FaultPlan plan;
  plan.add_corrupt(0, 0);
  mpc::Config cfg{3, 64, true};
  cfg.integrity = true;
  mpc::Engine corrupted(cfg);
  corrupted.set_fault_plan(&plan);
  mpc::Engine pristine(cfg);
  for (mpc::Engine* eng : {&corrupted, &pristine}) {
    eng->push(0, 1, 11);
    eng->push(0, 2, 12);
    eng->push(2, 1, 13);
    eng->exchange();
  }
  for (std::size_t to = 0; to < 3; ++to) {
    std::vector<mpc::Word> a;
    corrupted.inbox_view(to).append_to(a);
    std::vector<mpc::Word> b;
    pristine.inbox_view(to).append_to(b);
    EXPECT_EQ(a, b) << to;
  }
  EXPECT_EQ(corrupted.metrics().corruptions_injected, 1U);
  EXPECT_EQ(corrupted.metrics().corruptions_detected, 1U);
  EXPECT_GT(corrupted.metrics().words_retransmitted, 0U);
  EXPECT_EQ(corrupted.metrics().rounds_replayed, 0U);  // budget intact
}

TEST(EngineIntegrity, CorruptingAnEmptyFlushInjectsNothing) {
  fault::FaultPlan plan;
  plan.add_corrupt(2, 0);  // machine 2 stages no words this round
  mpc::Config cfg{3, 64, true};
  cfg.integrity = true;
  mpc::Engine eng(cfg);
  eng.set_fault_plan(&plan);
  eng.push(0, 1, 7);
  eng.exchange();
  EXPECT_EQ(eng.metrics().faults_injected, 1U);
  EXPECT_EQ(eng.metrics().corruptions_injected, 0U);
  EXPECT_EQ(eng.metrics().corruptions_detected, 0U);
}

TEST(EngineIntegrity, UndetectedCorruptionAltersDeliveredWords) {
  // integrity off: the flipped bits ride through to the inbox.
  fault::FaultPlan plan;
  plan.add_corrupt(0, 0);
  mpc::Engine eng(mpc::Config{3, 64, true});
  eng.set_fault_plan(&plan);
  const std::vector<mpc::Word> sent = {101, 102, 103, 104};
  for (const auto w : sent) eng.push(0, 1, w);
  eng.exchange();
  std::vector<mpc::Word> got;
  eng.inbox_view(1).append_to(got);
  ASSERT_EQ(got.size(), sent.size());
  EXPECT_NE(got, sent);
  EXPECT_EQ(eng.metrics().corruptions_injected, 1U);
  EXPECT_EQ(eng.metrics().corruptions_detected, 0U);
  EXPECT_EQ(eng.metrics().words_retransmitted, 0U);
}

TEST(EngineIntegrity, BudgetExhaustionWithoutRecoveryThrows) {
  fault::FaultPlan plan;  // budget is 2: the third corrupt of one flush
  plan.add_corrupt(0, 0).add_corrupt(0, 0).add_corrupt(0, 0);
  mpc::Config cfg{2, 64, true};
  cfg.integrity = true;
  mpc::Engine eng(cfg);
  eng.set_fault_plan(&plan, /*registry=*/nullptr, /*recover=*/false);
  eng.push(0, 1, 5);
  EXPECT_THROW(eng.exchange(), mpc::IntegrityError);
}

TEST(EngineIntegrity, BudgetExhaustionWithRecoveryReplaysTheRound) {
  fault::FaultPlan plan;
  plan.add_corrupt(0, 0).add_corrupt(0, 0).add_corrupt(0, 0);
  mpc::Config cfg{2, 64, true};
  cfg.integrity = true;
  mpc::Engine eng(cfg);
  eng.set_fault_plan(&plan);
  eng.push(0, 1, 5);
  eng.push(0, 1, 6);
  eng.exchange();
  std::vector<mpc::Word> got;
  eng.inbox_view(1).append_to(got);
  EXPECT_EQ(got, (std::vector<mpc::Word>{5, 6}));
  EXPECT_EQ(eng.metrics().corruptions_injected, 3U);
  EXPECT_EQ(eng.metrics().corruptions_detected, 3U);
  EXPECT_EQ(eng.metrics().rounds_replayed, 1U);
}

TEST(EngineAudit, CleanExchangesPassEveryInvariant) {
  mpc::Config cfg{4, 64, true};
  cfg.audit = true;
  mpc::Engine eng(cfg);
  for (std::size_t r = 0; r < 6; ++r) {
    for (std::size_t m = 0; m < 4; ++m) {
      eng.push(m, (m + 1) % 4, mix64(r, m, 0xa0d17));
      eng.push(m, (m + 2) % 4, mix64(r, m, 0xa0d18));
    }
    EXPECT_NO_THROW(eng.exchange());
  }
  EXPECT_EQ(eng.metrics().rounds, 6U);
}

TEST(EngineAudit, FaultyRecoveredExchangesStillBalance) {
  // Drops, dups, delays and corrupts all hit the conservation equation
  // through their adjustment terms; a recovered run must stay balanced.
  fault::FaultPlan plan;
  plan.add_drop(1, 1).add_duplicate(2, 2).add_delay(0, 3).add_corrupt(1, 4);
  mpc::Config cfg{4, 64, true};
  cfg.integrity = true;
  cfg.audit = true;
  mpc::Engine eng(cfg);
  eng.set_fault_plan(&plan);
  for (std::size_t r = 0; r < 6; ++r) {
    for (std::size_t m = 0; m < 4; ++m) {
      eng.push(m, (m + 1) % 4, mix64(r, m, 0x5eed));
    }
    EXPECT_NO_THROW(eng.exchange());
  }
  EXPECT_GT(eng.metrics().faults_injected, 0U);
}

// ------------------------------------------------------- coupling: matching

struct MatchingObs {
  std::vector<double> x;
  std::vector<VertexId> cover;
  std::vector<std::uint32_t> freeze_iteration;
  std::size_t rounds;
  std::size_t total_words;
  std::size_t violations;
};

MatchingObs observe(const MatchingMpcResult& r) {
  return {r.x,
          r.cover,
          r.freeze_iteration,
          r.metrics.rounds,
          r.metrics.total_words,
          r.metrics.violations};
}

void expect_equal(const MatchingObs& a, const MatchingObs& b,
                  const std::string& label) {
  EXPECT_EQ(a.x, b.x) << label;
  EXPECT_EQ(a.cover, b.cover) << label;
  EXPECT_EQ(a.freeze_iteration, b.freeze_iteration) << label;
  EXPECT_EQ(a.rounds, b.rounds) << label;
  EXPECT_EQ(a.total_words, b.total_words) << label;
  EXPECT_EQ(a.violations, b.violations) << label;
}

TEST(CorruptionCoupling, MatchingBitIdenticalAcrossFamilies) {
  // gnp/rmat/star at 2^12..2^14 with corruption blanketing the early
  // rounds: detection + retransmission must make the run bit-identical to
  // the fault-free one, with the repair visible only in the new fields.
  struct Case {
    const char* family;
    std::size_t n;
  };
  for (const Case c : {Case{"gnp_sparse", 1ULL << 12},
                       Case{"rmat", 1ULL << 13},
                       Case{"star", 1ULL << 14}}) {
    const Graph g = make_family(c.family, c.n, 53);
    MatchingMpcOptions opt;
    opt.eps = 0.1;
    opt.seed = 53;
    const auto clean = matching_mpc(g, opt);
    ASSERT_GT(clean.metrics.rounds, 2U) << c.family;
    EXPECT_EQ(clean.metrics.corruptions_injected, 0U) << c.family;
    EXPECT_EQ(clean.metrics.corruptions_detected, 0U) << c.family;
    EXPECT_EQ(clean.metrics.words_retransmitted, 0U) << c.family;

    const auto plan = blanket_corrupts(clean.metrics.rounds, 2, 10);
    MatchingMpcOptions faulty = opt;
    faulty.fault_plan = &plan;
    faulty.integrity = true;
    const auto repaired = matching_mpc(g, faulty);

    expect_equal(observe(clean), observe(repaired), c.family);
    EXPECT_GT(repaired.metrics.corruptions_injected, 0U) << c.family;
    EXPECT_EQ(repaired.metrics.corruptions_detected,
              repaired.metrics.corruptions_injected)
        << c.family;
    EXPECT_GT(repaired.metrics.words_retransmitted, 0U) << c.family;
  }
}

TEST(CorruptionCoupling, RandomStormBitIdenticalWithIntegrity) {
  // A mixed storm (crashes, drops, dups, delays, corrupts) with recovery
  // and integrity both on: still bit-identical to the fault-free run.
  const Graph g = make_family("gnp_dense", 1 << 12, 59);
  MatchingMpcOptions opt;
  opt.eps = 0.1;
  opt.seed = 59;
  const auto clean = matching_mpc(g, opt);
  ASSERT_GT(clean.metrics.rounds, 4U);

  for (std::uint64_t storm = 0; storm < 3; ++storm) {
    const auto plan = fault::FaultPlan::random_storm(
        mix64(59, storm, 0x570f), /*num_machines=*/2,
        clean.metrics.rounds, 6);
    MatchingMpcOptions faulty = opt;
    faulty.fault_plan = &plan;
    faulty.integrity = true;
    const auto recovered = matching_mpc(g, faulty);
    expect_equal(observe(clean), observe(recovered),
                 "storm " + std::to_string(storm));
    EXPECT_EQ(recovered.metrics.corruptions_detected,
              recovered.metrics.corruptions_injected)
        << storm;
  }
}

TEST(CorruptionCoupling, BudgetEscalationStaysBitIdentical) {
  // Four corrupts of the same flush in one round: attempts 3 and 4 blow
  // the retransmit budget (2) and escalate to checkpoint rollback — the
  // output must still couple exactly.
  const Graph g = make_family("gnp_dense", 1 << 12, 61);
  MatchingMpcOptions opt;
  opt.eps = 0.1;
  opt.seed = 61;
  const auto clean = matching_mpc(g, opt);
  ASSERT_GT(clean.metrics.rounds, 8U);

  fault::FaultPlan plan;
  for (std::size_t r = 1; r < 8; ++r) {
    for (int k = 0; k < 4; ++k) plan.add_corrupt(0, r);
  }
  MatchingMpcOptions faulty = opt;
  faulty.fault_plan = &plan;
  faulty.integrity = true;
  const auto recovered = matching_mpc(g, faulty);
  expect_equal(observe(clean), observe(recovered), "escalation");
  EXPECT_GT(recovered.metrics.corruptions_injected, 0U);
  EXPECT_EQ(recovered.metrics.corruptions_detected,
            recovered.metrics.corruptions_injected);
  EXPECT_GT(recovered.metrics.rounds_replayed, 0U);
}

TEST(CorruptionCoupling, AuditModeObservesWithoutPerturbing) {
  // audit is a pure observer: clean + audited == clean, and a corrupted,
  // repaired, audited run still couples.
  const Graph g = make_family("gnp_sparse", 1 << 12, 67);
  MatchingMpcOptions opt;
  opt.eps = 0.1;
  opt.seed = 67;
  const auto clean = matching_mpc(g, opt);

  MatchingMpcOptions audited = opt;
  audited.audit = true;
  expect_equal(observe(clean), observe(matching_mpc(g, audited)), "audit");

  const auto plan = blanket_corrupts(clean.metrics.rounds, 2, 8);
  MatchingMpcOptions both = opt;
  both.fault_plan = &plan;
  both.integrity = true;
  both.audit = true;
  expect_equal(observe(clean), observe(matching_mpc(g, both)),
               "audit+integrity");
}

// ------------------------------------------------------------ coupling: MIS

TEST(CorruptionCoupling, MisBitIdenticalAcrossFamilies) {
  struct Case {
    const char* family;
    std::size_t n;
  };
  for (const Case c : {Case{"gnp_sparse", 1ULL << 12},
                       Case{"rmat", 1ULL << 13},
                       Case{"star", 1ULL << 14}}) {
    const Graph g = make_family(c.family, c.n, 71);
    MisMpcOptions opt;
    opt.seed = 71;
    const auto clean = mis_mpc(g, opt);
    ASSERT_GT(clean.metrics.rounds, 2U) << c.family;

    const auto plan = blanket_corrupts(clean.metrics.rounds, 2, 10);
    MisMpcOptions faulty = opt;
    faulty.fault_plan = &plan;
    faulty.integrity = true;
    const auto repaired = mis_mpc(g, faulty);

    EXPECT_EQ(clean.mis, repaired.mis) << c.family;
    EXPECT_EQ(clean.rank_phases, repaired.rank_phases) << c.family;
    EXPECT_EQ(clean.metrics.rounds, repaired.metrics.rounds) << c.family;
    EXPECT_EQ(clean.metrics.total_words, repaired.metrics.total_words)
        << c.family;
    EXPECT_EQ(repaired.metrics.corruptions_detected,
              repaired.metrics.corruptions_injected)
        << c.family;
    EXPECT_TRUE(is_maximal_independent_set(g, repaired.mis)) << c.family;
  }
}

TEST(CorruptionCoupling, UndetectedCorruptionOutOfRangeAtLeaderThrows) {
  // Integrity off: the flipped bits of this schedule reach the leader's
  // gather and push an edge endpoint past n. The leader must reject the
  // word rather than index with it (this run used to crash with SIGSEGV).
  const Graph g = make_family("gnp_sparse", 3000, 9);
  const fault::FaultPlan plan = fault::FaultPlan::parse("corrupt:1@3");
  MisMpcOptions opt;
  opt.seed = 9;
  opt.fault_plan = &plan;
  try {
    (void)mis_mpc(g, opt);
    ADD_FAILURE() << "expected fault::IntegrityError";
  } catch (const fault::IntegrityError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("mis_mpc"), std::string::npos) << what;
    EXPECT_NE(what.find("n = 3000"), std::string::npos) << what;
    EXPECT_NE(what.find("round"), std::string::npos) << what;
  }
}

// ------------------------------------------------- coupling: vertex cover

TEST(CorruptionCoupling, VertexCoverBitIdentical) {
  const Graph g = make_family("rmat", 1 << 12, 73);
  MatchingMpcOptions opt;
  opt.eps = 0.1;
  opt.seed = 73;
  const auto clean = minimum_vertex_cover_mpc(g, opt);
  ASSERT_GT(clean.rounds, 2U);

  const auto plan = blanket_corrupts(clean.rounds, 2, 10);
  MatchingMpcOptions faulty = opt;
  faulty.fault_plan = &plan;
  faulty.integrity = true;
  const auto repaired = minimum_vertex_cover_mpc(g, faulty);
  EXPECT_EQ(clean.cover, repaired.cover);
  EXPECT_EQ(clean.dual_certificate, repaired.dual_certificate);
  EXPECT_EQ(clean.rounds, repaired.rounds);
  EXPECT_TRUE(is_vertex_cover(g, repaired.cover));
}

// -------------------------------------------------- coupling: cclique MIS

TEST(CorruptionCoupling, CcliqueMisBitIdenticalWithIntegrity) {
  const Graph g = make_family("gnp_sparse", 1 << 12, 79);
  MisCcliqueOptions opt;
  opt.seed = 79;
  const auto clean = mis_cclique(g, opt);
  ASSERT_GT(clean.metrics.rounds, 2U);
  EXPECT_EQ(clean.metrics.corruptions_injected, 0U);

  // Blanket the whole run: cclique rounds alternate broadcast-only and
  // point-to-point traffic, so only some events inject.
  fault::FaultPlan plan;
  for (std::size_t r = 1; r + 1 < clean.metrics.rounds; ++r) {
    plan.add_corrupt(0, r);
    plan.add_corrupt(1, r);
  }
  MisCcliqueOptions faulty = opt;
  faulty.fault_plan = &plan;
  faulty.integrity = true;
  faulty.audit = true;
  const auto repaired = mis_cclique(g, faulty);

  EXPECT_EQ(clean.mis, repaired.mis);
  EXPECT_EQ(clean.rank_phases, repaired.rank_phases);
  EXPECT_EQ(clean.sparsified_iterations, repaired.sparsified_iterations);
  EXPECT_EQ(clean.metrics.rounds, repaired.metrics.rounds);
  EXPECT_EQ(clean.metrics.total_words, repaired.metrics.total_words);
  EXPECT_EQ(clean.metrics.lenzen_batches, repaired.metrics.lenzen_batches);
  EXPECT_EQ(repaired.metrics.corruptions_detected,
            repaired.metrics.corruptions_injected);
  EXPECT_TRUE(is_maximal_independent_set(g, repaired.mis));
}

TEST(CorruptionCoupling, CcliqueCrashStormWithIntegrityAndAudit) {
  const Graph g = make_family("rmat", 1 << 12, 83);
  MisCcliqueOptions opt;
  opt.seed = 83;
  const auto clean = mis_cclique(g, opt);
  ASSERT_GT(clean.metrics.rounds, 2U);

  const auto plan = fault::FaultPlan::random_storm(
      mix64(83, 0, 0x570f), /*num_machines=*/4, clean.metrics.rounds, 8);
  MisCcliqueOptions faulty = opt;
  faulty.fault_plan = &plan;
  faulty.integrity = true;
  faulty.audit = true;
  const auto recovered = mis_cclique(g, faulty);
  EXPECT_EQ(clean.mis, recovered.mis);
  EXPECT_EQ(clean.metrics.rounds, recovered.metrics.rounds);
  EXPECT_EQ(clean.metrics.total_words, recovered.metrics.total_words);
  EXPECT_GT(recovered.metrics.faults_injected, 0U);
  EXPECT_EQ(recovered.metrics.corruptions_detected,
            recovered.metrics.corruptions_injected);
}

}  // namespace
}  // namespace mpcg
