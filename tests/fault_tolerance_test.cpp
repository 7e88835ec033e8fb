// Fault-tolerant execution: crash injection, checkpoint/recovery, and
// reprovisioning.
//
// The load-bearing property is the *coupling*: a run with an injected
// crash schedule, recovered through the round-level checkpoint, must be
// bit-identical to the fault-free run — same x, same cover, same freeze
// iterations, same logical Metrics — with the recovery cost visible only
// in the dedicated overhead fields (rounds_replayed, words_resent,
// checkpoint_bytes, faults_injected).  That holds because every random
// decision in the library derives statelessly from mix64(seed, ·), so a
// replayed round re-derives exactly the bits the crashed round lost.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "core/matching_mpc.h"
#include "core/mis_mpc.h"
#include "fault/checkpoint.h"
#include "fault/fault_plan.h"
#include "fault/reprovision.h"
#include "graph/validation.h"
#include "mpc/engine.h"
#include "test_util.h"
#include "util/rng.h"

namespace mpcg {
namespace {

using testing::make_family;

// ---------------------------------------------------------------- FaultPlan

TEST(FaultPlan, ParseRoundTripsThroughToString) {
  const auto plan = fault::FaultPlan::parse("crash:3@7,drop:2@5,dup:1@9,"
                                            "delay:0@2");
  EXPECT_EQ(plan.size(), 4U);
  EXPECT_EQ(plan.crash_count(), 1U);
  EXPECT_EQ(plan.last_round(), 9U);
  const auto again = fault::FaultPlan::parse(plan.to_string());
  ASSERT_EQ(again.size(), plan.size());
  for (std::size_t i = 0; i < plan.size(); ++i) {
    EXPECT_EQ(again.events()[i].round, plan.events()[i].round);
    EXPECT_EQ(again.events()[i].machine, plan.events()[i].machine);
    EXPECT_EQ(again.events()[i].kind, plan.events()[i].kind);
  }
}

TEST(FaultPlan, ParseRejectsMalformedSpecs) {
  EXPECT_THROW((void)fault::FaultPlan::parse("crash:1"),
               std::invalid_argument);
  EXPECT_THROW((void)fault::FaultPlan::parse("melt:1@2"),
               std::invalid_argument);
  EXPECT_THROW((void)fault::FaultPlan::parse("crash:x@2"),
               std::invalid_argument);
}

// Asserts that parsing `spec` throws std::invalid_argument whose message
// contains `needle` — the error must name the offending token.
void expect_parse_error(const std::string& spec, const std::string& needle) {
  try {
    (void)fault::FaultPlan::parse(spec);
    FAIL() << "parse(\"" << spec << "\") did not throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "message \"" << e.what() << "\" lacks \"" << needle << "\" for \""
        << spec << "\"";
  }
}

TEST(FaultPlan, ParseNamesTheOffendingToken) {
  // Truncated specs: missing round, missing machine, empty fields.
  expect_parse_error("crash:1", "crash:1");
  expect_parse_error("corrupt:2", "corrupt:2");
  expect_parse_error("drop@4", "drop@4");
  expect_parse_error("crash:@2", "crash:@2");
  expect_parse_error("crash:1@", "crash:1@");
  // Overflowing numerals must be rejected, not wrapped.
  expect_parse_error("crash:1@999999999999999999999999",
                     "999999999999999999999999");
  expect_parse_error("corrupt:888888888888888888888888@1",
                     "888888888888888888888888");
  // Duplicate (kind, machine, round) triples are schedule bugs.
  expect_parse_error("crash:1@2,drop:0@3,crash:1@2", "duplicate");
}

TEST(FaultPlan, RandomStormRoundTripsThroughParse) {
  // Property test: every seeded storm is duplicate-free, in-range, and
  // survives to_string()/parse() verbatim.
  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    const auto storm =
        fault::FaultPlan::random_storm(mix64(seed, 0, 0x570f), 6, 24, 10);
    EXPECT_EQ(storm.size(), 10U) << seed;
    for (const auto& ev : storm.events()) {
      EXPECT_LT(ev.machine, 6U) << seed;
      EXPECT_LT(ev.round, 24U) << seed;
    }
    const auto again = fault::FaultPlan::parse(storm.to_string());
    EXPECT_EQ(again.to_string(), storm.to_string()) << seed;
    ASSERT_EQ(again.size(), storm.size()) << seed;
    for (std::size_t i = 0; i < storm.size(); ++i) {
      EXPECT_EQ(again.events()[i].round, storm.events()[i].round) << seed;
      EXPECT_EQ(again.events()[i].machine, storm.events()[i].machine)
          << seed;
      EXPECT_EQ(again.events()[i].kind, storm.events()[i].kind) << seed;
    }
  }
  // Seed-determinism and seed-sensitivity.
  const auto a = fault::FaultPlan::random_storm(7, 4, 16, 8);
  const auto b = fault::FaultPlan::random_storm(7, 4, 16, 8);
  const auto c = fault::FaultPlan::random_storm(8, 4, 16, 8);
  EXPECT_EQ(a.to_string(), b.to_string());
  EXPECT_NE(a.to_string(), c.to_string());
}

TEST(FaultPlan, RandomStormMixesFaultKinds) {
  // Over a few seeds the storm generator must exercise every kind,
  // including payload corruption.
  std::size_t corrupt = 0;
  std::size_t crash = 0;
  std::size_t other = 0;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const auto storm = fault::FaultPlan::random_storm(seed, 8, 32, 12);
    corrupt += storm.corrupt_count();
    crash += storm.crash_count();
    other += storm.size() - storm.corrupt_count() - storm.crash_count();
  }
  EXPECT_GT(corrupt, 0U);
  EXPECT_GT(crash, 0U);
  EXPECT_GT(other, 0U);
}

TEST(FaultPlan, EventsAtGroupsByRoundInInsertionOrder) {
  fault::FaultPlan plan;
  plan.add_drop(1, 4).add_crash(0, 2).add_delay(2, 4);
  EXPECT_EQ(plan.events_at(3).size(), 0U);
  ASSERT_EQ(plan.events_at(2).size(), 1U);
  EXPECT_EQ(plan.events_at(2)[0].machine, 0U);
  ASSERT_EQ(plan.events_at(4).size(), 2U);
  EXPECT_EQ(plan.events_at(4)[0].kind, fault::FaultKind::kDropFlush);
  EXPECT_EQ(plan.events_at(4)[1].kind, fault::FaultKind::kDelayFlush);
}

TEST(FaultPlan, RandomCrashesAreSeedDeterministic) {
  const auto a = fault::FaultPlan::random_crashes(42, 8, 20, 5);
  const auto b = fault::FaultPlan::random_crashes(42, 8, 20, 5);
  EXPECT_EQ(a.to_string(), b.to_string());
  EXPECT_EQ(a.size(), 5U);
  EXPECT_EQ(a.crash_count(), 5U);
  for (const auto& ev : a.events()) {
    EXPECT_LT(ev.machine, 8U);
    EXPECT_LT(ev.round, 20U);
  }
  const auto c = fault::FaultPlan::random_crashes(43, 8, 20, 5);
  EXPECT_NE(a.to_string(), c.to_string());
}

// ----------------------------------------------------- CheckpointRegistry

TEST(CheckpointRegistry, CaptureRestoreRoundTripsProviders) {
  fault::CheckpointRegistry reg;
  std::vector<std::uint64_t> state_a = {1, 2, 3};
  double state_b = 0.5;
  reg.register_state(
      "a",
      [&](std::vector<fault::CheckpointRegistry::Word>& out) {
        out.insert(out.end(), state_a.begin(), state_a.end());
      },
      [&](fault::SectionReader& in) {
        const auto words = in.take_rest();
        state_a.assign(words.begin(), words.end());
      });
  reg.register_state(
      "b",
      [&](std::vector<fault::CheckpointRegistry::Word>& out) {
        fault::CheckpointRegistry::Word w;
        static_assert(sizeof w == sizeof state_b);
        __builtin_memcpy(&w, &state_b, sizeof w);
        out.push_back(w);
      },
      [&](fault::SectionReader& in) {
        const fault::CheckpointRegistry::Word w = in.take();
        __builtin_memcpy(&state_b, &w, sizeof state_b);
      });
  EXPECT_EQ(reg.num_providers(), 2U);
  EXPECT_FALSE(reg.has_checkpoint());
  EXPECT_EQ(reg.capture(), 4U);
  EXPECT_TRUE(reg.has_checkpoint());

  state_a = {9, 9};
  state_b = -3.25;
  reg.restore();
  EXPECT_EQ(state_a, (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(state_b, 0.5);
  EXPECT_EQ(reg.captures(), 1U);
  EXPECT_EQ(reg.restores(), 1U);
}

TEST(CheckpointRegistry, IncrementalCapturesChargeDirtyRangesOnly) {
  // Repeated captures of mostly-unchanged state are charged by dirty
  // range (2 header words + payload per maximal dirty stretch), not by
  // full size; restore stays bit-identical either way.
  fault::CheckpointRegistry reg;
  std::vector<std::uint64_t> vec(64);
  for (std::size_t i = 0; i < vec.size(); ++i) vec[i] = i * 3 + 1;
  std::uint64_t scalar = 99;
  reg.register_state(
      "vec",
      [&](std::vector<fault::CheckpointRegistry::Word>& out) {
        out.insert(out.end(), vec.begin(), vec.end());
      },
      [&](fault::SectionReader& in) {
        const auto words = in.take_rest();
        vec.assign(words.begin(), words.end());
      });
  reg.register_state(
      "scalar",
      [&](std::vector<fault::CheckpointRegistry::Word>& out) {
        out.push_back(scalar);
      },
      [&](fault::SectionReader& in) { scalar = in.take(); });

  // First capture is a full serialization of both providers.
  EXPECT_EQ(reg.capture(), 65U);
  EXPECT_EQ(reg.last_capture_words(), 65U);
  EXPECT_EQ(reg.delta_captures(), 0U);

  // One dirty word: 2 header + 1 payload; the untouched scalar is free.
  vec[10] ^= 0xff;
  EXPECT_EQ(reg.capture(), 3U);
  EXPECT_EQ(reg.delta_captures(), 1U);

  // Two separated dirty words: two stretches, (2+1) + (2+1).
  vec[5] += 1;
  vec[50] += 1;
  EXPECT_EQ(reg.capture(), 6U);
  EXPECT_EQ(reg.delta_captures(), 2U);

  // Nothing changed: a capture costs nothing.
  EXPECT_EQ(reg.capture(), 0U);
  EXPECT_EQ(reg.delta_captures(), 3U);

  // A resize falls back to a full save of that provider.
  vec.resize(80, 7);
  EXPECT_EQ(reg.capture(), 80U);
  EXPECT_EQ(reg.delta_captures(), 3U);

  // Restore after a delta capture is still bit-identical.
  const auto want_vec = vec;
  const auto want_scalar = scalar;
  for (auto& w : vec) w = 0;
  scalar = 0;
  reg.restore();
  EXPECT_EQ(vec, want_vec);
  EXPECT_EQ(scalar, want_scalar);
}

TEST(CheckpointRegistry, DenseDirtStillCapsAtFullSaveCost) {
  // When every word changes, the dirty-range encoding must cost no more
  // than the full save it replaces.
  fault::CheckpointRegistry reg;
  std::vector<std::uint64_t> vec(32, 1);
  reg.register_state(
      "vec",
      [&](std::vector<fault::CheckpointRegistry::Word>& out) {
        out.insert(out.end(), vec.begin(), vec.end());
      },
      [&](fault::SectionReader& in) {
        const auto words = in.take_rest();
        vec.assign(words.begin(), words.end());
      });
  EXPECT_EQ(reg.capture(), 32U);
  for (auto& w : vec) w += 1;
  EXPECT_LE(reg.capture(), 32U);
  for (auto& w : vec) w = 0;
  reg.restore();
  EXPECT_EQ(vec, std::vector<std::uint64_t>(32, 2));
}

// ------------------------------------------------- engine Snapshot/restore

TEST(EngineSnapshot, RestoreReplaysTheRoundIdentically) {
  mpc::Engine eng(mpc::Config{3, 64, true});
  eng.push(0, 1, 11);
  eng.push(0, 1, 12);
  eng.push(2, 1, 13);
  eng.push(1, 0, 14);
  const auto snap = eng.snapshot();
  EXPECT_GT(snap.words(), 0U);

  eng.exchange();
  std::vector<mpc::Word> first;
  eng.inbox_view(1).append_to(first);
  const auto rounds_after = eng.metrics().rounds;

  eng.restore(snap);
  EXPECT_EQ(eng.metrics().rounds, rounds_after - 1);
  eng.exchange();
  std::vector<mpc::Word> second;
  eng.inbox_view(1).append_to(second);
  EXPECT_EQ(first, second);
  EXPECT_EQ(eng.metrics().rounds, rounds_after);
}

// ----------------------------------------------------------- coupling runs

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

TEST(CrashRecoveryCoupling, MatchingBitIdenticalAcrossFamilies) {
  // gnp/rmat/star at 2^12..2^14 with a seeded random crash schedule: the
  // recovered run must match the fault-free run exactly, and the overhead
  // metrics must show the recovery actually happened.
  struct Case {
    const char* family;
    std::size_t n;
  };
  for (const Case c : {Case{"gnp_sparse", 1ULL << 12},
                       Case{"rmat", 1ULL << 13},
                       Case{"star", 1ULL << 14}}) {
    const Graph g = make_family(c.family, c.n, 11);
    MatchingMpcOptions opt;
    opt.eps = 0.1;
    opt.seed = 11;
    const auto clean = matching_mpc(g, opt);
    ASSERT_GT(clean.metrics.rounds, 0U) << c.family;

    const auto plan = fault::FaultPlan::random_crashes(
        mix64(11, c.n, 0xfa17), /*num_machines=*/4, clean.metrics.rounds, 3);
    MatchingMpcOptions faulty = opt;
    faulty.fault_plan = &plan;
    const auto recovered = matching_mpc(g, faulty);

    expect_equal(observe(clean), observe(recovered), c.family);
    EXPECT_GT(recovered.metrics.faults_injected, 0U) << c.family;
    EXPECT_EQ(recovered.metrics.rounds_replayed,
              recovered.metrics.faults_injected)
        << c.family;  // every applied event here is a crash
    EXPECT_GT(recovered.metrics.checkpoint_bytes, 0U) << c.family;
    EXPECT_EQ(clean.metrics.rounds_replayed, 0U) << c.family;
    EXPECT_EQ(clean.metrics.checkpoint_bytes, 0U) << c.family;
  }
}

TEST(CrashRecoveryCoupling, MisBitIdenticalAcrossFamilies) {
  struct Case {
    const char* family;
    std::size_t n;
  };
  for (const Case c : {Case{"gnp_sparse", 1ULL << 12},
                       Case{"rmat", 1ULL << 13},
                       Case{"star", 1ULL << 14}}) {
    const Graph g = make_family(c.family, c.n, 23);
    MisMpcOptions opt;
    opt.seed = 23;
    const auto clean = mis_mpc(g, opt);
    ASSERT_GT(clean.metrics.rounds, 0U) << c.family;

    const auto plan = fault::FaultPlan::random_crashes(
        mix64(23, c.n, 0xfa17), /*num_machines=*/2, clean.metrics.rounds, 3);
    MisMpcOptions faulty = opt;
    faulty.fault_plan = &plan;
    const auto recovered = mis_mpc(g, faulty);

    EXPECT_EQ(clean.mis, recovered.mis) << c.family;
    EXPECT_EQ(clean.rank_phases, recovered.rank_phases) << c.family;
    EXPECT_EQ(clean.metrics.rounds, recovered.metrics.rounds) << c.family;
    EXPECT_EQ(clean.metrics.total_words, recovered.metrics.total_words)
        << c.family;
    EXPECT_GT(recovered.metrics.faults_injected, 0U) << c.family;
    EXPECT_GT(recovered.metrics.checkpoint_bytes, 0U) << c.family;
    EXPECT_TRUE(is_maximal_independent_set(g, recovered.mis)) << c.family;
  }
}

TEST(CrashRecoveryCoupling, DropDuplicateDelayAllRecoverExactly) {
  const Graph g = make_family("gnp_dense", 1 << 12, 31);
  MatchingMpcOptions opt;
  opt.eps = 0.1;
  opt.seed = 31;
  const auto clean = matching_mpc(g, opt);
  ASSERT_GT(clean.metrics.rounds, 6U);

  fault::FaultPlan plan;
  plan.add_drop(0, 2)
      .add_duplicate(1, 3)
      .add_delay(0, 4)
      .add_crash(1, 5)
      .add_drop(1, clean.metrics.rounds - 1);
  MatchingMpcOptions faulty = opt;
  faulty.fault_plan = &plan;
  const auto recovered = matching_mpc(g, faulty);

  expect_equal(observe(clean), observe(recovered), "mixed-kinds");
  EXPECT_GT(recovered.metrics.faults_injected, 0U);
  // Every drop/crash replays its round (delay stalls one as well); the
  // word-level retransmission accounting is pinned by
  // WordsResentTracksCrashTraffic, whose schedule guarantees traffic.
  EXPECT_GT(recovered.metrics.rounds_replayed, 0U);
}

TEST(CrashRecoveryCoupling, WordsResentTracksCrashTraffic) {
  // A crash at a traffic-carrying round must charge retransmission words.
  const Graph g = make_family("gnp_dense", 1 << 12, 37);
  MatchingMpcOptions opt;
  opt.eps = 0.1;
  opt.seed = 37;
  const auto clean = matching_mpc(g, opt);
  fault::FaultPlan plan;
  for (std::size_t r = 1; r + 1 < clean.metrics.rounds && r < 8; ++r) {
    plan.add_crash(0, r);
  }
  MatchingMpcOptions faulty = opt;
  faulty.fault_plan = &plan;
  const auto recovered = matching_mpc(g, faulty);
  expect_equal(observe(clean), observe(recovered), "crash-traffic");
  EXPECT_GT(recovered.metrics.words_resent, 0U);
}

TEST(CrashWithoutRecovery, DarkMachinesDivergeTheRun) {
  // fault_recovery = false: crashed machines lose their flush and their
  // inbound round for good. Crashing a machine across many early rounds
  // must perturb at least one observable of the run (the coupling tests
  // above show recovery is what restores identity).
  const Graph g = make_family("gnp_dense", 1 << 12, 41);
  MatchingMpcOptions opt;
  opt.eps = 0.1;
  opt.seed = 41;
  opt.strict = false;  // a dark machine may trip budget accounting
  const auto clean = matching_mpc(g, opt);

  fault::FaultPlan plan;
  for (std::size_t r = 0; r < clean.metrics.rounds; ++r) {
    plan.add_crash(0, r);
    plan.add_crash(1, r);
  }
  MatchingMpcOptions faulty = opt;
  faulty.fault_plan = &plan;
  faulty.fault_recovery = false;
  const auto dark = matching_mpc(g, faulty);

  const bool diverged = clean.x != dark.x || clean.cover != dark.cover ||
                        clean.freeze_iteration != dark.freeze_iteration ||
                        clean.metrics.total_words != dark.metrics.total_words;
  EXPECT_TRUE(diverged);
  EXPECT_EQ(dark.metrics.rounds_replayed, 0U);
  EXPECT_GT(dark.metrics.faults_injected, 0U);
}

// ------------------------------------------------------------- budgets

TEST(CrashBudget, ExhaustionThrowsFaultBudgetError) {
  const Graph g = make_family("gnp_dense", 1 << 10, 43);
  MatchingMpcOptions opt;
  opt.eps = 0.1;
  opt.seed = 43;
  const auto clean = matching_mpc(g, opt);
  ASSERT_GT(clean.metrics.rounds, 3U);

  fault::FaultPlan plan;
  plan.crash_budget = 1;
  plan.add_crash(0, 1).add_crash(0, 2).add_crash(0, 3);
  MatchingMpcOptions faulty = opt;
  faulty.fault_plan = &plan;
  try {
    (void)matching_mpc(g, faulty);
    FAIL() << "expected FaultBudgetError";
  } catch (const fault::FaultBudgetError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("crash budget of 1 exhausted"), std::string::npos)
        << what;
  }
}

// ------------------------------------------------------------ reprovision

TEST(Reprovision, ScalesWordsUntilStrictRunFits) {
  const Graph g = make_family("gnp_dense", 600, 47);
  const auto outcome = fault::run_with_reprovision(
      fault::ReprovisionPolicy{},
      [&](std::size_t scale) {
        MisMpcOptions opt;
        opt.seed = 47;
        opt.words_per_machine = 600 * scale;  // scale 1 cannot fit n=600
        opt.num_machines = 4;
        return mis_mpc(g, opt);
      },
      [](const MisMpcResult& r) { return r.metrics.violations == 0; });
  ASSERT_TRUE(outcome.ok());
  EXPECT_GT(outcome.scale, 1U);
  EXPECT_GT(outcome.attempts, 1U);
  EXPECT_FALSE(outcome.failures.empty());
  EXPECT_TRUE(is_maximal_independent_set(g, outcome.result->mis));
}

TEST(Reprovision, GivesUpAfterBoundedAttempts) {
  std::size_t calls = 0;
  const auto outcome = fault::run_with_reprovision(
      fault::ReprovisionPolicy{.max_attempts = 3},
      [&](std::size_t) -> int {
        ++calls;
        throw mpc::CapacityError("always too small");
      },
      [](int) { return true; });
  EXPECT_FALSE(outcome.ok());
  EXPECT_EQ(calls, 3U);
  EXPECT_EQ(outcome.attempts, 3U);
  EXPECT_EQ(outcome.failures.size(), 3U);
}

TEST(Reprovision, BlownCrashBudgetCountsAsFailedAttempt) {
  const Graph g = make_family("gnp_dense", 1 << 10, 53);
  fault::FaultPlan plan;
  plan.crash_budget = 0;
  plan.add_crash(0, 1);
  std::size_t attempts_seen = 0;
  const auto outcome = fault::run_with_reprovision(
      fault::ReprovisionPolicy{.max_attempts = 2},
      [&](std::size_t) {
        ++attempts_seen;
        MatchingMpcOptions opt;
        opt.eps = 0.1;
        opt.seed = 53;
        opt.fault_plan = &plan;
        return matching_mpc(g, opt);
      },
      [](const MatchingMpcResult&) { return true; });
  // More memory cannot buy back a blown crash budget: every attempt fails.
  EXPECT_FALSE(outcome.ok());
  EXPECT_EQ(attempts_seen, 2U);
  for (const std::string& f : outcome.failures) {
    EXPECT_NE(f.find("crash budget"), std::string::npos) << f;
  }
}

}  // namespace
}  // namespace mpcg
