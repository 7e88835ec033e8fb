// Verified checkpoint generations: the registry's generation ring, rot
// injection (kCorruptCheckpoint), restore-time verification with fallback
// to an older generation, and the typed all-generations-bad error.
//
// Registry-level tests pin the ring semantics (a fallback restore hands
// back the older image bit-identically, including across a provider
// resize); engine-level tests pin the recovery contract (a run whose
// newest checkpoint image rots before a restore still ends bit-identical
// to the fault-free run, charging the extra replays and a
// checkpoint_fallbacks tick; a run that loses every generation dies with
// a CheckpointError naming the machine and round).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/mis_mpc.h"
#include "fault/checkpoint.h"
#include "fault/fault_plan.h"
#include "graph/validation.h"
#include "test_util.h"

namespace mpcg {
namespace {

using fault::CheckpointError;
using fault::CheckpointRegistry;
using testing::make_family;
using Word = CheckpointRegistry::Word;

// Registers `state` as a provider that serializes its words verbatim.
void register_vector(CheckpointRegistry& reg, const char* name,
                     std::vector<Word>& state) {
  reg.register_state(
      name,
      [&state](std::vector<Word>& out) {
        out.insert(out.end(), state.begin(), state.end());
      },
      [&state](fault::SectionReader& in) {
        const auto words = in.take_rest();
        state.assign(words.begin(), words.end());
      });
}

TEST(CheckpointGenerations, RingRetainsTwoGenerationsByDefault) {
  CheckpointRegistry reg;
  EXPECT_EQ(reg.generations(), CheckpointRegistry::kDefaultGenerations);
  EXPECT_EQ(CheckpointRegistry::kDefaultGenerations, 2U);
  std::vector<Word> state = {1, 2, 3};
  register_vector(reg, "s", state);
  reg.capture(1);
  reg.capture(2);
  reg.capture(3);
  EXPECT_EQ(reg.generations_held(), 2U);  // oldest evicted
  EXPECT_EQ(reg.generation_round(0), 3U);
  EXPECT_EQ(reg.generation_round(1), 2U);
  // Capacity 0 clamps to 1 (a ring must hold something).
  EXPECT_EQ(CheckpointRegistry(0).generations(), 1U);
}

TEST(CheckpointGenerations, CorruptGenerationFlipsDetectably) {
  CheckpointRegistry reg;
  std::vector<Word> state = {10, 20, 30, 40};
  register_vector(reg, "s", state);
  reg.capture(1);
  EXPECT_TRUE(reg.generation_ok(0));
  const std::size_t flipped = reg.corrupt_generation(0, 7, 1, 0);
  EXPECT_GE(flipped, 1U);
  EXPECT_LE(flipped, 3U);
  EXPECT_FALSE(reg.generation_ok(0));
}

TEST(CheckpointGenerations, FallbackRestoresOlderImageBitIdentically) {
  CheckpointRegistry reg;
  std::vector<Word> state = {1, 2, 3, 4, 5};
  register_vector(reg, "s", state);
  const std::vector<Word> older = state;
  reg.capture(3);
  state = {6, 7, 8, 9, 10};
  reg.capture(5);
  // Rot the newest image: restore() must skip it and reinstate the older
  // generation exactly.
  reg.corrupt_generation(0, 5, 0, 0);
  reg.restore();
  EXPECT_EQ(state, older);
  EXPECT_EQ(reg.fallback_restores(), 1U);
  EXPECT_EQ(reg.last_restored_round(), 3U);
}

TEST(CheckpointGenerations, FallbackSpansAProviderResize) {
  // Frontier-like providers grow and shrink between captures; the older
  // image has a different length and must still reinstate bit-identically.
  CheckpointRegistry reg;
  std::vector<Word> state = {11, 12, 13};
  register_vector(reg, "frontier", state);
  const std::vector<Word> older = state;
  reg.capture(2);
  state = {21, 22, 23, 24, 25, 26, 27};  // grew
  reg.capture(6);
  reg.corrupt_generation(0, 6, 0, 0);
  reg.restore();
  EXPECT_EQ(state, older);
  EXPECT_EQ(state.size(), 3U);
  EXPECT_EQ(reg.fallback_restores(), 1U);
}

TEST(CheckpointGenerations, AllGenerationsBadThrowsTypedError) {
  CheckpointRegistry reg;
  std::vector<Word> state = {1, 2, 3};
  register_vector(reg, "s", state);
  reg.capture(1);
  state = {4, 5, 6};
  reg.capture(2);
  reg.corrupt_generation(0, 1, 0, 0);
  reg.corrupt_generation(1, 2, 0, 0);
  try {
    reg.restore();
    FAIL() << "restore with every generation rotted did not throw";
  } catch (const CheckpointError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("all 2 retained generation(s) fail verification"),
              std::string::npos)
        << what;
    // The error names which provider image(s) rotted — the first thing an
    // operator needs to know when a restore dies.
    EXPECT_NE(what.find("rotted provider(s): s"), std::string::npos) << what;
  }
  // The live state was never touched by the failed restore.
  EXPECT_EQ(state, (std::vector<Word>{4, 5, 6}));
}

TEST(CheckpointGenerations, AllGenerationsBadNamesEveryRottedProvider) {
  // Multi-provider registry: the typed error's provider list must cover
  // every provider whose image fails verification, across the whole ring.
  CheckpointRegistry reg;
  std::vector<Word> alpha = {1, 2, 3, 4};
  std::vector<Word> beta = {5, 6, 7, 8};
  register_vector(reg, "alpha", alpha);
  register_vector(reg, "beta", beta);
  reg.capture(1);
  reg.capture(2);
  reg.corrupt_generation(0, 11, 0, 0);
  reg.corrupt_generation(1, 12, 0, 0);
  std::vector<std::string> rotted = reg.rotted_providers(0);
  for (const auto& name : reg.rotted_providers(1)) {
    if (std::find(rotted.begin(), rotted.end(), name) == rotted.end()) {
      rotted.push_back(name);
    }
  }
  ASSERT_FALSE(rotted.empty());
  try {
    reg.restore();
    FAIL() << "restore with every generation rotted did not throw";
  } catch (const CheckpointError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("rotted provider(s): "), std::string::npos) << what;
    for (const auto& name : rotted) {
      EXPECT_NE(what.find(name), std::string::npos)
          << what << " does not name rotted provider " << name;
    }
  }
}

TEST(CheckpointGenerations, RecaptureNewestRepairsRot) {
  CheckpointRegistry reg;
  std::vector<Word> state = {7, 8, 9};
  register_vector(reg, "s", state);
  reg.capture(4);
  reg.corrupt_generation(0, 4, 0, 0);
  ASSERT_FALSE(reg.generation_ok(0));
  reg.recapture_newest();
  EXPECT_TRUE(reg.generation_ok(0));
  EXPECT_EQ(reg.generation_round(0), 4U);  // round tag kept
  reg.restore();
  EXPECT_EQ(state, (std::vector<Word>{7, 8, 9}));
}

// ------------------------------------------------------- engine recovery

TEST(CheckpointGenerations, EngineFallbackRecoversBitIdentically) {
  // Round 2's crash seeds an older generation; in round 5 the newest image
  // rots *before* the crash forces a restore, so recovery must fall back,
  // charge the extra replays, and still end bit-identical to the
  // fault-free run.
  const Graph g = make_family("gnp_sparse", 512, 23);
  MisMpcOptions opt;
  opt.seed = 23;
  const auto clean = mis_mpc(g, opt);
  ASSERT_GT(clean.metrics.rounds, 6U);
  fault::FaultPlan plan;
  plan.add_crash(0, 2);
  plan.add_corrupt_checkpoint(1, 5);
  plan.add_crash(0, 5);
  MisMpcOptions faulty = opt;
  faulty.fault_plan = &plan;
  faulty.integrity = true;
  faulty.audit = true;
  const auto r = mis_mpc(g, faulty);
  EXPECT_EQ(r.mis, clean.mis);
  EXPECT_EQ(r.rank_phases, clean.rank_phases);
  EXPECT_EQ(r.metrics.rounds, clean.metrics.rounds);
  EXPECT_EQ(r.metrics.total_words, clean.metrics.total_words);
  EXPECT_GE(r.metrics.checkpoint_fallbacks, 1U);
  // The fallback owes the rounds between the generation tags (2 -> 5) on
  // top of the two crash replays.
  EXPECT_GE(r.metrics.rounds_replayed, 2U + 3U);
  EXPECT_TRUE(is_maximal_independent_set(g, r.mis));
}

TEST(CheckpointGenerations, EngineAllGenerationsBadNamesMachineAndRound) {
  // Two rot events in the restore round walk the whole ring (newest, then
  // the only older generation); the crash then finds no verified image.
  const Graph g = make_family("gnp_sparse", 512, 23);
  fault::FaultPlan plan;
  plan.add_crash(0, 2);
  plan.add_corrupt_checkpoint(0, 5);
  plan.add_corrupt_checkpoint(1, 5);
  plan.add_crash(0, 5);
  MisMpcOptions opt;
  opt.seed = 23;
  opt.fault_plan = &plan;
  opt.integrity = true;
  try {
    (void)mis_mpc(g, opt);
    FAIL() << "restore with every generation rotted did not throw";
  } catch (const CheckpointError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("machine 0"), std::string::npos) << what;
    EXPECT_NE(what.find("round 5"), std::string::npos) << what;
    EXPECT_NE(
        what.find("retained checkpoint generation(s) fail verification"),
        std::string::npos)
        << what;
    EXPECT_NE(what.find("rotted provider(s): "), std::string::npos) << what;
    EXPECT_NE(what.find("unrecoverable"), std::string::npos) << what;
  }
}

TEST(CheckpointGenerations, LatentRotIsHarmlessOnceSuperseded) {
  // Rot in a round with no restore is outrun by the next capture: the
  // rotted image ages out of the ring before anything reads it.
  const Graph g = make_family("gnp_sparse", 512, 29);
  MisMpcOptions opt;
  opt.seed = 29;
  const auto clean = mis_mpc(g, opt);
  ASSERT_GT(clean.metrics.rounds, 6U);
  fault::FaultPlan plan;
  plan.add_crash(0, 2);
  plan.add_corrupt_checkpoint(0, 4);  // latent: nothing restores here
  plan.add_crash(1, 6);
  MisMpcOptions faulty = opt;
  faulty.fault_plan = &plan;
  faulty.integrity = true;
  const auto r = mis_mpc(g, faulty);
  EXPECT_EQ(r.mis, clean.mis);
  EXPECT_EQ(r.metrics.rounds, clean.metrics.rounds);
  EXPECT_EQ(r.metrics.checkpoint_fallbacks, 0U);
}

}  // namespace
}  // namespace mpcg
