// fault::RoundSupervisor driven through a fake RoundAdapter: the escalation
// ladders (retransmit -> rollback, crash budget), verified registry restore
// with generation fallback, the ordering of delivery and dark-machine
// clearing, out-of-range events, and the durable safe-point cycle — all
// checked as the sequence of hook calls and the tally the supervisor
// charges, with no engine in the loop.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "fault/checkpoint.h"
#include "fault/fault_plan.h"
#include "fault/supervisor.h"
#include "test_util.h"

namespace mpcg {
namespace {

using fault::FaultPlan;
using fault::RoundSupervisor;
using Word = std::uint64_t;

/// Records every hook call as one log line and accumulates the tally.
class FakeEngine final : public fault::RoundAdapter {
 public:
  std::vector<std::string> log;
  fault::FaultTally tally;
  std::size_t staged = 7;
  std::size_t received = 3;
  std::size_t stream_words = 5;
  std::size_t crashes_on_disk = 0;

  std::size_t snapshot_staging() override {
    log.push_back("snapshot");
    return 11;
  }
  void restore_staging() override { log.push_back("restore"); }
  void drop_flush(std::size_t m) override { note("drop", m); }
  void duplicate_flush(std::size_t m) override { note("dup", m); }
  void delay_flush(std::size_t m) override { note("delay", m); }
  std::size_t corrupt_stream(std::size_t m, std::size_t,
                             std::size_t) override {
    note("corrupt", m);
    return 2;
  }
  bool stream_ok(std::size_t) const override { return false; }
  std::size_t retransmit_stream(std::size_t m) override {
    note("retransmit", m);
    return stream_words;
  }
  std::size_t corrupt_store(std::size_t m, std::size_t, std::size_t) override {
    note("rot", m);
    return 1;
  }
  bool store_ok() const override { return false; }
  std::size_t repair_store() override {
    log.push_back("repair");
    return 4;
  }
  std::size_t staged_words(std::size_t) const override { return staged; }
  std::size_t received_words(std::size_t) const override { return received; }
  void deliver() override { log.push_back("deliver"); }
  void clear_delivered(std::size_t m) override { note("clear", m); }
  void save_engine_section(std::vector<Word>& out,
                           std::size_t crashes) const override {
    out = {42, crashes};
  }
  std::size_t install_engine_section(fault::SectionReader& in) override {
    EXPECT_EQ(in.take(), 42U);
    crashes_on_disk = static_cast<std::size_t>(in.take());
    return crashes_on_disk;
  }
  void account(const fault::FaultTally& t) override {
    fault::add_tally(tally, t);
  }

 private:
  void note(const char* what, std::size_t m) {
    log.push_back(std::string(what) + " " + std::to_string(m));
  }
};

using Log = std::vector<std::string>;

void run_round(RoundSupervisor& sup, FakeEngine& fake, std::size_t round) {
  sup.run_faulty_round(fake, sup.plan()->events_at(round), round);
}

TEST(RoundSupervisor, CorruptionRetransmitsUpToTheBudgetThenRollsBack) {
  FaultPlan plan;
  plan.retransmit_budget = 2;
  for (int i = 0; i < 3; ++i) plan.add_corrupt(1, 4);
  RoundSupervisor sup(4, /*integrity=*/true, "machine", "payload store");
  sup.set_fault_plan(&plan, nullptr, /*recover=*/true);
  FakeEngine fake;
  run_round(sup, fake, 4);
  EXPECT_EQ(fake.log,
            (Log{"snapshot", "corrupt 1", "retransmit 1", "corrupt 1",
                 "retransmit 1", "corrupt 1", "restore", "retransmit 1",
                 "deliver"}));
  EXPECT_EQ(fake.tally.faults_injected, 3U);
  EXPECT_EQ(fake.tally.corruptions_injected, 3U);
  EXPECT_EQ(fake.tally.corruptions_detected, 3U);
  EXPECT_EQ(fake.tally.words_retransmitted, 3 * fake.stream_words);
  EXPECT_EQ(fake.tally.rounds_replayed, 1U);  // the third one rolled back
  EXPECT_EQ(fake.tally.checkpoint_bytes, 11 * sizeof(Word));
}

TEST(RoundSupervisor, StoreRotRepairsUpToTheBudgetThenRollsBack) {
  FaultPlan plan;
  plan.retransmit_budget = 1;
  plan.add_corrupt_store(2, 0).add_corrupt_store(2, 0);
  RoundSupervisor sup(4, true, "player", "broadcast store");
  sup.set_fault_plan(&plan, nullptr, true);
  FakeEngine fake;
  run_round(sup, fake, 0);
  EXPECT_EQ(fake.log, (Log{"snapshot", "rot 2", "repair", "rot 2", "restore",
                           "deliver"}));
  EXPECT_EQ(fake.tally.store_corruptions_detected, 2U);
  EXPECT_EQ(fake.tally.store_words_repaired, 4U);
  EXPECT_EQ(fake.tally.rounds_replayed, 1U);
}

TEST(RoundSupervisor, BlownBudgetWithoutRecoveryThrowsIntegrityError) {
  FaultPlan plan;
  plan.retransmit_budget = 1;
  plan.add_corrupt(0, 6).add_corrupt(0, 6);
  RoundSupervisor sup(4, true, "machine", "payload store");
  sup.set_fault_plan(&plan, nullptr, /*recover=*/false);
  FakeEngine fake;
  try {
    run_round(sup, fake, 6);
    FAIL() << "a blown retransmit budget with recovery off must throw";
  } catch (const fault::IntegrityError& e) {
    EXPECT_STREQ(e.what(),
                 "machine 0 flush corrupted in round 6: retransmit budget of "
                 "1 exhausted and recovery is off");
  }
  // Without recovery nothing is captured, and nothing was delivered.
  EXPECT_EQ(fake.log, (Log{"corrupt 0", "retransmit 0", "corrupt 0"}));

  FaultPlan store;
  store.retransmit_budget = 0;
  store.add_corrupt_store(3, 1);
  RoundSupervisor cc(4, true, "player", "broadcast store");
  cc.set_fault_plan(&store, nullptr, false);
  try {
    run_round(cc, fake, 1);
    FAIL() << "store rot past the budget with recovery off must throw";
  } catch (const fault::IntegrityError& e) {
    EXPECT_STREQ(e.what(),
                 "player 3 broadcast store corrupted in round 1: retransmit "
                 "budget of 0 exhausted and recovery is off");
  }
}

TEST(RoundSupervisor, CrashBudgetErrorNamesMachineRoundAndBudget) {
  FaultPlan plan;
  plan.crash_budget = 1;
  plan.add_crash(0, 2).add_crash(1, 2);
  RoundSupervisor sup(4, false, "machine", "payload store");
  sup.set_fault_plan(&plan, nullptr, true);
  FakeEngine fake;
  try {
    run_round(sup, fake, 2);
    FAIL() << "the second crash exceeds a budget of 1";
  } catch (const fault::FaultBudgetError& e) {
    EXPECT_STREQ(e.what(),
                 "machine 1 crashed in round 2: crash budget of 1 exhausted");
  }
  EXPECT_EQ(sup.crashes_recovered(), 1U);
  try {
    sup.charge_crash(5, 9, " (lenzen batch)");
    FAIL() << "the budget is already spent";
  } catch (const fault::FaultBudgetError& e) {
    EXPECT_STREQ(e.what(),
                 "machine 5 crashed in round 9 (lenzen batch): crash budget "
                 "of 1 exhausted");
  }
}

TEST(RoundSupervisor, RecoveredCrashResendsAndRefetches) {
  FaultPlan plan;
  plan.add_crash(2, 0);
  RoundSupervisor sup(4, false, "machine", "payload store");
  sup.set_fault_plan(&plan, nullptr, true);
  FakeEngine fake;
  run_round(sup, fake, 0);
  EXPECT_EQ(fake.log, (Log{"snapshot", "drop 2", "restore", "deliver"}));
  EXPECT_EQ(fake.tally.words_resent, fake.staged + fake.received);
  EXPECT_EQ(fake.tally.rounds_replayed, 1U);
  EXPECT_EQ(sup.crashes_recovered(), 1U);
}

TEST(RoundSupervisor, CheckpointRotFallsBackAndChargesTheReplayGap) {
  fault::CheckpointRegistry reg;
  std::vector<Word> state = {1, 2, 3};
  reg.register_state(
      "state",
      [&state](std::vector<Word>& out) {
        out.insert(out.end(), state.begin(), state.end());
      },
      [&state](fault::SectionReader& in) {
        const auto words = in.take_rest();
        state.assign(words.begin(), words.end());
      });
  FaultPlan plan;
  plan.add_crash(0, 3);
  plan.add_corrupt_checkpoint(0, 7).add_crash(0, 7);
  RoundSupervisor sup(2, false, "machine", "payload store");
  sup.set_fault_plan(&plan, &reg, true);
  FakeEngine fake;
  run_round(sup, fake, 3);  // retains a generation tagged 3
  state = {4, 5, 6};
  run_round(sup, fake, 7);  // captures round 7, rots it, then crashes
  // Round 7's newest image rotted, so the restore falls back to the
  // generation of round 3 and charges 7 - 3 replayed rounds on top of the
  // crash's own replay (one per crash).
  EXPECT_EQ(fake.tally.checkpoint_fallbacks, 1U);
  EXPECT_EQ(fake.tally.rounds_replayed, 1U + (7U - 3U) + 1U);
  // Replay from round 3 reconstructs the live state, which is what the
  // providers hold afterwards.
  EXPECT_EQ(state, (std::vector<Word>{4, 5, 6}));
  EXPECT_TRUE(reg.generation_ok(0));

  // Rot every retained generation and crash again: unrecoverable, and
  // the error names the machine, the round and the rotted provider.
  FaultPlan all;
  all.add_corrupt_checkpoint(1, 9).add_corrupt_checkpoint(1, 9);
  all.add_crash(1, 9);
  sup.set_fault_plan(&all, &reg, true);
  try {
    run_round(sup, fake, 9);
    FAIL() << "every generation rotted";
  } catch (const fault::CheckpointError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("machine 1: all 2 retained"), std::string::npos)
        << what;
    EXPECT_NE(what.find("in round 9"), std::string::npos) << what;
    EXPECT_NE(what.find("rotted provider(s): state"), std::string::npos)
        << what;
  }
}

TEST(RoundSupervisor, DarkMachinesAreClearedOnlyAfterDelivery) {
  FaultPlan plan;
  plan.add_crash(2, 0).add_duplicate(1, 0).add_delay(3, 0).add_drop(0, 0);
  RoundSupervisor sup(4, false, "machine", "payload store");
  sup.set_fault_plan(&plan, nullptr, /*recover=*/false);
  FakeEngine fake;
  run_round(sup, fake, 0);
  EXPECT_EQ(fake.log, (Log{"drop 2", "dup 1", "delay 3", "drop 0",
                           "deliver", "clear 2"}));
  EXPECT_EQ(fake.tally.faults_injected, 4U);
  EXPECT_EQ(fake.tally.rounds_replayed, 0U);
  EXPECT_EQ(fake.tally.words_resent, 0U);
  EXPECT_EQ(sup.crashes_recovered(), 0U);
}

TEST(RoundSupervisor, EventsBeyondTheMachineCountAreNeitherAppliedNorCounted) {
  FaultPlan plan;
  plan.add_crash(4, 1).add_corrupt(9, 1).add_corrupt_store(4, 1);
  plan.add_drop(1, 1);
  RoundSupervisor sup(4, true, "machine", "payload store");
  sup.set_fault_plan(&plan, nullptr, true);
  FakeEngine fake;
  run_round(sup, fake, 1);
  EXPECT_EQ(fake.log, (Log{"snapshot", "drop 1", "restore", "deliver"}));
  EXPECT_EQ(fake.tally.faults_injected, 1U);
  EXPECT_EQ(fake.tally.corruptions_injected, 0U);
  EXPECT_EQ(fake.tally.store_corruptions_injected, 0U);
  EXPECT_EQ(sup.crashes_recovered(), 0U);
}

TEST(RoundSupervisor, SafePointsPersistAndResumeTheEngineSection) {
  testing::TempDir td;
  fault::DurableOptions opt;
  opt.dir = td.path + "/ck";
  opt.every = 2;
  FaultPlan plan;
  plan.add_crash(0, 1).add_drop(1, 5);
  RoundSupervisor sup(2, false, "machine", "payload store");
  sup.set_fault_plan(&plan, nullptr, true);
  sup.set_durability(opt, "scope");
  FakeEngine fake;
  run_round(sup, fake, 1);  // one crash absorbed
  sup.checkpoint_boundary(fake, 3);
  EXPECT_EQ(fake.tally.disk_checkpoints_written, 0U);  // every 2nd
  sup.checkpoint_boundary(fake, 4);
  EXPECT_EQ(fake.tally.disk_checkpoints_written, 1U);
  EXPECT_GT(fake.tally.disk_checkpoint_words, 0U);

  opt.resume = true;
  RoundSupervisor again(2, false, "machine", "payload store");
  again.set_fault_plan(&plan, nullptr, true);
  again.set_durability(opt, "scope");
  FakeEngine resumed;
  ASSERT_TRUE(again.try_resume(resumed));
  EXPECT_EQ(resumed.crashes_on_disk, 1U);
  EXPECT_EQ(again.crashes_recovered(), 1U);
  EXPECT_EQ(resumed.tally.resume_loads, 1U);
  EXPECT_EQ(resumed.tally.disk_fallbacks, 0U);
  // The generation was persisted at round 4: the crash at round 1 fired
  // before it, the drop at round 5 is still ahead.
  EXPECT_EQ(resumed.tally.faults_skipped_on_resume, 1U);

  // Another scope's files read as a fresh start.
  RoundSupervisor other(2, false, "machine", "payload store");
  other.set_durability(opt, "another scope");
  FakeEngine fresh;
  EXPECT_FALSE(other.try_resume(fresh));

  // The stop hook persists one final generation and unwinds.
  opt.resume = false;
  opt.stop_after_safe_points = 1;
  RoundSupervisor stopping(2, false, "machine", "payload store");
  stopping.set_durability(opt, "scope");
  FakeEngine stopped;
  EXPECT_THROW(stopping.checkpoint_boundary(stopped, 0),
               fault::ResumableInterrupt);
  EXPECT_EQ(stopped.tally.disk_checkpoints_written, 1U);
}

}  // namespace
}  // namespace mpcg
