#include "fault/supervisor.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "fault/checkpoint.h"
#include "fault/fault_plan.h"
#include "util/rng.h"

namespace mpcg::fault {

std::vector<BitFlip> flip_positions(std::uint64_t round,
                                    std::uint64_t machine,
                                    std::uint64_t ordinal, std::size_t total) {
  std::vector<BitFlip> flips;
  if (total == 0) return flips;
  const std::size_t count = 1 + mix64(round, machine, ordinal * 8 + 5) % 3;
  for (std::size_t f = 0; f < count; ++f) {
    const BitFlip at{
        static_cast<std::size_t>(
            mix64(round, machine * 8 + f, ordinal * 8 + 6) % total),
        static_cast<unsigned>(mix64(round, machine * 8 + f, ordinal * 8 + 7) %
                              64)};
    const bool seen =
        std::any_of(flips.begin(), flips.end(), [&](const BitFlip& b) {
          return b.word == at.word && b.bit == at.bit;
        });
    if (!seen) flips.push_back(at);
  }
  return flips;
}

RoundSupervisor::RoundSupervisor(std::size_t machines, bool integrity,
                                 std::string unit, std::string store)
    : machines_(machines), integrity_(integrity), unit_(std::move(unit)),
      store_(std::move(store)) {}

void RoundSupervisor::set_fault_plan(const FaultPlan* plan,
                                     CheckpointRegistry* registry,
                                     bool recover) {
  plan_ = (plan != nullptr && !plan->empty()) ? plan : nullptr;
  registry_ = registry;
  recover_ = recover;
}

void RoundSupervisor::charge_crash(std::size_t machine, std::size_t round,
                                   std::string_view where) {
  if (crashes_ >= plan_->crash_budget) {
    throw FaultBudgetError(unit_ + " " + std::to_string(machine) +
                           " crashed in round " + std::to_string(round) +
                           std::string(where) + ": crash budget of " +
                           std::to_string(plan_->crash_budget) +
                           " exhausted");
  }
  ++crashes_;
}

void RoundSupervisor::run_faulty_round(RoundAdapter& engine,
                                       std::span<const FaultEvent> events,
                                       std::size_t round) {
  FaultTally t;
  // Copy-on-fault checkpoint: materialized only because this round carries
  // events, and before any of them lands — it is what a rollback returns
  // to.
  if (recover_) {
    std::size_t words = 0;
    if (registry_ != nullptr) words += registry_->capture(round);
    words += engine.snapshot_staging();
    t.checkpoint_bytes = words * sizeof(RoundAdapter::Word);
  }
  std::size_t ckpt_rot = 0;
  crashed_.clear();
  dark_.clear();
  for (std::size_t ei = 0; ei < events.size(); ++ei) {
    const FaultEvent& ev = events[ei];
    const std::size_t m = ev.machine;
    // Plans written for a larger cluster may name machines we don't have.
    if (m >= machines_) continue;
    ++t.faults_injected;
    switch (ev.kind) {
      case FaultKind::kCrash:
        if (!recover_) {
          engine.drop_flush(m);
          dark_.push_back(m);
          break;
        }
        charge_crash(m, round);
        // The crash destroys the flush and the machine's local state;
        // recovery resends from sender-side retention and reinstates the
        // checkpoint. Dropping before restoring makes the snapshot
        // load-bearing: a broken restore diverges the coupling tests.
        t.words_resent += engine.staged_words(m);
        engine.drop_flush(m);
        rollback(engine, m, round, t);
        crashed_.push_back(m);
        break;
      case FaultKind::kDropFlush:
        if (!recover_) {
          engine.drop_flush(m);
          break;
        }
        // The machine's local state survives: resend the flush, no
        // registry restore.
        t.words_resent += engine.staged_words(m);
        engine.drop_flush(m);
        engine.restore_staging();
        ++t.rounds_replayed;
        break;
      case FaultKind::kDuplicateFlush:
        // With recovery, (round, sequence) deduplication discards the
        // second copy before delivery; only the event count records it.
        if (!recover_) engine.duplicate_flush(m);
        break;
      case FaultKind::kDelayFlush:
        if (recover_) {
          ++t.rounds_replayed;  // the barrier stalls one round for it
        } else {
          engine.delay_flush(m);
        }
        break;
      case FaultKind::kCorruptPayload:
        // Silent in-transit corruption: the sender retains its pristine
        // stream (real shuffle layers keep a flush until it is acked),
        // then bits flip in the live staged words.
        if (engine.corrupt_stream(m, round, ei) == 0) break;
        ++t.corruptions_injected;
        // Undetected without integrity; a digest collision is 2^-64.
        if (!integrity_ || engine.stream_ok(m)) break;
        ++t.corruptions_detected;
        if (budget_blown(events, ei, round, "flush")) {
          rollback(engine, m, round, t);
        }
        // After a rollback the staging is the round-entry snapshot, whose
        // stream is exactly the retained pristine one: either way the
        // sender's retained stream is what gets re-delivered.
        t.words_retransmitted += engine.retransmit_stream(m);
        break;
      case FaultKind::kCorruptStore:
        // Silent rot in the shared store every reader's view aliases; the
        // publisher retains a pristine copy first (the repair source).
        if (engine.corrupt_store(m, round, ei) == 0) break;
        ++t.store_corruptions_injected;
        if (!integrity_ || engine.store_ok()) break;
        ++t.store_corruptions_detected;
        if (budget_blown(events, ei, round, store_)) {
          rollback(engine, m, round, t);
        } else {
          t.store_words_repaired += engine.repair_store();
        }
        break;
      case FaultKind::kCorruptCheckpoint:
        // Rot in a retained checkpoint image surfaces only at the next
        // restore, which verifies generations and falls back. The first
        // rot event of a round hits the newest generation, later ones walk
        // down the ring, so stacked events can rot all of it.
        if (registry_ == nullptr || !registry_->has_checkpoint()) break;
        registry_->corrupt_generation(
            ckpt_rot++ % registry_->generations_held(), round, m, ei);
        break;
    }
  }
  engine.deliver();
  // A recovered crash re-fetches the deliveries it lost; a dark machine's
  // are lost (cleared only now, so the audit still balances the wire).
  for (const std::size_t m : crashed_) {
    t.words_resent += engine.received_words(m);
  }
  for (const std::size_t m : dark_) engine.clear_delivered(m);
  engine.account(t);
}

bool RoundSupervisor::budget_blown(std::span<const FaultEvent> events,
                                   std::size_t ei, std::size_t round,
                                   std::string_view what) const {
  // Attempt ordinal: how many times this machine's flush (or published
  // store) has been corrupted this round, this event included.
  const FaultEvent& ev = events[ei];
  std::size_t attempt = 1;
  for (std::size_t j = 0; j < ei; ++j) {
    attempt += events[j].kind == ev.kind && events[j].machine == ev.machine;
  }
  if (attempt <= plan_->retransmit_budget) return false;
  if (!recover_) {
    throw IntegrityError(unit_ + " " + std::to_string(ev.machine) + " " +
                         std::string(what) + " corrupted in round " +
                         std::to_string(round) + ": retransmit budget of " +
                         std::to_string(plan_->retransmit_budget) +
                         " exhausted and recovery is off");
  }
  return true;
}

void RoundSupervisor::rollback(RoundAdapter& engine, std::size_t machine,
                               std::size_t round, FaultTally& t) {
  engine.restore_staging();
  restore_registry(machine, round, t);
  ++t.rounds_replayed;
}

void RoundSupervisor::restore_registry(std::size_t machine, std::size_t round,
                                       FaultTally& t) {
  if (registry_ == nullptr || !registry_->has_checkpoint()) return;
  if (!registry_->generation_ok(0)) {
    // The newest image rotted in retention: find the next older verified
    // generation, the cluster's last good copy.
    const std::size_t held = registry_->generations_held();
    std::size_t age = 1;
    while (age < held && !registry_->generation_ok(age)) ++age;
    if (age == held) {
      // Name the rotted providers: the operator learns which state lost
      // its last good copy.
      std::vector<std::string> seen;
      std::string rotted;
      for (std::size_t a = 0; a < held; ++a) {
        for (std::string& name : registry_->rotted_providers(a)) {
          if (std::find(seen.begin(), seen.end(), name) != seen.end()) {
            continue;
          }
          rotted += rotted.empty() ? "" : ", ";
          rotted += name;
          seen.push_back(std::move(name));
        }
      }
      throw CheckpointError(
          unit_ + " " + std::to_string(machine) + ": all " +
          std::to_string(held) +
          " retained checkpoint generation(s) fail verification in round " +
          std::to_string(round) + " (rotted provider(s): " + rotted +
          "): the cluster is unrecoverable");
    }
    // Deterministic replay from the verified generation reconstructs
    // exactly the live provider state (untouched since this round's
    // capture): recapture it as the newest image and charge the rounds
    // between the two generation tags.
    t.rounds_replayed += round - registry_->generation_round(age);
    ++t.checkpoint_fallbacks;
    registry_->recapture_newest();
  }
  registry_->restore();
}

// ---------------------------------------------------------------------------
// On-disk durability (see fault/durable.h).

void RoundSupervisor::set_durability(const DurableOptions& options,
                                     std::string scope) {
  if (!options.enabled()) return;
  if (options.every == 0) {
    throw std::invalid_argument("Engine: checkpoint every must be >= 1");
  }
  durable_ = options;
  scope_ = std::move(scope);
  ring_.emplace(durable_.dir);
  // A fresh durable run must never let a previous run's same-scope files
  // outrank its own checkpoints by sequence number.
  if (!durable_.resume) ring_->reset();
}

void RoundSupervisor::persist(RoundAdapter& engine, std::size_t round) {
  // Scratch layout: provider sections, then one trailing "__engine"
  // section. The buffers survive across persists, so the steady state
  // reserializes in place instead of reallocating the provider state.
  const std::size_t nprov =
      registry_ != nullptr ? registry_->num_providers() : 0;
  scratch_.resize(nprov + 1);
  if (registry_ != nullptr) registry_->save_sections_into(scratch_);
  DurableSection& own = scratch_[nprov];
  own.name = "__engine";
  own.payload.clear();
  engine.save_engine_section(own.payload, crashes_);
  FaultTally t;
  t.disk_checkpoint_words = ring_->save(round, scope_, scratch_);
  t.disk_checkpoints_written = 1;
  engine.account(t);
}

void RoundSupervisor::checkpoint_boundary(RoundAdapter& engine,
                                          std::size_t round) {
  if (!ring_) return;
  ++safe_points_;
  const bool stop =
      (durable_.stop_flag != nullptr &&
       durable_.stop_flag->load(std::memory_order_relaxed)) ||
      (durable_.stop_after_safe_points != 0 &&
       safe_points_ >= durable_.stop_after_safe_points);
  if (stop) {
    // Graceful stop: the in-flight round already finished (this is a
    // driver loop boundary); flush one final generation and unwind.
    persist(engine, round);
    throw ResumableInterrupt(
        "stopped at a safe point after flushing a final durable generation "
        "(relaunch with --resume)");
  }
  if (safe_points_ % durable_.every == 0) persist(engine, round);
}

bool RoundSupervisor::try_resume(RoundAdapter& engine) {
  if (!ring_ || !durable_.resume) return false;
  const std::optional<DurableLoad> loaded =
      registry_ != nullptr ? registry_->load_from(*ring_, scope_)
                           : ring_->load(scope_);
  if (!loaded) return false;  // nothing on disk (or another run's): fresh
  const auto& sections = loaded->checkpoint.sections;
  const auto own = std::find_if(
      sections.begin(), sections.end(),
      [](const DurableSection& s) { return s.name == "__engine"; });
  if (own == sections.end()) {
    throw CheckpointError("durable checkpoint restore: no __engine section");
  }
  SectionReader in("checkpoint section '__engine'", own->payload);
  crashes_ = engine.install_engine_section(in);
  in.finish();
  FaultTally t;
  t.resume_loads = 1;
  t.disk_fallbacks = loaded->fallback ? 1 : 0;
  // Plan events before the resume point already fired, and were absorbed,
  // before this generation was persisted at round `checkpoint.round`; the
  // resumed process never consults them again.
  if (plan_ != nullptr) {
    for (const FaultEvent& ev : plan_->events()) {
      t.faults_skipped_on_resume += ev.round < loaded->checkpoint.round;
    }
  }
  engine.account(t);
  return true;
}

}  // namespace mpcg::fault
