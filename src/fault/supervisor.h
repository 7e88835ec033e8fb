// The round supervisor: everything both engines do at a round boundary.
//
// The MPC simulator (mpc::Engine, paper Section 1.1.1) and the
// Congested-Clique simulator (cclique::Engine, Section 1.1.2) run the same
// synchronous-round algorithms, and every fault event, rollback and durable
// safe point happens at the same place in both: the exchange. This class
// owns that boundary once:
//   * the fault plan, the driver's CheckpointRegistry and the recover flag;
//   * the crash count against the plan's crash budget, and the per
//     (machine, round) retransmit budget that escalates a corruption into
//     a checkpoint rollback;
//   * the per-event loop of a faulty round: copy-on-fault capture,
//     rollback, and the recovery tally;
//   * verified registry restore with generation fallback;
//   * the durable safe-point cycle: the on-disk DurableRing, the safe-point
//     cadence and stop polling, persisting one generation, and resuming
//     from the newest verified one.
//
// An engine plugs in through RoundAdapter, a narrow set of hooks over its
// own staging and its own "__engine" durable section. The hooks run only
// on faulty rounds and at safe points: a fault-free exchange() tests
// plan() once and never calls into the supervisor. What stays engine
// business is staging itself, the audit equations, and the byte layout of
// the "__engine" section.
#ifndef MPCG_FAULT_SUPERVISOR_H
#define MPCG_FAULT_SUPERVISOR_H

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "fault/durable.h"

namespace mpcg::fault {

class FaultPlan;
class CheckpointRegistry;
struct FaultEvent;

/// Thrown when integrity checking detects a checksum mismatch it cannot
/// repair: a corruption whose retransmit budget is exhausted with recovery
/// off, or a mismatch at delivery that no detect->retransmit cycle handled.
class IntegrityError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Thrown when an engine's runtime audit finds a broken invariant (a
/// conservation violation, an untallied capacity breach, a view outside
/// every delivered buffer). An AuditError is a simulator bug, never an
/// expected outcome of an injected fault.
class AuditError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

/// The fault and durability counters the supervisor charges. Both engines'
/// Metrics carry fields of exactly these names; add_tally folds a tally
/// into either.
struct FaultTally {
  std::size_t rounds_replayed = 0;
  std::size_t words_resent = 0;
  std::size_t checkpoint_bytes = 0;
  std::size_t faults_injected = 0;
  std::size_t corruptions_injected = 0;
  std::size_t corruptions_detected = 0;
  std::size_t words_retransmitted = 0;
  std::size_t store_corruptions_injected = 0;
  std::size_t store_corruptions_detected = 0;
  std::size_t store_words_repaired = 0;
  std::size_t checkpoint_fallbacks = 0;
  std::size_t disk_checkpoints_written = 0;
  std::size_t disk_checkpoint_words = 0;
  std::size_t resume_loads = 0;
  std::size_t disk_fallbacks = 0;
  std::size_t faults_skipped_on_resume = 0;
};

template <typename Metrics>
void add_tally(Metrics& m, const FaultTally& t) {
  m.rounds_replayed += t.rounds_replayed;
  m.words_resent += t.words_resent;
  m.checkpoint_bytes += t.checkpoint_bytes;
  m.faults_injected += t.faults_injected;
  m.corruptions_injected += t.corruptions_injected;
  m.corruptions_detected += t.corruptions_detected;
  m.words_retransmitted += t.words_retransmitted;
  m.store_corruptions_injected += t.store_corruptions_injected;
  m.store_corruptions_detected += t.store_corruptions_detected;
  m.store_words_repaired += t.store_words_repaired;
  m.checkpoint_fallbacks += t.checkpoint_fallbacks;
  m.disk_checkpoints_written += t.disk_checkpoints_written;
  m.disk_checkpoint_words += t.disk_checkpoint_words;
  m.resume_loads += t.resume_loads;
  m.disk_fallbacks += t.disk_fallbacks;
  m.faults_skipped_on_resume += t.faults_skipped_on_resume;
}

/// One injected bit flip: bit `bit` of word `word`.
struct BitFlip {
  std::size_t word = 0;
  unsigned bit = 0;
};

/// The 1–3 distinct (word, bit) positions an injected corruption flips in
/// a run of `total` words (none when `total` is 0), drawn statelessly from
/// mix64(round, machine, ordinal ·). Distinct matters: two flips of one
/// bit would cancel, and every injected corruption must genuinely differ
/// from the pristine words, so detected == injected whenever integrity is
/// on. Every corruption kind (wire, store, checkpoint image) uses it.
[[nodiscard]] std::vector<BitFlip> flip_positions(std::uint64_t round,
                                                  std::uint64_t machine,
                                                  std::uint64_t ordinal,
                                                  std::size_t total);

/// An engine's hooks, called by RoundSupervisor only on faulty rounds and
/// at safe points. "Machine" is an MPC machine or a clique player.
class RoundAdapter {
 public:
  using Word = std::uint64_t;

  /// Copies the staged round and the engine's Metrics aside: the state a
  /// rollback returns to. Returns the words the copy holds (charged to
  /// checkpoint_bytes).
  virtual std::size_t snapshot_staging() = 0;
  /// Reinstates that copy. The staging is then back at the round's entry,
  /// so fault adjustments the engine's audit recorded are undone with it.
  virtual void restore_staging() = 0;

  /// Destroys `machine`'s staged flush (a crash or a lost flush).
  virtual void drop_flush(std::size_t machine) = 0;
  /// Stages `machine`'s flush a second time (an unrecovered duplicate).
  virtual void duplicate_flush(std::size_t machine) = 0;
  /// Holds `machine`'s flush back into the next round (an unrecovered
  /// delay).
  virtual void delay_flush(std::size_t machine) = 0;

  /// Retains `machine`'s pristine sender stream, then flips the
  /// flip_positions(round, machine, ordinal, ·) bits in the live one.
  /// Returns the bits flipped (0 when nothing is staged).
  virtual std::size_t corrupt_stream(std::size_t machine, std::size_t round,
                                     std::size_t ordinal) = 0;
  /// Does `machine`'s staged stream match its append-time checksum?
  [[nodiscard]] virtual bool stream_ok(std::size_t machine) const = 0;
  /// Serves the retained stream back into staging; returns the words
  /// re-delivered.
  virtual std::size_t retransmit_stream(std::size_t machine) = 0;

  /// Retains the part of the shared store (payload blobs, broadcast
  /// words) the event hits, then rots it like corrupt_stream. Returns the
  /// bits flipped (0 when the store is empty).
  virtual std::size_t corrupt_store(std::size_t machine, std::size_t round,
                                    std::size_t ordinal) = 0;
  /// Does the rotted part still match its publish-time digest?
  [[nodiscard]] virtual bool store_ok() const = 0;
  /// Reinstates the retained copy in place; returns the words restored.
  virtual std::size_t repair_store() = 0;

  /// Words `machine` has staged this round, shared sends included: what a
  /// lost flush costs to resend.
  [[nodiscard]] virtual std::size_t staged_words(std::size_t machine) const = 0;
  /// Words `machine` received in the round just delivered.
  [[nodiscard]] virtual std::size_t received_words(
      std::size_t machine) const = 0;

  /// Delivers the round (the fault-free exchange body).
  virtual void deliver() = 0;
  /// Blanks what a dark machine received in the round just delivered.
  virtual void clear_delivered(std::size_t machine) = 0;

  /// Appends the engine's "__engine" durable payload to the empty `out`.
  /// `crashes` is the supervisor's crash count, which the section carries.
  virtual void save_engine_section(std::vector<Word>& out,
                                   std::size_t crashes) const = 0;
  /// Reads that payload back (the supervisor checks nothing is left over)
  /// and returns the crash count it carried.
  virtual std::size_t install_engine_section(SectionReader& in) = 0;

  /// Folds supervisor counters into the engine's Metrics (add_tally).
  virtual void account(const FaultTally& tally) = 0;

 protected:
  ~RoundAdapter() = default;
};

class RoundSupervisor {
 public:
  /// `machines` bounds the event ids that apply (plans may name machines
  /// a smaller cluster lacks). `unit` names one machine in error messages
  /// ("machine", "player"); `store` names the shared store ("payload
  /// store", "broadcast store").
  RoundSupervisor(std::size_t machines, bool integrity, std::string unit,
                  std::string store);

  /// Attaches a deterministic fault schedule, consulted at every round
  /// boundary. `registry`, when given, is the driver's checkpoint
  /// registry: captured alongside the staging snapshot at faulty rounds,
  /// restored on rollback, and persisted at safe points (it is kept even
  /// with a null or empty plan, for durability). With `recover` false
  /// nothing rolls back: crashed machines go dark for the round, and
  /// duplicated or delayed flushes hit the wire as such. The plan must
  /// outlive its use.
  void set_fault_plan(const FaultPlan* plan, CheckpointRegistry* registry,
                      bool recover);

  /// Arms on-disk durability (see fault/durable.h): opens a DurableRing
  /// under `options.dir` (wiped unless `options.resume`), with `scope` the
  /// configuration signature baked into every file. No-op when
  /// `options.dir` is empty.
  void set_durability(const DurableOptions& options, std::string scope);

  /// The attached plan, or nullptr (the engines' one fault-free branch).
  [[nodiscard]] const FaultPlan* plan() const noexcept { return plan_; }
  [[nodiscard]] CheckpointRegistry* registry() const noexcept {
    return registry_;
  }
  /// Crashes absorbed by recovery so far.
  [[nodiscard]] std::size_t crashes_recovered() const noexcept {
    return crashes_;
  }

  /// Charges one recovered crash of `machine` in `round`; throws
  /// FaultBudgetError once the plan's crash budget is spent. `where` is
  /// spliced into the message after the round.
  void charge_crash(std::size_t machine, std::size_t round,
                    std::string_view where = {});

  /// Runs a round that carries `events`: capture (with recovery), apply
  /// each event through the adapter, deliver, then settle the re-fetches,
  /// dark machines and the tally.
  void run_faulty_round(RoundAdapter& engine,
                        std::span<const FaultEvent> events,
                        std::size_t round);

  /// Safe point at `round`: polls the stop flag (persisting one final
  /// generation and throwing ResumableInterrupt when stopping) and
  /// persists every DurableOptions::every-th call. No-op without
  /// durability.
  void checkpoint_boundary(RoundAdapter& engine, std::size_t round);

  /// Loads the newest verified generation for the scope, reinstates the
  /// providers and the engine's "__engine" section, and counts plan
  /// events before the resume point as skipped. False on a fresh start.
  /// Throws CheckpointError when files exist for this scope but none
  /// verifies.
  bool try_resume(RoundAdapter& engine);

 private:
  /// Checks the retransmit budget for the corruption at events[ei]: true
  /// when it is blown (roll back); throws IntegrityError naming `what`
  /// when it is blown and recovery is off.
  bool budget_blown(std::span<const FaultEvent> events, std::size_t ei,
                    std::size_t round, std::string_view what) const;
  /// Restores the staging snapshot and the registry; one replayed round.
  void rollback(RoundAdapter& engine, std::size_t machine, std::size_t round,
                FaultTally& t);
  /// Verified registry restore with generation fallback: restores the
  /// newest generation if it verifies, else falls back to the next older
  /// verified one, recapturing the newest image from live state (which
  /// deterministic replay from the older one would reconstruct) and
  /// charging the rounds between the two tags. Throws CheckpointError
  /// naming `machine`, `round` and the rotted providers when every
  /// generation is bad.
  void restore_registry(std::size_t machine, std::size_t round,
                        FaultTally& t);
  void persist(RoundAdapter& engine, std::size_t round);

  std::size_t machines_;
  bool integrity_;
  std::string unit_;
  std::string store_;
  // Borrowed (see set_fault_plan).
  const FaultPlan* plan_ = nullptr;
  CheckpointRegistry* registry_ = nullptr;
  bool recover_ = true;
  std::size_t crashes_ = 0;
  /// Per-faulty-round scratch: machines whose lost deliveries recovery
  /// re-fetches, and machines that went dark without recovery.
  std::vector<std::size_t> crashed_;
  std::vector<std::size_t> dark_;

  DurableOptions durable_;
  std::string scope_;
  /// Engaged iff durability is armed.
  std::optional<DurableRing> ring_;
  /// Safe points seen by this process (paces persistence; not persisted).
  std::size_t safe_points_ = 0;
  /// Serialization scratch recycled across persists: provider sections,
  /// then one trailing "__engine" section.
  std::vector<DurableSection> scratch_;
};

}  // namespace mpcg::fault

#endif  // MPCG_FAULT_SUPERVISOR_H
