// CONGESTED-CLIQUE model simulator.
//
// The model (paper, Section 1.1.2): n players, synchronous rounds, and in
// each round every player may send O(log n) bits — one machine word here —
// to every other player. Players are identified with the vertices of the
// input graph; initially each player knows only its own incident edges.
//
// Two communication services are provided:
//   * per-round point-to-point sends and one-to-all broadcasts, enforced to
//     at most one word per ordered pair per round;
//   * Lenzen's routing scheme [Len13]: any multiset of messages in which
//     every player sends at most n and receives at most n words is
//     delivered in O(1) rounds (charged as 2 rounds per feasible batch;
//     infeasible loads are split into feasible batches and charged
//     accordingly, so overloads are visible in the round count).
//
// Broadcasts are stored once and shared by all receivers (every player's
// view of a broadcast is identical), which keeps the simulator's memory
// O(messages) instead of O(n * messages) without changing any player's
// knowledge.
#ifndef MPCG_CCLIQUE_ENGINE_H
#define MPCG_CCLIQUE_ENGINE_H

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "fault/supervisor.h"
#include "mpc/backend.h"
#include "util/fnv.h"

namespace mpcg::cclique {

using Word = std::uint64_t;
using PlayerId = std::uint32_t;

class CongestionError : public std::runtime_error {
 public:
  explicit CongestionError(const std::string& what)
      : std::runtime_error(what) {}
};

/// Integrity and audit failures: the one pair of types both engines throw
/// (see fault/supervisor.h).
using IntegrityError = fault::IntegrityError;
using AuditError = fault::AuditError;

struct Message {
  PlayerId from;
  PlayerId to;
  Word word;
};

/// Run-length staged message multiset for Engine::lenzen_route_view — the
/// same span/run form the MPC engine's streamed outboxes use. A driver
/// appends words (or whole word runs) instead of materializing 16-byte
/// Message records; consecutive appends sharing a (from, to) pair extend
/// one run descriptor over the contiguous word stream, so a vertex's burst
/// to the leader stages as one descriptor + its words. Reusable: clear()
/// between route calls keeps the buffers warm.
class RouteStream {
 public:
  void clear() noexcept {
    runs_.clear();
    words_.clear();
  }
  [[nodiscard]] bool empty() const noexcept { return words_.empty(); }
  /// Number of staged messages (words).
  [[nodiscard]] std::size_t size() const noexcept { return words_.size(); }

  void append(PlayerId from, PlayerId to, Word word) {
    words_.push_back(word);
    if (!runs_.empty() && runs_.back().from == from &&
        runs_.back().to == to && runs_.back().count != kMaxCount) {
      ++runs_.back().count;
    } else {
      runs_.push_back(Run{from, to, 1});
    }
  }

  /// Stages a whole word run for one (from, to) pair: one bulk copy plus
  /// one descriptor (merging with an open run to the same pair).
  void append_run(PlayerId from, PlayerId to, std::span<const Word> words) {
    if (words.empty()) return;
    words_.insert(words_.end(), words.begin(), words.end());
    std::size_t left = words.size();
    if (!runs_.empty() && runs_.back().from == from &&
        runs_.back().to == to) {
      const std::size_t room = kMaxCount - runs_.back().count;
      const std::size_t take = left < room ? left : room;
      runs_.back().count += static_cast<std::uint32_t>(take);
      left -= take;
    }
    while (left > 0) {
      const std::size_t take = left < kMaxCount ? left : kMaxCount;
      runs_.push_back(Run{from, to, static_cast<std::uint32_t>(take)});
      left -= take;
    }
  }

  /// Appends another stream's staged runs and words, merging across the
  /// boundary when the last open run and the other stream's first run
  /// share a (from, to) pair — so concatenating per-chunk streams built
  /// over a contiguous partition of an iteration domain, in chunk order,
  /// yields exactly the stream the sequential loop would have staged.
  void append_stream(const RouteStream& other) {
    std::size_t pos = 0;
    for (const Run& run : other.runs_) {
      append_run(run.from, run.to,
                 std::span<const Word>(other.words_.data() + pos, run.count));
      pos += run.count;
    }
  }

 private:
  friend class Engine;
  struct Run {
    PlayerId from;
    PlayerId to;
    std::uint32_t count;
  };
  static constexpr std::uint32_t kMaxCount = 0xffffffffu;
  std::vector<Run> runs_;
  std::vector<Word> words_;
};

/// One delivered stretch of a routed stream: `count` consecutive words
/// from one sender, aliasing the caller's RouteStream word storage (valid
/// while the stream outlives the view and is not mutated) — or, when a
/// fault corrupted the sender's batch undetected, an engine-owned flipped
/// copy (valid until the next routing call).
struct RouteSegment {
  PlayerId from;
  const Word* words;
  std::uint32_t count;
};

/// Segmented per-player delivery view for Engine::lenzen_route_view — the
/// cclique analogue of mpc::InboxView. The view holds one RouteSegment per
/// delivered batch run: O(runs) descriptors over the already-resident
/// stream words, zero per-word expansion. Segments are in delivery order
/// (batch-major, then batch-run order).
class RouteView {
 public:
  /// Words delivered to this player.
  [[nodiscard]] std::size_t size() const noexcept { return words_; }
  [[nodiscard]] bool empty() const noexcept { return words_ == 0; }
  [[nodiscard]] std::span<const RouteSegment> segments() const noexcept {
    return segs_;
  }

 private:
  friend class Engine;
  std::vector<RouteSegment> segs_;
  std::size_t words_ = 0;
};

struct Metrics {
  std::size_t rounds = 0;
  /// Peak point-to-point words sent by one player in one round (excluding
  /// broadcasts, which cost one word per recipient by definition).
  std::size_t max_player_sent = 0;
  std::size_t max_player_received = 0;
  std::size_t violations = 0;
  std::size_t total_words = 0;
  /// Number of Lenzen batches executed.
  std::size_t lenzen_batches = 0;

  // Fault-recovery accounting (all zero unless a FaultPlan is attached);
  // overhead only — the logical fields above stay bit-identical to the
  // fault-free run when recovery is on. The names match mpc::Metrics, so
  // fault::add_tally charges either.
  std::size_t rounds_replayed = 0;
  std::size_t words_resent = 0;
  std::size_t checkpoint_bytes = 0;
  std::size_t faults_injected = 0;
  /// kCorruptPayload events that flipped at least one staged bit.
  std::size_t corruptions_injected = 0;
  /// Corruptions caught by the per-player stream checksums; equals
  /// corruptions_injected whenever integrity is on.
  std::size_t corruptions_detected = 0;
  /// Words re-delivered by the detect->retransmit protocol.
  std::size_t words_retransmitted = 0;
  /// kCorruptStore events that flipped at least one broadcast-store bit.
  std::size_t store_corruptions_injected = 0;
  /// Store corruptions caught by the broadcast-store digest; equals
  /// store_corruptions_injected whenever integrity is on.
  std::size_t store_corruptions_detected = 0;
  /// Words reinstated from the publisher's retained pristine copy by the
  /// in-place broadcast-store repair.
  std::size_t store_words_repaired = 0;
  /// Checkpoint restores that fell back past a rotted newest generation.
  std::size_t checkpoint_fallbacks = 0;
  /// Proactive durable-store scrub sweeps executed (scrub_interval).
  std::size_t scrub_passes = 0;

  // On-disk durability accounting (all zero unless durability is armed
  // via set_durability).
  std::size_t disk_checkpoints_written = 0;
  std::size_t disk_checkpoint_words = 0;
  std::size_t resume_loads = 0;
  std::size_t disk_fallbacks = 0;
  std::size_t faults_skipped_on_resume = 0;
};

class Engine final : private fault::RoundAdapter {
 public:
  /// `integrity` arms per-player FNV-1a checksums over the point-to-point
  /// words, folded incrementally at send() time and verified before every
  /// delivery; a mismatch triggers the detect->retransmit protocol (see
  /// FaultKind::kCorruptPayload).  Broadcasts are excluded: the broadcast
  /// store holds one durable shared copy, the cclique analogue of the MPC
  /// engine's payload store.  `audit` checks conservation invariants every
  /// round — staged point-to-point and broadcast words each equal their
  /// deliveries (net of injected drops/dups/delays), and Lenzen batch
  /// splits preserve the routed word total — throwing AuditError on any
  /// violation.  `scrub_interval` arms the opt-in round-boundary scrub
  /// (every scrub_interval-th round; 0 = never): a pure verification sweep
  /// over the point-to-point streams and the broadcast store, observable
  /// on a clean run only as Metrics::scrub_passes.  Inert without
  /// `integrity` (no digests exist).
  /// `threads` selects the execution backend (see mpc/backend.h): 1 runs
  /// every chunk on the caller, > 1 = a shared-memory pool the drivers run
  /// their per-player local loops through (outputs and all logical Metrics
  /// are bit-identical across every value).
  explicit Engine(std::size_t num_players, bool strict = true,
                  bool integrity = false, bool audit = false,
                  std::size_t scrub_interval = 0, std::size_t threads = 1);

  [[nodiscard]] std::size_t num_players() const noexcept { return n_; }
  [[nodiscard]] const Metrics& metrics() const noexcept { return metrics_; }

  /// The execution backend driver loops share with this engine (the
  /// engine's own exchange and routing stay sequential — they are O(runs)
  /// bookkeeping, never the hot surface).
  [[nodiscard]] mpc::ExecutionBackend& backend() noexcept {
    return *backend_;
  }

  /// Queues one word from `from` to `to` for the next exchange. At most one
  /// word per ordered pair per round (checked at exchange()).
  void send(PlayerId from, PlayerId to, Word word);

  /// Queues a one-to-all broadcast (one word from `from` to every other
  /// player) for the next exchange.
  void broadcast(PlayerId from, Word word);

  /// Executes one round: delivers queued sends/broadcasts, enforcing the
  /// one-word-per-ordered-pair budget.
  void exchange();

  /// Point-to-point words delivered to `player` in the last exchange.
  [[nodiscard]] const std::vector<Message>& inbox(PlayerId player) const;

  /// Broadcast words delivered in the last exchange (identical for every
  /// player).
  [[nodiscard]] const std::vector<Message>& broadcast_inbox() const noexcept {
    return bcast_inbox_;
  }

  /// Routes a run-length staged message multiset with Lenzen's scheme.
  /// Each feasible batch (<= n per sender and per receiver) costs 2 rounds;
  /// batching bookkeeping is paid per *run chunk*, not per word, and
  /// delivery is segmented: each player's view holds O(batch runs)
  /// descriptors aliasing the caller's stream words (see RouteSegment for
  /// corrupted batches) — no per-word Message materialization at all. The
  /// views live in engine-owned persistent scratch (valid until the next
  /// routing call, while `stream` is alive and unmutated) — a call costs O(runs + batches), not O(words) or
  /// O(players), after warm-up. Any sends/broadcasts already queued must
  /// be flushed (exchange()d) first; mixing throws.
  const std::vector<RouteView>& lenzen_route_view(const RouteStream& stream);

  /// Opaque copy of the staged round (pending sends, broadcast queue,
  /// checksum accumulators) plus Metrics, taken at a round boundary.
  class Snapshot {
   public:
    Snapshot() = default;
    [[nodiscard]] std::size_t words() const noexcept;

   private:
    friend class Engine;
    std::vector<Message> pending;
    std::vector<PlayerId> pending_broadcasts;
    std::vector<Message> bcast_staging;
    std::vector<std::uint64_t> csums;
    std::uint64_t bcast_csum = 0;
    Metrics metrics{};
  };

  [[nodiscard]] Snapshot snapshot() const;
  void restore(const Snapshot& snap);

  /// Attaches a deterministic fault schedule and the driver's checkpoint
  /// registry (see fault::RoundSupervisor::set_fault_plan; "machine" means
  /// player here). lenzen_route_view treats every fault in a batch's two
  /// rounds as recovered: the scheme's batch structure is its own
  /// retransmission unit.
  void set_fault_plan(const fault::FaultPlan* plan,
                      fault::CheckpointRegistry* registry = nullptr,
                      bool recover = true) {
    sup_.set_fault_plan(plan, registry, recover);
  }

  [[nodiscard]] std::size_t crashes_recovered() const noexcept {
    return sup_.crashes_recovered();
  }

  /// Arms on-disk durability (fault::RoundSupervisor::set_durability).
  void set_durability(const fault::DurableOptions& options,
                      std::string scope) {
    sup_.set_durability(options, std::move(scope));
  }

  /// Driver-announced safe point: parks the pool, then polls the stop flag
  /// and persists (fault::RoundSupervisor::checkpoint_boundary).
  void checkpoint_boundary() {
    backend_->quiesce();
    sup_.checkpoint_boundary(*this, metrics_.rounds);
  }

  /// Resume attempt (call once, after registering providers and attaching
  /// any fault plan); see fault::RoundSupervisor::try_resume.
  bool try_resume() { return sup_.try_resume(*this); }

 private:
  // fault::RoundAdapter hooks (see fault/supervisor.h). A player's flush is
  // its point-to-point messages plus its broadcasts; the shared store is
  // the broadcast store. Unrecovered drops, duplicates and delays record
  // their word counts for the audit; restore_staging() zeroes them.
  std::size_t snapshot_staging() override;
  void restore_staging() override;
  void drop_flush(std::size_t player) override;
  void duplicate_flush(std::size_t player) override;
  void delay_flush(std::size_t player) override;
  std::size_t corrupt_stream(std::size_t player, std::size_t round,
                             std::size_t ordinal) override {
    return corrupt_words(pending_, player, round, ordinal, retained_words_);
  }
  [[nodiscard]] bool stream_ok(std::size_t player) const override {
    return player_digest(player) == csums_[player];
  }
  /// The accumulator already holds the pristine digest (corruption
  /// touched only the words), so no resync is needed.
  std::size_t retransmit_stream(std::size_t player) override {
    return restore_words(pending_, player, retained_words_);
  }
  /// Rots the player's staged broadcast words.
  std::size_t corrupt_store(std::size_t player, std::size_t round,
                            std::size_t ordinal) override {
    retained_bcast_from_ = player;
    return corrupt_words(bcast_staging_, player, round, ordinal,
                         retained_bcast_words_);
  }
  /// The whole broadcast store against its publish-time accumulator.
  [[nodiscard]] bool store_ok() const override {
    return bcast_digest() == bcast_csum_;
  }
  std::size_t repair_store() override {
    return restore_words(bcast_staging_, retained_bcast_from_,
                         retained_bcast_words_);
  }
  [[nodiscard]] std::size_t staged_words(std::size_t player) const override;
  /// A recovered player re-fetches its point-to-point inbox plus the
  /// round's broadcasts (stored once, re-read from there).
  [[nodiscard]] std::size_t received_words(
      std::size_t player) const override {
    return inbox_[player].size() + bcast_inbox_.size();
  }
  void deliver() override;
  /// Point-to-point deliveries are lost; the broadcast store is durable
  /// (one shared copy), like the mpc engine's payload store.
  void clear_delivered(std::size_t player) override {
    inbox_[player].clear();
  }
  /// Metrics, the crash count, and the delayed sends. Staging and the
  /// broadcast store are not serialized: safe points are quiescent.
  void save_engine_section(std::vector<Word>& out,
                           std::size_t crashes) const override;
  std::size_t install_engine_section(fault::SectionReader& in) override;
  void account(const fault::FaultTally& tally) override {
    fault::add_tally(metrics_, tally);
  }

  /// Entries of `msgs` sent by `player`.
  static std::size_t sent_by(const std::vector<Message>& msgs,
                             std::size_t player);
  /// Retains `player`'s words in `msgs` (in order) into `retained`, then
  /// flips the flip_positions bits among them. Returns the bits flipped.
  static std::size_t corrupt_words(std::vector<Message>& msgs,
                                   std::size_t player, std::size_t round,
                                   std::size_t ordinal,
                                   std::vector<Word>& retained);
  /// Writes `retained` back over `player`'s words in `msgs`; returns the
  /// count.
  static std::size_t restore_words(std::vector<Message>& msgs,
                                   std::size_t player,
                                   const std::vector<Word>& retained);
  /// FNV-1a over the player's staged point-to-point words, in send order.
  [[nodiscard]] std::uint64_t player_digest(std::size_t player) const;
  /// Folds every staged point-to-point word into its sender's scratch
  /// digest (one sweep over pending_, in send order) and compares against
  /// the accumulators; throws IntegrityError naming `where` on mismatch.
  /// With `reset` (the delivery-time pass) the verified accumulators are
  /// reset for the next round; the scrub leaves them folding.
  void verify_streams(const char* where, bool reset);
  /// Throws IntegrityError naming `where` when the broadcast store fails
  /// its digest.
  void verify_store(const char* where) const;
  /// FNV-1a over every staged broadcast word, in staging order.
  [[nodiscard]] std::uint64_t bcast_digest() const;
  /// The opt-in proactive scrub: re-digests the point-to-point streams and
  /// the broadcast store (non-destructively).  Throws IntegrityError on
  /// rot that escaped repair; otherwise observable only as
  /// Metrics::scrub_passes.
  void scrub_pass();
  void begin_audit();
  /// Closes the conservation equations for the round just delivered.
  void finish_audit() const;
  /// Charges recovery metrics for fault events scheduled inside a Lenzen
  /// batch's two rounds, and applies their wire corruptions.
  void lenzen_batch_faults(std::size_t first_round, std::size_t batch,
                           const RouteStream& stream);
  /// A kCorruptPayload event on `from`'s words in `batch`: flips 1-3 bits
  /// (fault::flip_positions over the sender's batch load) in a copy in
  /// route_corrupt_. With integrity on the checksum detects the change,
  /// the copy is discarded and the load counts as retransmitted; without
  /// it the sender's batch runs deliver from the copy.
  void corrupt_batch(std::size_t batch, PlayerId from, std::size_t round,
                     std::size_t ordinal, const RouteStream& stream);

  std::size_t n_;
  bool strict_;
  bool integrity_;
  bool audit_;
  std::size_t scrub_interval_;
  /// Execution backend (ctor `threads` wide); shared with drivers via
  /// backend(), quiesced at checkpoint_boundary().
  std::unique_ptr<mpc::ExecutionBackend> backend_;
  Metrics metrics_;
  std::vector<Message> pending_;
  std::vector<PlayerId> pending_broadcasts_;
  std::vector<Message> bcast_staging_;
  std::vector<std::vector<Message>> inbox_;
  std::vector<Message> bcast_inbox_;
  /// Persistent per-player scratch (zeroed selectively after each round, so
  /// an exchange costs O(messages) — not O(players) — in the common
  /// broadcast-only rounds of the drivers).
  std::vector<char> broadcasting_;
  std::vector<std::uint32_t> sent_;
  std::vector<std::uint32_t> received_;
  /// Inboxes filled by the last exchange (the only ones that need
  /// clearing next round).
  std::vector<PlayerId> inbox_touched_;
  /// One batch-assigned chunk of a staged run: `count` words starting at
  /// `offset` in the routed stream, all from -> to.
  struct BatchRun {
    PlayerId from;
    PlayerId to;
    std::uint32_t count;
    std::size_t offset;
  };
  /// lenzen_route_view scratch, persistent across calls: per-destination
  /// segmented views (touched-only clearing), per-batch run chunks, and
  /// per-batch sender/receiver load counters (touched entries reset after
  /// routing), so a call allocates nothing after warm-up.
  std::vector<RouteView> route_view_;
  std::vector<PlayerId> route_touched_;
  std::vector<std::vector<BatchRun>> route_batches_;
  std::vector<std::size_t> route_batch_words_;
  std::vector<std::vector<std::uint32_t>> route_send_load_;
  std::vector<std::vector<std::uint32_t>> route_recv_load_;
  /// Undetected wire corruption of one sender's words in one batch: the
  /// flipped copy its batch runs deliver from (`next` is the emission
  /// cursor). Cleared per routing call; the vectors' buffers stay put
  /// while the list grows, so views may alias them.
  struct CorruptBatch {
    std::size_t batch = 0;
    PlayerId from = 0;
    std::vector<Word> words;
    std::size_t next = 0;
  };
  std::vector<CorruptBatch> route_corrupt_;

  // Fault injection, recovery and durability: the supervisor drives the
  // RoundAdapter hooks above.
  fault::RoundSupervisor sup_;
  /// The staging copy a faulty round rolls back to (snapshot_staging()).
  Snapshot fault_snap_;
  /// Point-to-point sends held back by a non-recovered kDelayFlush,
  /// re-staged at the next exchange.
  std::vector<Message> delayed_;

  // Integrity layer (sized n_ only when integrity_ is on).
  /// Per-player FNV-1a accumulator over point-to-point words, in send
  /// order.
  std::vector<std::uint64_t> csums_;
  /// verify_streams scratch: per-player recomputed digest + touched list.
  std::vector<std::uint64_t> csum_check_;
  std::vector<PlayerId> csum_touched_;
  /// Pristine words retained by corrupt_stream, aligned with the player's
  /// staged messages in pending_ order; valid within one faulty round.
  std::vector<Word> retained_words_;
  /// FNV-1a accumulator over the broadcast store (all staged broadcast
  /// words in staging order), folded at broadcast() time — the store half
  /// of the integrity layer; reset when the staging ships.
  std::uint64_t bcast_csum_ = Fnv::kOffset;
  /// Pristine broadcast words retained by corrupt_store, aligned with the
  /// player's entries in bcast_staging_ order; valid for
  /// retained_bcast_from_ within one faulty round.
  std::vector<Word> retained_bcast_words_;
  std::size_t retained_bcast_from_ = static_cast<std::size_t>(-1);

  // Audit scratch: what this round staged (measured before fault events)
  // plus fault-path adjustments, so finish_audit() can close the
  // conservation equations.
  std::size_t audit_staged_ = 0;
  std::size_t audit_bcast_staged_ = 0;
  std::size_t audit_dropped_ = 0;
  std::size_t audit_bcast_dropped_ = 0;
  std::size_t audit_duped_ = 0;
  std::size_t audit_delayed_ = 0;
};

}  // namespace mpcg::cclique

#endif  // MPCG_CCLIQUE_ENGINE_H
