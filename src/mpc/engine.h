// Massively Parallel Computation (MPC) model simulator.
//
// The model (paper, Section 1.1.1): m machines, each with S words of local
// memory, computing in synchronous rounds. Within a round machines compute
// locally; at the round boundary they exchange messages, and every machine
// may send and receive at most S words per round.
//
// This engine is the *accounting authority* for every algorithm in
// `src/core`: algorithms move data only through the staging API
// (`outbox`/`push`/`exchange`, or the collectives in primitives.h built on
// them), the engine counts rounds and enforces capacities, and the
// experiment harness reads the metrics from here. Algorithms have no way to
// increment the round counter except by actually communicating.
//
// Message plane. Two kinds of traffic flow through an exchange:
//   * unicast words, staged through an `Outbox` (one handle per sender,
//     one up-front machine check, run-length `(to, count)` descriptors over
//     a contiguous per-sender word stream) or the legacy per-word `push`,
//     which is a thin wrapper over a one-entry outbox; and
//   * shared payloads (`stage_payload` + `push_broadcast` / `push_gather`),
//     stored ONCE per staging and delivered as (payload, offset, length)
//     descriptors — a broadcast of k words to f machines costs O(k + f)
//     simulator work instead of O(k * f) copies.
// Both kinds travel through one chunked flush per round. Inboxes are
// exposed as ordered segment views (`inbox_view`): each shared payload
// appears as one segment aliasing the single stored copy, and the unicast
// words between two payloads as one segment into the receiver's inbox
// buffer (it may span several senders).
// Zero-copy changes *simulation* cost only: metrics (rounds, sent/received
// words, violations) account shared payloads at full per-destination size,
// exactly as if every receiver got its own copy.
#ifndef MPCG_MPC_ENGINE_H
#define MPCG_MPC_ENGINE_H

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "fault/supervisor.h"
#include "mpc/backend.h"
#include "util/fnv.h"

namespace mpcg::mpc {

using Word = std::uint64_t;

/// Handle to a payload staged for the next exchange (see
/// Engine::stage_payload). Valid until that exchange() runs.
using PayloadId = std::uint32_t;

/// Thrown (in strict mode) when a machine exceeds its per-round send or
/// receive budget, or when a collective cannot fit in machine memory.
class CapacityError : public std::runtime_error {
 public:
  explicit CapacityError(const std::string& what) : std::runtime_error(what) {}
};

/// Integrity (Config::integrity) and audit (Config::audit) failures: the
/// one pair of types both engines throw (see fault/supervisor.h).
using IntegrityError = fault::IntegrityError;
using AuditError = fault::AuditError;

struct Config {
  /// Number of machines, m.
  std::size_t num_machines = 1;
  /// Words of memory per machine, S. Also the per-round send/receive cap.
  std::size_t words_per_machine = 1 << 20;
  /// If true, capacity violations throw CapacityError; otherwise they are
  /// tallied in Metrics::violations (useful for measuring how close an
  /// algorithm runs to the budget).
  bool strict = true;
  /// End-to-end message integrity: every sender's staged word stream
  /// carries a 64-bit FNV-1a checksum, folded in incrementally at append
  /// time (one xor-multiply per word behind a null-pointer test that is
  /// perfectly predicted when this is off) and verified against a
  /// recomputation at every flush (one branch per flush when off).  A
  /// mismatch — a kCorruptPayload fault, or real memory corruption — is
  /// detected before delivery and repaired by retransmitting the sender's
  /// retained stream (see FaultPlan::retransmit_budget for the escalation
  /// contract).  The checksum is defined over the contiguous per-sender
  /// wire stream the outboxes stage.
  bool integrity = false;
  /// Runtime audit mode: after every exchange the engine checks
  /// conservation (words staged == delivered + dropped - duplicated
  /// + delayed, with fault adjustments), that capacity breaches were
  /// tallied, and that inbox-view segments cover exactly the delivered
  /// words inside engine-owned buffers.  Costs one staging sweep per round
  /// (O(machines + shared sends)); throws AuditError on any violation.
  bool audit = false;
  /// Opt-in round-boundary scrub of the durable stores: every
  /// `scrub_interval`-th round (0 = never) the engine re-digests the
  /// payload store and every sender's wire stream *before* any reader
  /// touches the round's deliveries.  Requires `integrity` (silently
  /// inert without it — there are no digests to check).  The scrub is pure verification: on a
  /// fault-free run its only observable is Metrics::scrub_passes, and rot
  /// that escaped the repair path throws IntegrityError (see DESIGN.md,
  /// "Determinism contract").
  std::size_t scrub_interval = 0;
  /// Execution backend width (see mpc/backend.h): 1 runs every chunk
  /// inline on the caller; > 1 = a shared-memory pool of that many threads
  /// (caller included) running the contention-free exchange surfaces and
  /// the drivers' per-machine local loops concurrently.  Outputs and all
  /// logical Metrics are bit-identical across every value (see DESIGN.md,
  /// "Execution backends").
  std::size_t threads = 1;
};

struct Metrics {
  /// Communication rounds executed so far.
  std::size_t rounds = 0;
  /// Peak words sent by any machine in any single round.
  std::size_t max_sent_words = 0;
  /// Peak words received by any machine in any single round.
  std::size_t max_received_words = 0;
  /// Peak resident storage reported by any machine (via note_storage) or
  /// implied by a gather.
  std::size_t peak_storage_words = 0;
  /// Number of capacity violations observed (non-strict mode).
  std::size_t violations = 0;
  /// Total words moved across the cluster over all rounds.
  std::size_t total_words = 0;

  // Fault-recovery accounting (all zero unless a FaultPlan is attached).
  // These are *overhead* counters: the logical fields above stay
  // bit-identical to the fault-free run when recovery is on.
  /// Rounds replayed by crash/drop recovery or stalled for a late flush
  /// (not counted in `rounds`, which stays the logical round count).
  std::size_t rounds_replayed = 0;
  /// Words retransmitted during recovery: lost outbound flushes replayed
  /// from sender-side retention, plus the deliveries a crashed machine
  /// re-fetched after its rollback.
  std::size_t words_resent = 0;
  /// Bytes serialized into round-level checkpoints (engine snapshot +
  /// registered driver state), materialized copy-on-fault.
  std::size_t checkpoint_bytes = 0;
  /// Fault events applied from the attached plan.
  std::size_t faults_injected = 0;
  /// kCorruptPayload events that flipped at least one staged bit (events
  /// landing on an empty stream corrupt nothing and are not counted here,
  /// though they still count in faults_injected).
  std::size_t corruptions_injected = 0;
  /// Corruptions caught by the integrity layer's checksum verification.
  /// Equals corruptions_injected whenever Config::integrity is on.
  std::size_t corruptions_detected = 0;
  /// Words re-delivered from sender-side retention by the detect->
  /// retransmit protocol (including the re-delivery after a budget-blown
  /// corruption escalated to checkpoint rollback).
  std::size_t words_retransmitted = 0;
  /// kCorruptStore events that flipped at least one stored bit (events
  /// landing on an empty payload store corrupt nothing and are not counted
  /// here, though they still count in faults_injected).
  std::size_t store_corruptions_injected = 0;
  /// Store corruptions caught by the per-blob digest verification.  Equals
  /// store_corruptions_injected whenever Config::integrity is on.
  std::size_t store_corruptions_detected = 0;
  /// Words reinstated from the publisher's retained pristine copy by the
  /// in-place store repair (budget-blown store corruptions roll the round
  /// back instead and are charged to rounds_replayed).
  std::size_t store_words_repaired = 0;
  /// Checkpoint restores that found the newest generation rotted and fell
  /// back to an older verified one (charging the replayed rounds between
  /// the two generation tags to rounds_replayed).
  std::size_t checkpoint_fallbacks = 0;
  /// Proactive durable-store scrub sweeps executed (Config::scrub_interval).
  std::size_t scrub_passes = 0;

  // On-disk durability accounting (all zero unless set_durability armed
  // it — clean non-persistent runs never touch the disk).
  /// Durable generations persisted (checkpoint files atomically published).
  std::size_t disk_checkpoints_written = 0;
  /// Total 64-bit words written across those files (headers + payloads).
  std::size_t disk_checkpoint_words = 0;
  /// Successful --resume loads from an on-disk generation.
  std::size_t resume_loads = 0;
  /// Resume loads that skipped past a rotted/torn newer on-disk generation
  /// to an older verified one.
  std::size_t disk_fallbacks = 0;
  /// FaultPlan events scheduled before the resume point and therefore not
  /// re-injected by the resumed process (they already fired — and were
  /// absorbed — before the persisted safe point).
  std::size_t faults_skipped_on_resume = 0;
};

/// Run-length tag encoding of the staging. Each sender's staged words
/// form one contiguous stream described by a stream of 4-byte *tags*, one
/// per maximal same-destination stretch: a tag is the destination id, and
/// its kExtFlag bit says whether the stretch is a single word (clear — the
/// overwhelmingly common case in scattered traffic) or its length lives in
/// the sender's side count stream (set). Singleton stretches therefore
/// stage at exactly the cost of a per-word destination tag — one 4-byte
/// store — while a burst of k words to one machine compresses to one tag +
/// one count, and delivery is a counting sort over tags, not words.
/// The per-sender stream checksum of the integrity layer (see
/// Config::integrity) — shared with the congested-clique engine.
using Fnv = mpcg::Fnv;

struct RunTag {
  static constexpr std::uint32_t kExtFlag = 0x80000000u;
  static constexpr std::uint32_t kDestMask = 0x7fffffffu;
  /// Extended runs saturate at 2^32-1 words and spill into a fresh tag —
  /// only reachable far beyond any realistic per-round budget.
  static constexpr std::uint32_t kMaxCount = 0xffffffffu;
  /// "No open run" marker for the per-sender open-destination table (it
  /// has the high bit set, so it can never equal a masked destination).
  static constexpr std::uint32_t kNoDest = 0xffffffffu;
};

/// Streamed outbox: a per-sender staging handle for unicast words. Open one
/// per round (`Engine::outbox`) — the sender id is checked once there — and
/// append words or whole runs; only the destination is range-checked per
/// append (one compare). Appends write the contiguous word stream plus
/// run-length descriptors. A handle is valid until the next
/// exchange(); several handles for the same sender may coexist (they stage
/// into the same stream).
class Outbox {
 public:
  Outbox() = default;

  /// Appends one word for machine `to`.
  ///
  /// The run-merge test reads the per-sender *open destination* table
  /// (`open_to_`, one word per sender — cache-resident), never the tag
  /// stream's tail: scattered cross-sender traffic pays exactly the
  /// stores a per-word destination tag costs (one 4-byte tag + the word),
  /// while the (load-latency) run extension is reserved for actual
  /// same-destination bursts.
  void append(std::size_t to, Word word) {
    if (to >= num_machines_) [[unlikely]] {
      throw_bad_dest(to);
    }
    words_->push_back(word);
    // Integrity layer: fold the word into the sender's stream checksum.
    // With integrity off csum_ is null and this branch is never taken —
    // a perfectly predicted test, the staging cost the bench pins at 0%.
    if (csum_ != nullptr) [[unlikely]] {
      *csum_ = Fnv::fold(*csum_, word);
    }
    if (*open_to_ == to) {
      std::uint32_t& back = tos_->back();
      if ((back & RunTag::kExtFlag) == 0) {
        // Second word of a stretch: promote the singleton tag to an
        // extended run of 2.
        back |= RunTag::kExtFlag;
        counts_->push_back(2);
        return;
      }
      if (counts_->back() != RunTag::kMaxCount) [[likely]] {
        ++counts_->back();
        return;
      }
    }
    *open_to_ = static_cast<std::uint32_t>(to);
    tos_->push_back(static_cast<std::uint32_t>(to));
  }

  /// Appends a whole word run for machine `to` (one tag + one count + one
  /// bulk copy; merges with an open run to the same machine).
  void append_run(std::size_t to, std::span<const Word> words) {
    if (to >= num_machines_) [[unlikely]] {
      throw_bad_dest(to);
    }
    if (words.empty()) return;
    words_->insert(words_->end(), words.begin(), words.end());
    if (csum_ != nullptr) [[unlikely]] {
      std::uint64_t h = *csum_;
      for (const Word w : words) h = Fnv::fold(h, w);
      *csum_ = h;
    }
    std::size_t left = words.size();
    if (*open_to_ == to) {
      std::uint32_t& back = tos_->back();
      if ((back & RunTag::kExtFlag) == 0) {
        back |= RunTag::kExtFlag;
        counts_->push_back(1);
      }
      const std::size_t room = RunTag::kMaxCount - counts_->back();
      const std::size_t take = left < room ? left : room;
      counts_->back() += static_cast<std::uint32_t>(take);
      left -= take;
    }
    *open_to_ = static_cast<std::uint32_t>(to);
    while (left > 0) {
      if (left == 1) {
        tos_->push_back(static_cast<std::uint32_t>(to));
        break;
      }
      const std::size_t take =
          left < RunTag::kMaxCount ? left : RunTag::kMaxCount;
      tos_->push_back(static_cast<std::uint32_t>(to) | RunTag::kExtFlag);
      counts_->push_back(static_cast<std::uint32_t>(take));
      left -= take;
    }
  }

  /// Pre-reserves stream capacity for `words` more words.
  void reserve(std::size_t words) {
    if (words_ != nullptr) words_->reserve(words_->size() + words);
  }

 private:
  friend class Engine;
  Outbox(std::vector<std::uint32_t>* tos, std::vector<std::uint32_t>* counts,
         std::vector<Word>* words, std::uint32_t* open_to,
         std::size_t num_machines, std::uint64_t* csum)
      : tos_(tos), counts_(counts), words_(words), open_to_(open_to),
        num_machines_(num_machines), csum_(csum) {}
  /// Out of line: the exception-string construction must not be inlined
  /// into every append call site (it bloats the hot staging loops).
  [[noreturn]] void throw_bad_dest(std::size_t to) const;
  /// The sender's run-tag/count streams + contiguous word stream + its slot
  /// in the engine's open-destination table (the masked destination of
  /// tos_->back(), or RunTag::kNoDest when no run is open).
  std::vector<std::uint32_t>* tos_ = nullptr;
  std::vector<std::uint32_t>* counts_ = nullptr;
  std::vector<Word>* words_ = nullptr;
  std::uint32_t* open_to_ = nullptr;
  std::size_t num_machines_ = 0;
  /// The sender's incremental stream-checksum accumulator, or nullptr when
  /// integrity checking is off (the hot-path appends test this once).
  std::uint64_t* csum_ = nullptr;
};

/// Read-only, zero-copy view of one machine's inbox after an exchange: an
/// ordered list of word segments whose concatenation is the inbox contents
/// (sender ids ascending; each sender's words in push order, unicast and
/// shared interleaved chronologically). Segments alias engine-owned storage:
/// a view is valid until the next exchange() or clear_inboxes(), which
/// invalidate it (dangling — do not hold across rounds).
///
/// Segment structure is guaranteed only as far as: every shared payload
/// delivered to this machine appears as exactly one contiguous segment, in
/// its contract position. The unicast words between two payloads (or
/// before the first, or after the last) form one segment, which may span
/// several senders; an inbox without payloads is one span. Word-level
/// iteration (begin()/end()) hides the seams.
class InboxView {
 public:
  InboxView() = default;

  [[nodiscard]] std::size_t size() const noexcept { return words_; }
  [[nodiscard]] bool empty() const noexcept { return words_ == 0; }

  [[nodiscard]] std::size_t num_segments() const noexcept {
    return segs_ != nullptr ? segs_->size() : (single_.empty() ? 0 : 1);
  }
  [[nodiscard]] std::span<const Word> segment(std::size_t i) const noexcept {
    return segs_ != nullptr ? (*segs_)[i] : single_;
  }

  /// Appends the full inbox contents to `out` (one bulk copy per segment).
  void append_to(std::vector<Word>& out) const {
    out.reserve(out.size() + words_);
    for (std::size_t s = 0; s < num_segments(); ++s) {
      const auto seg = segment(s);
      out.insert(out.end(), seg.begin(), seg.end());
    }
  }
  [[nodiscard]] std::vector<Word> to_vector() const {
    std::vector<Word> out;
    append_to(out);
    return out;
  }

  /// Forward word iterator over the concatenated segments.
  class iterator {
   public:
    using value_type = Word;
    using difference_type = std::ptrdiff_t;

    iterator() = default;
    iterator(const InboxView* view, std::size_t seg) : view_(view), seg_(seg) {
      settle();
    }
    Word operator*() const noexcept { return view_->segment(seg_)[off_]; }
    iterator& operator++() noexcept {
      ++off_;
      settle();
      return *this;
    }
    iterator operator++(int) noexcept {
      iterator old = *this;
      ++*this;
      return old;
    }
    friend bool operator==(const iterator& a, const iterator& b) noexcept {
      return a.seg_ == b.seg_ && a.off_ == b.off_;
    }

   private:
    void settle() noexcept {
      while (view_ != nullptr && seg_ < view_->num_segments() &&
             off_ >= view_->segment(seg_).size()) {
        ++seg_;
        off_ = 0;
      }
    }
    const InboxView* view_ = nullptr;
    std::size_t seg_ = 0;
    std::size_t off_ = 0;
  };
  [[nodiscard]] iterator begin() const noexcept { return {this, 0}; }
  [[nodiscard]] iterator end() const noexcept {
    return {this, num_segments()};
  }

 private:
  friend class Engine;
  /// Fast path: a view that is one contiguous unicast range.
  std::span<const Word> single_{};
  /// Segmented path: borrowed from the engine (nullptr on the fast path).
  const std::vector<std::span<const Word>>* segs_ = nullptr;
  std::size_t words_ = 0;
};

class Engine final : private fault::RoundAdapter {
  /// One queued shared-payload delivery. `seq` snapshots how many unicast
  /// words the sender had queued in total when the shared push happened —
  /// the stream position the flush splices the payload in at, which keeps
  /// per-sender chronological order in the inbox.
  /// (Declared ahead of the public section so Snapshot can hold them.)
  struct SharedSend {
    std::uint32_t from;
    std::uint32_t to;
    PayloadId payload;
    std::uint64_t seq;
  };

 public:
  explicit Engine(Config config);

  [[nodiscard]] std::size_t num_machines() const noexcept {
    return config_.num_machines;
  }
  [[nodiscard]] std::size_t capacity() const noexcept {
    return config_.words_per_machine;
  }
  [[nodiscard]] bool strict() const noexcept { return config_.strict; }
  [[nodiscard]] const Metrics& metrics() const noexcept { return metrics_; }

  /// The execution backend this engine (and its drivers) run per-machine
  /// work through — Config::threads wide. Drivers use
  /// backend().parallel_for_machines / run_chunks for their local-phase
  /// loops so engine and driver share one pool.
  [[nodiscard]] ExecutionBackend& backend() noexcept { return *backend_; }

  /// Opens a streamed outbox for machine `from` — the one up-front sender
  /// check; appends through the handle pay a single destination compare
  /// each. Valid until the next exchange(). This is how the hot producers
  /// stage their home->machine record streams; the per-word push below
  /// wraps it.
  [[nodiscard]] Outbox outbox(std::size_t from) {
    if (from >= config_.num_machines) [[unlikely]] {
      throw_bad_machine(from);
    }
    return Outbox(&out_tos_[from], &out_counts_[from], &out_words_[from],
                  &out_open_to_[from], config_.num_machines,
                  config_.integrity ? &out_csums_[from] : nullptr);
  }

  /// Queues one word from machine `from` to machine `to` for the next
  /// exchange. Legacy entry point: a thin wrapper over a one-entry outbox
  /// (baselines and tests compile unchanged; hot drivers hold an Outbox).
  void push(std::size_t from, std::size_t to, Word word) {
    outbox(from).append(to, word);
  }

  /// Queues a word span (one run descriptor + one bulk copy).
  void push(std::size_t from, std::size_t to, std::span<const Word> words);

  /// Stores one copy of `words` for the next exchange and returns a handle
  /// any machine may push_broadcast against — so a relay round where many
  /// senders forward the same payload stores it once, total. The handle
  /// dies at the next exchange(); re-stage per round.
  PayloadId stage_payload(std::span<const Word> words);

  /// Queues the staged payload from `from` to every machine in `dests`:
  /// O(|dests|) descriptors, zero word copies. Accounting is unchanged from
  /// |dests| equivalent span pushes (|payload| words charged per
  /// destination). An empty payload is a no-op (as an empty push would be).
  void push_broadcast(std::size_t from, std::span<const std::size_t> dests,
                      PayloadId payload);

  /// Convenience: stage_payload + push_broadcast in one call.
  PayloadId push_broadcast(std::size_t from,
                           std::span<const std::size_t> dests,
                           std::span<const Word> payload);

  /// Queues `words` from `from` to `to` as one shared-payload segment (one
  /// stored copy; the receiver's view aliases it instead of re-copying into
  /// the inbox buffer). The gather half of the message plane: each
  /// contributed part arrives as exactly one segment.
  void push_gather(std::size_t from, std::size_t to,
                   std::span<const Word> words);

  /// Executes one communication round: delivers all queued words, enforces
  /// per-machine send/receive budgets, updates metrics, and makes inboxes
  /// readable. Queued outboxes are cleared; views, payloads, and Outbox
  /// handles from the previous round are invalidated.
  void exchange();

  /// Zero-copy view of the words delivered to `machine` by the most recent
  /// exchange (see InboxView for the ordering contract and lifetime).
  [[nodiscard]] InboxView inbox_view(std::size_t machine) const;

  /// The stored words of a payload delivered by the most recent exchange(),
  /// addressed by the PayloadId stage_payload returned before it. Aliases
  /// engine-owned storage: valid until the next exchange() or
  /// clear_inboxes(). This is how span-returning collectives
  /// (mpc::broadcast_view) hand out the delivered payload without a copy.
  [[nodiscard]] std::span<const Word> delivered_payload(PayloadId id) const {
    return delivered_payloads_.at(id);
  }

  /// Reports `words` of resident state on `machine` for peak-storage
  /// accounting (e.g. an adjacency shard or a gathered subgraph). In strict
  /// mode exceeding S throws.
  void note_storage(std::size_t machine, std::size_t words);

  /// Clears all inboxes (outboxes are cleared by exchange()). Invalidates
  /// outstanding views.
  void clear_inboxes();

  /// Opaque copy of the *staged* message plane — run-tag streams, the
  /// payload store, splice descriptors — plus Metrics, taken at a round
  /// boundary.  Restoring puts the engine back exactly as it was about to
  /// exchange.  Delivered inboxes are NOT captured: their segment views
  /// alias engine buffers and are invalidated by a rollback anyway
  /// (drivers re-read them from the replayed round).
  class Snapshot {
   public:
    Snapshot() = default;
    /// Words of checkpoint payload held — the engine's contribution to
    /// Metrics::checkpoint_bytes.
    [[nodiscard]] std::size_t words() const noexcept;

   private:
    friend class Engine;
    std::vector<std::vector<std::uint32_t>> out_tos;
    std::vector<std::vector<std::uint32_t>> out_counts;
    std::vector<std::vector<Word>> out_words;
    std::vector<std::uint32_t> out_open_to;
    std::vector<std::uint64_t> out_csums;
    std::vector<std::vector<Word>> staged_payloads;
    std::vector<std::uint64_t> staged_digests;
    std::vector<SharedSend> shared_sends;
    Metrics metrics{};
  };

  /// Captures the staged message plane (see Snapshot).  The fault
  /// machinery takes one just before applying a scheduled event
  /// (copy-on-fault — fault-free rounds never pay for it); tests may also
  /// call it directly.
  [[nodiscard]] Snapshot snapshot() const;
  /// Reinstates a snapshot taken on this engine (same machine count).
  /// Outstanding views and Outbox handles are invalidated.
  void restore(const Snapshot& snap);

  /// Attaches a deterministic fault schedule, consulted at every round
  /// boundary (round index = Metrics::rounds at entry), and the driver's
  /// checkpoint registry; see fault::RoundSupervisor::set_fault_plan.
  /// Passing nullptr (or an empty plan) detaches the schedule.
  void set_fault_plan(const fault::FaultPlan* plan,
                      fault::CheckpointRegistry* registry = nullptr,
                      bool recover = true) {
    sup_.set_fault_plan(plan, registry, recover);
  }

  /// Crashes absorbed by recovery so far (checked against the plan's
  /// crash_budget).
  [[nodiscard]] std::size_t crashes_recovered() const noexcept {
    return sup_.crashes_recovered();
  }

  /// Arms on-disk durability: every options.every-th safe point persists
  /// one generation under options.dir, and `scope` is the configuration
  /// signature baked into every file (see
  /// fault::RoundSupervisor::set_durability). No-op for an empty dir.
  void set_durability(const fault::DurableOptions& options,
                      std::string scope) {
    sup_.set_durability(options, std::move(scope));
  }

  /// Driver-announced safe point (a loop boundary where the registered
  /// providers are self-consistent and the message plane is quiescent).
  /// Parks the pool first, so no worker touches engine or provider state
  /// while a generation persists or a stop unwinds; then polls the stop
  /// flag and persists (fault::RoundSupervisor::checkpoint_boundary).
  /// Drivers call it unconditionally at their loop tops.
  void checkpoint_boundary() {
    backend_->quiesce();
    sup_.checkpoint_boundary(*this, metrics_.rounds);
  }

  /// Resume attempt (call once, after registering checkpoint providers and
  /// attaching any plan, before the first round): true when a generation
  /// was loaded and the driver should skip its preamble (see
  /// fault::RoundSupervisor::try_resume).
  bool try_resume() { return sup_.try_resume(*this); }

 private:
  void check_budget(std::size_t machine, std::size_t words, const char* dir);
  void check_machine(std::size_t machine) const;
  [[noreturn]] void throw_bad_machine(std::size_t machine) const;

  void drop_last_round();

  // fault::RoundAdapter hooks (see fault/supervisor.h). A machine's flush
  // is its unicast run streams plus its queued shared-payload sends; the
  // payload *store* outlives a lost flush (stage_payload models a durable
  // blob store). Unrecovered drops, duplicates and delays record their
  // word counts for the audit; restore_staging() zeroes them.
  std::size_t snapshot_staging() override;
  void restore_staging() override;
  void drop_flush(std::size_t machine) override;
  void duplicate_flush(std::size_t machine) override;
  void delay_flush(std::size_t machine) override;
  std::size_t corrupt_stream(std::size_t machine, std::size_t round,
                             std::size_t ordinal) override;
  [[nodiscard]] bool stream_ok(std::size_t machine) const override;
  std::size_t retransmit_stream(std::size_t machine) override;
  /// Rots the blob holding a word picked uniformly across the store, so a
  /// non-empty store always takes a hit.
  std::size_t corrupt_store(std::size_t machine, std::size_t round,
                            std::size_t ordinal) override;
  [[nodiscard]] bool store_ok() const override {
    return store_blob_ok(retained_blob_id_);
  }
  std::size_t repair_store() override;
  [[nodiscard]] std::size_t staged_words(std::size_t machine) const override;
  [[nodiscard]] std::size_t received_words(
      std::size_t machine) const override;
  /// The round body: verify, then the flush.
  void deliver() override;
  /// Send-side metrics keep a dark machine's words: they were sent, they
  /// just hit a dead host.
  void clear_delivered(std::size_t machine) override;
  /// Metrics, two reserved zero words, the crash count, and the delayed
  /// flushes (they straddle the round boundary). Staging and the payload
  /// store are not serialized: safe points are quiescent.
  void save_engine_section(std::vector<Word>& out,
                           std::size_t crashes) const override;
  std::size_t install_engine_section(fault::SectionReader& in) override;
  void account(const fault::FaultTally& tally) override {
    fault::add_tally(metrics_, tally);
  }

  void inject_delayed();
  /// Clears one sender's staged stream (tags, counts, words, open-run
  /// table, checksum accumulator).
  void clear_sender_staging(std::size_t from);
  /// Resets the sender's checksum accumulator to the digest of its current
  /// staged stream (after a non-append mutation: duplicate, delayed
  /// re-injection, restore).
  void resync_sender_checksum(std::size_t from);
  /// Flush-time verification of every sender's stream (one branch per
  /// flush reaches here only with Config::integrity on).  A mismatch at
  /// this point escaped the detect->retransmit protocol — real memory
  /// corruption, not an injected fault — and throws IntegrityError.
  void verify_streams() const;
  /// Lowest i < n with !ok(i), evaluated sharded over the pool (n when
  /// all pass).
  template <typename Ok>
  std::size_t first_failing(std::size_t n, Ok ok) const;
  /// True iff the blob's stored words still match the digest folded at
  /// stage_payload time — the reader-side store verification.
  [[nodiscard]] bool store_blob_ok(PayloadId id) const;
  /// Flush-time verification of every staged payload blob against its
  /// stage-time digest (reached only with Config::integrity on) — the
  /// reader-side guarantee that inbox_view / broadcast_view splices never
  /// alias rotted store bytes.  A mismatch here escaped the repair
  /// protocol and throws IntegrityError.
  void verify_store() const;
  /// The opt-in proactive scrub (Config::scrub_interval): re-digests the
  /// payload store and the wire streams.  Pure verification — inert on a
  /// clean run except for Metrics::scrub_passes.
  void scrub_pass();
  /// Audit mode: records the staged word total (post delayed-injection,
  /// pre fault events) and the fault adjustments baseline for this round.
  void begin_audit();
  /// Audit mode: checks conservation, capacity tallies, and segment bounds
  /// for the round just delivered; throws AuditError on violation.
  void finish_audit() const;
  /// The one flush, for unicast runs and shared payloads alike: per-slot
  /// sender-range histograms, one sequential prefix pass, positional run
  /// copies into exactly-sized inboxes (recording each shared payload's
  /// splice offset on the way), then the segment lists and the receive
  /// budgets. The slots are ascending sender ranges, so the delivered
  /// inboxes and all Metrics are the same for every thread count (see
  /// DESIGN.md, "Execution backends"); at one thread the whole flush is
  /// one slot.
  void flush(std::size_t m);

  Config config_;
  /// Execution backend (Config::threads wide); shared with the drivers via
  /// backend(). Destroyed last-ish in reverse member order, after every
  /// run_chunks has joined (run_chunks is blocking, so no chunk can
  /// outlive the call that launched it).
  std::unique_ptr<ExecutionBackend> backend_;
  Metrics metrics_;
  /// Per-sender outboxes: out_words_[from] is the sender's staged words in
  /// push order, described by the run tags in out_tos_[from] (one per
  /// maximal same-destination stretch; extended tags index into
  /// out_counts_[from] in order — see RunTag). A round of exchange() costs
  /// O(tags + machines) bookkeeping plus one bulk copy per run.
  std::vector<std::vector<std::uint32_t>> out_tos_;
  std::vector<std::vector<std::uint32_t>> out_counts_;
  std::vector<std::vector<Word>> out_words_;
  /// Destination of each sender's open (last) run, or RunTag::kNoDest.
  /// The compact mirror of out_tos_[from].back()'s destination that keeps
  /// the append-side merge test off the tag vectors' scattered tails.
  std::vector<std::uint32_t> out_open_to_;
  /// Per-sender incremental FNV-1a stream checksums (allocated only with
  /// Config::integrity; reset to Fnv::kOffset whenever the stream clears).
  std::vector<std::uint64_t> out_csums_;
  /// Unicast words delivered to each machine, sender-ascending (shared
  /// payloads are viewed in place, never copied here).
  std::vector<std::vector<Word>> inbox_;

  // Shared-payload plane. Staged payloads become `delivered_payloads_` at
  // exchange and stay alive (aliased by views) until the next exchange or
  // clear_inboxes.
  std::vector<std::vector<Word>> staged_payloads_;
  /// Per-blob FNV-1a digests folded at stage_payload time (parallel to
  /// staged_payloads_; maintained only with Config::integrity on) — the
  /// store half of the integrity layer.
  std::vector<std::uint64_t> staged_digests_;
  std::vector<std::vector<Word>> delivered_payloads_;
  std::vector<SharedSend> shared_sends_;
  /// Per-machine ordered segments for the current round; only filled for
  /// machines that received at least one shared payload (others use the
  /// single-span fast path). `seg_touched_` lists the filled machines for
  /// O(touched) teardown.
  std::vector<std::vector<std::span<const Word>>> in_segs_;
  std::vector<std::size_t> seg_touched_;
  /// Words received this round per machine (unicast + shared).
  std::vector<std::size_t> recv_total_;

  /// Flush scratch: per-slot receiver histograms and write cursors,
  /// slot-major ([slot * m + to]) — merged in ascending slot order, which
  /// is what makes the flush the same at every thread count.
  std::vector<std::size_t> slot_count_;
  std::vector<std::size_t> slot_cursor_;
  /// Where one delivered shared payload goes: before the word at offset
  /// `at` of receiver `to`'s inbox buffer.
  struct Splice {
    std::uint32_t to;
    PayloadId payload;
    std::size_t at;
  };
  /// Flush scratch: each slot's splices (sender-ascending, push order),
  /// and their slot-ascending concatenation sorted by receiver.
  std::vector<std::vector<Splice>> slot_splices_;
  std::vector<Splice> splices_;
  /// Verify scratch: per-sender / per-blob ok flags (the throw, which must
  /// name the lowest failing index, stays sequential).
  mutable std::vector<char> verify_ok_;

  // Fault injection, recovery and durability: the supervisor drives the
  // RoundAdapter hooks above.
  fault::RoundSupervisor sup_;
  /// The staging copy a faulty round rolls back to (snapshot_staging()).
  Snapshot fault_snap_;
  /// A flush held back by a non-recovered kDelayFlush, stored as run
  /// descriptors.
  struct DelayedFlush {
    std::size_t from = 0;
    std::vector<std::uint32_t> tos;
    std::vector<std::uint32_t> counts;
    std::vector<Word> words;
  };
  std::vector<DelayedFlush> delayed_;
  /// Sender-side retention for the detect->retransmit protocol: the
  /// pristine copy of the stream a kCorruptPayload event is about to
  /// mangle (valid within one faulty round).
  struct RetainedStream {
    std::vector<std::uint32_t> tos;
    std::vector<std::uint32_t> counts;
    std::vector<Word> words;
    std::uint32_t open_to = RunTag::kNoDest;
    std::uint64_t csum = 0;
  };
  RetainedStream retained_;
  /// Publisher-side retention for the store-repair protocol: the pristine
  /// copy of the payload blob a kCorruptStore event is about to mangle
  /// (valid for the blob named by retained_blob_id_ within one faulty
  /// round).
  std::vector<Word> retained_blob_;
  PayloadId retained_blob_id_ = static_cast<PayloadId>(-1);

  // Audit-mode per-round scratch (see Config::audit): the staged total at
  // round entry and the word-count adjustments unrecovered faults made to
  // the staging, so finish_audit() can close the conservation equation.
  std::size_t audit_staged_ = 0;
  std::size_t audit_dropped_ = 0;
  std::size_t audit_duped_ = 0;
  std::size_t audit_delayed_ = 0;
  std::size_t audit_violations_at_ = 0;
};

}  // namespace mpcg::mpc

#endif  // MPCG_MPC_ENGINE_H
