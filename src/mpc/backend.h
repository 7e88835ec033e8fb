// Pluggable execution backends for the model simulators.
//
// The MPC model (paper, Section 1.1.1) is defined by m machines computing
// *concurrently* between synchronous exchanges, yet the engines simulate
// every machine on one thread. An ExecutionBackend abstracts that choice:
//   * SequentialBackend runs the one chunk of every call inline on the
//     caller's thread;
//   * ParallelBackend fans chunks out over a fixed-size std::thread pool
//     (the caller participates, so thread counts may oversubscribe the
//     box without deadlock).
//
// Determinism contract. run_chunks(begin, end, fn) splits [begin, end) into
// exactly threads() contiguous chunks whose boundaries are a pure function
// of (begin, end, threads()) — chunk k covers
// [begin + len*k/T, begin + len*(k+1)/T). Every consumer in this codebase
// writes per-chunk (slot-indexed) state during the parallel region and
// merges it in ascending slot order afterwards, so the merged result equals
// the left-to-right reduction for ANY thread count: the concatenation of
// per-chunk results over a contiguous partition of the iteration domain,
// taken in chunk order, is the iteration order itself. At one thread the
// whole range is one chunk, so every caller has exactly one code path.
// Shared state may be read freely inside chunks but written only through a
// slot-private channel.
//
// Exceptions thrown inside a chunk are captured per slot and rethrown on
// the calling thread after the join, lowest slot first — the chunk holding
// the earliest iterations wins, as it would at one thread.
#ifndef MPCG_MPC_BACKEND_H
#define MPCG_MPC_BACKEND_H

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

namespace mpcg::mpc {

class ExecutionBackend {
 public:
  virtual ~ExecutionBackend() = default;

  /// Number of chunks every run_chunks call is split into (1 for the
  /// sequential backend; the pool size, caller included, for the parallel
  /// one).
  [[nodiscard]] virtual std::size_t threads() const noexcept = 0;

  /// fn(slot, lo, hi): process iterations [lo, hi) as chunk `slot`.
  using ChunkFn =
      std::function<void(std::size_t, std::size_t, std::size_t)>;

  /// Blocking fork-join over [begin, end): splits the range into threads()
  /// contiguous chunks (empty chunks are skipped) and runs fn once per
  /// chunk. Returns only after every chunk completed; rethrows the
  /// lowest-slot captured exception, if any. Chunk boundaries are identical
  /// across calls with the same (begin, end), so multi-pass schemes
  /// (histogram, then positional copy) see consistent slots.
  virtual void run_chunks(std::size_t begin, std::size_t end,
                          const ChunkFn& fn) = 0;

  /// Blocks until every pool worker is parked in its idle wait (no-op for
  /// the sequential backend). The engines call this at checkpoint/stop safe
  /// points so durable persistence and process death never race a worker.
  virtual void quiesce() {}

  /// Convenience for loops whose iterations are fully independent: runs
  /// fn(i) for every i in [0, range), chunked as above.
  template <typename Fn>
  void parallel_for_machines(std::size_t range, Fn&& fn) {
    run_chunks(0, range,
               [&fn](std::size_t, std::size_t lo, std::size_t hi) {
                 for (std::size_t i = lo; i < hi; ++i) fn(i);
               });
  }
};

/// One thread: threads() == 1, so run_chunks is one inline call over the
/// whole range.
class SequentialBackend final : public ExecutionBackend {
 public:
  [[nodiscard]] std::size_t threads() const noexcept override { return 1; }
  void run_chunks(std::size_t begin, std::size_t end,
                  const ChunkFn& fn) override {
    if (begin < end) fn(0, begin, end);
  }
};

/// Fixed-size shared-memory pool. `threads - 1` workers are spawned; the
/// run_chunks caller claims chunks alongside them, so progress never
/// depends on the scheduler granting the workers a core.
///
/// One reusable job slot carries every fork-join: the caller writes the
/// job, then publishes it by bumping the generation half of `ticket_`.
/// Workers claim chunk indices with a compare-and-swap on the whole ticket,
/// so a straggler still holding an old generation can never claim a chunk
/// of a newer job, and the job fields are read only after a successful
/// claim (the job cannot finish, so cannot be rewritten, while a claimed
/// chunk is outstanding). Idle workers spin briefly on the ticket, then
/// park on a condition variable; the mutex is touched only to park and to
/// wake a parked thread. Ranges too small to pay for a wake-up run inline
/// on the caller (see backend.cpp for the grain and spin bound).
class ParallelBackend final : public ExecutionBackend {
 public:
  explicit ParallelBackend(std::size_t threads);
  ~ParallelBackend() override;

  ParallelBackend(const ParallelBackend&) = delete;
  ParallelBackend& operator=(const ParallelBackend&) = delete;

  [[nodiscard]] std::size_t threads() const noexcept override {
    return nthreads_;
  }
  void run_chunks(std::size_t begin, std::size_t end,
                  const ChunkFn& fn) override;
  void quiesce() override;

  /// Workers currently parked in the idle wait (of nthreads_ - 1). Exposed
  /// so the quiesce contract is testable.
  [[nodiscard]] std::size_t idle_workers() const;

  /// Ranges with fewer than inline_grain() * threads() items run every
  /// chunk on the caller, slot-ascending, without waking the pool.
  [[nodiscard]] static std::size_t inline_grain() noexcept;

 private:
  void worker_loop();
  /// Claims and runs chunks of job `gen` until none is left.
  void drain(std::uint64_t gen);
  /// Runs chunk `slot` of [begin, begin + len) unless it is empty,
  /// capturing its exception into errors_[slot].
  void run_chunk(const ChunkFn& fn, std::size_t begin, std::size_t len,
                 std::size_t slot);

  std::size_t nthreads_;
  /// generation << 32 | next unclaimed chunk index.
  std::atomic<std::uint64_t> ticket_{0};
  /// Chunks of the current job not yet finished.
  std::atomic<std::size_t> pending_{0};
  // The job slot: written by the caller before publishing, read by a
  // thread only after it claimed a chunk of that generation.
  const ChunkFn* fn_ = nullptr;
  std::size_t begin_ = 0;
  std::size_t len_ = 0;
  std::vector<std::exception_ptr> errors_;  // per slot

  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::atomic<bool> stopping_{false};
  /// Set by quiesce(): spinning workers park at once.
  std::atomic<bool> park_now_{false};
  /// Set while the caller sleeps on done_cv_ for the last chunk.
  std::atomic<bool> caller_parked_{false};
  std::atomic<std::size_t> idle_{0};  // workers parked in work_cv_ wait
  std::vector<std::thread> pool_;
};

/// threads <= 1 -> SequentialBackend; otherwise a pool of `threads` (caller
/// included).
std::unique_ptr<ExecutionBackend> make_backend(std::size_t threads);

/// One staged word destined for an engine outbox: collect-then-drain
/// sharded staging (below) gathers these per (chunk, sender).
struct StageRecord {
  std::uint32_t to;
  std::uint64_t word;
};

/// Collect-then-drain sharded staging for driver loops whose iterations
/// stage through *colliding* senders (e.g. matching's distribute loop
/// stages vertex v through outbox(home[v]), and homes collide across a
/// chunk). The collect phase runs chunked over the iteration domain, each
/// chunk appending records into its own slot's per-sender buckets; the
/// drain phase walks each touched sender's buckets in ascending slot order
/// and hands them to the caller (which appends them to the engine outbox).
// Per-sender engine staging state is disjoint across senders, so distinct
// senders drain concurrently; one sender's records arrive in slot order =
// iteration order, so every sender's stream is the one a direct loop over
// the iterations would stage (including run merging, which only depends on
// the per-sender append sequence).
class StageShards {
 public:
  /// Prepares `slots` x `senders` buckets, clearing only what the previous
  /// collect touched (buckets stay warm across phases).
  void reset(std::size_t slots, std::size_t senders) {
    if (parts_.size() < slots) parts_.resize(slots);
    if (touched_.size() < slots) touched_.resize(slots);
    for (std::size_t s = 0; s < slots_used_; ++s) {
      for (const std::uint32_t snd : touched_[s]) parts_[s][snd].clear();
      touched_[s].clear();
    }
    for (std::size_t s = 0; s < slots; ++s) {
      if (parts_[s].size() < senders) parts_[s].resize(senders);
    }
    if (seen_.size() < senders) seen_.assign(senders, 0);
    slots_used_ = slots;
  }

  /// Collect-phase append from chunk `slot` (slot-private bucket: no
  /// synchronization).
  void add(std::size_t slot, std::uint32_t sender, std::uint32_t to,
           std::uint64_t word) {
    std::vector<StageRecord>& bucket = parts_[slot][sender];
    if (bucket.empty()) touched_[slot].push_back(sender);
    bucket.push_back(StageRecord{to, word});
  }

  /// Drains every touched sender: fn(sender, records) is invoked once per
  /// non-empty (sender, slot) bucket, slots ascending per sender; distinct
  /// senders run in parallel over `backend`. fn must touch only that
  /// sender's engine state.
  template <typename Fn>
  void drain(ExecutionBackend& backend, Fn&& fn) {
    sender_list_.clear();
    for (std::size_t s = 0; s < slots_used_; ++s) {
      for (const std::uint32_t snd : touched_[s]) {
        if (!seen_[snd]) {
          seen_[snd] = 1;
          sender_list_.push_back(snd);
        }
      }
    }
    // Chunk over the records, not the senders: a chunk drains the senders
    // whose first record (in sender_list_ order) falls inside it. Every
    // sender owns at least one record, so the starts strictly ascend and
    // each sender lands in exactly one chunk; a few hundred senders
    // carrying tens of thousands of records still spread over the pool.
    sender_start_.clear();
    std::size_t total = 0;
    for (const std::uint32_t snd : sender_list_) {
      seen_[snd] = 0;
      sender_start_.push_back(total);
      for (std::size_t s = 0; s < slots_used_; ++s) {
        total += parts_[s][snd].size();
      }
    }
    backend.run_chunks(
        0, total, [&](std::size_t, std::size_t lo, std::size_t hi) {
          const auto first = std::lower_bound(sender_start_.begin(),
                                              sender_start_.end(), lo);
          const auto last = std::lower_bound(first, sender_start_.end(), hi);
          for (auto it = first; it != last; ++it) {
            const std::uint32_t snd =
                sender_list_[static_cast<std::size_t>(
                    it - sender_start_.begin())];
            for (std::size_t s = 0; s < slots_used_; ++s) {
              const std::vector<StageRecord>& bucket = parts_[s][snd];
              if (!bucket.empty()) {
                fn(snd, std::span<const StageRecord>(bucket));
              }
            }
          }
        });
  }

  /// Senders the last drain visited (first-touched order — fine for
  /// touched-only clearing, not an ordering contract). Valid until the
  /// next reset() or drain().
  [[nodiscard]] std::span<const std::uint32_t> drained_senders()
      const noexcept {
    return sender_list_;
  }

 private:
  std::size_t slots_used_ = 0;
  std::vector<std::vector<std::vector<StageRecord>>> parts_;  // [slot][snd]
  std::vector<std::vector<std::uint32_t>> touched_;           // [slot]
  std::vector<std::uint32_t> sender_list_;                    // drain order
  std::vector<std::size_t> sender_start_;  // first record index per sender
  std::vector<char> seen_;
};

}  // namespace mpcg::mpc

#endif  // MPCG_MPC_BACKEND_H
