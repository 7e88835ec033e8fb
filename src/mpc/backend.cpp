#include "mpc/backend.h"

#include <algorithm>

namespace mpcg::mpc {

namespace {

/// Items per chunk below which a range runs inline on the caller. On a
/// 4-vCPU Intel Xeon VM, a back-to-back pooled call over 4096 trivial
/// items costs about 3 us (2.3 us inline): about the work of 1024 items
/// of the hot scans (matching's distribute filter, per-sender drains). An
/// interleaved perfbench matching_gnp sweep (3 seeds each, medians, spin
/// bound 4096 at the time) gave 5.01 / 4.34 / 4.51 / 4.57 s for grains
/// 256 / 1024 / 4096 / 16384.
constexpr std::size_t kInlineGrain = 1024;

/// Pause iterations a thread spins on the ticket (workers) or on the
/// pending count (the caller) before parking on a condition variable:
/// 1024 pauses are about 22 us on that VM. In interleaved matching_gnp
/// runs, bounds 0 and 256 were slower (medians 4.89 and 4.69 s against
/// 4.47 s) and 4096 or 16384 were no faster (4.34 and 4.19 s against
/// 3.76 s in their own interleave), so the shortest bound that is not
/// slower is kept: an idle worker burns at most ~22 us of a core after
/// each job before it parks.
constexpr std::size_t kSpinIterations = 1024;

constexpr unsigned kIndexBits = 32;
constexpr std::uint64_t kIndexMask = (std::uint64_t{1} << kIndexBits) - 1;

inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

}  // namespace

std::size_t ParallelBackend::inline_grain() noexcept { return kInlineGrain; }

ParallelBackend::ParallelBackend(std::size_t threads)
    : nthreads_(threads < 2 ? 2 : threads), errors_(nthreads_) {
  pool_.reserve(nthreads_ - 1);
  for (std::size_t i = 0; i + 1 < nthreads_; ++i) {
    pool_.emplace_back([this] { worker_loop(); });
  }
}

ParallelBackend::~ParallelBackend() {
  {
    std::lock_guard<std::mutex> lg(mu_);
    stopping_.store(true);
  }
  work_cv_.notify_all();
  for (std::thread& t : pool_) t.join();
}

void ParallelBackend::worker_loop() {
  std::uint64_t seen = 0;  // generation of the last job looked at
  for (;;) {
    // Spin on the ticket for a fresh generation, then park.
    std::uint64_t gen = ticket_.load(std::memory_order_relaxed) >> kIndexBits;
    for (std::size_t spin = 0; gen == seen && spin < kSpinIterations &&
                               !park_now_.load(std::memory_order_relaxed) &&
                               !stopping_.load(std::memory_order_relaxed);
         ++spin) {
      cpu_relax();
      gen = ticket_.load(std::memory_order_relaxed) >> kIndexBits;
    }
    if (gen == seen) {
      std::unique_lock<std::mutex> lk(mu_);
      // idle_ is raised before the generation is re-read (both seq_cst),
      // pairing with run_chunks' publish-then-read-idle_: either the
      // caller sees this worker parked and wakes it, or this check sees
      // the new generation.
      idle_.fetch_add(1);
      done_cv_.notify_all();  // quiesce() watches idle_
      work_cv_.wait(lk, [&] {
        gen = ticket_.load() >> kIndexBits;
        return stopping_.load() || gen != seen;
      });
      idle_.fetch_sub(1);
    }
    if (stopping_.load()) return;
    seen = gen;
    drain(gen);
  }
}

void ParallelBackend::drain(std::uint64_t gen) {
  std::uint64_t t = ticket_.load(std::memory_order_acquire);
  for (;;) {
    if ((t >> kIndexBits) != gen || (t & kIndexMask) >= nthreads_) return;
    // The claim is the only synchronization with the job slot: it reads
    // the caller's release publish (RMWs extend its release sequence).
    if (ticket_.compare_exchange_weak(t, t + 1, std::memory_order_acq_rel,
                                      std::memory_order_acquire)) {
      run_chunk(*fn_, begin_, len_, static_cast<std::size_t>(t & kIndexMask));
      // Last chunk done: wake the caller if it already parked (seq_cst
      // pairs with its store of caller_parked_ before re-reading pending_).
      if (pending_.fetch_sub(1) == 1 && caller_parked_.load()) {
        std::lock_guard<std::mutex> lg(mu_);
        done_cv_.notify_all();
      }
      t = ticket_.load(std::memory_order_acquire);
    }
  }
}

void ParallelBackend::run_chunk(const ChunkFn& fn, std::size_t begin,
                                std::size_t len, std::size_t slot) {
  const std::size_t lo = begin + len * slot / nthreads_;
  const std::size_t hi = begin + len * (slot + 1) / nthreads_;
  if (lo == hi) return;
  try {
    fn(slot, lo, hi);
  } catch (...) {
    errors_[slot] = std::current_exception();
  }
}

void ParallelBackend::run_chunks(std::size_t begin, std::size_t end,
                                 const ChunkFn& fn) {
  if (begin >= end) return;
  std::fill(errors_.begin(), errors_.end(), nullptr);
  const std::size_t len = end - begin;
  if (len < kInlineGrain * nthreads_) {
    // Too small to pay for a wake-up: the same chunks, slot-ascending, on
    // the caller. Every chunk runs; the lowest slot's exception wins.
    for (std::size_t slot = 0; slot < nthreads_; ++slot) {
      run_chunk(fn, begin, len, slot);
    }
  } else {
    fn_ = &fn;
    begin_ = begin;
    len_ = len;
    pending_.store(nthreads_, std::memory_order_relaxed);
    park_now_.store(false, std::memory_order_relaxed);
    const std::uint64_t gen =
        (ticket_.load(std::memory_order_relaxed) >> kIndexBits) + 1;
    ticket_.store(gen << kIndexBits);  // publish (seq_cst, see worker_loop)
    if (idle_.load() != 0) {
      { std::lock_guard<std::mutex> lg(mu_); }
      work_cv_.notify_all();
    }
    drain(gen);  // the caller participates
    for (std::size_t spin = 0;
         pending_.load(std::memory_order_acquire) != 0; ++spin) {
      if (spin < kSpinIterations) {
        cpu_relax();
        continue;
      }
      std::unique_lock<std::mutex> lk(mu_);
      caller_parked_.store(true);
      done_cv_.wait(lk, [&] { return pending_.load() == 0; });
      caller_parked_.store(false, std::memory_order_relaxed);
      break;
    }
  }
  for (std::exception_ptr& e : errors_) {
    if (e) std::rethrow_exception(e);  // lowest slot wins, like sequential
  }
}

void ParallelBackend::quiesce() {
  park_now_.store(true, std::memory_order_relaxed);
  std::unique_lock<std::mutex> lk(mu_);
  done_cv_.wait(lk, [&] { return idle_.load() == pool_.size(); });
}

std::size_t ParallelBackend::idle_workers() const {
  std::lock_guard<std::mutex> lg(mu_);
  return idle_.load();
}

std::unique_ptr<ExecutionBackend> make_backend(std::size_t threads) {
  if (threads <= 1) return std::make_unique<SequentialBackend>();
  return std::make_unique<ParallelBackend>(threads);
}

}  // namespace mpcg::mpc
