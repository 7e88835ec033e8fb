#include "mpc/engine.h"

#include <algorithm>
#include <cstring>
#include <functional>
#include <type_traits>

#include "fault/checkpoint.h"
#include "fault/fault_plan.h"
#include "util/rng.h"

namespace mpcg::mpc {

namespace {

/// Bulk word copy with a short-run fast path: scattered traffic stages
/// mostly single-word runs, and a libc memmove call per word would cost
/// more than the copy itself.
inline void copy_run(Word* dst, const Word* src, std::size_t count) {
  if (count <= 4) {
    for (std::size_t i = 0; i < count; ++i) dst[i] = src[i];
  } else {
    std::memcpy(dst, src, count * sizeof(Word));
  }
}

/// Decodes one sender's run-tag/count streams, invoking fn(to, count) per
/// run in staging order — the single source for the side-effecting count
/// cursor walk (extended tags consume the next side-stream count;
/// singleton tags are a run of one).
template <typename Fn>
inline void for_each_run(const std::vector<std::uint32_t>& tos,
                         const std::uint32_t* counts, Fn&& fn) {
  std::size_t ci = 0;
  for (const std::uint32_t tag : tos) {
    fn(static_cast<std::size_t>(tag & RunTag::kDestMask),
       (tag & RunTag::kExtFlag) != 0
           ? static_cast<std::size_t>(counts[ci++])
           : std::size_t{1});
  }
}

/// Appends a run to an inbox whose exact capacity was reserved up front
/// (the append can never reallocate — segment spans alias the buffer).
/// Single-word runs — the bulk of scattered traffic — skip the insert
/// machinery.
inline void append_run_to(std::vector<Word>& in, const Word* src,
                          std::size_t count) {
  if (count == 1) {
    in.push_back(*src);
    return;
  }
  in.insert(in.end(), src, src + count);
}

}  // namespace

Engine::Engine(Config config) : config_(config) {
  if (config_.num_machines == 0) {
    throw std::invalid_argument("Engine: need at least one machine");
  }
  backend_ = make_backend(config_.threads);
  const std::size_t m = config_.num_machines;
  out_tos_.assign(m, {});
  out_counts_.assign(m, {});
  out_words_.assign(m, {});
  out_open_to_.assign(m, RunTag::kNoDest);
  if (config_.integrity) out_csums_.assign(m, Fnv::kOffset);
  inbox_.assign(m, {});
  in_segs_.assign(m, {});
  recv_total_.assign(m, 0);
  inbox_cache_.assign(m, {});
  inbox_cache_valid_.assign(m, 0);
  recv_count_.assign(m, 0);
  if (!config_.checkpoint_dir.empty()) {
    if (config_.checkpoint_every == 0) {
      throw std::invalid_argument("Engine: checkpoint_every must be >= 1");
    }
    dring_.emplace(config_.checkpoint_dir);
    // A fresh durable run must never let a previous run's same-scope files
    // outrank its own checkpoints by sequence number.
    if (!config_.resume) dring_->reset();
  }
}

void Outbox::throw_bad_dest(std::size_t to) const {
  throw std::out_of_range("Outbox: machine id " + std::to_string(to) +
                          " out of range (have " +
                          std::to_string(num_machines_) + ")");
}

void Engine::check_machine(std::size_t machine) const {
  if (machine >= config_.num_machines) {
    throw std::out_of_range("Engine: machine id " + std::to_string(machine) +
                            " out of range (have " +
                            std::to_string(config_.num_machines) + ")");
  }
}

void Engine::throw_bad_machine(std::size_t machine) const {
  check_machine(machine);
  throw std::out_of_range("Engine: unreachable");
}

void Engine::push(std::size_t from, std::size_t to,
                  std::span<const Word> words) {
  outbox(from).append_run(to, words);
}

PayloadId Engine::stage_payload(std::span<const Word> words) {
  staged_payloads_.emplace_back(words.begin(), words.end());
  // Store half of the integrity layer: the publisher folds the blob's
  // digest at stage time; readers re-verify it before any view aliases
  // the stored words (verify_store).
  if (config_.integrity) staged_digests_.push_back(Fnv::digest(words));
  return static_cast<PayloadId>(staged_payloads_.size() - 1);
}

void Engine::push_broadcast(std::size_t from,
                            std::span<const std::size_t> dests,
                            PayloadId payload) {
  check_machine(from);
  if (payload >= staged_payloads_.size()) {
    throw std::out_of_range(
        "Engine: unknown payload id (staged payloads die at exchange; "
        "re-stage per round)");
  }
  const bool empty = staged_payloads_[payload].empty();
  for (const std::size_t to : dests) {
    check_machine(to);
    if (empty) continue;  // an empty payload delivers nothing, like push({})
    shared_sends_.push_back(SharedSend{static_cast<std::uint32_t>(from),
                                       static_cast<std::uint32_t>(to), payload,
                                       out_words_[from].size()});
  }
}

PayloadId Engine::push_broadcast(std::size_t from,
                                 std::span<const std::size_t> dests,
                                 std::span<const Word> payload) {
  const PayloadId pid = stage_payload(payload);
  push_broadcast(from, dests, pid);
  return pid;
}

void Engine::push_gather(std::size_t from, std::size_t to,
                         std::span<const Word> words) {
  check_machine(from);
  check_machine(to);
  if (words.empty()) return;
  const PayloadId pid = stage_payload(words);
  shared_sends_.push_back(SharedSend{static_cast<std::uint32_t>(from),
                                     static_cast<std::uint32_t>(to), pid,
                                     out_words_[from].size()});
}

void Engine::check_budget(std::size_t machine, std::size_t words,
                          const char* dir) {
  if (words > config_.words_per_machine) {
    ++metrics_.violations;
    if (config_.strict) {
      throw CapacityError("machine " + std::to_string(machine) + " " + dir +
                          " " + std::to_string(words) + " words in round " +
                          std::to_string(metrics_.rounds) + ": requested " +
                          std::to_string(words) + ", available " +
                          std::to_string(config_.words_per_machine));
    }
  }
}

void Engine::drop_last_round() {
  if (!shared_round_) return;
  for (const std::size_t t : seg_touched_) {
    in_segs_[t].clear();
    inbox_cache_valid_[t] = 0;
  }
  seg_touched_.clear();
  delivered_payloads_.clear();
  shared_round_ = false;
}

void Engine::exchange() {
  if (!delayed_.empty()) inject_delayed();
  if (config_.audit) begin_audit();
  if (fault_plan_ != nullptr) {
    // Round index = rounds completed so far; events scheduled for it fire
    // against this exchange's staged traffic.
    const auto events = fault_plan_->events_at(metrics_.rounds);
    if (!events.empty()) {
      exchange_faulty(events);
      return;
    }
  }
  exchange_impl();
}

void Engine::exchange_impl() {
  const std::size_t m = config_.num_machines;
  // The one integrity branch per flush: every sender's staged stream is
  // verified against its append-time checksum — and every staged payload
  // blob against its stage-time digest — before anything delivers.
  if (config_.integrity) {
    if (config_.scrub_interval != 0 &&
        (metrics_.rounds + 1) % config_.scrub_interval == 0) {
      scrub_pass();
    }
    verify_streams();
    verify_store();
  }
  drop_last_round();
  // Orphaned payloads — staged blobs whose every send descriptor was
  // destroyed by unrecovered fault corruption — still publish through the
  // shared path: the blob store is durable (receivers address blobs by
  // PayloadId), only the inbox deliveries are lost. Unreachable without a
  // fault plan: drivers never stage without pushing.
  if (shared_sends_.empty() &&
      (fault_plan_ == nullptr || staged_payloads_.empty())) {
    // Payloads staged but never pushed die here, per the lifetime contract.
    staged_payloads_.clear();
    staged_digests_.clear();
    exchange_unicast(m);
  } else {
    // Shared-payload rounds splice store-aliasing segments between unicast
    // stretches per (sender, receiver) pair; the splice machinery stays
    // sequential on every backend (broadcast/gather rounds move O(n)
    // words through O(m) descriptors — never the hot surface).
    exchange_shared(m);
  }
  if (config_.audit) finish_audit();
  ++metrics_.rounds;
}

void Engine::deliver_sender_runs(std::size_t from, std::size_t m) {
  const auto& tos = out_tos_[from];
  const std::uint32_t* counts = out_counts_[from].data();
  const Word* words = out_words_[from].data();
  const std::size_t nw = out_words_[from].size();
  if (nw >= 2 * m && 2 * tos.size() >= nw) {
    // Scattered big sender (runs are mostly single words): a word-level
    // counting sort through the scatter buffer, so each receiver gets one
    // bulk append instead of one per run. Worth the O(machines)
    // bookkeeping once the sender moved at least that many words.
    bucket_count_.assign(m, 0);
    for_each_run(tos, counts, [&](std::size_t to, std::size_t count) {
      bucket_count_[to] += count;
    });
    bucket_cursor_.resize(m);
    std::size_t acc = 0;
    for (std::size_t to = 0; to < m; ++to) {
      bucket_cursor_[to] = acc;
      acc += bucket_count_[to];
    }
    scatter_.resize(nw);
    std::size_t pos = 0;
    for_each_run(tos, counts, [&](std::size_t to, std::size_t count) {
      if (count == 1) {
        scatter_[bucket_cursor_[to]++] = words[pos++];
      } else {
        copy_run(scatter_.data() + bucket_cursor_[to], words + pos, count);
        bucket_cursor_[to] += count;
        pos += count;
      }
    });
    pos = 0;
    for (std::size_t to = 0; to < m; ++to) {
      const std::size_t count = bucket_count_[to];
      if (count > 0) {
        const std::size_t base = inbox_[to].size();
        append_run_to(inbox_[to], scatter_.data() + pos, count);
        if (shared_recv_[to] > 0) {
          in_segs_[to].emplace_back(inbox_[to].data() + base, count);
        }
      }
      pos += count;
    }
  } else {
    // Run-length delivery: one bulk copy per descriptor. This is the whole
    // point of the streamed staging — bulky record streams deliver in
    // O(runs), never re-scanning per word.
    std::size_t pos = 0;
    for_each_run(tos, counts, [&](std::size_t to, std::size_t count) {
      const std::size_t base = inbox_[to].size();
      append_run_to(inbox_[to], words + pos, count);
      if (shared_recv_[to] > 0) {
        in_segs_[to].emplace_back(inbox_[to].data() + base, count);
      }
      pos += count;
    });
  }
  clear_sender_staging(from);
}

void Engine::clear_sender_staging(std::size_t from) {
  out_tos_[from].clear();
  out_counts_[from].clear();
  out_words_[from].clear();
  out_open_to_[from] = RunTag::kNoDest;
  if (config_.integrity) out_csums_[from] = Fnv::kOffset;
}

void Engine::exchange_unicast(std::size_t m) {
  // Slot-sharded flush in four phases:
  //   A (chunked)    per-slot receiver histograms over each slot's
  //                  contiguous ascending sender range;
  //   B (sequential) combine the histograms in ascending slot order into
  //                  recv_count_ and per-(slot, receiver) write bases —
  //                  the positional image of a sender-ascending delivery
  //                  — and size the inboxes;
  //   C (chunked)    each slot bulk-copies its senders' runs to its
  //                  precomputed positions (disjoint across slots by
  //                  construction) and clears its senders' staging;
  //   D (sequential) receiving-side budget checks and metrics, ascending.
  // Every inbox holds its words sender-ascending, each sender's in push
  // order, for any thread count: slots are ascending sender ranges, each
  // slot writes its runs in sender-then-push order, and the bases
  // concatenate the slots in order.
  for (std::size_t from = 0; from < m; ++from) {
    const std::size_t sent = out_words_[from].size();
    metrics_.max_sent_words = std::max(metrics_.max_sent_words, sent);
    metrics_.total_words += sent;
    check_budget(from, sent, "sent");
  }
  const std::size_t slots = backend_->threads();
  slot_count_.assign(slots * m, 0);
  backend_->run_chunks(
      0, m, [&](std::size_t slot, std::size_t lo, std::size_t hi) {
        std::size_t* count = slot_count_.data() + slot * m;
        for (std::size_t from = lo; from < hi; ++from) {
          for_each_run(out_tos_[from], out_counts_[from].data(),
                       [&](std::size_t to, std::size_t n) {
                         count[to] += n;
                       });
        }
      });
  slot_cursor_.resize(slots * m);
  for (std::size_t to = 0; to < m; ++to) {
    std::size_t acc = 0;
    for (std::size_t s = 0; s < slots; ++s) {
      slot_cursor_[s * m + to] = acc;
      acc += slot_count_[s * m + to];
    }
    recv_count_[to] = acc;
    inbox_[to].clear();
    inbox_[to].resize(acc);
  }
  backend_->run_chunks(
      0, m, [&](std::size_t slot, std::size_t lo, std::size_t hi) {
        std::size_t* cursor = slot_cursor_.data() + slot * m;
        for (std::size_t from = lo; from < hi; ++from) {
          const Word* words = out_words_[from].data();
          std::size_t pos = 0;
          for_each_run(out_tos_[from], out_counts_[from].data(),
                       [&](std::size_t to, std::size_t count) {
                         copy_run(inbox_[to].data() + cursor[to], words + pos,
                                  count);
                         cursor[to] += count;
                         pos += count;
                       });
          clear_sender_staging(from);
        }
      });
  for (std::size_t to = 0; to < m; ++to) {
    const std::size_t received = recv_count_[to];
    metrics_.max_received_words = std::max(metrics_.max_received_words,
                                           received);
    check_budget(to, received, "received");
    // Whatever a machine received is resident until it processes it.
    metrics_.peak_storage_words = std::max(metrics_.peak_storage_words,
                                           received);
  }
}

std::vector<std::span<const Word>>& Engine::touch_segs(std::size_t to) {
  if (in_segs_[to].empty()) seg_touched_.push_back(to);
  return in_segs_[to];
}

void Engine::deliver_pair_with_shared(std::size_t to,
                                      std::span<const Word> box,
                                      std::span<const SharedSend> sends) {
  // Interleave this pair's unicast words with its shared payloads at the
  // recorded splice offsets; payload segments alias the stored copy.
  auto& segs = in_segs_[to];
  auto& in = inbox_[to];
  const std::size_t base = in.size();
  std::size_t cursor = 0;
  for (const SharedSend& s : sends) {
    const std::size_t split =
        std::min<std::size_t>(static_cast<std::size_t>(s.seq), box.size());
    if (split > cursor) {
      in.insert(in.end(), box.begin() + static_cast<std::ptrdiff_t>(cursor),
                box.begin() + static_cast<std::ptrdiff_t>(split));
      segs.emplace_back(in.data() + base + cursor, split - cursor);
      cursor = split;
    }
    const auto& payload = delivered_payloads_[s.payload];
    segs.emplace_back(payload.data(), payload.size());
  }
  if (box.size() > cursor) {
    in.insert(in.end(), box.begin() + static_cast<std::ptrdiff_t>(cursor),
              box.end());
    segs.emplace_back(in.data() + base + cursor, box.size() - cursor);
  }
}

void Engine::exchange_shared(std::size_t m) {
  shared_round_ = true;
  delivered_payloads_ = std::move(staged_payloads_);
  staged_payloads_.clear();
  // The blobs were verified against these digests just above
  // (verify_store); delivered blobs cannot rot afterwards — faults fire
  // only at round boundaries — so the digests die with the staging.
  staged_digests_.clear();
  // Take the queue by value first: a strict-mode CapacityError below must
  // not leave stale sends behind — their payload ids would dangle into a
  // later round's payload store.
  std::vector<SharedSend> sends = std::move(shared_sends_);
  shared_sends_.clear();
  // Sort sends by (sender, receiver); stable keeps each pair's sends in
  // chronological (push) order, and seq is non-decreasing within a pair.
  std::stable_sort(sends.begin(), sends.end(),
                   [](const SharedSend& a, const SharedSend& b) {
                     return a.from < b.from ||
                            (a.from == b.from && a.to < b.to);
                   });
  shared_sent_.assign(m, 0);
  shared_recv_.assign(m, 0);
  for (const SharedSend& s : sends) {
    const std::size_t len = delivered_payloads_[s.payload].size();
    shared_sent_[s.from] += len;
    shared_recv_[s.to] += len;
  }

  // Sending side: unicast + shared, charged at full per-destination size.
  for (std::size_t from = 0; from < m; ++from) {
    const std::size_t sent = shared_sent_[from] + out_words_[from].size();
    metrics_.max_sent_words = std::max(metrics_.max_sent_words, sent);
    metrics_.total_words += sent;
    check_budget(from, sent, "sent");
  }

  // Unicast receive counts (for exact inbox reservation — segment spans
  // alias the inbox buffers, so they must never reallocate mid-delivery),
  // walking run descriptors, not words.
  std::fill(recv_count_.begin(), recv_count_.end(), 0);
  for (std::size_t from = 0; from < m; ++from) {
    for_each_run(out_tos_[from], out_counts_[from].data(),
                 [&](std::size_t to, std::size_t count) {
                   recv_count_[to] += count;
                 });
  }

  // Receiving side metrics; register segment lists for machines that get
  // shared payloads (all other machines keep the single-span fast path).
  for (std::size_t to = 0; to < m; ++to) {
    inbox_[to].clear();
    inbox_[to].reserve(recv_count_[to]);
    const std::size_t received = recv_count_[to] + shared_recv_[to];
    metrics_.max_received_words = std::max(metrics_.max_received_words,
                                           received);
    check_budget(to, received, "received");
    metrics_.peak_storage_words = std::max(metrics_.peak_storage_words,
                                           received);
    recv_total_[to] = received;
    if (shared_recv_[to] > 0) touch_segs(to);
  }

  // Delivery, sender-major so every receiver's segments arrive
  // sender-ascending.
  const std::size_t ns = sends.size();
  std::size_t send_idx = 0;
  for (std::size_t from = 0; from < m; ++from) {
    const auto& tos = out_tos_[from];
    const std::uint32_t* counts = out_counts_[from].data();
    const Word* words = out_words_[from].data();
    const std::size_t nw = out_words_[from].size();
    const std::size_t first = send_idx;
    while (send_idx < ns && sends[send_idx].from == from) {
      ++send_idx;
    }
    if (first == send_idx) {
      // No shared traffic from this sender: the plain run-length
      // delivery, plus segment emission for receivers that need segment
      // lists.
      deliver_sender_runs(from, m);
      continue;
    }
    if (nw == 0) {
      // Broadcast-only sender (the relay-tree shape): no unicast words,
      // every splice is trivially 0 — skip the counting sort and emit
      // the payload segments directly, O(sends) instead of O(machines).
      sender_sends_.assign(
          sends.begin() + static_cast<std::ptrdiff_t>(first),
          sends.begin() + static_cast<std::ptrdiff_t>(send_idx));
      std::stable_sort(sender_sends_.begin(), sender_sends_.end(),
                       [](const SharedSend& a, const SharedSend& b) {
                         return a.to < b.to;
                       });
      for (const SharedSend& s : sender_sends_) {
        const auto& payload = delivered_payloads_[s.payload];
        in_segs_[s.to].emplace_back(payload.data(), payload.size());
      }
    } else {
      // Shared sender: counting-sort the unicast runs so each pair is
      // one contiguous bucket, compute the within-pair splice offset of
      // every shared send, then deliver pair by pair.
      sender_sends_.assign(
          sends.begin() + static_cast<std::ptrdiff_t>(first),
          sends.begin() + static_cast<std::ptrdiff_t>(send_idx));
      std::stable_sort(sender_sends_.begin(), sender_sends_.end(),
                       [](const SharedSend& a, const SharedSend& b) {
                         return a.seq < b.seq;
                       });
      bucket_count_.assign(m, 0);
      std::size_t sp = 0;
      const std::size_t nsend = sender_sends_.size();
      // seq was the sender-stream position; rewrite it to "how many
      // unicast words to this dest came before", the splice. One pass
      // over the runs: a send splicing at stream position s (with
      // word_pos <= s < word_pos + count) has bucket_count_[its dest]
      // words of earlier runs before it, plus the s - word_pos words of
      // the current run when that run shares its destination.
      std::size_t word_pos = 0;
      for_each_run(tos, counts, [&](std::size_t rto, std::size_t count) {
        while (sp < nsend &&
               sender_sends_[sp].seq <
                   static_cast<std::uint64_t>(word_pos) + count) {
          SharedSend& s = sender_sends_[sp];
          const std::size_t mid =
              s.to == rto ? static_cast<std::size_t>(s.seq) - word_pos : 0;
          s.seq = bucket_count_[s.to] + mid;
          ++sp;
        }
        bucket_count_[rto] += count;
        word_pos += count;
      });
      while (sp < nsend) {
        sender_sends_[sp].seq = bucket_count_[sender_sends_[sp].to];
        ++sp;
      }
      bucket_cursor_.resize(m);
      std::size_t acc = 0;
      for (std::size_t to = 0; to < m; ++to) {
        bucket_cursor_[to] = acc;
        acc += bucket_count_[to];
      }
      scatter_.resize(nw);
      std::size_t pos = 0;
      for_each_run(tos, counts, [&](std::size_t rto, std::size_t count) {
        if (count == 1) {
          scatter_[bucket_cursor_[rto]++] = words[pos++];
        } else {
          copy_run(scatter_.data() + bucket_cursor_[rto], words + pos,
                   count);
          bucket_cursor_[rto] += count;
          pos += count;
        }
      });
      // Stable by receiver: within a pair, splice offsets stay in
      // chronological (non-decreasing) order.
      std::stable_sort(sender_sends_.begin(), sender_sends_.end(),
                       [](const SharedSend& a, const SharedSend& b) {
                         return a.to < b.to;
                       });
      pos = 0;
      std::size_t sidx = 0;
      for (std::size_t to = 0; to < m; ++to) {
        const std::size_t count = bucket_count_[to];
        const std::size_t sfirst = sidx;
        while (sidx < nsend && sender_sends_[sidx].to == to) ++sidx;
        if (sfirst == sidx) {
          if (count > 0) {
            const std::size_t base = inbox_[to].size();
            inbox_[to].insert(inbox_[to].end(), scatter_.data() + pos,
                              scatter_.data() + pos + count);
            if (shared_recv_[to] > 0) {
              in_segs_[to].emplace_back(inbox_[to].data() + base, count);
            }
          }
        } else {
          deliver_pair_with_shared(
              to, std::span<const Word>{scatter_.data() + pos, count},
              std::span<const SharedSend>{sender_sends_.data() + sfirst,
                                          sidx - sfirst});
        }
        pos += count;
      }
    }
    clear_sender_staging(from);
  }
}

InboxView Engine::inbox_view(std::size_t machine) const {
  check_machine(machine);
  InboxView v;
  if (shared_round_ && !in_segs_[machine].empty()) {
    v.segs_ = &in_segs_[machine];
    v.words_ = recv_total_[machine];
  } else {
    const auto& in = inbox_[machine];
    v.single_ = {in.data(), in.size()};
    v.words_ = in.size();
  }
  return v;
}

const std::vector<Word>& Engine::inbox(std::size_t machine) const {
  check_machine(machine);
  if (!shared_round_ || in_segs_[machine].empty()) return inbox_[machine];
  if (!inbox_cache_valid_[machine]) {
    auto& cache = inbox_cache_[machine];
    cache.clear();
    cache.reserve(recv_total_[machine]);
    for (const auto seg : in_segs_[machine]) {
      cache.insert(cache.end(), seg.begin(), seg.end());
    }
    inbox_cache_valid_[machine] = 1;
  }
  return inbox_cache_[machine];
}

void Engine::note_storage(std::size_t machine, std::size_t words) {
  metrics_.peak_storage_words = std::max(metrics_.peak_storage_words, words);
  check_budget(machine, words, "stores");
}

void Engine::clear_inboxes() {
  drop_last_round();
  for (auto& in : inbox_) in.clear();
}

// ---------------------------------------------------------------------------
// Fault injection & round-level checkpoint/recovery (see set_fault_plan).

std::size_t Engine::Snapshot::words() const noexcept {
  std::size_t w = 0;
  for (const auto& v : out_words) w += v.size();
  for (const auto& v : out_tos) w += (v.size() + 1) / 2;
  for (const auto& v : out_counts) w += (v.size() + 1) / 2;
  w += (out_open_to.size() + 1) / 2;
  w += out_csums.size();
  for (const auto& p : staged_payloads) w += p.size();
  w += staged_digests.size();
  w += shared_sends.size() * (sizeof(SharedSend) / sizeof(Word));
  w += sizeof(Metrics) / sizeof(Word);
  return w;
}

Engine::Snapshot Engine::snapshot() const {
  Snapshot s;
  s.out_tos = out_tos_;
  s.out_counts = out_counts_;
  s.out_words = out_words_;
  s.out_open_to = out_open_to_;
  s.out_csums = out_csums_;
  s.staged_payloads = staged_payloads_;
  s.staged_digests = staged_digests_;
  s.shared_sends = shared_sends_;
  s.metrics = metrics_;
  return s;
}

void Engine::restore(const Snapshot& snap) {
  out_tos_ = snap.out_tos;
  out_counts_ = snap.out_counts;
  out_words_ = snap.out_words;
  out_open_to_ = snap.out_open_to;
  out_csums_ = snap.out_csums;
  staged_payloads_ = snap.staged_payloads;
  staged_digests_ = snap.staged_digests;
  shared_sends_ = snap.shared_sends;
  metrics_ = snap.metrics;
}

void Engine::set_fault_plan(const fault::FaultPlan* plan,
                            fault::CheckpointRegistry* registry,
                            bool recover) {
  // The registry is kept even with a null/empty plan: durability persists
  // provider state through it without any fault injection attached.
  fault_plan_ = (plan != nullptr && !plan->empty()) ? plan : nullptr;
  registry_ = registry;
  fault_recover_ = recover;
}

// ---------------------------------------------------------------------------
// On-disk durability (Config::checkpoint_dir; see fault/durable.h).

void Engine::engine_section_into(fault::DurableSection& s) const {
  // Metrics is raw-copyable by construction (all std::size_t counters);
  // the guard keeps a future padded/non-trivial field from silently
  // breaking the on-disk format.
  static_assert(std::has_unique_object_representations_v<Metrics>);
  static_assert(sizeof(Metrics) % sizeof(Word) == 0);
  s.name = "__engine";
  std::vector<Word>& out = s.payload;
  const std::size_t mw = sizeof(Metrics) / sizeof(Word);
  out.clear();
  out.resize(mw);
  std::memcpy(out.data(), &metrics_, sizeof(Metrics));
  // Two reserved zero words where format version 1 kept staging-path
  // state: the section keeps its length, so Metrics::disk_checkpoint_words
  // (which the determinism pins compare) is the same as under version 1.
  out.push_back(0);
  out.push_back(0);
  out.push_back(crashes_recovered_);
  // Delayed flushes straddle the round boundary (a kDelayFlush holds a
  // flush back into the *next* round), so they are part of the safe-point
  // state.  Staging and the payload store are not: safe points are
  // quiescent, and a fresh process's empty staging is exactly right.
  out.push_back(delayed_.size());
  for (const DelayedFlush& d : delayed_) {
    out.push_back(d.from);
    out.push_back(d.tos.size());
    out.push_back(d.counts.size());
    out.push_back(d.words.size());
    for (const std::uint32_t t : d.tos) out.push_back(t);
    for (const std::uint32_t c : d.counts) out.push_back(c);
    out.insert(out.end(), d.words.begin(), d.words.end());
  }
}

void Engine::install_engine_section(std::span<const Word> payload) {
  fault::SectionReader in("checkpoint section '__engine'", payload);
  std::memcpy(static_cast<void*>(&metrics_),
              in.take_span(sizeof(Metrics) / sizeof(Word)).data(),
              sizeof(Metrics));
  if (in.take() != 0 || in.take() != 0) {
    throw fault::CheckpointError(
        "durable checkpoint restore: non-zero reserved word in __engine "
        "section");
  }
  crashes_recovered_ = static_cast<std::size_t>(in.take());
  delayed_.clear();
  const Word ndelayed = in.take();
  for (Word i = 0; i < ndelayed; ++i) {
    DelayedFlush d;
    d.from = static_cast<std::size_t>(in.take());
    const Word ntos = in.take();
    const Word ncounts = in.take();
    const Word nwords = in.take();
    const auto tos = in.take_span(ntos);
    d.tos.assign(tos.begin(), tos.end());
    const auto counts = in.take_span(ncounts);
    d.counts.assign(counts.begin(), counts.end());
    const auto words = in.take_span(nwords);
    d.words.assign(words.begin(), words.end());
    delayed_.push_back(std::move(d));
  }
  in.finish();
}

void Engine::persist() {
  // Scratch layout: provider sections, then one trailing "__engine"
  // section. The buffers survive across persists, so the steady state
  // reserializes in place instead of reallocating the provider state.
  const std::size_t nprov =
      registry_ != nullptr ? registry_->num_providers() : 0;
  durable_scratch_.resize(nprov + 1);
  if (registry_ != nullptr) registry_->save_sections_into(durable_scratch_);
  engine_section_into(durable_scratch_[nprov]);
  const std::size_t words = dring_->save(
      metrics_.rounds, config_.checkpoint_scope, durable_scratch_);
  ++metrics_.disk_checkpoints_written;
  metrics_.disk_checkpoint_words += words;
}

void Engine::checkpoint_boundary() {
  // Park the pool before anything durable (or fatal) can happen at this
  // safe point: no worker may touch engine or provider state while a
  // generation is persisted or a stop unwinds. No-op on the sequential
  // backend, and cheap on the parallel one (run_chunks is blocking, so
  // workers are already idle — this waits until they are *parked*).
  backend_->quiesce();
  if (!dring_) return;
  ++safe_points_;
  const bool stop =
      (config_.stop_flag != nullptr &&
       config_.stop_flag->load(std::memory_order_relaxed)) ||
      (config_.stop_after_safe_points != 0 &&
       safe_points_ >= config_.stop_after_safe_points);
  if (stop) {
    // Graceful stop: the in-flight round already finished (we are at a
    // driver loop boundary) — flush one final generation and unwind.
    persist();
    throw fault::ResumableInterrupt(
        "stopped at a safe point after flushing a final durable generation "
        "(relaunch with --resume)");
  }
  if (safe_points_ % config_.checkpoint_every == 0) persist();
}

bool Engine::try_resume() {
  if (!dring_ || !config_.resume) return false;
  std::optional<fault::DurableLoad> loaded;
  if (registry_ != nullptr) {
    loaded = registry_->load_from(*dring_, config_.checkpoint_scope);
  } else {
    loaded = dring_->load(config_.checkpoint_scope);
  }
  if (!loaded) return false;  // nothing on disk (or another run's): fresh
  const fault::DurableSection* engine = nullptr;
  for (const fault::DurableSection& s : loaded->checkpoint.sections) {
    if (s.name == "__engine") {
      engine = &s;
      break;
    }
  }
  if (engine == nullptr) {
    throw fault::CheckpointError(
        "durable checkpoint restore: no __engine section");
  }
  install_engine_section(std::span<const Word>(engine->payload));
  ++metrics_.resume_loads;
  metrics_.disk_fallbacks += loaded->fallback ? 1 : 0;
  // Plan events scheduled before the resume point already fired (and were
  // absorbed) before this checkpoint was persisted: the resumed process
  // starts at round metrics_.rounds and never consults them again.
  if (fault_plan_ != nullptr) {
    for (const fault::FaultEvent& ev : fault_plan_->events()) {
      if (ev.round < metrics_.rounds) ++metrics_.faults_skipped_on_resume;
    }
  }
  return true;
}

std::size_t Engine::staged_out_words(std::size_t machine) const {
  std::size_t w = out_words_[machine].size();
  for (const SharedSend& s : shared_sends_) {
    if (s.from == machine) w += staged_payloads_[s.payload].size();
  }
  return w;
}

std::size_t Engine::received_words(std::size_t machine) const {
  return shared_round_ ? recv_total_[machine] : recv_count_[machine];
}

void Engine::corrupt_machine_staging(std::size_t machine) {
  clear_sender_staging(machine);
  std::erase_if(shared_sends_, [machine](const SharedSend& s) {
    return s.from == machine;
  });
}

std::size_t Engine::duplicate_machine_staging(std::size_t machine) {
  const std::vector<std::uint32_t> tos = out_tos_[machine];
  const std::vector<std::uint32_t> counts = out_counts_[machine];
  const std::vector<Word> words = out_words_[machine];
  out_tos_[machine].insert(out_tos_[machine].end(), tos.begin(), tos.end());
  out_counts_[machine].insert(out_counts_[machine].end(), counts.begin(),
                              counts.end());
  out_words_[machine].insert(out_words_[machine].end(), words.begin(),
                             words.end());
  // open_to_ still names the destination of the (duplicated) last run.
  // The checksum accumulator, however, covered only one copy.
  if (config_.integrity) resync_sender_checksum(machine);
  return words.size();
}

std::size_t Engine::delay_machine_staging(std::size_t machine) {
  DelayedFlush d;
  d.from = machine;
  d.tos = std::move(out_tos_[machine]);
  d.counts = std::move(out_counts_[machine]);
  d.words = std::move(out_words_[machine]);
  clear_sender_staging(machine);
  const std::size_t held = d.words.size();
  if (held != 0) delayed_.push_back(std::move(d));
  return held;
}

void Engine::inject_delayed() {
  // Late flushes are appended after the new round's own staging, so any
  // splice offsets already recorded for this round's shared sends stay
  // valid (the stream prefix is untouched).
  for (DelayedFlush& d : delayed_) {
    out_tos_[d.from].insert(out_tos_[d.from].end(), d.tos.begin(),
                            d.tos.end());
    out_counts_[d.from].insert(out_counts_[d.from].end(), d.counts.begin(),
                               d.counts.end());
    out_words_[d.from].insert(out_words_[d.from].end(), d.words.begin(),
                              d.words.end());
    out_open_to_[d.from] = d.tos.back() & RunTag::kDestMask;
    if (config_.integrity) {
      // The late words appended to the stream tail; continue the fold.
      std::uint64_t h = out_csums_[d.from];
      for (const Word w : d.words) h = Fnv::fold(h, w);
      out_csums_[d.from] = h;
    }
  }
  delayed_.clear();
}

void Engine::clear_delivered_for(std::size_t machine) {
  inbox_[machine].clear();
  if (shared_round_) {
    in_segs_[machine].clear();
    recv_total_[machine] = 0;
  }
  inbox_cache_valid_[machine] = 0;
}

void Engine::exchange_faulty(std::span<const fault::FaultEvent> events) {
  const std::size_t round = metrics_.rounds;
  // Copy-on-fault checkpoint: materialized only because this round carries
  // events. The capture happens before any corruption — it is the state a
  // rollback returns to.
  std::size_t ckpt_words = 0;
  Snapshot ckpt;
  if (fault_recover_) {
    if (registry_ != nullptr) ckpt_words += registry_->capture(round);
    ckpt = snapshot();
    ckpt_words += ckpt.words();
  }
  std::size_t replays = 0;
  std::size_t resent = 0;
  std::size_t applied = 0;
  std::size_t corrupted = 0;
  std::size_t detected = 0;
  std::size_t retransmitted = 0;
  std::size_t store_corrupted = 0;
  std::size_t store_detected = 0;
  std::size_t store_repaired = 0;
  std::size_t fallbacks = 0;
  std::size_t ckpt_rot = 0;
  crashed_scratch_.clear();
  dark_scratch_.clear();
  for (std::size_t ei = 0; ei < events.size(); ++ei) {
    const fault::FaultEvent& ev = events[ei];
    // Plans written for a larger cluster (reprovisioning shrinks nothing,
    // but machine counts are derived) may name machines we don't have.
    if (ev.machine >= config_.num_machines) continue;
    ++applied;
    switch (ev.kind) {
      case fault::FaultKind::kCrash:
        if (fault_recover_) {
          if (crashes_recovered_ >= fault_plan_->crash_budget) {
            throw fault::FaultBudgetError(
                "machine " + std::to_string(ev.machine) +
                " crashed in round " + std::to_string(round) +
                ": crash budget of " +
                std::to_string(fault_plan_->crash_budget) + " exhausted");
          }
          ++crashes_recovered_;
          // The crash destroys the machine's flush and its local state;
          // recovery retransmits from sender-side retention and reinstates
          // the checkpoint. The corrupt-then-restore order makes the
          // snapshot genuinely load-bearing: a broken restore() diverges
          // the coupling tests.
          resent += staged_out_words(ev.machine);
          corrupt_machine_staging(ev.machine);
          restore(ckpt);
          restore_registry(ev.machine, round, replays, fallbacks);
          ++replays;
          crashed_scratch_.push_back(ev.machine);
        } else {
          if (config_.audit) audit_dropped_ += staged_out_words(ev.machine);
          corrupt_machine_staging(ev.machine);
          dark_scratch_.push_back(ev.machine);
        }
        break;
      case fault::FaultKind::kDropFlush:
        if (fault_recover_) {
          resent += staged_out_words(ev.machine);
          corrupt_machine_staging(ev.machine);
          restore(ckpt);
          ++replays;
        } else {
          if (config_.audit) audit_dropped_ += staged_out_words(ev.machine);
          corrupt_machine_staging(ev.machine);
        }
        break;
      case fault::FaultKind::kDuplicateFlush:
        // With recovery, (round, sequence) deduplication discards the
        // second copy before delivery — only the event count records it.
        if (!fault_recover_) {
          audit_duped_ += duplicate_machine_staging(ev.machine);
        }
        break;
      case fault::FaultKind::kDelayFlush:
        if (fault_recover_) {
          ++replays;  // the barrier stalls one round for the late flush
        } else {
          audit_delayed_ += delay_machine_staging(ev.machine);
        }
        break;
      case fault::FaultKind::kCorruptPayload: {
        // Silent in-transit corruption of the staged wire stream.  The
        // sender retains its pristine stream first (real shuffle layers
        // keep the flush until the receiver acks), then mix64-derived bits
        // flip in the live staged words.
        if (corrupt_staged_words(ev.machine, round, ei) == 0) break;
        ++corrupted;
        if (!config_.integrity) break;  // undetected: propagates silently
        if (sender_stream_ok(ev.machine)) break;  // 2^-64 digest collision
        ++detected;
        // The detect->retransmit protocol: attempt ordinal = how many
        // times this machine's flush has been corrupted this round.
        std::size_t attempt = 1;
        for (std::size_t j = 0; j < ei; ++j) {
          attempt += events[j].kind == fault::FaultKind::kCorruptPayload &&
                     events[j].machine == ev.machine;
        }
        if (attempt > fault_plan_->retransmit_budget) {
          // Budget blown: the link is hopeless, escalate to the PR 6
          // checkpoint-recovery path (roll the round back and replay).
          if (!fault_recover_) {
            throw IntegrityError(
                "machine " + std::to_string(ev.machine) +
                " flush corrupted in round " + std::to_string(round) +
                ": retransmit budget of " +
                std::to_string(fault_plan_->retransmit_budget) +
                " exhausted and recovery is off");
          }
          restore(ckpt);
          restore_registry(ev.machine, round, replays, fallbacks);
          ++replays;
          retransmitted += out_words_[ev.machine].size();
        } else {
          retransmitted += retransmit_retained(ev.machine);
        }
        break;
      }
      case fault::FaultKind::kCorruptStore: {
        // Silent rot in the durable payload store.  The publisher retains
        // a pristine copy of the targeted blob first (the store's repair
        // source), then mix64-derived bits flip in the stored words — and
        // every reader's inbox_view / broadcast_view splice would alias
        // the rot.
        if (corrupt_store_blob(ev.machine, round, ei) == 0) break;
        ++store_corrupted;
        if (!config_.integrity) break;  // undetected: every view aliases rot
        if (store_blob_ok(retained_blob_id_)) break;  // 2^-64 collision
        ++store_detected;
        // Same escalation contract as the wire: attempt ordinal = how many
        // times this machine's published blobs have rotted this round.
        std::size_t attempt = 1;
        for (std::size_t j = 0; j < ei; ++j) {
          attempt += events[j].kind == fault::FaultKind::kCorruptStore &&
                     events[j].machine == ev.machine;
        }
        if (attempt > fault_plan_->retransmit_budget) {
          if (!fault_recover_) {
            throw IntegrityError(
                "machine " + std::to_string(ev.machine) +
                " payload store corrupted in round " + std::to_string(round) +
                ": retransmit budget of " +
                std::to_string(fault_plan_->retransmit_budget) +
                " exhausted and recovery is off");
          }
          restore(ckpt);
          restore_registry(ev.machine, round, replays, fallbacks);
          ++replays;
        } else {
          store_repaired += repair_retained_blob();
        }
        break;
      }
      case fault::FaultKind::kCorruptCheckpoint: {
        // Bit rot in a retained checkpoint image.  Nothing observable
        // happens at injection time; the damage surfaces at the next
        // restore, which verifies generations and falls back (see
        // restore_registry).  The first rot event of a round hits the
        // newest generation, subsequent ones walk down the ring — so a
        // single event models newest-image rot (the fallback headline)
        // and stacked events can rot the whole ring.
        if (registry_ == nullptr || !registry_->has_checkpoint()) break;
        registry_->corrupt_generation(
            ckpt_rot % registry_->generations_held(), round, ev.machine, ei);
        ++ckpt_rot;
        break;
      }
    }
  }
  exchange_impl();
  // A recovered crash also re-fetches the deliveries the machine lost.
  for (const std::size_t machine : crashed_scratch_) {
    resent += received_words(machine);
  }
  for (const std::size_t machine : dark_scratch_) {
    clear_delivered_for(machine);
  }
  metrics_.rounds_replayed += replays;
  metrics_.words_resent += resent;
  metrics_.checkpoint_bytes += ckpt_words * sizeof(Word);
  metrics_.faults_injected += applied;
  metrics_.corruptions_injected += corrupted;
  metrics_.corruptions_detected += detected;
  metrics_.words_retransmitted += retransmitted;
  metrics_.store_corruptions_injected += store_corrupted;
  metrics_.store_corruptions_detected += store_detected;
  metrics_.store_words_repaired += store_repaired;
  metrics_.checkpoint_fallbacks += fallbacks;
}

// ---------------------------------------------------------------------------
// Message integrity: per-sender FNV-1a stream checksums (see Config::integrity).

bool Engine::sender_stream_ok(std::size_t from) const {
  return Fnv::digest({out_words_[from].data(), out_words_[from].size()}) ==
         out_csums_[from];
}

void Engine::verify_streams() const {
  const std::size_t m = config_.num_machines;
  // Re-digesting every sender's stream is the integrity layer's one
  // O(words) pass — shard it. The throw stays sequential and ascending so
  // the lowest failing sender is named.
  verify_ok_.assign(m, 1);
  backend_->run_chunks(
      0, m, [&](std::size_t, std::size_t lo, std::size_t hi) {
        for (std::size_t from = lo; from < hi; ++from) {
          verify_ok_[from] = sender_stream_ok(from) ? 1 : 0;
        }
      });
  for (std::size_t from = 0; from < m; ++from) {
    if (!verify_ok_[from]) {
      throw IntegrityError(
          "machine " + std::to_string(from) + " flush (" +
          std::to_string(out_words_[from].size()) +
          " words) fails its stream checksum in round " +
          std::to_string(metrics_.rounds) +
          ": corruption was not repaired before delivery");
    }
  }
}

void Engine::resync_sender_checksum(std::size_t from) {
  out_csums_[from] =
      Fnv::digest({out_words_[from].data(), out_words_[from].size()});
}

std::size_t Engine::corrupt_staged_words(std::size_t machine,
                                         std::size_t round,
                                         std::size_t ordinal) {
  auto& words = out_words_[machine];
  if (words.empty()) return 0;
  // Retain the pristine stream before touching it — the sender keeps its
  // flush until the receiver acks, so a detected mismatch can be served
  // from retention.
  retained_.tos = out_tos_[machine];
  retained_.counts = out_counts_[machine];
  retained_.words = words;
  retained_.open_to = out_open_to_[machine];
  retained_.csum = config_.integrity ? out_csums_[machine] : Fnv::kOffset;
  retained_from_ = machine;
  // 1..3 distinct (word, bit) flips.  Deduplication matters: an even number
  // of flips of the same bit would cancel, and the contract is that every
  // injected corruption genuinely differs from the pristine stream (so
  // detected == injected whenever integrity is on).
  const std::size_t flips = 1 + mix64(round, machine, ordinal * 8 + 5) % 3;
  std::size_t applied = 0;
  for (std::size_t f = 0; f < flips; ++f) {
    const std::size_t idx =
        mix64(round, machine * 8 + f, ordinal * 8 + 6) % words.size();
    const std::size_t bit =
        mix64(round, machine * 8 + f, ordinal * 8 + 7) % 64;
    bool fresh = true;
    for (std::size_t g = 0; g < f; ++g) {
      const std::size_t pidx =
          mix64(round, machine * 8 + g, ordinal * 8 + 6) % words.size();
      const std::size_t pbit =
          mix64(round, machine * 8 + g, ordinal * 8 + 7) % 64;
      if (pidx == idx && pbit == bit) {
        fresh = false;
        break;
      }
    }
    if (!fresh) continue;
    words[idx] ^= Word{1} << bit;
    ++applied;
  }
  return applied;
}

std::size_t Engine::retransmit_retained(std::size_t machine) {
  // Serve the ack-retained pristine flush back into staging, replacing the
  // corrupted stream wholesale.
  out_tos_[machine] = retained_.tos;
  out_counts_[machine] = retained_.counts;
  out_words_[machine] = retained_.words;
  out_open_to_[machine] = retained_.open_to;
  if (config_.integrity) out_csums_[machine] = retained_.csum;
  return retained_.words.size();
}

// ---------------------------------------------------------------------------
// Durable-store integrity: per-blob digests, retained-copy repair, scrub,
// and verified checkpoint generations (see DESIGN.md, "Durable-store
// integrity & verified checkpoints").

std::size_t Engine::corrupt_store_blob(std::size_t machine, std::size_t round,
                                       std::size_t ordinal) {
  std::size_t total = 0;
  for (const auto& p : staged_payloads_) total += p.size();
  if (total == 0) return 0;
  // Word-weighted blob choice: pick a word uniformly across the store and
  // rot the blob holding it, so a non-empty store always takes a hit and
  // big blobs rot proportionally more often.
  std::size_t pick = mix64(round, machine, ordinal * 8 + 3) % total;
  PayloadId blob = 0;
  while (pick >= staged_payloads_[blob].size()) {
    pick -= staged_payloads_[blob].size();
    ++blob;
  }
  auto& words = staged_payloads_[blob];
  // The publisher retains the pristine blob before the rot lands — the
  // repair source the detect path serves from.
  retained_blob_ = words;
  retained_blob_id_ = blob;
  // Same 1..3 deduplicated (word, bit) flips as the wire corruption: every
  // injected rot genuinely differs from the pristine blob, so
  // store_corruptions_detected == store_corruptions_injected whenever
  // integrity is on.
  const std::size_t flips = 1 + mix64(round, machine, ordinal * 8 + 5) % 3;
  std::size_t applied = 0;
  for (std::size_t f = 0; f < flips; ++f) {
    const std::size_t idx =
        mix64(round, machine * 8 + f, ordinal * 8 + 6) % words.size();
    const std::size_t bit =
        mix64(round, machine * 8 + f, ordinal * 8 + 7) % 64;
    bool fresh = true;
    for (std::size_t g = 0; g < f; ++g) {
      const std::size_t pidx =
          mix64(round, machine * 8 + g, ordinal * 8 + 6) % words.size();
      const std::size_t pbit =
          mix64(round, machine * 8 + g, ordinal * 8 + 7) % 64;
      if (pidx == idx && pbit == bit) {
        fresh = false;
        break;
      }
    }
    if (!fresh) continue;
    words[idx] ^= Word{1} << bit;
    ++applied;
  }
  return applied;
}

bool Engine::store_blob_ok(PayloadId id) const {
  const auto& words = staged_payloads_[id];
  return Fnv::digest({words.data(), words.size()}) == staged_digests_[id];
}

std::size_t Engine::repair_retained_blob() {
  staged_payloads_[retained_blob_id_] = retained_blob_;
  return retained_blob_.size();
}

void Engine::verify_store() const {
  // Same shape as verify_streams: sharded digests, sequential throw naming
  // the lowest failing blob.
  const std::size_t blobs = staged_digests_.size();
  verify_ok_.assign(blobs, 1);
  backend_->run_chunks(
      0, blobs, [&](std::size_t, std::size_t lo, std::size_t hi) {
        for (std::size_t id = lo; id < hi; ++id) {
          verify_ok_[id] = store_blob_ok(static_cast<PayloadId>(id)) ? 1 : 0;
        }
      });
  for (std::size_t id = 0; id < blobs; ++id) {
    if (!verify_ok_[id]) {
      throw IntegrityError(
          "payload blob " + std::to_string(id) + " (" +
          std::to_string(staged_payloads_[id].size()) +
          " words) fails its store digest in round " +
          std::to_string(metrics_.rounds) +
          ": corruption was not repaired before delivery");
    }
  }
}

void Engine::scrub_pass() {
  // Proactive verification sweep over everything the system retains: the
  // payload store, every sender's wire stream, and the checkpoint
  // generation ring.  Store or stream rot that escaped the repair path is
  // fatal here exactly as it would be at delivery; checkpoint rot is left
  // for restore-time fallback (repairing it in place would silently mask
  // the generation ring's retention contract).
  verify_store();
  verify_streams();
  if (registry_ != nullptr) {
    for (std::size_t age = 0; age < registry_->generations_held(); ++age) {
      (void)registry_->generation_ok(age);
    }
  }
  ++metrics_.scrub_passes;
}

void Engine::restore_registry(std::size_t machine, std::size_t round,
                              std::size_t& replays, std::size_t& fallbacks) {
  if (registry_ == nullptr || !registry_->has_checkpoint()) return;
  if (!registry_->generation_ok(0)) {
    // The newest image rotted in retention.  Find the next older verified
    // generation — the cluster's last good copy.
    const std::size_t held = registry_->generations_held();
    std::size_t age = 1;
    while (age < held && !registry_->generation_ok(age)) ++age;
    if (age == held) {
      // Name the rotted providers so the operator knows which state lost
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
      throw fault::CheckpointError(
          "machine " + std::to_string(machine) + ": all " +
          std::to_string(held) +
          " retained checkpoint generation(s) fail verification in round " +
          std::to_string(round) + " (rotted provider(s): " + rotted +
          "): the cluster is unrecoverable");
    }
    // Deterministic replay from the verified generation reconstructs
    // exactly the state the newest capture serialized — which is the live
    // provider state, untouched since the capture at this round's entry.
    // Recapture it into the newest slot (the simulated replay's result)
    // and charge the rounds between the two generation tags.
    replays += round - registry_->generation_round(age);
    ++fallbacks;
    registry_->recapture_newest();
  }
  registry_->restore();
}

// ---------------------------------------------------------------------------
// Runtime audit: conservation invariants checked every round (Config::audit).

void Engine::begin_audit() {
  std::size_t staged = 0;
  for (const auto& words : out_words_) staged += words.size();
  for (const SharedSend& s : shared_sends_) {
    staged += staged_payloads_[s.payload].size();
  }
  audit_staged_ = staged;
  audit_dropped_ = 0;
  audit_duped_ = 0;
  audit_delayed_ = 0;
  audit_violations_at_ = metrics_.violations;
}

void Engine::finish_audit() const {
  const std::size_t m = config_.num_machines;
  // Conservation: every word staged this round (plus fault duplicates,
  // minus fault drops and delays) must surface in exactly one inbox.
  std::size_t delivered = 0;
  for (std::size_t to = 0; to < m; ++to) delivered += received_words(to);
  const std::size_t expect =
      audit_staged_ + audit_duped_ - audit_dropped_ - audit_delayed_;
  if (delivered != expect) {
    throw AuditError(
        "audit: round " + std::to_string(metrics_.rounds) + " delivered " +
        std::to_string(delivered) + " words, expected " +
        std::to_string(expect) + " (staged " + std::to_string(audit_staged_) +
        " + duped " + std::to_string(audit_duped_) + " - dropped " +
        std::to_string(audit_dropped_) + " - delayed " +
        std::to_string(audit_delayed_) + ")");
  }
  // Capacity accounting: in non-strict mode breaches must still have been
  // tallied — a breach the engine failed to count is an accounting bug.
  if (!config_.strict) {
    for (std::size_t to = 0; to < m; ++to) {
      if (received_words(to) > config_.words_per_machine &&
          metrics_.violations == audit_violations_at_) {
        throw AuditError("audit: machine " + std::to_string(to) +
                         " received " + std::to_string(received_words(to)) +
                         " words over its budget of " +
                         std::to_string(config_.words_per_machine) +
                         " without a violations tally");
      }
    }
  }
  // Inbox-view segment bounds: every segment of a shared-round receiver
  // must alias either its inbox buffer or a delivered payload, and the
  // segment words must sum to the recorded receive total.
  if (!shared_round_) return;
  const std::less<const Word*> before;  // defined ordering across buffers
  for (const std::size_t to : seg_touched_) {
    std::size_t seg_words = 0;
    for (const auto seg : in_segs_[to]) {
      seg_words += seg.size();
      if (seg.empty()) continue;
      const Word* lo = seg.data();
      const Word* hi = seg.data() + seg.size();
      const auto& in = inbox_[to];
      bool inside = !before(lo, in.data()) &&
                    !before(in.data() + in.size(), hi);
      for (std::size_t p = 0; !inside && p < delivered_payloads_.size();
           ++p) {
        const auto& pay = delivered_payloads_[p];
        inside = !before(lo, pay.data()) &&
                 !before(pay.data() + pay.size(), hi);
      }
      if (!inside) {
        throw AuditError("audit: machine " + std::to_string(to) +
                         " has an inbox-view segment outside every "
                         "delivered buffer in round " +
                         std::to_string(metrics_.rounds));
      }
    }
    if (seg_words != recv_total_[to]) {
      throw AuditError(
          "audit: machine " + std::to_string(to) + " segment words (" +
          std::to_string(seg_words) + ") disagree with its receive total (" +
          std::to_string(recv_total_[to]) + ") in round " +
          std::to_string(metrics_.rounds));
    }
  }
}

}  // namespace mpcg::mpc
