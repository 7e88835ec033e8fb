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

}  // namespace

Engine::Engine(Config config)
    : config_(config),
      sup_(config.num_machines, config.integrity, "machine", "payload store") {
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
  for (const std::size_t t : seg_touched_) in_segs_[t].clear();
  seg_touched_.clear();
  delivered_payloads_.clear();
}

void Engine::exchange() {
  if (!delayed_.empty()) inject_delayed();
  if (config_.audit) begin_audit();
  if (sup_.plan() != nullptr) {
    // Round index = rounds completed so far; events scheduled for it fire
    // against this exchange's staged traffic.
    const auto events = sup_.plan()->events_at(metrics_.rounds);
    if (!events.empty()) {
      sup_.run_faulty_round(*this, events, metrics_.rounds);
      fault_snap_ = Snapshot{};  // release the rollback copy
      return;
    }
  }
  deliver();
}

void Engine::deliver() {
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
  // Every staged payload becomes this round's delivered payload, aliased by
  // views until the next exchange — even one whose sends a fault dropped:
  // the blob store is durable, only inbox deliveries are lost. The blobs
  // were verified against their digests just above and cannot rot
  // afterwards — faults fire only at round boundaries — so the digests die
  // with the staging.
  delivered_payloads_.swap(staged_payloads_);
  staged_digests_.clear();
  flush(config_.num_machines);
  if (config_.audit) finish_audit();
  ++metrics_.rounds;
}

void Engine::clear_sender_staging(std::size_t from) {
  out_tos_[from].clear();
  out_counts_[from].clear();
  out_words_[from].clear();
  out_open_to_[from] = RunTag::kNoDest;
  if (config_.integrity) out_csums_[from] = Fnv::kOffset;
}

void Engine::flush(std::size_t m) {
  // Take the shared sends by value first: a strict-mode CapacityError
  // below must not leave stale sends behind — their payload ids would
  // dangle into a later round's payload store. Sorted by sender, each
  // sender's in stream order (seq; ties keep push order).
  std::vector<SharedSend> sends = std::move(shared_sends_);
  shared_sends_.clear();
  std::stable_sort(sends.begin(), sends.end(),
                   [](const SharedSend& a, const SharedSend& b) {
                     return a.from < b.from ||
                            (a.from == b.from && a.seq < b.seq);
                   });
  const auto payload_words = [this](const SharedSend& s) {
    return delivered_payloads_[s.payload].size();
  };
  // Slot-sharded flush in four phases:
  //   A (chunked)    per-slot receiver histograms of the unicast runs over
  //                  each slot's contiguous ascending sender range;
  //   B (sequential) combine the histograms in ascending slot order into
  //                  per-(slot, receiver) write bases — the positional
  //                  image of a sender-ascending delivery — and size the
  //                  inboxes;
  //   C (chunked)    each slot bulk-copies its senders' runs to their
  //                  precomputed positions (disjoint across slots by
  //                  construction), records where each of its senders'
  //                  shared payloads splices in, and clears its senders'
  //                  staging;
  //   D (sequential) interleave the splices with the inbox buffers into
  //                  segment lists, then the receiving-side budget checks
  //                  and metrics, ascending.
  // Every inbox holds its words sender-ascending, each sender's unicast
  // words and payloads in push order, for any thread count: slots are
  // ascending sender ranges, each slot writes its runs and splices in
  // sender-then-push order, and the bases concatenate the slots in order.
  // Shared payloads are charged at full per-destination size.
  std::size_t si = 0;
  for (std::size_t from = 0; from < m; ++from) {
    std::size_t sent = out_words_[from].size();
    for (; si < sends.size() && sends[si].from == from; ++si) {
      sent += payload_words(sends[si]);
    }
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
    recv_total_[to] = acc;
    inbox_[to].clear();
    inbox_[to].resize(acc);
  }
  for (const SharedSend& s : sends) recv_total_[s.to] += payload_words(s);
  slot_splices_.resize(slots);
  // Empty chunks never run, so every slot's list is cleared here.
  for (auto& splices : slot_splices_) splices.clear();
  backend_->run_chunks(
      0, m, [&](std::size_t slot, std::size_t lo, std::size_t hi) {
        std::size_t* cursor = slot_cursor_.data() + slot * m;
        std::vector<Splice>& splices = slot_splices_[slot];
        auto s = std::lower_bound(
            sends.cbegin(), sends.cend(), lo,
            [](const SharedSend& a, std::size_t f) { return a.from < f; });
        for (std::size_t from = lo; from < hi; ++from) {
          auto s_end = s;
          while (s_end != sends.cend() && s_end->from == from) ++s_end;
          // A payload pushed at stream position seq splices in before the
          // word at that position: at the receiver's cursor, plus the run
          // prefix when it lands mid-run on a run to the same receiver.
          const auto splice = [&](std::size_t mid) {
            splices.push_back(Splice{s->to, s->payload, cursor[s->to] + mid});
          };
          const Word* words = out_words_[from].data();
          std::size_t pos = 0;
          for_each_run(out_tos_[from], out_counts_[from].data(),
                       [&](std::size_t to, std::size_t count) {
                         for (; s != s_end && s->seq < pos + count; ++s) {
                           splice(s->to == to ? s->seq - pos : 0);
                         }
                         copy_run(inbox_[to].data() + cursor[to], words + pos,
                                  count);
                         cursor[to] += count;
                         pos += count;
                       });
          // Sends at the stream's end (pushed after the sender's last word,
          // or past it when a delayed flush emptied the stream) splice
          // after all of the sender's words.
          for (; s != s_end; ++s) splice(0);
          clear_sender_staging(from);
        }
      });
  if (!sends.empty()) {
    splices_.clear();
    for (const auto& splices : slot_splices_) {
      splices_.insert(splices_.end(), splices.begin(), splices.end());
    }
    // Stable by receiver: each receiver's splices stay sender-ascending,
    // each sender's in push order — ascending buffer offsets.
    std::stable_sort(splices_.begin(), splices_.end(),
                     [](const Splice& a, const Splice& b) {
                       return a.to < b.to;
                     });
    for (std::size_t i = 0; i < splices_.size();) {
      const std::size_t to = splices_[i].to;
      auto& segs = in_segs_[to];
      const std::span<const Word> in(inbox_[to]);
      std::size_t at = 0;
      seg_touched_.push_back(to);
      for (; i < splices_.size() && splices_[i].to == to; ++i) {
        if (splices_[i].at > at) {
          segs.push_back(in.subspan(at, splices_[i].at - at));
          at = splices_[i].at;
        }
        const auto& payload = delivered_payloads_[splices_[i].payload];
        segs.emplace_back(payload.data(), payload.size());
      }
      if (in.size() > at) segs.push_back(in.subspan(at));
    }
  }
  for (std::size_t to = 0; to < m; ++to) {
    const std::size_t received = recv_total_[to];
    metrics_.max_received_words = std::max(metrics_.max_received_words,
                                           received);
    check_budget(to, received, "received");
    // Whatever a machine received is resident until it processes it.
    metrics_.peak_storage_words = std::max(metrics_.peak_storage_words,
                                           received);
  }
}

InboxView Engine::inbox_view(std::size_t machine) const {
  check_machine(machine);
  InboxView v;
  if (!in_segs_[machine].empty()) {
    v.segs_ = &in_segs_[machine];
    v.words_ = recv_total_[machine];
  } else {
    const auto& in = inbox_[machine];
    v.single_ = {in.data(), in.size()};
    v.words_ = in.size();
  }
  return v;
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

// ---------------------------------------------------------------------------
// fault::RoundAdapter hooks: the staging side of fault injection and the
// "__engine" durable section (see fault/supervisor.h).

std::size_t Engine::snapshot_staging() {
  fault_snap_ = snapshot();
  return fault_snap_.words();
}

void Engine::restore_staging() {
  restore(fault_snap_);
  audit_dropped_ = audit_duped_ = audit_delayed_ = 0;
}

void Engine::save_engine_section(std::vector<Word>& out,
                                 std::size_t crashes) const {
  // Metrics is raw-copyable by construction (all std::size_t counters);
  // the guard keeps a future padded/non-trivial field from silently
  // breaking the on-disk format.
  static_assert(std::has_unique_object_representations_v<Metrics>);
  static_assert(sizeof(Metrics) % sizeof(Word) == 0);
  out.resize(sizeof(Metrics) / sizeof(Word));
  std::memcpy(out.data(), &metrics_, sizeof(Metrics));
  // Two reserved zero words where format version 1 kept staging-path
  // state: the section keeps its length, so Metrics::disk_checkpoint_words
  // (which the determinism pins compare) is the same as under version 1.
  out.push_back(0);
  out.push_back(0);
  out.push_back(crashes);
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

std::size_t Engine::install_engine_section(fault::SectionReader& in) {
  std::memcpy(static_cast<void*>(&metrics_),
              in.take_span(sizeof(Metrics) / sizeof(Word)).data(),
              sizeof(Metrics));
  if (in.take() != 0 || in.take() != 0) {
    throw fault::CheckpointError(
        "durable checkpoint restore: non-zero reserved word in __engine "
        "section");
  }
  const auto crashes = static_cast<std::size_t>(in.take());
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
  return crashes;
}

std::size_t Engine::staged_words(std::size_t machine) const {
  std::size_t w = out_words_[machine].size();
  for (const SharedSend& s : shared_sends_) {
    if (s.from == machine) w += staged_payloads_[s.payload].size();
  }
  return w;
}

std::size_t Engine::received_words(std::size_t machine) const {
  return recv_total_[machine];
}

void Engine::drop_flush(std::size_t machine) {
  if (config_.audit) audit_dropped_ += staged_words(machine);
  clear_sender_staging(machine);
  std::erase_if(shared_sends_, [machine](const SharedSend& s) {
    return s.from == machine;
  });
}

void Engine::duplicate_flush(std::size_t machine) {
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
  audit_duped_ += words.size();
}

void Engine::delay_flush(std::size_t machine) {
  DelayedFlush d;
  d.from = machine;
  d.tos = std::move(out_tos_[machine]);
  d.counts = std::move(out_counts_[machine]);
  d.words = std::move(out_words_[machine]);
  clear_sender_staging(machine);
  audit_delayed_ += d.words.size();
  if (!d.words.empty()) delayed_.push_back(std::move(d));
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

void Engine::clear_delivered(std::size_t machine) {
  inbox_[machine].clear();
  in_segs_[machine].clear();
  recv_total_[machine] = 0;
}

// ---------------------------------------------------------------------------
// Message integrity: per-sender FNV-1a stream checksums (see Config::integrity).

bool Engine::stream_ok(std::size_t from) const {
  return Fnv::digest({out_words_[from].data(), out_words_[from].size()}) ==
         out_csums_[from];
}

template <typename Ok>
std::size_t Engine::first_failing(std::size_t n, Ok ok) const {
  // Re-digesting is the integrity layer's one O(words) pass — shard it.
  // The scan for the lowest failing index stays sequential, so an error
  // names the same index at every thread count.
  verify_ok_.assign(n, 1);
  backend_->run_chunks(0, n,
                       [&](std::size_t, std::size_t lo, std::size_t hi) {
                         for (std::size_t i = lo; i < hi; ++i) {
                           verify_ok_[i] = ok(i) ? 1 : 0;
                         }
                       });
  return static_cast<std::size_t>(
      std::find(verify_ok_.begin(), verify_ok_.end(), 0) - verify_ok_.begin());
}

void Engine::verify_streams() const {
  const std::size_t from = first_failing(
      config_.num_machines, [this](std::size_t i) { return stream_ok(i); });
  if (from == config_.num_machines) return;
  throw IntegrityError("machine " + std::to_string(from) + " flush (" +
                       std::to_string(out_words_[from].size()) +
                       " words) fails its stream checksum in round " +
                       std::to_string(metrics_.rounds) +
                       ": corruption was not repaired before delivery");
}

void Engine::resync_sender_checksum(std::size_t from) {
  out_csums_[from] =
      Fnv::digest({out_words_[from].data(), out_words_[from].size()});
}

std::size_t Engine::corrupt_stream(std::size_t machine, std::size_t round,
                                   std::size_t ordinal) {
  auto& words = out_words_[machine];
  // Retain the pristine stream before touching it — the sender keeps its
  // flush until the receiver acks, so a detected mismatch can be served
  // from retention.
  retained_.tos = out_tos_[machine];
  retained_.counts = out_counts_[machine];
  retained_.words = words;
  retained_.open_to = out_open_to_[machine];
  retained_.csum = config_.integrity ? out_csums_[machine] : Fnv::kOffset;
  const auto flips =
      fault::flip_positions(round, machine, ordinal, words.size());
  for (const fault::BitFlip& at : flips) words[at.word] ^= Word{1} << at.bit;
  return flips.size();
}

std::size_t Engine::retransmit_stream(std::size_t machine) {
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

std::size_t Engine::corrupt_store(std::size_t machine, std::size_t round,
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
  const auto flips =
      fault::flip_positions(round, machine, ordinal, words.size());
  for (const fault::BitFlip& at : flips) words[at.word] ^= Word{1} << at.bit;
  return flips.size();
}

bool Engine::store_blob_ok(PayloadId id) const {
  const auto& words = staged_payloads_[id];
  return Fnv::digest({words.data(), words.size()}) == staged_digests_[id];
}

std::size_t Engine::repair_store() {
  staged_payloads_[retained_blob_id_] = retained_blob_;
  return retained_blob_.size();
}

void Engine::verify_store() const {
  const std::size_t blobs = staged_digests_.size();
  const std::size_t id = first_failing(blobs, [this](std::size_t i) {
    return store_blob_ok(static_cast<PayloadId>(i));
  });
  if (id == blobs) return;
  throw IntegrityError("payload blob " + std::to_string(id) + " (" +
                       std::to_string(staged_payloads_[id].size()) +
                       " words) fails its store digest in round " +
                       std::to_string(metrics_.rounds) +
                       ": corruption was not repaired before delivery");
}

void Engine::scrub_pass() {
  // Proactive verification sweep over the payload store and every
  // sender's wire stream: rot that escaped the repair path is fatal here
  // exactly as it would be at delivery.  Checkpoint generations are not
  // swept: their rot is found (and fallen back past) at restore time.
  verify_store();
  verify_streams();
  ++metrics_.scrub_passes;
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
  // Inbox-view segment bounds: every segment of a receiver of shared
  // payloads must alias either its inbox buffer or a delivered payload,
  // and the segment words must sum to the recorded receive total.
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
