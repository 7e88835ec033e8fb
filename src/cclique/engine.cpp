#include "cclique/engine.h"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <type_traits>

#include "fault/checkpoint.h"
#include "fault/fault_plan.h"

namespace mpcg::cclique {

Engine::Engine(std::size_t num_players, bool strict, bool integrity,
               bool audit, std::size_t scrub_interval, std::size_t threads)
    : n_(num_players), strict_(strict), integrity_(integrity), audit_(audit),
      scrub_interval_(scrub_interval), backend_(mpc::make_backend(threads)),
      inbox_(num_players), broadcasting_(num_players, 0),
      sent_(num_players, 0), received_(num_players, 0),
      sup_(num_players, integrity, "player", "broadcast store") {
  if (num_players == 0) {
    throw std::invalid_argument("Engine: need at least one player");
  }
  if (integrity_) {
    csums_.assign(n_, Fnv::kOffset);
    csum_check_.assign(n_, Fnv::kOffset);
  }
}

void Engine::send(PlayerId from, PlayerId to, Word word) {
  if (from >= n_ || to >= n_) {
    throw std::out_of_range("cclique send: player out of range");
  }
  pending_.push_back(Message{from, to, word});
  if (integrity_) [[unlikely]] {
    csums_[from] = Fnv::fold(csums_[from], word);
  }
}

void Engine::broadcast(PlayerId from, Word word) {
  if (from >= n_) {
    throw std::out_of_range("cclique broadcast: player out of range");
  }
  pending_broadcasts_.push_back(from);
  bcast_staging_.push_back(Message{from, from, word});
  if (integrity_) [[unlikely]] {
    // The store half of the integrity layer: one digest over the shared
    // broadcast store, folded at publish time.
    bcast_csum_ = Fnv::fold(bcast_csum_, word);
  }
}

void Engine::exchange() {
  if (!delayed_.empty()) {
    // Late flushes from a non-recovered delay land with this round's
    // traffic — and count against its per-pair budget, like a real
    // straggler hitting the next barrier.
    pending_.insert(pending_.end(), delayed_.begin(), delayed_.end());
    if (integrity_) {
      // The late words appended to their senders' streams; continue the
      // folds.
      for (const Message& msg : delayed_) {
        csums_[msg.from] = Fnv::fold(csums_[msg.from], msg.word);
      }
    }
    delayed_.clear();
  }
  if (audit_) begin_audit();
  if (sup_.plan() != nullptr) {
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
  // The one integrity pass per exchange — before the sort below reorders
  // pending_ away from send (fold) order.
  if (integrity_) {
    if (scrub_interval_ != 0 &&
        (metrics_.rounds + 1) % scrub_interval_ == 0) {
      scrub_pass();
    }
    verify_streams("in round ", true);
    // The broadcast store ships (and aliases) below; rot that escaped the
    // repair path must not reach the readers.
    verify_store("in round ");
  }
  // Per-ordered-pair budget: sort point-to-point messages and detect
  // duplicates; broadcasts consume the (from, *) budget for every pair.
  // Scratch arrays are persistent and only the entries actually touched
  // are reset, so a broadcast-only round (the drivers' common case) costs
  // O(broadcasts), not O(players).
  if (!pending_.empty()) {
    std::sort(pending_.begin(), pending_.end(),
              [](const Message& a, const Message& b) {
                return a.from < b.from || (a.from == b.from && a.to < b.to);
              });
  }
  for (const PlayerId p : pending_broadcasts_) {
    if (broadcasting_[p]) {
      ++metrics_.violations;
      if (strict_) {
        throw CongestionError(
            "player " + std::to_string(p) + " broadcast twice in round " +
            std::to_string(metrics_.rounds) +
            ": requested 2 broadcasts, available 1");
      }
    }
    broadcasting_[p] = 1;
  }
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    const Message& msg = pending_[i];
    const bool duplicate_pair =
        i > 0 && pending_[i - 1].from == msg.from && pending_[i - 1].to == msg.to;
    if (duplicate_pair || broadcasting_[msg.from]) {
      ++metrics_.violations;
      if (strict_) {
        throw CongestionError(
            "pair (" + std::to_string(msg.from) + "," +
            std::to_string(msg.to) + ") used more than once in round " +
            std::to_string(metrics_.rounds) +
            ": requested 2 or more words, available 1 word per ordered "
            "pair per round");
      }
    }
    metrics_.max_player_sent =
        std::max<std::size_t>(metrics_.max_player_sent, ++sent_[msg.from]);
    metrics_.max_player_received =
        std::max<std::size_t>(metrics_.max_player_received,
                              ++received_[msg.to]);
  }
  metrics_.total_words += pending_.size();
  metrics_.total_words += pending_broadcasts_.size() * (n_ - 1);

  for (const PlayerId p : inbox_touched_) inbox_[p].clear();
  inbox_touched_.clear();
  for (const Message& msg : pending_) {
    if (inbox_[msg.to].empty()) inbox_touched_.push_back(msg.to);
    inbox_[msg.to].push_back(msg);
  }
  // Reset the touched scratch entries for the next round.
  for (const Message& msg : pending_) {
    sent_[msg.from] = 0;
    received_[msg.to] = 0;
  }
  for (const PlayerId p : pending_broadcasts_) broadcasting_[p] = 0;
  bcast_inbox_ = std::move(bcast_staging_);
  bcast_staging_.clear();
  if (integrity_) bcast_csum_ = Fnv::kOffset;
  pending_.clear();
  pending_broadcasts_.clear();
  if (audit_) finish_audit();
  ++metrics_.rounds;
}

const std::vector<Message>& Engine::inbox(PlayerId player) const {
  return inbox_.at(player);
}

const std::vector<RouteView>& Engine::lenzen_route_view(
    const RouteStream& stream) {
  if (!pending_.empty() || !pending_broadcasts_.empty()) {
    throw std::logic_error(
        "lenzen_route: flush queued sends with exchange() first");
  }
  if (route_view_.empty()) route_view_.resize(n_);
  for (const PlayerId p : route_touched_) {
    route_view_[p].segs_.clear();
    route_view_[p].words_ = 0;
  }
  route_touched_.clear();
  route_corrupt_.clear();

  // Split into batches, each feasible for Lenzen's scheme: at most n
  // messages per sender and per receiver. A message goes into the first
  // batch where both its sender and receiver have budget left — and for a
  // fixed (sender, receiver) pair that first-feasible index only moves
  // forward as loads fill, so a whole run is assigned in greedy chunks of
  // min(sender budget, receiver budget, remaining): exactly the batches
  // per-message assignment would produce, at per-chunk bookkeeping cost.
  // The batch buffers and per-batch load counters are persistent; a new
  // batch pays its O(n) counter allocation once, ever.
  std::size_t batches_used = 0;
  route_batch_words_.assign(route_batches_.size(), 0);
  std::size_t word_pos = 0;
  for (const RouteStream::Run& run : stream.runs_) {
    std::uint32_t left = run.count;
    std::size_t b = 0;
    while (left > 0) {
      for (;; ++b) {
        if (b == batches_used) {
          if (batches_used == route_batches_.size()) {
            route_batches_.emplace_back();
            route_batch_words_.push_back(0);
            route_send_load_.emplace_back(n_, 0);
            route_recv_load_.emplace_back(n_, 0);
          }
          ++batches_used;
        }
        if (route_send_load_[b][run.from] < n_ &&
            route_recv_load_[b][run.to] < n_) {
          break;
        }
      }
      const auto budget = static_cast<std::uint32_t>(
          std::min<std::size_t>(n_ - route_send_load_[b][run.from],
                                n_ - route_recv_load_[b][run.to]));
      const std::uint32_t take = std::min(left, budget);
      route_batches_[b].push_back(BatchRun{run.from, run.to, take, word_pos});
      route_send_load_[b][run.from] += take;
      route_recv_load_[b][run.to] += take;
      route_batch_words_[b] += take;
      word_pos += take;
      left -= take;
    }
  }

  // Lenzen audit: the greedy batch split must preserve the routed word
  // total — a chunk that lands in no batch (or two) is a simulator bug.
  if (audit_) {
    std::size_t batched = 0;
    for (std::size_t b = 0; b < batches_used; ++b) {
      batched += route_batch_words_[b];
    }
    if (batched != stream.size()) {
      throw AuditError("audit: lenzen batches hold " +
                       std::to_string(batched) + " words, the routed "
                       "stream staged " + std::to_string(stream.size()));
    }
  }

  // An overloaded routing request is not a model violation — it is just
  // slower; the extra batches show up in `rounds` and `lenzen_batches`.
  for (std::size_t b = 0; b < batches_used; ++b) {
    auto& batch = route_batches_[b];
    // Lenzen's scheme delivers a feasible batch in O(1) rounds; we charge
    // the canonical 2 (distribute to intermediaries, forward to targets).
    const std::size_t corrupt_first = route_corrupt_.size();
    lenzen_batch_faults(metrics_.rounds, b, stream);
    metrics_.rounds += 2;
    ++metrics_.lenzen_batches;
    metrics_.total_words += 2 * route_batch_words_[b];
    for (const BatchRun& br : batch) {
      // Segmented delivery: one descriptor per batch run aliasing the
      // caller's stream words — never a per-word Message expansion — or,
      // for a sender whose batch words were corrupted undetected, the
      // flipped copy.
      const Word* words = stream.words_.data() + br.offset;
      for (std::size_t c = corrupt_first; c < route_corrupt_.size(); ++c) {
        CorruptBatch& copy = route_corrupt_[c];
        if (copy.from == br.from) {
          words = copy.words.data() + copy.next;
          copy.next += br.count;
          break;
        }
      }
      RouteView& dst = route_view_[br.to];
      if (dst.empty()) route_touched_.push_back(br.to);
      dst.segs_.push_back(RouteSegment{br.from, words, br.count});
      dst.words_ += br.count;
      // The counter holds this receiver's full batch total by now, so the
      // per-chunk max equals the old full post-count scan.
      metrics_.max_player_received = std::max<std::size_t>(
          metrics_.max_player_received, route_recv_load_[b][br.to]);
    }
    // Reset the touched load entries for the next call.
    for (const BatchRun& br : batch) {
      route_send_load_[b][br.from] = 0;
      route_recv_load_[b][br.to] = 0;
    }
    batch.clear();
  }
  return route_view_;
}

// ---------------------------------------------------------------------------
// Fault injection & recovery (see set_fault_plan).

std::size_t Engine::Snapshot::words() const noexcept {
  constexpr std::size_t kMsgWords = sizeof(Message) / sizeof(Word);
  return pending.size() * kMsgWords + bcast_staging.size() * kMsgWords +
         (pending_broadcasts.size() + 1) / 2 + csums.size() + 1 +
         sizeof(Metrics) / sizeof(Word);
}

Engine::Snapshot Engine::snapshot() const {
  Snapshot s;
  s.pending = pending_;
  s.pending_broadcasts = pending_broadcasts_;
  s.bcast_staging = bcast_staging_;
  s.csums = csums_;
  s.bcast_csum = bcast_csum_;
  s.metrics = metrics_;
  return s;
}

void Engine::restore(const Snapshot& snap) {
  pending_ = snap.pending;
  pending_broadcasts_ = snap.pending_broadcasts;
  bcast_staging_ = snap.bcast_staging;
  csums_ = snap.csums;
  bcast_csum_ = snap.bcast_csum;
  metrics_ = snap.metrics;
}

std::size_t Engine::snapshot_staging() {
  fault_snap_ = snapshot();
  return fault_snap_.words();
}

void Engine::restore_staging() {
  restore(fault_snap_);
  audit_dropped_ = audit_bcast_dropped_ = audit_duped_ = audit_delayed_ = 0;
}

void Engine::save_engine_section(std::vector<Word>& out,
                                 std::size_t crashes) const {
  static_assert(std::has_unique_object_representations_v<Metrics>);
  static_assert(sizeof(Metrics) % sizeof(Word) == 0);
  out.resize(sizeof(Metrics) / sizeof(Word));
  std::memcpy(out.data(), &metrics_, sizeof(Metrics));
  out.push_back(crashes);
  // Delayed sends straddle the round boundary.
  out.push_back(delayed_.size());
  for (const Message& msg : delayed_) {
    out.push_back(msg.from);
    out.push_back(msg.to);
    out.push_back(msg.word);
  }
}

std::size_t Engine::install_engine_section(fault::SectionReader& in) {
  std::memcpy(static_cast<void*>(&metrics_),
              in.take_span(sizeof(Metrics) / sizeof(Word)).data(),
              sizeof(Metrics));
  const auto crashes = static_cast<std::size_t>(in.take());
  delayed_.clear();
  const Word ndelayed = in.take();
  for (Word i = 0; i < ndelayed; ++i) {
    Message msg;
    msg.from = static_cast<PlayerId>(in.take());
    msg.to = static_cast<PlayerId>(in.take());
    msg.word = in.take();
    delayed_.push_back(msg);
  }
  return crashes;
}

std::size_t Engine::sent_by(const std::vector<Message>& msgs,
                            std::size_t player) {
  return static_cast<std::size_t>(std::count_if(
      msgs.begin(), msgs.end(),
      [player](const Message& msg) { return msg.from == player; }));
}

std::size_t Engine::staged_words(std::size_t player) const {
  return sent_by(pending_, player) +
         sent_by(bcast_staging_, player) * (n_ - 1);
}

void Engine::drop_flush(std::size_t player) {
  if (audit_) {
    audit_dropped_ += sent_by(pending_, player);
    audit_bcast_dropped_ += sent_by(bcast_staging_, player);
  }
  const auto from_player = [player](const Message& msg) {
    return msg.from == player;
  };
  std::erase_if(pending_, from_player);
  std::erase(pending_broadcasts_, static_cast<PlayerId>(player));
  std::erase_if(bcast_staging_, from_player);
  if (integrity_) {
    csums_[player] = Fnv::kOffset;
    // The erased broadcasts were folded into the store digest at publish
    // time; bring the accumulator back in line with the surviving store.
    bcast_csum_ = bcast_digest();
  }
}

void Engine::duplicate_flush(std::size_t player) {
  // Duplicated point-to-point flush: every pair the player used is now
  // used twice, which is exactly a congestion breach of the 1-word/pair
  // budget — the model detects the fault on its own.
  std::vector<Message> copy;
  for (const Message& msg : pending_) {
    if (msg.from == player) copy.push_back(msg);
  }
  pending_.insert(pending_.end(), copy.begin(), copy.end());
  // The checksum accumulator covered only one copy.
  if (integrity_) csums_[player] = player_digest(player);
  audit_duped_ += copy.size();
}

void Engine::delay_flush(std::size_t player) {
  for (const Message& msg : pending_) {
    if (msg.from == player) {
      delayed_.push_back(msg);
      ++audit_delayed_;
    }
  }
  std::erase_if(pending_, [player](const Message& msg) {
    return msg.from == player;
  });
  if (integrity_) csums_[player] = Fnv::kOffset;
}

std::uint64_t Engine::player_digest(std::size_t player) const {
  std::uint64_t h = Fnv::kOffset;
  for (const Message& msg : pending_) {
    if (msg.from == player) h = Fnv::fold(h, msg.word);
  }
  return h;
}

void Engine::verify_streams(const char* where, bool reset) {
  // One sweep over pending_ in send order, folding into per-player scratch
  // digests (touched-only, so a broadcast-heavy round costs O(messages)).
  for (const Message& msg : pending_) {
    if (csum_check_[msg.from] == Fnv::kOffset) {
      csum_touched_.push_back(msg.from);
    }
    csum_check_[msg.from] = Fnv::fold(csum_check_[msg.from], msg.word);
  }
  const auto bad = std::find_if(
      csum_touched_.begin(), csum_touched_.end(),
      [&](PlayerId p) { return csum_check_[p] != csums_[p]; });
  const bool ok = bad == csum_touched_.end();
  const PlayerId bad_player = ok ? 0 : *bad;
  // Reset the scratch before any throw, so a caught error leaves the
  // engine consistent.
  for (const PlayerId p : csum_touched_) {
    csum_check_[p] = Fnv::kOffset;
    // pending_ delivers (and clears) this round; reset the accumulators.
    if (ok && reset) csums_[p] = Fnv::kOffset;
  }
  csum_touched_.clear();
  if (!ok) {
    throw IntegrityError("player " + std::to_string(bad_player) +
                         " flush fails its stream checksum " + where +
                         std::to_string(metrics_.rounds) +
                         ": corruption was not repaired before delivery");
  }
}

std::size_t Engine::corrupt_words(std::vector<Message>& msgs,
                                  std::size_t player, std::size_t round,
                                  std::size_t ordinal,
                                  std::vector<Word>& retained) {
  // Retain the player's pristine words (aligned with its messages in
  // order) before flipping: the sender keeps its flush until the receiver
  // acks, and the publisher's copy is the store's repair source.
  retained.clear();
  for (const Message& msg : msgs) {
    if (msg.from == player) retained.push_back(msg.word);
  }
  const auto flips =
      fault::flip_positions(round, player, ordinal, retained.size());
  for (const fault::BitFlip& at : flips) {
    std::size_t seen = 0;
    for (Message& msg : msgs) {
      if (msg.from == player && seen++ == at.word) {
        msg.word ^= Word{1} << at.bit;
        break;
      }
    }
  }
  return flips.size();
}

std::size_t Engine::restore_words(std::vector<Message>& msgs,
                                  std::size_t player,
                                  const std::vector<Word>& retained) {
  std::size_t seen = 0;
  for (Message& msg : msgs) {
    if (msg.from == player) msg.word = retained[seen++];
  }
  return seen;
}

// ---------------------------------------------------------------------------
// Durable-store integrity: the broadcast store's digest, retained-copy
// repair, and the scrub (see DESIGN.md, "Durable-store integrity &
// verified checkpoints").

std::uint64_t Engine::bcast_digest() const {
  std::uint64_t h = Fnv::kOffset;
  for (const Message& msg : bcast_staging_) h = Fnv::fold(h, msg.word);
  return h;
}

void Engine::verify_store(const char* where) const {
  if (store_ok()) return;
  throw IntegrityError("broadcast store (" +
                       std::to_string(bcast_staging_.size()) +
                       " words) fails its digest " + where +
                       std::to_string(metrics_.rounds) +
                       ": corruption was not repaired before delivery");
}

void Engine::scrub_pass() {
  // Proactive verification sweep over the point-to-point streams and the
  // broadcast store: rot that escaped the repair path is fatal here
  // exactly as it would be at delivery, but the accumulators keep folding
  // until the round actually delivers.  Checkpoint generations are not
  // swept: their rot is found (and fallen back past) at restore time.
  verify_streams("in scrub at round ", false);
  verify_store("in scrub at round ");
  ++metrics_.scrub_passes;
}

void Engine::begin_audit() {
  audit_staged_ = pending_.size();
  audit_bcast_staged_ = bcast_staging_.size();
  audit_dropped_ = 0;
  audit_bcast_dropped_ = 0;
  audit_duped_ = 0;
  audit_delayed_ = 0;
}

void Engine::finish_audit() const {
  // Point-to-point conservation: every message staged this round (plus
  // fault duplicates, minus fault drops and delays) surfaces in exactly
  // one inbox.  Dark players' inboxes are cleared only after this check,
  // so the equation holds over the wire.
  std::size_t delivered = 0;
  for (const PlayerId p : inbox_touched_) delivered += inbox_[p].size();
  const std::size_t expect =
      audit_staged_ + audit_duped_ - audit_dropped_ - audit_delayed_;
  if (delivered != expect) {
    throw AuditError(
        "audit: round " + std::to_string(metrics_.rounds) + " delivered " +
        std::to_string(delivered) + " point-to-point words, expected " +
        std::to_string(expect) + " (staged " + std::to_string(audit_staged_) +
        " + duped " + std::to_string(audit_duped_) + " - dropped " +
        std::to_string(audit_dropped_) + " - delayed " +
        std::to_string(audit_delayed_) + ")");
  }
  // Broadcast conservation: the shared store holds exactly the broadcasts
  // staged this round, net of fault drops.
  const std::size_t bcast_expect = audit_bcast_staged_ - audit_bcast_dropped_;
  if (bcast_inbox_.size() != bcast_expect) {
    throw AuditError("audit: round " + std::to_string(metrics_.rounds) +
                     " delivered " + std::to_string(bcast_inbox_.size()) +
                     " broadcasts, expected " + std::to_string(bcast_expect));
  }
}

void Engine::corrupt_batch(std::size_t batch, PlayerId from, std::size_t round,
                           std::size_t ordinal, const RouteStream& stream) {
  const std::size_t load = route_send_load_[batch][from];
  const auto flips = fault::flip_positions(round, from, ordinal, load);
  if (flips.empty()) return;  // an empty batch load corrupts nothing
  ++metrics_.corruptions_injected;
  // The caller's stream is the sender-side retention and stays pristine:
  // the bits flip in a copy of the sender's batch words (batch-run order),
  // which a second event in the same batch keeps corrupting.
  auto copy = std::find_if(route_corrupt_.begin(), route_corrupt_.end(),
                           [&](const CorruptBatch& cb) {
                             return cb.batch == batch && cb.from == from;
                           });
  if (copy == route_corrupt_.end()) {
    route_corrupt_.push_back(CorruptBatch{batch, from, {}, 0});
    copy = std::prev(route_corrupt_.end());
    for (const BatchRun& br : route_batches_[batch]) {
      if (br.from != from) continue;
      const Word* words = stream.words_.data() + br.offset;
      copy->words.insert(copy->words.end(), words, words + br.count);
    }
  }
  std::vector<Word>& words = copy->words;
  const std::uint64_t sent = integrity_ ? Fnv::digest(words) : 0;
  for (const fault::BitFlip& at : flips) words[at.word] ^= Word{1} << at.bit;
  // Without integrity (or on a digest collision) the receivers read the
  // flipped copy. With it the checksum catches the change and the batch
  // structure is its own retransmission unit: the sender's batch load
  // re-delivers from the pristine stream.
  if (!integrity_ || Fnv::digest(words) == sent) return;
  ++metrics_.corruptions_detected;
  metrics_.words_retransmitted += load;
  route_corrupt_.erase(copy);
}

void Engine::lenzen_batch_faults(std::size_t first_round, std::size_t batch,
                                 const RouteStream& stream) {
  if (sup_.plan() == nullptr) return;
  fault::CheckpointRegistry* registry = sup_.registry();
  bool captured = false;
  for (std::size_t r = first_round; r < first_round + 2; ++r) {
    const auto events = sup_.plan()->events_at(r);
    for (std::size_t ei = 0; ei < events.size(); ++ei) {
      const fault::FaultEvent& ev = events[ei];
      if (ev.machine >= n_) continue;
      ++metrics_.faults_injected;
      if (ev.kind == fault::FaultKind::kDuplicateFlush) continue;
      if (ev.kind == fault::FaultKind::kCorruptPayload) {
        corrupt_batch(batch, static_cast<PlayerId>(ev.machine), r, ei,
                      stream);
        continue;
      }
      if (ev.kind == fault::FaultKind::kCorruptStore) {
        // In a routing phase the batch itself is the durable store: with
        // integrity on, the rotted sender's batch words are re-served from
        // sender-side retention; without it the rot forwards silently.
        ++metrics_.store_corruptions_injected;
        if (integrity_) {
          ++metrics_.store_corruptions_detected;
          metrics_.store_words_repaired +=
              route_send_load_[batch][ev.machine];
        }
        continue;
      }
      if (ev.kind == fault::FaultKind::kCorruptCheckpoint) {
        // Rot the newest retained generation; the damage (if any survives
        // the next capture) surfaces at the next verified restore.
        if (registry != nullptr && registry->has_checkpoint()) {
          registry->corrupt_generation(0, r, ev.machine, 0);
        }
        continue;
      }
      if (ev.kind == fault::FaultKind::kCrash) {
        sup_.charge_crash(ev.machine, r, " (lenzen batch)");
      }
      if (!captured) {
        // The sender-side retained batch is the checkpoint here; the batch
        // structure is Lenzen's own retransmission unit.
        std::size_t ckpt = route_batch_words_[batch];
        if (registry != nullptr) ckpt += registry->capture(r);
        metrics_.checkpoint_bytes += ckpt * sizeof(Word);
        captured = true;
      }
      metrics_.rounds_replayed += 2;  // the whole batch re-runs
      metrics_.words_resent += route_send_load_[batch][ev.machine] +
                               route_recv_load_[batch][ev.machine];
    }
  }
}

}  // namespace mpcg::cclique
