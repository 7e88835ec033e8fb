#include "cclique/engine.h"

#include <algorithm>
#include <cstring>
#include <type_traits>

#include "fault/checkpoint.h"
#include "fault/fault_plan.h"
#include "util/rng.h"

namespace mpcg::cclique {

Engine::Engine(std::size_t num_players, bool strict, bool integrity,
               bool audit, std::size_t scrub_interval, std::size_t threads)
    : n_(num_players), strict_(strict), integrity_(integrity), audit_(audit),
      scrub_interval_(scrub_interval), backend_(mpc::make_backend(threads)),
      inbox_(num_players), broadcasting_(num_players, 0),
      sent_(num_players, 0), received_(num_players, 0) {
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
  if (fault_plan_ != nullptr) {
    const auto events = fault_plan_->events_at(metrics_.rounds);
    if (!events.empty()) {
      exchange_faulty(events);
      return;
    }
  }
  exchange_impl();
}

void Engine::exchange_impl() {
  // The one integrity pass per exchange — before the sort below reorders
  // pending_ away from send (fold) order.
  if (integrity_) {
    if (scrub_interval_ != 0 &&
        (metrics_.rounds + 1) % scrub_interval_ == 0) {
      scrub_pass();
    }
    verify_streams();
    // The broadcast store ships (and aliases) below; rot that escaped the
    // repair path must not reach the readers.
    if (!bcast_store_ok()) {
      throw IntegrityError(
          "broadcast store (" + std::to_string(bcast_staging_.size()) +
          " words) fails its digest in round " +
          std::to_string(metrics_.rounds) +
          ": corruption was not repaired before delivery");
    }
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
    lenzen_batch_faults(metrics_.rounds, b);
    metrics_.rounds += 2;
    ++metrics_.lenzen_batches;
    metrics_.total_words += 2 * route_batch_words_[b];
    for (const BatchRun& br : batch) {
      // Segmented delivery: one descriptor per batch run aliasing the
      // caller's stream words — never a per-word Message expansion.
      RouteView& dst = route_view_[br.to];
      if (dst.empty()) route_touched_.push_back(br.to);
      dst.segs_.push_back(
          RouteSegment{br.from, stream.words_.data() + br.offset, br.count});
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

const std::vector<std::vector<Message>>& Engine::lenzen_route(
    const RouteStream& stream) {
  const std::vector<RouteView>& views = lenzen_route_view(stream);
  if (route_delivered_.empty()) route_delivered_.resize(n_);
  for (const PlayerId p : route_mat_touched_) route_delivered_[p].clear();
  route_mat_touched_.clear();
  for (const PlayerId p : route_touched_) {
    std::vector<Message>& dst = route_delivered_[p];
    route_mat_touched_.push_back(p);
    const RouteView& view = views[p];
    dst.reserve(view.size());
    for (const RouteSegment& seg : view.segments()) {
      for (std::uint32_t i = 0; i < seg.count; ++i) {
        dst.push_back(Message{seg.from, p, seg.words[i]});
      }
    }
    route_words_materialized_ += view.size();
  }
  return route_delivered_;
}

const std::vector<std::vector<Message>>& Engine::lenzen_route(
    std::vector<Message> messages) {
  route_restage_.clear();
  for (const Message& msg : messages) {
    route_restage_.append(msg.from, msg.to, msg.word);
  }
  return lenzen_route(route_restage_);
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
// On-disk durability (see set_durability; mirrors mpc::Engine).

void Engine::set_durability(const fault::DurableOptions& options,
                            std::string scope) {
  if (!options.enabled()) return;
  if (options.every == 0) {
    throw std::invalid_argument("Engine: checkpoint every must be >= 1");
  }
  durable_ = options;
  durable_scope_ = std::move(scope);
  dring_.emplace(durable_.dir);
  if (!durable_.resume) dring_->reset();
}

void Engine::engine_section_into(fault::DurableSection& s) const {
  static_assert(std::has_unique_object_representations_v<Metrics>);
  static_assert(sizeof(Metrics) % sizeof(Word) == 0);
  s.name = "__engine";
  std::vector<Word>& out = s.payload;
  out.clear();
  out.resize(sizeof(Metrics) / sizeof(Word));
  std::memcpy(out.data(), &metrics_, sizeof(Metrics));
  out.push_back(crashes_recovered_);
  // Delayed flushes straddle the round boundary; staging and the broadcast
  // store do not (safe points are quiescent).
  out.push_back(delayed_.size());
  for (const Message& msg : delayed_) {
    out.push_back(msg.from);
    out.push_back(msg.to);
    out.push_back(msg.word);
  }
}

void Engine::install_engine_section(std::span<const Word> payload) {
  fault::SectionReader in("checkpoint section '__engine'", payload);
  std::memcpy(static_cast<void*>(&metrics_),
              in.take_span(sizeof(Metrics) / sizeof(Word)).data(),
              sizeof(Metrics));
  crashes_recovered_ = static_cast<std::size_t>(in.take());
  delayed_.clear();
  const Word ndelayed = in.take();
  for (Word i = 0; i < ndelayed; ++i) {
    Message msg;
    msg.from = static_cast<PlayerId>(in.take());
    msg.to = static_cast<PlayerId>(in.take());
    msg.word = in.take();
    delayed_.push_back(msg);
  }
  in.finish();
}

void Engine::persist() {
  // Scratch layout: provider sections, then one trailing "__engine"
  // section; the buffers survive across persists (see mpc::Engine).
  const std::size_t nprov =
      registry_ != nullptr ? registry_->num_providers() : 0;
  durable_scratch_.resize(nprov + 1);
  if (registry_ != nullptr) registry_->save_sections_into(durable_scratch_);
  engine_section_into(durable_scratch_[nprov]);
  const std::size_t words =
      dring_->save(metrics_.rounds, durable_scope_, durable_scratch_);
  ++metrics_.disk_checkpoints_written;
  metrics_.disk_checkpoint_words += words;
}

void Engine::checkpoint_boundary() {
  // Park the pool before anything durable (or fatal) happens at this safe
  // point — no worker may touch driver or provider state while a
  // generation persists or a stop unwinds (see mpc::Engine's twin).
  backend_->quiesce();
  if (!dring_) return;
  ++safe_points_;
  const bool stop =
      (durable_.stop_flag != nullptr &&
       durable_.stop_flag->load(std::memory_order_relaxed)) ||
      (durable_.stop_after_safe_points != 0 &&
       safe_points_ >= durable_.stop_after_safe_points);
  if (stop) {
    persist();
    throw fault::ResumableInterrupt(
        "stopped at a safe point after flushing a final durable generation "
        "(relaunch with --resume)");
  }
  if (safe_points_ % durable_.every == 0) persist();
}

bool Engine::try_resume() {
  if (!dring_ || !durable_.resume) return false;
  std::optional<fault::DurableLoad> loaded;
  if (registry_ != nullptr) {
    loaded = registry_->load_from(*dring_, durable_scope_);
  } else {
    loaded = dring_->load(durable_scope_);
  }
  if (!loaded) return false;
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
  if (fault_plan_ != nullptr) {
    for (const fault::FaultEvent& ev : fault_plan_->events()) {
      if (ev.round < metrics_.rounds) ++metrics_.faults_skipped_on_resume;
    }
  }
  return true;
}

std::size_t Engine::staged_out_words(std::size_t player) const {
  std::size_t w = 0;
  for (const Message& msg : pending_) w += (msg.from == player);
  for (const PlayerId p : pending_broadcasts_) {
    if (p == player) w += n_ - 1;
  }
  return w;
}

std::size_t Engine::staged_p2p(std::size_t player) const {
  std::size_t c = 0;
  for (const Message& msg : pending_) c += (msg.from == player);
  return c;
}

std::size_t Engine::staged_bcast(std::size_t player) const {
  std::size_t c = 0;
  for (const Message& msg : bcast_staging_) c += (msg.from == player);
  return c;
}

void Engine::corrupt_player_staging(std::size_t player) {
  std::erase_if(pending_, [player](const Message& msg) {
    return msg.from == player;
  });
  std::erase(pending_broadcasts_, static_cast<PlayerId>(player));
  std::erase_if(bcast_staging_, [player](const Message& msg) {
    return msg.from == player;
  });
  if (integrity_) {
    csums_[player] = Fnv::kOffset;
    // The erased broadcasts were folded into the store digest at publish
    // time; bring the accumulator back in line with the surviving store.
    resync_bcast_checksum();
  }
}

std::size_t Engine::duplicate_player_staging(std::size_t player) {
  // Duplicated point-to-point flush: every pair the player used is now
  // used twice, which is exactly a congestion breach of the 1-word/pair
  // budget — the model detects the fault on its own.
  std::vector<Message> copy;
  for (const Message& msg : pending_) {
    if (msg.from == player) copy.push_back(msg);
  }
  pending_.insert(pending_.end(), copy.begin(), copy.end());
  // The checksum accumulator covered only one copy.
  if (integrity_) resync_player_checksum(player);
  return copy.size();
}

std::size_t Engine::delay_player_staging(std::size_t player) {
  std::size_t held = 0;
  for (const Message& msg : pending_) {
    if (msg.from == player) {
      delayed_.push_back(msg);
      ++held;
    }
  }
  std::erase_if(pending_, [player](const Message& msg) {
    return msg.from == player;
  });
  if (integrity_) csums_[player] = Fnv::kOffset;
  return held;
}

void Engine::resync_player_checksum(std::size_t player) {
  std::uint64_t h = Fnv::kOffset;
  for (const Message& msg : pending_) {
    if (msg.from == player) h = Fnv::fold(h, msg.word);
  }
  csums_[player] = h;
}

bool Engine::player_stream_ok(std::size_t player) const {
  std::uint64_t h = Fnv::kOffset;
  for (const Message& msg : pending_) {
    if (msg.from == player) h = Fnv::fold(h, msg.word);
  }
  return h == csums_[player];
}

void Engine::verify_streams() {
  // One sweep over pending_ in send order, folding into per-player scratch
  // digests (touched-only, so a broadcast-heavy round costs O(messages)).
  for (const Message& msg : pending_) {
    if (csum_check_[msg.from] == Fnv::kOffset) {
      csum_touched_.push_back(msg.from);
    }
    csum_check_[msg.from] = Fnv::fold(csum_check_[msg.from], msg.word);
  }
  for (const PlayerId p : csum_touched_) {
    if (csum_check_[p] != csums_[p]) {
      // Reset the scratch before throwing so a caught error leaves the
      // engine consistent.
      for (const PlayerId q : csum_touched_) csum_check_[q] = Fnv::kOffset;
      csum_touched_.clear();
      throw IntegrityError(
          "player " + std::to_string(p) +
          " flush fails its stream checksum in round " +
          std::to_string(metrics_.rounds) +
          ": corruption was not repaired before delivery");
    }
  }
  for (const PlayerId p : csum_touched_) {
    csum_check_[p] = Fnv::kOffset;
    // pending_ delivers (and clears) this round; reset the accumulators.
    csums_[p] = Fnv::kOffset;
  }
  csum_touched_.clear();
}

std::size_t Engine::corrupt_player_words(std::size_t player,
                                         std::size_t round,
                                         std::size_t ordinal) {
  // Retain the player's pristine words (aligned with its messages in
  // pending_ order) before flipping — the sender keeps its flush until the
  // receiver acks, so a detected mismatch can be served from retention.
  retained_words_.clear();
  for (const Message& msg : pending_) {
    if (msg.from == player) retained_words_.push_back(msg.word);
  }
  retained_from_ = player;
  const std::size_t total = retained_words_.size();
  if (total == 0) return 0;
  // 1..3 distinct (word, bit) flips; deduplication guarantees the stream
  // genuinely differs, so detected == injected whenever integrity is on.
  const std::size_t flips = 1 + mix64(round, player, ordinal * 8 + 5) % 3;
  std::size_t applied = 0;
  for (std::size_t f = 0; f < flips; ++f) {
    const std::size_t idx =
        mix64(round, player * 8 + f, ordinal * 8 + 6) % total;
    const std::size_t bit =
        mix64(round, player * 8 + f, ordinal * 8 + 7) % 64;
    bool fresh = true;
    for (std::size_t g = 0; g < f; ++g) {
      const std::size_t pidx =
          mix64(round, player * 8 + g, ordinal * 8 + 6) % total;
      const std::size_t pbit =
          mix64(round, player * 8 + g, ordinal * 8 + 7) % 64;
      if (pidx == idx && pbit == bit) {
        fresh = false;
        break;
      }
    }
    if (!fresh) continue;
    std::size_t seen = 0;
    for (Message& msg : pending_) {
      if (msg.from != player) continue;
      if (seen++ == idx) {
        msg.word ^= Word{1} << bit;
        ++applied;
        break;
      }
    }
  }
  return applied;
}

std::size_t Engine::retransmit_retained(std::size_t player) {
  // Serve the ack-retained pristine words back into the staged messages.
  // The accumulator already holds the pristine digest (corruption touched
  // only the words), so no resync is needed.
  std::size_t seen = 0;
  for (Message& msg : pending_) {
    if (msg.from == player) msg.word = retained_words_[seen++];
  }
  return seen;
}

// ---------------------------------------------------------------------------
// Durable-store integrity: the broadcast store's digest, retained-copy
// repair, scrub, and verified checkpoint generations (see DESIGN.md,
// "Durable-store integrity & verified checkpoints").

std::size_t Engine::corrupt_bcast_words(std::size_t player, std::size_t round,
                                        std::size_t ordinal) {
  // Retain the player's pristine broadcast words (aligned with its entries
  // in bcast_staging_ order) before flipping — the publisher's copy is the
  // store's repair source.
  retained_bcast_words_.clear();
  for (const Message& msg : bcast_staging_) {
    if (msg.from == player) retained_bcast_words_.push_back(msg.word);
  }
  retained_bcast_from_ = player;
  const std::size_t total = retained_bcast_words_.size();
  if (total == 0) return 0;
  // Same 1..3 deduplicated (word, bit) flips as every other injected
  // corruption, so store_corruptions_detected == store_corruptions_injected
  // whenever integrity is on.
  const std::size_t flips = 1 + mix64(round, player, ordinal * 8 + 5) % 3;
  std::size_t applied = 0;
  for (std::size_t f = 0; f < flips; ++f) {
    const std::size_t idx =
        mix64(round, player * 8 + f, ordinal * 8 + 6) % total;
    const std::size_t bit =
        mix64(round, player * 8 + f, ordinal * 8 + 7) % 64;
    bool fresh = true;
    for (std::size_t g = 0; g < f; ++g) {
      const std::size_t pidx =
          mix64(round, player * 8 + g, ordinal * 8 + 6) % total;
      const std::size_t pbit =
          mix64(round, player * 8 + g, ordinal * 8 + 7) % 64;
      if (pidx == idx && pbit == bit) {
        fresh = false;
        break;
      }
    }
    if (!fresh) continue;
    std::size_t seen = 0;
    for (Message& msg : bcast_staging_) {
      if (msg.from != player) continue;
      if (seen++ == idx) {
        msg.word ^= Word{1} << bit;
        ++applied;
        break;
      }
    }
  }
  return applied;
}

bool Engine::bcast_store_ok() const {
  std::uint64_t h = Fnv::kOffset;
  for (const Message& msg : bcast_staging_) h = Fnv::fold(h, msg.word);
  return h == bcast_csum_;
}

std::size_t Engine::repair_retained_bcast() {
  std::size_t seen = 0;
  for (Message& msg : bcast_staging_) {
    if (msg.from == retained_bcast_from_) {
      msg.word = retained_bcast_words_[seen++];
    }
  }
  return seen;
}

void Engine::resync_bcast_checksum() {
  std::uint64_t h = Fnv::kOffset;
  for (const Message& msg : bcast_staging_) h = Fnv::fold(h, msg.word);
  bcast_csum_ = h;
}

void Engine::scrub_pass() {
  // Proactive verification sweep over everything the player set retains:
  // the point-to-point streams, the broadcast store, and the checkpoint
  // generation ring.  Rot that escaped the repair path is fatal here
  // exactly as it would be at delivery.  Unlike verify_streams() this
  // sweep is non-destructive — the accumulators keep folding until the
  // round actually delivers.  Checkpoint rot is left for restore-time
  // fallback (repairing it here would mask the ring's retention contract).
  for (const Message& msg : pending_) {
    if (csum_check_[msg.from] == Fnv::kOffset) {
      csum_touched_.push_back(msg.from);
    }
    csum_check_[msg.from] = Fnv::fold(csum_check_[msg.from], msg.word);
  }
  for (const PlayerId p : csum_touched_) {
    if (csum_check_[p] != csums_[p]) {
      for (const PlayerId q : csum_touched_) csum_check_[q] = Fnv::kOffset;
      csum_touched_.clear();
      throw IntegrityError(
          "player " + std::to_string(p) +
          " flush fails its stream checksum in scrub at round " +
          std::to_string(metrics_.rounds) +
          ": corruption was not repaired before delivery");
    }
  }
  for (const PlayerId p : csum_touched_) csum_check_[p] = Fnv::kOffset;
  csum_touched_.clear();
  if (!bcast_store_ok()) {
    throw IntegrityError(
        "broadcast store (" + std::to_string(bcast_staging_.size()) +
        " words) fails its digest in scrub at round " +
        std::to_string(metrics_.rounds) +
        ": corruption was not repaired before delivery");
  }
  if (registry_ != nullptr) {
    for (std::size_t age = 0; age < registry_->generations_held(); ++age) {
      (void)registry_->generation_ok(age);
    }
  }
  ++metrics_.scrub_passes;
}

void Engine::restore_registry(std::size_t player, std::size_t round,
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
          "player " + std::to_string(player) + ": all " +
          std::to_string(held) +
          " retained checkpoint generation(s) fail verification in round " +
          std::to_string(round) + " (rotted provider(s): " + rotted +
          "): the cluster is unrecoverable");
    }
    // Deterministic replay from the verified generation reconstructs
    // exactly the live provider state (untouched since the capture at this
    // round's entry); recapture it into the newest slot and charge the
    // rounds between the two generation tags.
    replays += round - registry_->generation_round(age);
    ++fallbacks;
    registry_->recapture_newest();
  }
  registry_->restore();
}

void Engine::exchange_faulty(std::span<const fault::FaultEvent> events) {
  const std::size_t round = metrics_.rounds;
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
    if (ev.machine >= n_) continue;
    ++applied;
    switch (ev.kind) {
      case fault::FaultKind::kCrash:
        if (fault_recover_) {
          if (crashes_recovered_ >= fault_plan_->crash_budget) {
            throw fault::FaultBudgetError(
                "player " + std::to_string(ev.machine) +
                " crashed in round " + std::to_string(round) +
                ": crash budget of " +
                std::to_string(fault_plan_->crash_budget) + " exhausted");
          }
          ++crashes_recovered_;
          resent += staged_out_words(ev.machine);
          corrupt_player_staging(ev.machine);
          restore(ckpt);
          restore_registry(ev.machine, round, replays, fallbacks);
          ++replays;
          crashed_scratch_.push_back(ev.machine);
        } else {
          if (audit_) {
            audit_dropped_ += staged_p2p(ev.machine);
            audit_bcast_dropped_ += staged_bcast(ev.machine);
          }
          corrupt_player_staging(ev.machine);
          dark_scratch_.push_back(ev.machine);
        }
        break;
      case fault::FaultKind::kDropFlush:
        if (fault_recover_) {
          resent += staged_out_words(ev.machine);
          corrupt_player_staging(ev.machine);
          restore(ckpt);
          ++replays;
        } else {
          if (audit_) {
            audit_dropped_ += staged_p2p(ev.machine);
            audit_bcast_dropped_ += staged_bcast(ev.machine);
          }
          corrupt_player_staging(ev.machine);
        }
        break;
      case fault::FaultKind::kDuplicateFlush:
        if (!fault_recover_) {
          audit_duped_ += duplicate_player_staging(ev.machine);
        }
        break;
      case fault::FaultKind::kDelayFlush:
        if (fault_recover_) {
          ++replays;
        } else {
          audit_delayed_ += delay_player_staging(ev.machine);
        }
        break;
      case fault::FaultKind::kCorruptPayload: {
        // Silent in-transit corruption of the player's staged words; the
        // pristine flush is retained sender-side first.
        if (corrupt_player_words(ev.machine, round, ei) == 0) break;
        ++corrupted;
        if (!integrity_) break;  // undetected: propagates silently
        if (player_stream_ok(ev.machine)) break;  // 2^-64 digest collision
        ++detected;
        std::size_t attempt = 1;
        for (std::size_t j = 0; j < ei; ++j) {
          attempt += events[j].kind == fault::FaultKind::kCorruptPayload &&
                     events[j].machine == ev.machine;
        }
        if (attempt > fault_plan_->retransmit_budget) {
          if (!fault_recover_) {
            throw IntegrityError(
                "player " + std::to_string(ev.machine) +
                " flush corrupted in round " + std::to_string(round) +
                ": retransmit budget of " +
                std::to_string(fault_plan_->retransmit_budget) +
                " exhausted and recovery is off");
          }
          restore(ckpt);
          restore_registry(ev.machine, round, replays, fallbacks);
          ++replays;
          retransmitted += staged_p2p(ev.machine);
        } else {
          retransmitted += retransmit_retained(ev.machine);
        }
        break;
      }
      case fault::FaultKind::kCorruptStore: {
        // Silent rot in the durable broadcast store — the one shared copy
        // every player's broadcast_inbox() aliases.  The publisher retains
        // its pristine words first (the store's repair source).
        if (corrupt_bcast_words(ev.machine, round, ei) == 0) break;
        ++store_corrupted;
        if (!integrity_) break;  // undetected: every reader aliases rot
        if (bcast_store_ok()) break;  // 2^-64 digest collision
        ++store_detected;
        // Same escalation contract as the wire: attempt ordinal = how many
        // times this player's store entries have rotted this round.
        std::size_t attempt = 1;
        for (std::size_t j = 0; j < ei; ++j) {
          attempt += events[j].kind == fault::FaultKind::kCorruptStore &&
                     events[j].machine == ev.machine;
        }
        if (attempt > fault_plan_->retransmit_budget) {
          if (!fault_recover_) {
            throw IntegrityError(
                "player " + std::to_string(ev.machine) +
                " broadcast store corrupted in round " +
                std::to_string(round) + ": retransmit budget of " +
                std::to_string(fault_plan_->retransmit_budget) +
                " exhausted and recovery is off");
          }
          restore(ckpt);
          restore_registry(ev.machine, round, replays, fallbacks);
          ++replays;
        } else {
          store_repaired += repair_retained_bcast();
        }
        break;
      }
      case fault::FaultKind::kCorruptCheckpoint: {
        // Bit rot in a retained checkpoint image; nothing observable until
        // the next restore verifies generations (see restore_registry).
        // The first rot event of a round hits the newest generation,
        // subsequent ones walk down the ring.
        if (registry_ == nullptr || !registry_->has_checkpoint()) break;
        registry_->corrupt_generation(
            ckpt_rot % registry_->generations_held(), round, ev.machine, ei);
        ++ckpt_rot;
        break;
      }
    }
  }
  exchange_impl();
  for (const std::size_t player : crashed_scratch_) {
    // The recovered player re-fetches what it missed: its point-to-point
    // inbox plus the round's broadcasts (stored once, re-read from there).
    resent += inbox_[player].size() + bcast_inbox_.size();
  }
  for (const std::size_t player : dark_scratch_) {
    // Dark player: point-to-point deliveries are lost. The broadcast store
    // is durable (one shared copy), matching the mpc engine's payload
    // store semantics.
    inbox_[player].clear();
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

void Engine::lenzen_batch_faults(std::size_t first_round, std::size_t batch) {
  if (fault_plan_ == nullptr) return;
  bool captured = false;
  for (std::size_t r = first_round; r < first_round + 2; ++r) {
    for (const fault::FaultEvent& ev : fault_plan_->events_at(r)) {
      if (ev.machine >= n_) continue;
      ++metrics_.faults_injected;
      if (ev.kind == fault::FaultKind::kDuplicateFlush) continue;
      if (ev.kind == fault::FaultKind::kCorruptPayload) {
        // The batch structure is its own retransmission unit: with
        // integrity on, the corrupted sender's batch load re-delivers;
        // without it the corruption is metrics-invisible (the scheme
        // forwards whatever it was handed).
        ++metrics_.corruptions_injected;
        if (integrity_) {
          ++metrics_.corruptions_detected;
          metrics_.words_retransmitted +=
              route_send_load_[batch][ev.machine];
        }
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
        if (registry_ != nullptr && registry_->has_checkpoint()) {
          registry_->corrupt_generation(0, r, ev.machine, 0);
        }
        continue;
      }
      if (ev.kind == fault::FaultKind::kCrash) {
        if (crashes_recovered_ >= fault_plan_->crash_budget) {
          throw fault::FaultBudgetError(
              "player " + std::to_string(ev.machine) +
              " crashed in round " + std::to_string(r) +
              " (lenzen batch): crash budget of " +
              std::to_string(fault_plan_->crash_budget) + " exhausted");
        }
        ++crashes_recovered_;
      }
      if (!captured) {
        // The sender-side retained batch is the checkpoint here; the batch
        // structure is Lenzen's own retransmission unit.
        std::size_t ckpt = route_batch_words_[batch];
        if (registry_ != nullptr) ckpt += registry_->capture(r);
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
