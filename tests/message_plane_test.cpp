// Zero-copy message plane: inbox-view lifetime/aliasing semantics, the
// interleaving contract between unicast pushes and shared payloads,
// InboxView::to_vector, accounting equivalence between shared and
// materialized delivery, and the streamed-outbox staging (run-length
// record streams) coupled against the legacy per-word push path. Every
// scenario runs at one thread and on a four-thread pool, so the one
// unicast flush is exercised both as a single slot and sharded.
#include <algorithm>
#include <numeric>
#include <random>
#include <span>
#include <utility>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "mpc/engine.h"
#include "mpc/primitives.h"

namespace mpcg::mpc {
namespace {

Engine make_engine(std::size_t threads, std::size_t machines = 4,
                   std::size_t words = 1 << 12) {
  Config cfg;
  cfg.num_machines = machines;
  cfg.words_per_machine = words;
  cfg.strict = true;
  cfg.threads = threads;
  return Engine(cfg);
}

/// Test-name suffix for a thread-count parameter.
std::string threads_name(const ::testing::TestParamInfo<std::size_t>& info) {
  return "t" + std::to_string(info.param);
}

std::vector<Word> view_words(const InboxView& view) {
  return std::vector<Word>(view.begin(), view.end());
}

class MessagePlane : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MessagePlane, BroadcastDeliversToAllDestinations) {
  Engine e = make_engine(GetParam());
  const std::vector<Word> payload{7, 8, 9};
  const std::vector<std::size_t> dests{0, 2, 3};
  e.push_broadcast(1, dests, payload);
  e.exchange();
  for (const std::size_t d : dests) {
    EXPECT_EQ(view_words(e.inbox_view(d)), payload) << "machine " << d;
  }
  EXPECT_TRUE(e.inbox_view(1).empty());
}

TEST_P(MessagePlane, SharedPayloadIsAliasedNotCopied) {
  Engine e = make_engine(GetParam());
  const std::vector<Word> payload{1, 2, 3, 4};
  const std::vector<std::size_t> dests{0, 2, 3};
  e.push_broadcast(1, dests, payload);
  e.exchange();
  // Every destination's payload segment points at the same stored words.
  const std::span<const Word> s0 = e.inbox_view(0).segment(0);
  for (const std::size_t d : dests) {
    const InboxView v = e.inbox_view(d);
    ASSERT_EQ(v.num_segments(), 1U);
    EXPECT_EQ(v.segment(0).data(), s0.data()) << "machine " << d;
  }
}

TEST_P(MessagePlane, InterleavingPreservesPerSenderPushOrder) {
  Engine e = make_engine(GetParam());
  const std::vector<std::size_t> to_zero{0};
  const std::vector<Word> pay_a{100, 101};
  const std::vector<Word> pay_b{200};
  // Sender 2, chronologically: unicast 1, broadcast A, unicast 2 3,
  // broadcast B, unicast 4.
  e.push(2, 0, Word{1});
  e.push_broadcast(2, to_zero, pay_a);
  e.push(2, 0, Word{2});
  e.push(2, 0, Word{3});
  e.push_broadcast(2, to_zero, pay_b);
  e.push(2, 0, Word{4});
  // Sender 1 contributes after sender 2 queued — inbox order is by sender
  // id, not arrival order.
  e.push(1, 0, Word{11});
  // Sender 3: shared only.
  e.push_broadcast(3, to_zero, std::span<const Word>(pay_b));
  e.exchange();
  const std::vector<Word> expected{11, 1, 100, 101, 2, 3, 200, 4, 200};
  EXPECT_EQ(view_words(e.inbox_view(0)), expected);
  EXPECT_EQ(e.inbox_view(0).to_vector(), expected);
}

TEST_P(MessagePlane, StagedPayloadSharedAcrossSenders) {
  Engine e = make_engine(GetParam());
  const std::vector<Word> payload{5, 6};
  const PayloadId pid = e.stage_payload(payload);
  e.push_broadcast(0, std::vector<std::size_t>{1}, pid);
  e.push_broadcast(2, std::vector<std::size_t>{1, 3}, pid);
  e.exchange();
  EXPECT_EQ(view_words(e.inbox_view(1)), (std::vector<Word>{5, 6, 5, 6}));
  EXPECT_EQ(view_words(e.inbox_view(3)), payload);
  // Sent words are charged per sender per destination.
  EXPECT_EQ(e.metrics().total_words, 6U);
  EXPECT_EQ(e.metrics().max_sent_words, 4U);      // sender 2: two dests
  EXPECT_EQ(e.metrics().max_received_words, 4U);  // machine 1
}

TEST_P(MessagePlane, PayloadIdsDieAtExchange) {
  Engine e = make_engine(GetParam());
  const std::vector<Word> payload{1};
  const PayloadId pid = e.push_broadcast(0, std::vector<std::size_t>{1},
                                         std::span<const Word>(payload));
  e.exchange();
  EXPECT_THROW(e.push_broadcast(0, std::vector<std::size_t>{1}, pid),
               std::out_of_range);
}

TEST_P(MessagePlane, ViewsDescribeOnlyTheLatestExchange) {
  Engine e = make_engine(GetParam());
  const std::vector<Word> payload{1, 2};
  e.push_broadcast(0, std::vector<std::size_t>{1}, payload);
  e.exchange();
  EXPECT_EQ(e.inbox_view(1).size(), 2U);
  // Next round: different traffic entirely. The old view is invalidated
  // (its segments aliased per-round storage); a fresh view sees only the
  // new round.
  e.push(2, 1, Word{9});
  e.exchange();
  EXPECT_EQ(view_words(e.inbox_view(1)), (std::vector<Word>{9}));
  EXPECT_EQ(e.inbox_view(1).to_vector(), (std::vector<Word>{9}));
  // An empty round wipes inboxes too.
  e.exchange();
  EXPECT_TRUE(e.inbox_view(1).empty());
}

TEST_P(MessagePlane, ClearInboxesEmptiesViews) {
  Engine e = make_engine(GetParam());
  e.push(0, 1, Word{5});
  e.push_broadcast(2, std::vector<std::size_t>{1},
                   std::vector<Word>{6, 7});
  e.exchange();
  EXPECT_EQ(e.inbox_view(1).size(), 3U);
  e.clear_inboxes();
  EXPECT_TRUE(e.inbox_view(1).empty());
  EXPECT_TRUE(e.inbox_view(1).to_vector().empty());
}

TEST_P(MessagePlane, EmptyPayloadIsANoOp) {
  Engine e = make_engine(GetParam());
  e.push_broadcast(0, std::vector<std::size_t>{1, 2},
                   std::span<const Word>{});
  e.push(0, 1, Word{3});
  e.exchange();
  EXPECT_EQ(view_words(e.inbox_view(1)), (std::vector<Word>{3}));
  EXPECT_TRUE(e.inbox_view(2).empty());
  EXPECT_EQ(e.metrics().total_words, 1U);
}

TEST_P(MessagePlane, GatherDeliversOneSegmentPerSender) {
  Engine e = make_engine(GetParam());
  e.push_gather(1, 0, std::vector<Word>{10, 11});
  e.push_gather(2, 0, std::vector<Word>{20});
  e.push_gather(3, 0, std::vector<Word>{30, 31, 32});
  e.exchange();
  const InboxView v = e.inbox_view(0);
  ASSERT_EQ(v.num_segments(), 3U);
  EXPECT_EQ(v.segment(0)[0], 10U);
  EXPECT_EQ(v.segment(1)[0], 20U);
  EXPECT_EQ(v.segment(2).size(), 3U);
  EXPECT_EQ(view_words(v),
            (std::vector<Word>{10, 11, 20, 30, 31, 32}));
}

TEST_P(MessagePlane, AccountingMatchesMaterializedDelivery) {
  // The same logical traffic, once via shared payloads and once via plain
  // span pushes, must produce identical metrics and inbox contents —
  // zero-copy changes simulation cost, not model cost.
  const std::vector<Word> payload{3, 1, 4, 1, 5};
  const auto drive = [&](Engine& e, bool shared) {
    for (std::size_t round = 0; round < 3; ++round) {
      if (shared) {
        e.push_broadcast(0, std::vector<std::size_t>{1, 2, 3}, payload);
        e.push_gather(2, 1, payload);
      } else {
        for (const std::size_t to : {1, 2, 3}) {
          e.push(0, to, payload);
        }
        e.push(2, 1, payload);
      }
      e.push(3, 1, Word{round});
      e.exchange();
    }
  };
  Engine shared_e = make_engine(GetParam());
  Engine plain_e = make_engine(GetParam());
  drive(shared_e, true);
  drive(plain_e, false);
  const Metrics& a = shared_e.metrics();
  const Metrics& b = plain_e.metrics();
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.max_sent_words, b.max_sent_words);
  EXPECT_EQ(a.max_received_words, b.max_received_words);
  EXPECT_EQ(a.peak_storage_words, b.peak_storage_words);
  EXPECT_EQ(a.total_words, b.total_words);
  EXPECT_EQ(a.violations, b.violations);
  for (std::size_t machine = 0; machine < 4; ++machine) {
    EXPECT_EQ(view_words(shared_e.inbox_view(machine)),
              plain_e.inbox_view(machine).to_vector())
        << "machine " << machine;
  }
}

TEST_P(MessagePlane, StrictBudgetCountsSharedWords) {
  Engine e = make_engine(GetParam(), 4, 8);
  std::vector<Word> payload(5);
  std::iota(payload.begin(), payload.end(), 0);
  // 2 destinations x 5 words = 10 sent > 8 budget.
  e.push_broadcast(0, std::vector<std::size_t>{1, 2}, payload);
  EXPECT_THROW(e.exchange(), CapacityError);
}

TEST_P(MessagePlane, ReusableAfterSharedCapacityError) {
  // A strict-mode overflow mid-exchange must not leave stale shared sends
  // whose payload ids dangle into a later round's payload store.
  Engine e = make_engine(GetParam(), 4, 4);
  std::vector<Word> payload(10);
  std::iota(payload.begin(), payload.end(), 0);
  e.push_broadcast(0, std::vector<std::size_t>{1, 2}, payload);
  EXPECT_THROW(e.exchange(), CapacityError);
  e.push(0, 1, Word{42});
  e.exchange();
  const auto words = view_words(e.inbox_view(1));
  ASSERT_FALSE(words.empty());
  EXPECT_EQ(words.back(), 42U);
}

TEST_P(MessagePlane, CollectivesAgreeWithLegacySemantics) {
  Engine e = make_engine(GetParam(), 6, 1 << 10);
  std::vector<Word> payload(37);
  std::iota(payload.begin(), payload.end(), 100);
  EXPECT_EQ(broadcast(e, 2, payload), payload);
  std::vector<std::vector<Word>> parts{{1}, {}, {2, 3}, {4}, {}, {5, 6, 7}};
  EXPECT_EQ(gather_to(e, 1, parts),
            (std::vector<Word>{1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(all_reduce_sum(e, {1, 2, 3, 4, 5, 6}), 21U);
  EXPECT_EQ(e.metrics().violations, 0U);
}

INSTANTIATE_TEST_SUITE_P(Threads, MessagePlane,
                         ::testing::Values(std::size_t{1}, std::size_t{4}),
                         threads_name);

TEST_P(MessagePlane, OutboxMatchesPerWordPush) {
  // The same logical traffic through a streamed outbox and through the
  // legacy per-word wrapper must produce identical inboxes and metrics.
  Engine streamed = make_engine(GetParam());
  Engine legacy = make_engine(GetParam());
  const std::vector<Word> run{7, 8, 9, 10};
  {
    Outbox ob = streamed.outbox(1);
    ob.reserve(run.size() + 2);
    ob.append(3, Word{1});
    ob.append_run(3, run);   // extends the open run to 3
    ob.append(0, Word{2});
    ob.append_run(2, {});    // empty run is a no-op
  }
  legacy.push(1, 3, Word{1});
  for (const Word w : run) legacy.push(1, 3, w);
  legacy.push(1, 0, Word{2});
  streamed.exchange();
  legacy.exchange();
  for (std::size_t machine = 0; machine < 4; ++machine) {
    EXPECT_EQ(view_words(streamed.inbox_view(machine)),
              legacy.inbox_view(machine).to_vector())
        << "machine " << machine;
  }
  EXPECT_EQ(streamed.metrics().total_words, legacy.metrics().total_words);
  EXPECT_EQ(streamed.metrics().max_sent_words,
            legacy.metrics().max_sent_words);
  EXPECT_EQ(streamed.metrics().max_received_words,
            legacy.metrics().max_received_words);
}

TEST_P(MessagePlane, OutboxChecksMachineIds) {
  Engine e = make_engine(GetParam());
  EXPECT_THROW((void)e.outbox(4), std::out_of_range);
  Outbox ob = e.outbox(0);
  EXPECT_THROW(ob.append(4, Word{1}), std::out_of_range);
  EXPECT_THROW(ob.append_run(7, std::vector<Word>{1, 2}),
               std::out_of_range);
}

TEST_P(MessagePlane, OutboxInterleavesWithSharedSplices) {
  // Splice positions are snapshotted at the shared push, so a burst
  // appended before the broadcast lands before the payload and a burst
  // appended after lands after — same contract as per-word pushes.
  Engine e = make_engine(GetParam());
  const std::vector<Word> payload{100, 101};
  Outbox ob = e.outbox(2);
  ob.append_run(0, std::vector<Word>{1, 2});
  e.push_broadcast(2, std::vector<std::size_t>{0}, payload);
  ob.append(0, Word{3});
  e.push_gather(2, 0, std::vector<Word>{200});
  ob.append(0, Word{4});
  e.exchange();
  EXPECT_EQ(view_words(e.inbox_view(0)),
            (std::vector<Word>{1, 2, 100, 101, 3, 200, 4}));
  EXPECT_EQ(e.inbox_view(0).to_vector(), view_words(e.inbox_view(0)));
}

/// Randomized coupling of the streamed-outbox staging against the legacy
/// per-word push path, interleaved with broadcast/gather splices, at one
/// thread and on a four-thread pool. Inbox views and every Metrics field
/// must agree word for word after every round.
class StagingCoupling : public ::testing::TestWithParam<std::size_t> {};

TEST_P(StagingCoupling, RandomizedRunStreamsMatchPerWordPush) {
  constexpr std::size_t kMachines = 6;
  Config cfg;
  cfg.num_machines = kMachines;
  cfg.words_per_machine = 1 << 14;
  cfg.strict = true;
  cfg.threads = GetParam();
  Engine streamed(cfg);
  Engine legacy(cfg);
  std::mt19937_64 rng(0xA11CE5);
  std::vector<Word> run_buf;
  std::vector<std::size_t> dests;
  for (int round = 0; round < 60; ++round) {
    const std::size_t bursts = rng() % 8;
    for (std::size_t b = 0; b < bursts; ++b) {
      const std::size_t from = rng() % kMachines;
      Outbox ob = streamed.outbox(from);
      const std::size_t ops = 1 + rng() % 5;
      for (std::size_t op = 0; op < ops; ++op) {
        const std::size_t to = rng() % kMachines;
        switch (rng() % 4) {
          case 0: {
            const Word w = rng();
            ob.append(to, w);
            legacy.push(from, to, w);
            break;
          }
          case 1: {
            run_buf.clear();
            const std::size_t len = 1 + rng() % 9;
            for (std::size_t i = 0; i < len; ++i) run_buf.push_back(rng());
            ob.append_run(to, run_buf);
            for (const Word w : run_buf) legacy.push(from, to, w);
            break;
          }
          case 2: {
            run_buf.clear();
            const std::size_t len = rng() % 4;
            for (std::size_t i = 0; i < len; ++i) run_buf.push_back(rng());
            dests.clear();
            for (std::size_t d = 0; d < kMachines; ++d) {
              if (rng() % 3 == 0) dests.push_back(d);
            }
            streamed.push_broadcast(from, dests, run_buf);
            legacy.push_broadcast(from, dests, run_buf);
            break;
          }
          default: {
            run_buf.clear();
            const std::size_t len = 1 + rng() % 3;
            for (std::size_t i = 0; i < len; ++i) run_buf.push_back(rng());
            streamed.push_gather(from, to, run_buf);
            legacy.push_gather(from, to, run_buf);
            break;
          }
        }
      }
    }
    streamed.exchange();
    legacy.exchange();
    const Metrics& a = streamed.metrics();
    const Metrics& b = legacy.metrics();
    ASSERT_EQ(a.rounds, b.rounds) << "round " << round;
    ASSERT_EQ(a.max_sent_words, b.max_sent_words) << "round " << round;
    ASSERT_EQ(a.max_received_words, b.max_received_words)
        << "round " << round;
    ASSERT_EQ(a.peak_storage_words, b.peak_storage_words)
        << "round " << round;
    ASSERT_EQ(a.total_words, b.total_words) << "round " << round;
    ASSERT_EQ(a.violations, b.violations) << "round " << round;
    for (std::size_t machine = 0; machine < kMachines; ++machine) {
      const InboxView view = streamed.inbox_view(machine);
      ASSERT_EQ(view_words(view), legacy.inbox_view(machine).to_vector())
          << "round " << round << " machine " << machine;
      ASSERT_EQ(view.size(), legacy.inbox_view(machine).to_vector().size());
    }
  }
}

/// The flush's specification, replayed from a log of every push: a
/// receiver's inbox is, for senders ascending, that sender's unicast words
/// and shared payloads to it in push order; a payload counts its full size
/// once per destination on both sides.
class PushLog {
 public:
  explicit PushLog(std::size_t machines) : by_sender_(machines) {}

  void add(std::size_t from, std::size_t to, std::span<const Word> words) {
    if (words.empty()) return;
    by_sender_[from].push_back({to, {words.begin(), words.end()}});
  }

  /// Replays and clears the log.
  void replay(std::vector<std::vector<Word>>& inbox,
              std::vector<std::size_t>& sent,
              std::vector<std::size_t>& received) {
    const std::size_t m = by_sender_.size();
    inbox.assign(m, {});
    sent.assign(m, 0);
    received.assign(m, 0);
    for (std::size_t from = 0; from < m; ++from) {
      for (const auto& [to, words] : by_sender_[from]) {
        inbox[to].insert(inbox[to].end(), words.begin(), words.end());
        sent[from] += words.size();
        received[to] += words.size();
      }
      by_sender_[from].clear();
    }
  }

 private:
  std::vector<std::vector<std::pair<std::size_t, std::vector<Word>>>>
      by_sender_;
};

/// Drives `rounds` random rounds of `bursts` sender bursts each — single
/// words, runs, broadcasts (some empty), gathers, and gathers spliced into
/// the middle of a run to the same receiver — through one engine, and
/// checks every inbox and the send/receive Metrics against the PushLog
/// spec. Every broadcast must arrive as one segment aliasing the stored
/// copy, and a receiver without payloads must see at most one segment.
void check_flush_against_spec(std::size_t threads, std::size_t machines,
                              int rounds, std::size_t bursts,
                              std::uint64_t seed) {
  Config cfg;
  cfg.num_machines = machines;
  cfg.words_per_machine = 1 << 16;
  cfg.strict = true;
  cfg.threads = threads;
  Engine e(cfg);
  PushLog log(machines);
  std::mt19937_64 rng(seed);
  std::vector<Word> buf;
  std::vector<Word> tail;
  std::vector<std::size_t> dests;
  std::vector<std::vector<Word>> want;
  std::vector<std::size_t> sent;
  std::vector<std::size_t> received;
  std::vector<std::pair<PayloadId, std::vector<std::size_t>>> broadcasts;
  std::vector<char> gets_payload(machines);
  Metrics expect{};
  const auto fill = [&](std::vector<Word>& out, std::size_t len) {
    out.clear();
    for (std::size_t i = 0; i < len; ++i) out.push_back(rng());
  };
  for (int round = 0; round < rounds; ++round) {
    broadcasts.clear();
    std::fill(gets_payload.begin(), gets_payload.end(), 0);
    for (std::size_t b = 0; b < bursts; ++b) {
      const std::size_t from = rng() % machines;
      Outbox ob = e.outbox(from);
      const std::size_t ops = 1 + rng() % 5;
      for (std::size_t op = 0; op < ops; ++op) {
        const std::size_t to = rng() % machines;
        switch (rng() % 5) {
          case 0:
            fill(buf, 1);
            ob.append(to, buf[0]);
            log.add(from, to, buf);
            break;
          case 1:
            fill(buf, 1 + rng() % 9);
            ob.append_run(to, buf);
            log.add(from, to, buf);
            break;
          case 2: {
            fill(buf, rng() % 4);
            dests.clear();
            const std::size_t k = 1 + rng() % 6;
            for (std::size_t d = 0; d < k; ++d) {
              dests.push_back(rng() % machines);
            }
            const PayloadId pid = e.push_broadcast(from, dests, buf);
            for (const std::size_t d : dests) {
              log.add(from, d, buf);
              if (!buf.empty()) gets_payload[d] = 1;
            }
            if (!buf.empty()) broadcasts.emplace_back(pid, dests);
            break;
          }
          case 3:
            fill(buf, 1 + rng() % 3);
            e.push_gather(from, to, buf);
            log.add(from, to, buf);
            gets_payload[to] = 1;
            break;
          default:
            // A payload spliced mid-run: the run to `to` stays open across
            // the gather, so its words straddle the splice point.
            fill(tail, 2);
            ob.append_run(to, tail);
            log.add(from, to, tail);
            fill(buf, 1 + rng() % 3);
            e.push_gather(from, to, buf);
            log.add(from, to, buf);
            gets_payload[to] = 1;
            fill(tail, 2);
            ob.append_run(to, tail);
            log.add(from, to, tail);
            break;
        }
      }
    }
    e.exchange();
    log.replay(want, sent, received);
    for (std::size_t i = 0; i < machines; ++i) {
      expect.max_sent_words = std::max(expect.max_sent_words, sent[i]);
      expect.max_received_words =
          std::max(expect.max_received_words, received[i]);
      expect.total_words += sent[i];
    }
    const Metrics& got = e.metrics();
    ASSERT_EQ(got.rounds, static_cast<std::size_t>(round) + 1);
    ASSERT_EQ(got.max_sent_words, expect.max_sent_words) << "round " << round;
    ASSERT_EQ(got.max_received_words, expect.max_received_words)
        << "round " << round;
    ASSERT_EQ(got.total_words, expect.total_words) << "round " << round;
    for (std::size_t to = 0; to < machines; ++to) {
      const InboxView view = e.inbox_view(to);
      ASSERT_EQ(view_words(view), want[to])
          << "round " << round << " machine " << to;
      ASSERT_EQ(view.size(), received[to]);
      if (!gets_payload[to]) ASSERT_LE(view.num_segments(), 1U);
    }
    for (const auto& [pid, to_list] : broadcasts) {
      const std::span<const Word> stored = e.delivered_payload(pid);
      for (const std::size_t d : to_list) {
        const InboxView view = e.inbox_view(d);
        bool aliased = false;
        for (std::size_t i = 0; i < view.num_segments(); ++i) {
          aliased |= view.segment(i).data() == stored.data() &&
                     view.segment(i).size() == stored.size();
        }
        ASSERT_TRUE(aliased) << "round " << round << " machine " << d;
      }
    }
  }
}

TEST_P(StagingCoupling, FlushMatchesPushLogSpec) {
  check_flush_against_spec(GetParam(), 6, 60, 8, 0x5bec);
}

TEST_P(StagingCoupling, WideClusterFlushMatchesPushLogSpec) {
  // Past the pool's inline threshold (inline_grain() machines per
  // thread), so at four threads the flush's chunks run concurrently.
  const std::size_t machines = 4 * ParallelBackend::inline_grain() + 4;
  check_flush_against_spec(GetParam(), machines, 4, 3000, 0x31de);
}

INSTANTIATE_TEST_SUITE_P(Threads, StagingCoupling,
                         ::testing::Values(std::size_t{1}, std::size_t{4}),
                         threads_name);

}  // namespace
}  // namespace mpcg::mpc
