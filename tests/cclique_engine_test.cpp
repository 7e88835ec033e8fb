#include <vector>

#include <gtest/gtest.h>

#include "cclique/engine.h"
#include "fault/fault_plan.h"

namespace mpcg::cclique {
namespace {

TEST(CcEngine, PointToPointDelivery) {
  Engine e(4);
  e.send(1, 2, 77);
  e.exchange();
  ASSERT_EQ(e.inbox(2).size(), 1U);
  EXPECT_EQ(e.inbox(2)[0].from, 1U);
  EXPECT_EQ(e.inbox(2)[0].word, 77U);
  EXPECT_TRUE(e.inbox(1).empty());
  EXPECT_EQ(e.metrics().rounds, 1U);
}

TEST(CcEngine, PairBudgetViolationThrows) {
  Engine e(3);
  e.send(0, 1, 1);
  e.send(0, 1, 2);
  EXPECT_THROW(e.exchange(), CongestionError);
}

TEST(CcEngine, DistinctPairsSameRoundOk) {
  Engine e(4);
  e.send(0, 1, 1);
  e.send(0, 2, 2);
  e.send(0, 3, 3);
  e.send(1, 0, 4);
  EXPECT_NO_THROW(e.exchange());
  EXPECT_EQ(e.metrics().max_player_sent, 3U);
}

TEST(CcEngine, NonStrictCountsViolations) {
  Engine e(3, /*strict=*/false);
  e.send(0, 1, 1);
  e.send(0, 1, 2);
  e.exchange();
  EXPECT_GE(e.metrics().violations, 1U);
}

TEST(CcEngine, BroadcastReachesEveryone) {
  Engine e(5);
  e.broadcast(2, 99);
  e.exchange();
  ASSERT_EQ(e.broadcast_inbox().size(), 1U);
  EXPECT_EQ(e.broadcast_inbox()[0].from, 2U);
  EXPECT_EQ(e.broadcast_inbox()[0].word, 99U);
}

TEST(CcEngine, BroadcastPlusSendSamePairThrows) {
  Engine e(3);
  e.broadcast(0, 1);
  e.send(0, 2, 5);
  EXPECT_THROW(e.exchange(), CongestionError);
}

TEST(CcEngine, DoubleBroadcastThrows) {
  Engine e(3);
  e.broadcast(0, 1);
  e.broadcast(0, 2);
  EXPECT_THROW(e.exchange(), CongestionError);
}

TEST(CcEngine, ManyBroadcastersOneRound) {
  Engine e(6);
  for (PlayerId p = 0; p < 6; ++p) e.broadcast(p, p);
  e.exchange();
  EXPECT_EQ(e.broadcast_inbox().size(), 6U);
  EXPECT_EQ(e.metrics().rounds, 1U);
}

TEST(CcEngine, LenzenFeasibleBatchTwoRounds) {
  Engine e(4);
  RouteStream stream;
  for (PlayerId p = 0; p < 4; ++p) stream.append(p, 0, p);
  const auto& delivered = e.lenzen_route_view(stream);
  EXPECT_EQ(delivered[0].size(), 4U);
  EXPECT_EQ(e.metrics().rounds, 2U);
  EXPECT_EQ(e.metrics().lenzen_batches, 1U);
}

TEST(CcEngine, LenzenOverloadSplitsBatches) {
  Engine e(3);
  // 7 messages to player 0; receiver budget is n=3 per batch.
  RouteStream stream;
  for (int i = 0; i < 7; ++i) {
    stream.append(static_cast<PlayerId>(i % 3), 0, static_cast<Word>(i));
  }
  const auto& delivered = e.lenzen_route_view(stream);
  EXPECT_EQ(delivered[0].size(), 7U);
  EXPECT_EQ(e.metrics().lenzen_batches, 3U);  // ceil(7/3)
  EXPECT_EQ(e.metrics().rounds, 6U);
}

TEST(CcEngine, LenzenRejectsWhileSendsQueued) {
  Engine e(3);
  e.send(0, 1, 1);
  EXPECT_THROW(e.lenzen_route_view(RouteStream{}), std::logic_error);
}

/// Concatenated words of one player's routed view.
std::vector<Word> routed_words(const RouteView& view) {
  std::vector<Word> out;
  for (const RouteSegment& seg : view.segments()) {
    out.insert(out.end(), seg.words, seg.words + seg.count);
  }
  return out;
}

TEST(CcEngine, LenzenCorruptionFlipsRoutedWords) {
  // One feasible batch: player 1 sends 5 words to 0 and 3 to 2, player 3
  // sends 2 to 0. A corrupt event on player 1 in the batch's first round
  // flips bits in its 8 batch words on the wire.
  RouteStream stream;
  std::vector<Word> want0;
  std::vector<Word> want2;
  for (Word w = 0; w < 5; ++w) {
    stream.append(1, 0, 100 + w);
    want0.push_back(100 + w);
  }
  for (Word w = 0; w < 3; ++w) {
    stream.append(1, 2, 200 + w);
    want2.push_back(200 + w);
  }
  for (Word w = 0; w < 2; ++w) {
    stream.append(3, 0, 300 + w);
    want0.push_back(300 + w);
  }
  fault::FaultPlan plan;
  plan.add_corrupt(1, 0);
  for (const bool integrity : {false, true}) {
    SCOPED_TRACE(integrity ? "integrity" : "no integrity");
    Engine e(16, /*strict=*/true, integrity);
    e.set_fault_plan(&plan);
    const auto& views = e.lenzen_route_view(stream);
    const std::vector<Word> got0 = routed_words(views[0]);
    const std::vector<Word> got2 = routed_words(views[2]);
    EXPECT_EQ(e.metrics().lenzen_batches, 1U);
    EXPECT_EQ(e.metrics().corruptions_injected, 1U);
    if (integrity) {
      // Detected and re-delivered from the pristine stream.
      EXPECT_EQ(got0, want0);
      EXPECT_EQ(got2, want2);
      EXPECT_EQ(e.metrics().corruptions_detected, 1U);
      EXPECT_EQ(e.metrics().words_retransmitted, 8U);
    } else {
      // Undetected: the receivers read flipped words, player 3's intact.
      EXPECT_TRUE(got0 != want0 || got2 != want2);
      ASSERT_EQ(got0.size(), want0.size());
      EXPECT_EQ(got0[5], want0[5]);
      EXPECT_EQ(got0[6], want0[6]);
      EXPECT_EQ(e.metrics().corruptions_detected, 0U);
      EXPECT_EQ(e.metrics().words_retransmitted, 0U);
    }
  }
  // The caller's stream was never mutated: a fault-free route reads it
  // back exactly.
  Engine clean(16);
  const auto& views = clean.lenzen_route_view(stream);
  EXPECT_EQ(routed_words(views[0]), want0);
  EXPECT_EQ(routed_words(views[2]), want2);
}

TEST(CcEngine, OutOfRangePlayersThrow) {
  Engine e(3);
  EXPECT_THROW(e.send(0, 3, 1), std::out_of_range);
  EXPECT_THROW(e.send(3, 0, 1), std::out_of_range);
  EXPECT_THROW(e.broadcast(5, 1), std::out_of_range);
}

TEST(CcEngine, RejectsZeroPlayers) {
  EXPECT_THROW(Engine(0), std::invalid_argument);
}

}  // namespace
}  // namespace mpcg::cclique
