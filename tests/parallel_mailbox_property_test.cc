// Property test for batched cross-shard handoffs: no matter how a mail
// stream is split into producer-side bursts (explicit flush points, the
// mailbox's own full-batch publishes, partial drains, ring-node
// boundaries), the drained messages and their executor merge order —
// (at, key, src_shard, seq) via mail_tie_seq — are byte-identical to a
// stream flushed after every send. Batching is a wall-clock optimization
// only; it must be invisible to the simulation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <tuple>
#include <vector>

#include "sim/event_queue.h"
#include "sim/parallel/spsc_mailbox.h"
#include "testlib/seed.h"

namespace acdc::sim::par {
namespace {

// xorshift64* — self-contained so the test doesn't depend on generator
// internals; seeded through testlib so ACDC_TEST_SEED reroutes it.
struct Rng {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t x = state;
    if (x == 0) x = 0x9E3779B97F4A7C15ULL;  // xorshift has no zero orbit
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    state = x;
    return x * 0x2545F4914F6CDD1DULL;
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
};

// What a message stream looks like before it hits a mailbox. `payload`
// doubles as the message identity: the drained stream must carry exactly
// these pointers in exactly this per-mailbox order.
struct PlannedSend {
  Time at = 0;
  std::uint64_t key = kUnkeyedTieKey;
  int tag = 0;  // recovered from the payload pointer on the far side
};

void noop_deliver(void*, void*) {}
void noop_dispose(void*, void*) {}

// Samples a stream with deliberate (at, key) collisions so the tie-order
// property is actually exercised, not vacuously true.
std::vector<PlannedSend> sample_stream(Rng& rng, int count) {
  std::vector<PlannedSend> plan;
  plan.reserve(count);
  for (int i = 0; i < count; ++i) {
    PlannedSend s;
    s.at = static_cast<Time>(rng.below(8));       // heavy same-tick collisions
    s.key = rng.below(3) == 0 ? kUnkeyedTieKey    // unkeyed deliveries
                              : rng.below(4);     // and colliding tie keys
    s.tag = i;
    plan.push_back(s);
  }
  return plan;
}

// Replays `plan` through a mailbox, flushing after a send with probability
// 1/flush_every (1: after every send, the reference stream; random burst
// splits otherwise, on top of the mailbox's own full-batch publishes) and
// force-flushing the tail, then drains. When `partial_drains` is set,
// drains are interleaved with the sends — legal here because producer and
// consumer run on this one thread, exactly like a single-threaded executor
// hosting both shards.
std::vector<CrossShardMsg> replay(const std::vector<PlannedSend>& plan,
                                  int flush_every, Rng& rng,
                                  bool partial_drains, int* tags) {
  Mailbox mb(/*src_shard=*/1, /*dst_shard=*/0);
  std::vector<CrossShardMsg> out;
  for (const PlannedSend& s : plan) {
    mb.send(s.at, s.key, &noop_deliver, &noop_dispose, nullptr,
            &tags[s.tag]);
    if (rng.below(static_cast<std::uint64_t>(flush_every)) == 0) mb.flush();
    if (partial_drains && rng.below(11) == 0) mb.drain(out);
  }
  mb.flush();
  mb.drain(out);
  return out;
}

int tag_of(const CrossShardMsg& m) { return *static_cast<int*>(m.payload); }

// The executor's merge order for drained mail. src_shard is folded in via
// mail_tie_seq exactly as executor.cc does when scheduling.
std::uint64_t merge_tie(const CrossShardMsg& m, int src_shard) {
  return mail_tie_seq(static_cast<std::uint32_t>(src_shard), m.seq);
}

TEST(ParallelMailboxProperty, BurstSplitsNeverChangeDrainOrder) {
  constexpr int kTrials = 50;
  for (int trial = 0; trial < kTrials; ++trial) {
    Rng rng{testlib::test_seed(9000 + trial)};
    // Stream sizes straddle the 256-entry ring node so push_burst crosses
    // node boundaries mid-burst in many trials.
    const int count = 32 + static_cast<int>(rng.below(700));
    const std::vector<PlannedSend> plan = sample_stream(rng, count);
    std::vector<int> tags(count);
    for (int i = 0; i < count; ++i) tags[i] = i;

    Rng ref_rng{rng.state};
    const std::vector<CrossShardMsg> reference =
        replay(plan, /*flush_every=*/1, ref_rng, /*partial_drains=*/false,
               tags.data());
    ASSERT_EQ(reference.size(), plan.size());

    // 2 and 7 split bursts well below the batch; 1000 leaves nearly every
    // publish to the mailbox's full-batch flush.
    for (int every : {2, 7, 1000}) {
      for (bool partial : {false, true}) {
        Rng run_rng{rng.state + static_cast<std::uint64_t>(every) * 7919 +
                    (partial ? 1 : 0)};
        const std::vector<CrossShardMsg> got =
            replay(plan, every, run_rng, partial, tags.data());
        ASSERT_EQ(got.size(), reference.size())
            << "flush_every=" << every << " partial=" << partial;
        for (std::size_t i = 0; i < got.size(); ++i) {
          EXPECT_EQ(got[i].at, reference[i].at);
          EXPECT_EQ(got[i].key, reference[i].key);
          EXPECT_EQ(got[i].seq, reference[i].seq);
          EXPECT_EQ(tag_of(got[i]), tag_of(reference[i]))
              << "message order diverged at index " << i << " (flush_every="
              << every << ", partial=" << partial << ")";
        }
      }
    }
  }
}

TEST(ParallelMailboxProperty, MergedOrderAcrossMailboxesIsContentPure) {
  // Two producer mailboxes feeding one consumer, as two in-neighbors of a
  // shard. The executor merge key is (at, key, mail_tie_seq(src, seq));
  // sorting each run's drained mail by that key must yield the identical
  // interleaving regardless of where bursts split — the property the
  // determinism contract rests on.
  constexpr int kTrials = 25;
  for (int trial = 0; trial < kTrials; ++trial) {
    Rng rng{testlib::test_seed(9500 + trial)};
    const int count = 64 + static_cast<int>(rng.below(300));
    const std::vector<PlannedSend> plan_a = sample_stream(rng, count);
    const std::vector<PlannedSend> plan_b = sample_stream(rng, count);
    std::vector<int> tags_a(count), tags_b(count);
    for (int i = 0; i < count; ++i) {
      tags_a[i] = i;
      tags_b[i] = count + i;
    }

    using MergeKey = std::tuple<Time, std::uint64_t, std::uint64_t, int>;
    auto merged = [&](int flush_every) {
      Rng run_rng{rng.state ^ static_cast<std::uint64_t>(flush_every)};
      std::vector<std::pair<MergeKey, int>> rows;
      for (int src = 1; src <= 2; ++src) {
        const auto& plan = src == 1 ? plan_a : plan_b;
        int* tags = src == 1 ? tags_a.data() : tags_b.data();
        for (const CrossShardMsg& m :
             replay(plan, flush_every, run_rng, /*partial_drains=*/true,
                    tags)) {
          rows.emplace_back(MergeKey{m.at, m.key, merge_tie(m, src), src},
                            tag_of(m));
        }
      }
      std::sort(rows.begin(), rows.end());
      return rows;
    };

    const auto reference = merged(1);
    ASSERT_EQ(reference.size(), static_cast<std::size_t>(2 * count));
    // mail_tie_seq must keep distinct sources distinct even at equal seq.
    for (std::size_t i = 1; i < reference.size(); ++i) {
      EXPECT_NE(reference[i - 1].first, reference[i].first)
          << "merge key collided across sources at row " << i;
    }
    for (int every : {7, 1000}) {
      EXPECT_EQ(merged(every), reference) << "flush_every=" << every;
    }
  }
}

}  // namespace
}  // namespace acdc::sim::par
