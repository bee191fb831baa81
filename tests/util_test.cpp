#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <optional>
#include <set>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "tcp/queues.hpp"
#include "util/bytes.hpp"
#include "util/flat_map.hpp"
#include "util/ring_queue.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/time.hpp"
#include "util/timeseries.hpp"

namespace tcpz {
namespace {

// ---------------------------------------------------------------------------
// SimTime
// ---------------------------------------------------------------------------

TEST(SimTime, UnitConstructorsAgree) {
  EXPECT_EQ(SimTime::seconds(1).nanos(), 1'000'000'000);
  EXPECT_EQ(SimTime::milliseconds(1500).nanos(), 1'500'000'000);
  EXPECT_EQ(SimTime::microseconds(2).nanos(), 2'000);
  EXPECT_EQ(SimTime::nanoseconds(7).nanos(), 7);
}

TEST(SimTime, FromSecondsRoundsToNearest) {
  EXPECT_EQ(SimTime::from_seconds(1.5).nanos(), 1'500'000'000);
  EXPECT_EQ(SimTime::from_seconds(1e-9).nanos(), 1);
  EXPECT_EQ(SimTime::from_seconds(0.4e-9).nanos(), 0);
}

TEST(SimTime, Arithmetic) {
  const SimTime a = SimTime::seconds(2);
  const SimTime b = SimTime::milliseconds(500);
  EXPECT_EQ((a + b).to_seconds(), 2.5);
  EXPECT_EQ((a - b).to_seconds(), 1.5);
  EXPECT_EQ((b * 4).to_seconds(), 2.0);
  EXPECT_LT(b, a);
  EXPECT_EQ(a, SimTime::seconds(2));
}

TEST(SimTime, ToStringPicksUnit) {
  EXPECT_EQ(SimTime::seconds(2).to_string(), "2.000s");
  EXPECT_EQ(SimTime::milliseconds(3).to_string(), "3.000ms");
  EXPECT_EQ(SimTime::microseconds(5).to_string(), "5.000us");
  EXPECT_EQ(SimTime::nanoseconds(9).to_string(), "9ns");
}

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a.next() == b.next());
  EXPECT_LE(equal, 1);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformU64Unbiased) {
  Rng rng(9);
  std::array<int, 5> counts{};
  constexpr int kDraws = 50'000;
  for (int i = 0; i < kDraws; ++i) counts[rng.uniform_u64(5)]++;
  for (int c : counts) {
    EXPECT_NEAR(c, kDraws / 5, kDraws / 5 * 0.1);
  }
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng rng(11);
  RunningStats stats;
  for (int i = 0; i < 100'000; ++i) stats.add(rng.exponential(20.0));
  EXPECT_NEAR(stats.mean(), 1.0 / 20.0, 0.002);
}

TEST(Rng, GeometricMeanIsInverseP) {
  // The solve-cost distribution: mean must be 1/p = 2^m.
  Rng rng(13);
  const double p = 1.0 / 256.0;
  RunningStats stats;
  for (int i = 0; i < 200'000; ++i) {
    stats.add(static_cast<double>(rng.geometric(p)));
  }
  EXPECT_NEAR(stats.mean(), 256.0, 256.0 * 0.02);
}

TEST(Rng, GeometricSupportStartsAtOne) {
  Rng rng(15);
  for (int i = 0; i < 1000; ++i) EXPECT_GE(rng.geometric(0.99), 1u);
  EXPECT_EQ(rng.geometric(1.0), 1u);
}

TEST(Rng, NormalMoments) {
  Rng rng(17);
  RunningStats stats;
  for (int i = 0; i < 100'000; ++i) stats.add(rng.normal(5.0, 2.0));
  EXPECT_NEAR(stats.mean(), 5.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.05);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent(21);
  Rng child = parent.split();
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (parent.next() == child.next());
  EXPECT_LE(equal, 1);
}

// ---------------------------------------------------------------------------
// RunningStats / SampleSet / Boxplot / Histogram
// ---------------------------------------------------------------------------

TEST(RunningStats, BasicMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 1e-3);  // sample stddev
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_EQ(s.count(), 8u);
}

TEST(RunningStats, MergeMatchesSequential) {
  Rng rng(1);
  RunningStats all, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal();
    all.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_EQ(a.count(), all.count());
}

TEST(SampleSet, QuantilesAndCdf) {
  SampleSet s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.median(), 50.5);
  EXPECT_NEAR(s.quantile(0.25), 25.75, 1e-9);
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 100.0);
  const auto cdf = s.cdf_at({0.0, 50.0, 100.0, 200.0});
  EXPECT_DOUBLE_EQ(cdf[0], 0.0);
  EXPECT_DOUBLE_EQ(cdf[1], 0.5);
  EXPECT_DOUBLE_EQ(cdf[2], 1.0);
  EXPECT_DOUBLE_EQ(cdf[3], 1.0);
}

TEST(SampleSet, InterleavedAddAndQuery) {
  SampleSet s;
  s.add(3);
  EXPECT_EQ(s.median(), 3.0);
  s.add(1);
  s.add(2);
  EXPECT_EQ(s.median(), 2.0);  // sort cache invalidated correctly
  EXPECT_EQ(s.min(), 1.0);
  EXPECT_EQ(s.max(), 3.0);
}

TEST(BoxplotStats, FiveNumberSummary) {
  SampleSet s;
  for (int i = 1; i <= 9; ++i) s.add(i);
  const auto b = BoxplotStats::from(s);
  EXPECT_EQ(b.min, 1.0);
  EXPECT_EQ(b.median, 5.0);
  EXPECT_EQ(b.max, 9.0);
  EXPECT_EQ(b.q1, 3.0);
  EXPECT_EQ(b.q3, 7.0);
  EXPECT_EQ(b.count, 9u);
}

TEST(Histogram, ClampsOutOfRange) {
  Histogram h(0.0, 10.0, 10);
  h.add(-5.0);
  h.add(15.0);
  h.add(5.5);
  EXPECT_EQ(h.count(0), 1.0);
  EXPECT_EQ(h.count(9), 1.0);
  EXPECT_EQ(h.count(5), 1.0);
  EXPECT_EQ(h.total(), 3.0);
}

TEST(Histogram, RejectsDegenerateConfig) {
  EXPECT_THROW(Histogram(0.0, 0.0, 10), std::invalid_argument);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// TimeSeries / GaugeSeries
// ---------------------------------------------------------------------------

TEST(TimeSeries, BinsByTime) {
  TimeSeries ts(SimTime::seconds(1));
  ts.add(SimTime::milliseconds(100), 10.0);
  ts.add(SimTime::milliseconds(900), 5.0);
  ts.add(SimTime::milliseconds(1000), 1.0);
  EXPECT_EQ(ts.total(0), 15.0);
  EXPECT_EQ(ts.total(1), 1.0);
  EXPECT_EQ(ts.rate_at(0), 15.0);
}

TEST(TimeSeries, SubSecondBinsScaleRates) {
  TimeSeries ts(SimTime::milliseconds(250));
  ts.add(SimTime::milliseconds(100), 2.0);
  EXPECT_DOUBLE_EQ(ts.rate_at(0), 8.0);  // 2 per quarter second = 8/s
}

TEST(TimeSeries, MeanRateCountsMissingBinsAsZero) {
  TimeSeries ts(SimTime::seconds(1));
  ts.add(SimTime::seconds(0), 10.0);
  EXPECT_DOUBLE_EQ(ts.mean_rate(0, 10), 1.0);
}

TEST(TimeSeries, NegativeTimeIgnored) {
  TimeSeries ts(SimTime::seconds(1));
  ts.add(SimTime::nanoseconds(-5), 1.0);
  EXPECT_EQ(ts.bins(), 0u);
}

TEST(GaugeSeries, WindowQueries) {
  GaugeSeries g;
  g.record(SimTime::seconds(1), 10.0);
  g.record(SimTime::seconds(2), 20.0);
  g.record(SimTime::seconds(3), 30.0);
  EXPECT_EQ(g.max_in(SimTime::seconds(1), SimTime::seconds(2)), 20.0);
  EXPECT_EQ(g.mean_in(SimTime::seconds(1), SimTime::seconds(3)), 20.0);
  EXPECT_EQ(g.mean_in(SimTime::seconds(10), SimTime::seconds(20)), 0.0);
}

// ---------------------------------------------------------------------------
// bytes
// ---------------------------------------------------------------------------

TEST(Bytes, BigEndianRoundTrip) {
  Bytes b;
  put_u16be(b, 0x1234);
  put_u32be(b, 0xdeadbeef);
  put_u64be(b, 0x0123456789abcdefull);
  std::uint16_t v16;
  std::uint32_t v32;
  std::uint64_t v64;
  ASSERT_TRUE(get_u16be(b, 0, v16));
  ASSERT_TRUE(get_u32be(b, 2, v32));
  ASSERT_TRUE(get_u64be(b, 6, v64));
  EXPECT_EQ(v16, 0x1234);
  EXPECT_EQ(v32, 0xdeadbeefu);
  EXPECT_EQ(v64, 0x0123456789abcdefull);
}

TEST(Bytes, TruncatedReadsFail) {
  Bytes b = {0x01, 0x02};
  std::uint32_t v32 = 99;
  EXPECT_FALSE(get_u32be(b, 0, v32));
  EXPECT_EQ(v32, 99u);  // untouched on failure
  std::uint16_t v16;
  EXPECT_FALSE(get_u16be(b, 1, v16));
}

TEST(Bytes, HexRoundTrip) {
  const Bytes b = {0x00, 0x7f, 0xff, 0xa5};
  EXPECT_EQ(to_hex(b), "007fffa5");
  EXPECT_EQ(from_hex("007fffa5"), b);
  EXPECT_EQ(from_hex("007FFFA5"), b);
}

TEST(Bytes, FromHexRejectsGarbage) {
  EXPECT_TRUE(from_hex("abc").empty());   // odd length
  EXPECT_TRUE(from_hex("zz").empty());    // non-hex
}

TEST(Bytes, ConstantTimeEqual) {
  const Bytes a = {1, 2, 3};
  const Bytes b = {1, 2, 3};
  const Bytes c = {1, 2, 4};
  const Bytes d = {1, 2};
  EXPECT_TRUE(ct_equal(a, b));
  EXPECT_FALSE(ct_equal(a, c));
  EXPECT_FALSE(ct_equal(a, d));
}

TEST(Rng, DeriveSeedIsAPureFunctionOfRootAndStreamId) {
  // Same (root, id) -> same seed, regardless of any other derivation that
  // happened before: this is what lets the scenario engine add or remove
  // agents without perturbing anyone else's stream.
  const std::uint64_t a = Rng::derive_seed(42, 7);
  (void)Rng::derive_seed(42, 1);
  (void)Rng::derive_seed(99, 7);
  EXPECT_EQ(Rng::derive_seed(42, 7), a);
}

TEST(Rng, DerivedStreamsAreDecorrelated) {
  // Adjacent stream ids (and adjacent roots) must give streams that do not
  // collide on their prefixes.
  Rng a = Rng::derive(42, 1);
  Rng b = Rng::derive(42, 2);
  Rng c = Rng::derive(43, 1);
  int equal_ab = 0, equal_ac = 0;
  for (int i = 0; i < 64; ++i) {
    const std::uint64_t x = a.next();
    if (x == b.next()) ++equal_ab;
    if (x == c.next()) ++equal_ac;
  }
  EXPECT_EQ(equal_ab, 0);
  EXPECT_EQ(equal_ac, 0);
  // And a derived stream reproduces itself.
  Rng d1 = Rng::derive(42, 1);
  Rng d2 = Rng::derive(42, 1);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(d1.next(), d2.next());
}

// ---------------------------------------------------------------------------
// RingQueue
// ---------------------------------------------------------------------------

// Interleaved pushes and pops against std::deque: the ring wraps, and grows
// while wrapped, many times over without losing FIFO order.
TEST(RingQueue, MatchesDequeThroughWrapsAndGrowth) {
  RingQueue<std::uint64_t> ring;
  std::deque<std::uint64_t> ref;
  Rng rng(11);
  std::uint64_t next = 0;
  for (int step = 0; step < 20'000; ++step) {
    // Push-biased early, pop-biased late, so the queue grows then drains.
    const std::uint64_t push_odds = step < 10'000 ? 6 : 4;
    if (ref.empty() || rng.uniform_u64(10) < push_odds) {
      ring.push_back(next);
      ref.push_back(next++);
    } else {
      ASSERT_EQ(ring.front(), ref.front()) << "step " << step;
      ring.pop_front();
      ref.pop_front();
    }
    ASSERT_EQ(ring.empty(), ref.empty());
  }
  while (!ref.empty()) {
    ASSERT_EQ(ring.front(), ref.front());
    ring.pop_front();
    ref.pop_front();
  }
  EXPECT_TRUE(ring.empty());
}


// ---------------------------------------------------------------------------
// FlatMap
// ---------------------------------------------------------------------------

// Hashes of at most 8 keys that all fall in the last three of the 16 slots
// the index starts with, so probe chains and backward shifts wrap.
struct TailHash {
  std::size_t operator()(std::uint32_t k) const {
    return (std::size_t{k} << 4) | (13 + k % 3);
  }
};

// Five distinct tags: lookups must compare keys, not only tags.
struct FewTagsHash {
  std::size_t operator()(std::uint32_t k) const { return k % 5; }
};

// Random try_emplace / overwrite / erase / find / erase_if against
// std::unordered_map over keys [0, n_keys); the first half of the steps is
// insert-biased, the second erase-biased, so the map grows through its
// doublings and drains again.
template <typename Hash>
void run_flat_map_model(std::uint32_t n_keys, int steps, std::uint64_t seed) {
  FlatMap<std::uint32_t, std::uint64_t, Hash> map;
  std::unordered_map<std::uint32_t, std::uint64_t> ref;
  Rng rng(seed);
  std::uint64_t next_value = 1;

  const auto check_all = [&] {
    ASSERT_EQ(map.size(), ref.size());
    for (const auto& [key, value] : map) {
      const auto it = ref.find(key);
      ASSERT_NE(it, ref.end()) << "stray key " << key;
      EXPECT_EQ(value, it->second);
    }
    for (const auto& [key, value] : ref) {
      const std::uint64_t* got = map.find(key);
      ASSERT_NE(got, nullptr) << "lost key " << key;
      EXPECT_EQ(*got, value);
    }
  };

  for (int step = 0; step < steps; ++step) {
    SCOPED_TRACE(step);
    const std::uint64_t insert_odds = step < steps / 2 ? 6 : 3;
    const auto key = static_cast<std::uint32_t>(rng.uniform_u64(n_keys));
    const std::uint64_t op = rng.uniform_u64(10);
    if (op < insert_odds) {
      if (rng.uniform_u64(2) == 0) {
        const auto [value, inserted] = map.try_emplace(key, next_value);
        const auto [it, ref_inserted] = ref.try_emplace(key, next_value);
        ASSERT_EQ(inserted, ref_inserted);
        EXPECT_EQ(*value, it->second);
        EXPECT_EQ(value, map.find(key));
      } else {
        map[key] = next_value;  // inserts or overwrites
        ref[key] = next_value;
      }
      ++next_value;
    } else if (op < 9) {
      // The swap-remove moves the last dense entry: it must stay findable.
      std::optional<std::pair<std::uint32_t, std::uint64_t>> last;
      if (!map.empty()) last = {(map.end() - 1)->key, (map.end() - 1)->value};
      ASSERT_EQ(map.erase(key), ref.erase(key) == 1);
      if (last && last->first != key) {
        const std::uint64_t* moved = map.find(last->first);
        ASSERT_NE(moved, nullptr);
        EXPECT_EQ(*moved, last->second);
      }
    } else {
      // Half of the probes ask for keys that are never inserted.
      const std::uint32_t probe = key + (rng.uniform_u64(2) == 0 ? 0 : n_keys);
      const std::uint64_t* got = map.find(probe);
      const auto it = ref.find(probe);
      ASSERT_EQ(got != nullptr, it != ref.end());
      ASSERT_EQ(map.contains(probe), it != ref.end());
      if (got != nullptr) {
        EXPECT_EQ(*got, it->second);
      }
    }
    ASSERT_EQ(map.size(), ref.size());
    if (step % 997 == 0) {
      const auto pred = [step](std::uint32_t, std::uint64_t value) {
        return (value + static_cast<std::uint64_t>(step)) % 3 == 0;
      };
      const std::size_t erased = map.erase_if(pred);
      EXPECT_EQ(erased, std::erase_if(ref, [&](const auto& kv) {
                  return pred(kv.first, kv.second);
                }));
      check_all();
    }
    if (::testing::Test::HasFailure()) return;
  }
  check_all();
  EXPECT_EQ(map.erase_if([](std::uint32_t, std::uint64_t) { return true; }),
            ref.size());
  EXPECT_TRUE(map.empty());
}

TEST(FlatMap, MatchesUnorderedMapThroughGrowthAndDrain) {
  run_flat_map_model<IntHash>(6'000, 60'000, 31);
}

TEST(FlatMap, MatchesUnorderedMapWithWrappingProbeChains) {
  run_flat_map_model<TailHash>(8, 20'000, 32);
}

TEST(FlatMap, MatchesUnorderedMapWhenTagsCollide) {
  run_flat_map_model<FewTagsHash>(200, 20'000, 33);
}


// ---------------------------------------------------------------------------
// tcp::ListenQueue
// ---------------------------------------------------------------------------

// Random insert / find / contains / erase / visit_due against a hash map
// and a brute-force scan for the due entries, sorted by (deadline,
// insertion).
class ListenQueueModel {
 public:
  ListenQueueModel(std::size_t capacity, std::vector<tcp::FlowKey> pool,
                   std::uint64_t seed)
      : queue_(capacity), capacity_(capacity), pool_(std::move(pool)),
        rng_(seed) {}

  /// `insert_odds` in 20 of the steps insert; visits advance the clock by
  /// up to `max_advance_ms`.
  void run(int steps, std::uint64_t insert_odds, std::uint64_t max_advance_ms) {
    for (int step = 0; step < steps; ++step) {
      SCOPED_TRACE(step);
      // Half the picks come from a hot few, which are erased and inserted
      // again within a deadline's reach.
      const std::size_t span = rng_.uniform_u64(2) == 0
                                   ? std::min<std::size_t>(pool_.size(), 64)
                                   : pool_.size();
      const tcp::FlowKey flow = pool_[rng_.uniform_u64(span)];
      const std::uint64_t op = rng_.uniform_u64(20);
      if (op < insert_odds) {
        insert(flow);
      } else if (op < 12) {
        queue_.erase(flow);
        ref_.erase(flow);
      } else if (op < 15) {
        check_find(flow);
      } else if (op < 17) {
        EXPECT_EQ(queue_.contains(flow), ref_.contains(flow));
      } else {
        now_ += SimTime::milliseconds(
            static_cast<std::int64_t>(rng_.uniform_u64(max_advance_ms + 1)));
        visit(now_);
      }
      ASSERT_EQ(queue_.size(), ref_.size());
      ASSERT_EQ(queue_.full(), ref_.size() >= capacity_);
      if (::testing::Test::HasFailure()) return;
    }
  }

  /// Every live entry is findable, then everything is visited out.
  void drain() {
    for (const auto& [flow, ref] : ref_) check_find(flow);
    while (!ref_.empty() && !::testing::Test::HasFailure()) {
      now_ += SimTime::seconds(1);
      visit(now_);
      ASSERT_EQ(queue_.size(), ref_.size());
    }
  }

 private:
  struct Ref {
    tcp::HalfOpenEntry entry;
    std::uint64_t seq = 0;
  };

  void insert(const tcp::FlowKey& flow) {
    tcp::HalfOpenEntry e;
    e.flow = flow;
    e.client_isn = next_isn_++;
    // Deadlines on a 100 ms grid, so many tie and insertion order decides.
    e.next_retx = now_ + SimTime::milliseconds(static_cast<std::int64_t>(
                             100 * rng_.uniform_u64(6)));
    const bool expect = ref_.size() < capacity_ && !ref_.contains(flow);
    ASSERT_EQ(queue_.insert(e), expect);
    if (expect) ref_.emplace(flow, Ref{e, ref_seq_++});
  }

  void check_find(const tcp::FlowKey& flow) {
    const tcp::HalfOpenEntry* got = queue_.find(flow);
    const auto it = ref_.find(flow);
    ASSERT_EQ(got != nullptr, it != ref_.end());
    if (got == nullptr) return;
    EXPECT_EQ(got->flow, flow);
    EXPECT_EQ(got->client_isn, it->second.entry.client_isn);
    EXPECT_EQ(got->next_retx, it->second.entry.next_retx);
    EXPECT_EQ(got->retx_count, it->second.entry.retx_count);
  }

  /// The visitor: the third visit erases; otherwise back off, and one entry
  /// in five stays due so the next call must visit it again.
  static bool touch(tcp::HalfOpenEntry& e, SimTime now) {
    if (e.retx_count >= 2) return false;
    ++e.retx_count;
    const std::int64_t backoff_ms = 100 * (1 + e.client_isn % 4);
    e.next_retx = e.client_isn % 5 == 0
                      ? now
                      : now + SimTime::milliseconds(backoff_ms);
    return true;
  }

  void visit(SimTime now) {
    std::vector<std::tuple<SimTime, std::uint64_t, tcp::FlowKey>> due;
    for (const auto& [flow, ref] : ref_) {
      if (ref.entry.next_retx <= now) {
        due.emplace_back(ref.entry.next_retx, ref.seq, flow);
      }
    }
    std::sort(due.begin(), due.end(), [](const auto& a, const auto& b) {
      return std::tie(std::get<0>(a), std::get<1>(a)) <
             std::tie(std::get<0>(b), std::get<1>(b));
    });
    std::vector<tcp::FlowKey> want;
    for (const auto& [at, seq, flow] : due) {
      want.push_back(flow);
      if (!touch(ref_.at(flow).entry, now)) ref_.erase(flow);
    }

    std::vector<tcp::FlowKey> got;
    queue_.visit_due(now, [&](tcp::HalfOpenEntry& e) {
      EXPECT_LE(e.next_retx, now) << "visited before its deadline";
      got.push_back(e.flow);
      return touch(e, now);
    });
    ASSERT_EQ(got, want);
  }

  tcp::ListenQueue queue_;
  std::size_t capacity_;
  std::vector<tcp::FlowKey> pool_;
  Rng rng_;
  std::unordered_map<tcp::FlowKey, Ref, tcp::FlowKeyHash> ref_;
  std::uint64_t ref_seq_ = 0;
  std::uint32_t next_isn_ = 0;
  SimTime now_ = SimTime::seconds(1);
};

tcp::FlowKey pool_flow(std::uint32_t i) {
  return {tcp::ipv4(10, 2, 0, 0) + i / 7, static_cast<std::uint16_t>(1024 + i),
          tcp::ipv4(10, 1, 0, 1), 80};
}

// A small table whose flows all hash to the last three of its 16 slots, so
// probe chains and backward shifts wrap past the end of the slot array.
TEST(ListenQueue, MatchesReferenceWithWrappingProbeChains) {
  std::vector<tcp::FlowKey> pool;
  for (std::uint32_t i = 0; pool.size() < 24; ++i) {
    const tcp::FlowKey flow = pool_flow(i);
    if ((tcp::FlowKeyHash{}(flow) & 15) >= 13) pool.push_back(flow);
  }
  ListenQueueModel model(8, pool, 21);
  model.run(20'000, 8, 250);
  model.drain();
}

// From empty to full (512 entries) and back: the table grows through
// every size while deadlines and insertions interleave.
TEST(ListenQueue, MatchesReferenceThroughGrowthAndReinserts) {
  std::vector<tcp::FlowKey> pool;
  for (std::uint32_t i = 0; i < 3'000; ++i) pool.push_back(pool_flow(i));
  ListenQueueModel model(512, pool, 22);
  model.run(20'000, 10, 2);  // insert-biased, slow clock: fills up
  model.run(20'000, 5, 50);  // erase-biased: churns and drains
  model.drain();
}

}  // namespace
}  // namespace tcpz
