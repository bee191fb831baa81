#include <gtest/gtest.h>

#include <memory>

#include "crypto/secret.hpp"
#include "puzzle/engine.hpp"
#include "util/stats.hpp"

namespace tcpz::puzzle {
namespace {

FlowBinding test_flow() {
  return FlowBinding{0x0a020001, 0x0a010001, 40000, 80, 0xdeadbeef};
}

// ---------------------------------------------------------------------------
// Difficulty arithmetic (the quantities the game model prices)
// ---------------------------------------------------------------------------

TEST(Difficulty, ExpectedSolveHashesIsKTimes2ToMMinus1) {
  EXPECT_DOUBLE_EQ((Difficulty{1, 1}).expected_solve_hashes(), 1.0);
  EXPECT_DOUBLE_EQ((Difficulty{1, 8}).expected_solve_hashes(), 128.0);
  EXPECT_DOUBLE_EQ((Difficulty{2, 17}).expected_solve_hashes(), 131072.0);
  EXPECT_DOUBLE_EQ((Difficulty{4, 16}).expected_solve_hashes(), 131072.0);
}

TEST(Difficulty, VerifyAndGenerateCosts) {
  EXPECT_DOUBLE_EQ((Difficulty{2, 17}).expected_verify_hashes(), 2.0);
  EXPECT_DOUBLE_EQ((Difficulty{4, 10}).expected_verify_hashes(), 3.0);
  EXPECT_DOUBLE_EQ(Difficulty::generate_hashes(), 1.0);
}

TEST(Difficulty, GuessProbability) {
  EXPECT_DOUBLE_EQ((Difficulty{2, 17}).guess_probability(), std::exp2(-34));
  EXPECT_EQ((Difficulty{2, 17}).guess_bits(), 34u);
  EXPECT_EQ((Difficulty{1, 8}).guess_bits(), 8u);
}

// ---------------------------------------------------------------------------
// Parameterised over both engine implementations: every protocol property
// must hold identically for the real scheme and the simulation oracle.
// ---------------------------------------------------------------------------

enum class EngineKind { kSha256, kOracle };

class EngineTest : public ::testing::TestWithParam<EngineKind> {
 protected:
  EngineTest() {
    EngineConfig cfg;
    cfg.sol_len = 8;
    cfg.expiry_ms = 2000;
    const auto secret = crypto::SecretKey::from_seed(99);
    if (GetParam() == EngineKind::kSha256) {
      engine_ = std::make_unique<Sha256PuzzleEngine>(secret, cfg);
    } else {
      engine_ = std::make_unique<OraclePuzzleEngine>(secret, cfg);
    }
  }

  // Small difficulty so the real brute force stays fast in tests.
  Difficulty diff_{2, 8};
  std::unique_ptr<PuzzleEngine> engine_;
  Rng rng_{4242};
};

TEST_P(EngineTest, SolveVerifyRoundTrip) {
  const auto flow = test_flow();
  const Challenge ch = engine_->make_challenge(flow, 1000, diff_);
  EXPECT_EQ(ch.preimage.size(), 8u);
  EXPECT_EQ(ch.timestamp, 1000u);

  std::uint64_t ops = 0;
  const Solution sol = engine_->solve(ch, flow, rng_, ops);
  EXPECT_EQ(sol.values.size(), 2u);
  EXPECT_GE(ops, 2u);  // at least one hash per solution

  const VerifyOutcome out = engine_->verify(flow, sol, diff_, 1500);
  EXPECT_TRUE(out.ok) << to_string(out.error);
  EXPECT_GE(out.hash_ops, 3u);  // 1 pre-image + k checks
}

TEST_P(EngineTest, ChallengeIsDeterministicPerFlowAndTime) {
  const auto flow = test_flow();
  EXPECT_EQ(engine_->make_challenge(flow, 1000, diff_),
            engine_->make_challenge(flow, 1000, diff_));
}

TEST_P(EngineTest, ChallengeVariesWithTimestampAndFlow) {
  const auto flow = test_flow();
  auto flow2 = flow;
  flow2.sport++;
  EXPECT_NE(engine_->make_challenge(flow, 1000, diff_).preimage,
            engine_->make_challenge(flow, 1001, diff_).preimage);
  EXPECT_NE(engine_->make_challenge(flow, 1000, diff_).preimage,
            engine_->make_challenge(flow2, 1000, diff_).preimage);
}

TEST_P(EngineTest, ChallengeBindsIsn) {
  auto flow = test_flow();
  auto flow2 = flow;
  flow2.isn++;
  EXPECT_NE(engine_->make_challenge(flow, 1000, diff_).preimage,
            engine_->make_challenge(flow2, 1000, diff_).preimage);
}

TEST_P(EngineTest, WrongFlowFailsVerification) {
  const auto flow = test_flow();
  const Challenge ch = engine_->make_challenge(flow, 1000, diff_);
  std::uint64_t ops = 0;
  const Solution sol = engine_->solve(ch, flow, rng_, ops);

  auto other = flow;
  other.saddr ^= 1;  // attacker replaying from a different address
  const VerifyOutcome out = engine_->verify(other, sol, diff_, 1500);
  EXPECT_FALSE(out.ok);
  EXPECT_EQ(out.error, VerifyError::kBadSolution);
}

TEST_P(EngineTest, TamperedSolutionFails) {
  const auto flow = test_flow();
  const Challenge ch = engine_->make_challenge(flow, 1000, diff_);
  std::uint64_t ops = 0;
  Solution sol = engine_->solve(ch, flow, rng_, ops);
  sol.values[1][0] ^= 0x80;
  EXPECT_FALSE(engine_->verify(flow, sol, diff_, 1500).ok);
}

TEST_P(EngineTest, TamperedTimestampFails) {
  // §5: "tampering with the timestamp will cause the solution verification
  // to fail" — the timestamp is folded into the pre-image.
  const auto flow = test_flow();
  const Challenge ch = engine_->make_challenge(flow, 1000, diff_);
  std::uint64_t ops = 0;
  Solution sol = engine_->solve(ch, flow, rng_, ops);
  sol.timestamp = 1400;  // still fresh, but not what the server hashed
  const VerifyOutcome out = engine_->verify(flow, sol, diff_, 1500);
  EXPECT_FALSE(out.ok);
  EXPECT_EQ(out.error, VerifyError::kBadSolution);
}

TEST_P(EngineTest, ExpiredSolutionRejected) {
  const auto flow = test_flow();
  const Challenge ch = engine_->make_challenge(flow, 1000, diff_);
  std::uint64_t ops = 0;
  const Solution sol = engine_->solve(ch, flow, rng_, ops);
  // expiry_ms = 2000: at t=3001 the challenge is stale.
  const VerifyOutcome out = engine_->verify(flow, sol, diff_, 3001);
  EXPECT_FALSE(out.ok);
  EXPECT_EQ(out.error, VerifyError::kExpired);
  // Freshness is checked before any hashing: replay floods cost ~0.
  EXPECT_EQ(out.hash_ops, 0u);
}

TEST_P(EngineTest, FutureTimestampRejected) {
  const auto flow = test_flow();
  const Challenge ch = engine_->make_challenge(flow, 5000, diff_);
  std::uint64_t ops = 0;
  const Solution sol = engine_->solve(ch, flow, rng_, ops);
  const VerifyOutcome out = engine_->verify(flow, sol, diff_, 1000);
  EXPECT_FALSE(out.ok);
  EXPECT_EQ(out.error, VerifyError::kFutureTimestamp);
}

TEST_P(EngineTest, WrongSolutionCountRejected) {
  const auto flow = test_flow();
  const Challenge ch = engine_->make_challenge(flow, 1000, diff_);
  std::uint64_t ops = 0;
  Solution sol = engine_->solve(ch, flow, rng_, ops);
  sol.values.pop_back();
  const VerifyOutcome out = engine_->verify(flow, sol, diff_, 1500);
  EXPECT_EQ(out.error, VerifyError::kWrongCount);
}

TEST_P(EngineTest, GarbageSolutionRejectedButCostsWork) {
  // §7 solution floods: bogus solutions must fail but the server does spend
  // bounded verification work (this is what the game model prices as d(p)).
  const auto flow = test_flow();
  Solution garbage;
  garbage.timestamp = 1000;
  garbage.values = {Bytes(8, 0xaa), Bytes(8, 0xbb)};
  const VerifyOutcome out = engine_->verify(flow, garbage, diff_, 1200);
  EXPECT_FALSE(out.ok);
  EXPECT_GE(out.hash_ops, 2u);
  EXPECT_LE(out.hash_ops, 1u + diff_.k);
}

TEST_P(EngineTest, RejectsInvalidDifficulty) {
  const auto flow = test_flow();
  EXPECT_THROW((void)engine_->make_challenge(flow, 0, Difficulty{0, 8}),
               std::invalid_argument);
  EXPECT_THROW((void)engine_->make_challenge(flow, 0, Difficulty{1, 0}),
               std::invalid_argument);
  // m must fit inside the sol_len-byte prefix.
  EXPECT_THROW((void)engine_->make_challenge(flow, 0, Difficulty{1, 64}),
               std::invalid_argument);
}

INSTANTIATE_TEST_SUITE_P(BothEngines, EngineTest,
                         ::testing::Values(EngineKind::kSha256,
                                           EngineKind::kOracle),
                         [](const auto& info) {
                           return info.param == EngineKind::kSha256 ? "Sha256"
                                                                    : "Oracle";
                         });

// ---------------------------------------------------------------------------
// Real-engine specifics
// ---------------------------------------------------------------------------

TEST(Sha256Engine, SolveCostIsGeometricInM) {
  // The true unbounded random search is geometric with mean 2^m = 64 (the
  // paper's ℓ(p) books it as 2^(m-1); see DESIGN.md on this factor of two).
  const auto secret = crypto::SecretKey::from_seed(7);
  Sha256PuzzleEngine engine(secret, {});
  Rng rng(1);
  const Difficulty diff{1, 6};
  RunningStats ops_stats;
  auto flow = test_flow();
  for (int i = 0; i < 400; ++i) {
    flow.isn = static_cast<std::uint32_t>(i);  // fresh puzzle each time
    const Challenge ch = engine.make_challenge(flow, 1000, diff);
    std::uint64_t ops = 0;
    (void)engine.solve(ch, flow, rng, ops);
    ops_stats.add(static_cast<double>(ops));
  }
  EXPECT_NEAR(ops_stats.mean(), 64.0, 12.0);
}

TEST(Sha256Engine, SolutionsSatisfyPrefixCondition) {
  const auto secret = crypto::SecretKey::from_seed(8);
  Sha256PuzzleEngine engine(secret, {});
  Rng rng(2);
  const auto flow = test_flow();
  const Challenge ch = engine.make_challenge(flow, 50, Difficulty{3, 10});
  std::uint64_t ops = 0;
  const Solution sol = engine.solve(ch, flow, rng, ops);
  for (unsigned i = 1; i <= 3; ++i) {
    EXPECT_TRUE(Sha256PuzzleEngine::candidate_matches(
        ch, static_cast<std::uint8_t>(i), sol.values[i - 1]))
        << "solution index " << i;
  }
}

TEST(Sha256Engine, SolutionIndexMatters) {
  // s_1 must not verify as s_2: the index is hashed into the check.
  const auto secret = crypto::SecretKey::from_seed(9);
  Sha256PuzzleEngine engine(secret, {});
  Rng rng(3);
  const auto flow = test_flow();
  const Challenge ch = engine.make_challenge(flow, 50, Difficulty{2, 10});
  std::uint64_t ops = 0;
  Solution sol = engine.solve(ch, flow, rng, ops);
  std::swap(sol.values[0], sol.values[1]);
  // Swapped solutions almost surely fail (probability 2^-20 of accidental
  // validity for both).
  EXPECT_FALSE(engine.verify(flow, sol, Difficulty{2, 10}, 100).ok);
}

TEST(Sha256Engine, DifferentSecretsRejectSolutions) {
  const EngineConfig cfg;
  Sha256PuzzleEngine a(crypto::SecretKey::from_seed(1), cfg);
  Sha256PuzzleEngine b(crypto::SecretKey::from_seed(2), cfg);
  Rng rng(4);
  const auto flow = test_flow();
  const Challenge ch = a.make_challenge(flow, 10, Difficulty{1, 8});
  std::uint64_t ops = 0;
  const Solution sol = a.solve(ch, flow, rng, ops);
  EXPECT_TRUE(a.verify(flow, sol, Difficulty{1, 8}, 20).ok);
  EXPECT_FALSE(b.verify(flow, sol, Difficulty{1, 8}, 20).ok);
}

TEST(Sha256Engine, SolveVerifyRoundTripAcrossDifficulties) {
  // Every solve and verify candidate is one dispatched Sha256::compress
  // (the hardware block function where the CPU has it): a solution found
  // with it must verify with it, from the easiest puzzle to a multi-value
  // one with a 12-bit prefix.
  const Sha256PuzzleEngine engine(crypto::SecretKey::from_seed(10), {});
  Rng rng(5);
  const auto flow = test_flow();
  for (const Difficulty diff : {Difficulty{1, 1}, Difficulty{2, 8},
                                Difficulty{4, 12}}) {
    const Challenge ch = engine.make_challenge(flow, 100, diff);
    std::uint64_t ops = 0;
    const Solution sol = engine.solve(ch, flow, rng, ops);
    ASSERT_EQ(sol.values.size(), diff.k);
    EXPECT_GE(ops, diff.k);
    const VerifyOutcome out = engine.verify(flow, sol, diff, 200);
    EXPECT_TRUE(out.ok) << "k=" << diff.k << " m=" << diff.m << ": "
                        << to_string(out.error);
  }
}

// ---------------------------------------------------------------------------
// Oracle-engine specifics
// ---------------------------------------------------------------------------

TEST(OracleEngine, SampledCostMatchesExpectation) {
  const auto secret = crypto::SecretKey::from_seed(10);
  OraclePuzzleEngine engine(secret, {});
  Rng rng(5);
  const auto flow = test_flow();
  const Difficulty diff{2, 10};  // expected 2 * 512 = 1024
  const Challenge ch = engine.make_challenge(flow, 10, diff);
  RunningStats stats;
  for (int i = 0; i < 3000; ++i) {
    std::uint64_t ops = 0;
    (void)engine.solve(ch, flow, rng, ops);
    stats.add(static_cast<double>(ops));
  }
  // Paper model: mean k * 2^(m-1) = 1024, max k * 2^m.
  EXPECT_NEAR(stats.mean(), 1024.0, 40.0);
  EXPECT_LE(stats.max(), 2.0 * 1024.0 + 2);
  // The spread of the per-solve cost is what widens the Fig. 6 CDFs.
  EXPECT_GT(stats.stddev(), 200.0);
}

TEST(OracleEngine, HighDifficultySolveIsInstantInHostTime) {
  // The whole point of the oracle: a (2,17) solve must not take 2^17 host
  // hashes. This test would effectively hang if it did not hold.
  const auto secret = crypto::SecretKey::from_seed(11);
  EngineConfig cfg;
  cfg.expiry_ms = 1u << 30;
  OraclePuzzleEngine engine(secret, cfg);
  Rng rng(6);
  const auto flow = test_flow();
  const Difficulty nash{2, 17};
  const Challenge ch = engine.make_challenge(flow, 10, nash);
  std::uint64_t ops = 0;
  const Solution sol = engine.solve(ch, flow, rng, ops);
  EXPECT_TRUE(engine.verify(flow, sol, nash, 20).ok);
  // Sampled cost is in the right regime for the Nash difficulty.
  EXPECT_GT(ops, 1000u);
}

TEST(SampleSolveHashes, MeanAndSpread) {
  Rng rng(12);
  RunningStats stats;
  const Difficulty diff{4, 8};  // paper model: mean 4 * 2^7 = 512, max 4 * 256
  for (int i = 0; i < 20'000; ++i) {
    stats.add(static_cast<double>(sample_solve_hashes(diff, rng)));
  }
  EXPECT_NEAR(stats.mean(), 512.0 + 2.0, 10.0);  // +k/2 from the 1+U form
  EXPECT_GE(stats.min(), 4.0);   // at least one hash per solution
  EXPECT_LE(stats.max(), 1024.0 + 4.0);
}

}  // namespace
}  // namespace tcpz::puzzle
