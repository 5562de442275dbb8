// Tests for the configuration pre-fetching algorithms.
#include <gtest/gtest.h>

#include "runtime/prefetch.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace prtr::runtime {
namespace {

TEST(NonePrefetcherTest, NeverPredicts) {
  NonePrefetcher p;
  EXPECT_EQ(p.predictNext(), std::nullopt);
  p.observe(5);
  EXPECT_EQ(p.predictNext(), std::nullopt);
  EXPECT_EQ(p.decisionLatency(), util::Time::zero());
  EXPECT_EQ(p.name(), "none");
}

TEST(OraclePrefetcherTest, PredictsExactSequence) {
  const std::vector<ModuleId> seq{1, 2, 3, 1, 2};
  OraclePrefetcher p{seq, util::Time::microseconds(1)};
  EXPECT_EQ(p.predictNext(), std::optional<ModuleId>{1});
  p.observe(1);
  EXPECT_EQ(p.predictNext(), std::optional<ModuleId>{2});
  p.observe(2);
  p.observe(3);
  EXPECT_EQ(p.predictNext(), std::optional<ModuleId>{1});
  p.observe(1);
  p.observe(2);
  EXPECT_EQ(p.predictNext(), std::nullopt);  // sequence exhausted
}

TEST(MarkovPrefetcherTest, LearnsDominantTransition) {
  MarkovPrefetcher p{util::Time::zero()};
  EXPECT_EQ(p.predictNext(), std::nullopt);  // untrained
  // Train A->B (3x) and A->C (1x).
  for (int i = 0; i < 3; ++i) {
    p.observe(1);
    p.observe(2);
  }
  p.observe(1);
  p.observe(3);
  p.observe(1);
  EXPECT_EQ(p.predictNext(), std::optional<ModuleId>{2});
}

TEST(MarkovPrefetcherTest, HighAccuracyOnPeriodicSequence) {
  MarkovPrefetcher p{util::Time::zero()};
  const ModuleId cycle[] = {1, 2, 3};
  std::uint64_t correct = 0;
  std::uint64_t predictions = 0;
  for (int i = 0; i < 300; ++i) {
    const ModuleId actual = cycle[i % 3];
    if (const auto guess = p.predictNext()) {
      ++predictions;
      if (*guess == actual) ++correct;
    }
    p.observe(actual);
  }
  ASSERT_GT(predictions, 250u);
  EXPECT_GT(static_cast<double>(correct) / static_cast<double>(predictions),
            0.95);
}

TEST(AssociationPrefetcherTest, LearnsPairedFunctions) {
  AssociationPrefetcher p{4, util::Time::zero()};
  // Functions 10 and 11 always travel together.
  for (int i = 0; i < 50; ++i) {
    p.observe(10);
    p.observe(11);
    p.observe(static_cast<ModuleId>(20 + (i % 3)));
  }
  p.observe(10);
  EXPECT_EQ(p.predictNext(), std::optional<ModuleId>{11});
}

TEST(AssociationPrefetcherTest, WindowValidated) {
  EXPECT_THROW((AssociationPrefetcher{1, util::Time::zero()}),
               util::DomainError);
}

TEST(PrefetcherFactoryTest, BuildsEveryKind) {
  for (const PrefetcherKind kind : allPrefetcherKinds()) {
    EXPECT_EQ(makePrefetcher(kind, util::Time::zero(), {1, 2})->name(),
              toString(kind));
  }
}

TEST(PrefetcherFactoryTest, DecisionLatencyIsForwarded) {
  const auto p =
      makePrefetcher(PrefetcherKind::kMarkov, util::Time::microseconds(7));
  EXPECT_EQ(p->decisionLatency(), util::Time::microseconds(7));
}

/// Property sweep: Markov prediction accuracy tracks the workload's
/// self-transition bias.
class MarkovAccuracyTest : public ::testing::TestWithParam<double> {};

TEST_P(MarkovAccuracyTest, AccuracyAtLeastSelfBias) {
  const double bias = GetParam();
  util::Rng rng{71};
  MarkovPrefetcher p{util::Time::zero()};
  ModuleId current = 1;
  std::uint64_t correct = 0;
  std::uint64_t predictions = 0;
  for (int i = 0; i < 20000; ++i) {
    if (!rng.chance(bias)) current = 1 + rng.below(6);
    if (const auto guess = p.predictNext()) {
      ++predictions;
      if (*guess == current) ++correct;
    }
    p.observe(current);
  }
  ASSERT_GT(predictions, 10000u);
  const double accuracy =
      static_cast<double>(correct) / static_cast<double>(predictions);
  // Predicting "stay" is always available to the learner, so accuracy
  // should be at least roughly the self-transition probability.
  EXPECT_GT(accuracy, bias - 0.08) << "bias=" << bias;
}

INSTANTIATE_TEST_SUITE_P(BiasSweep, MarkovAccuracyTest,
                         ::testing::Values(0.5, 0.7, 0.9));

}  // namespace
}  // namespace prtr::runtime
