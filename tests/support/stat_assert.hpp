// Statistical matchers for Monte-Carlo test expectations.
//
// A hard threshold on a measured rate (EXPECT_LT(ser, 0.01)) flakes as
// soon as the sample is small enough for the binomial noise to cross
// the line. These matchers instead test the hypothesis through a
// Wilson score interval at a caller-chosen significance level alpha:
// the assertion only fails when the data is statistically inconsistent
// with the claim, so a passing test stays a passing test under any RNG
// reshuffle of the same physics, while a genuine regression of the
// underlying rate still trips it.
//
//   EXPECT_RATE_NEAR(hits, trials, p, alpha)   p inside the CI
//   EXPECT_RATE_LT(hits, trials, p, alpha)     CI not entirely >= p
//   EXPECT_RATE_GT(hits, trials, p, alpha)     CI not entirely <= p
//   EXPECT_RATES_CONSISTENT(h1, n1, h2, n2, alpha)
//       two-sample pooled z-test that two binomial rates agree
//   EXPECT_POISSON_NEAR(count, mean, alpha)
//       z-test that a Poisson count has the given mean
#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "oci/util/math.hpp"
#include "oci/util/statistics.hpp"

namespace oci::test {

/// Two-sided Wilson interval at significance alpha (confidence 1-alpha).
inline util::ProportionEstimate rate_interval(std::uint64_t hits, std::uint64_t trials,
                                              double alpha) {
  return util::wilson_interval(hits, trials, util::normal_quantile(1.0 - alpha / 2.0));
}

inline ::testing::AssertionResult RateNear(std::uint64_t hits, std::uint64_t trials,
                                           double p, double alpha) {
  const util::ProportionEstimate ci = rate_interval(hits, trials, alpha);
  if (p >= ci.lo && p <= ci.hi) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "rate " << hits << "/" << trials << " = " << ci.p << " has Wilson CI ["
         << ci.lo << ", " << ci.hi << "] at alpha=" << alpha
         << ", which excludes the expected " << p;
}

/// Asserts the true rate is below p: fails only when even the CI's
/// lower bound clears p, i.e. the data is significantly ABOVE the bound.
inline ::testing::AssertionResult RateLt(std::uint64_t hits, std::uint64_t trials, double p,
                                         double alpha) {
  const util::ProportionEstimate ci = rate_interval(hits, trials, alpha);
  if (ci.lo < p) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "rate " << hits << "/" << trials << " = " << ci.p << " is significantly >= " << p
         << " (Wilson CI [" << ci.lo << ", " << ci.hi << "] at alpha=" << alpha << ")";
}

/// Asserts the true rate is above p (mirror of RateLt).
inline ::testing::AssertionResult RateGt(std::uint64_t hits, std::uint64_t trials, double p,
                                         double alpha) {
  const util::ProportionEstimate ci = rate_interval(hits, trials, alpha);
  if (ci.hi > p) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "rate " << hits << "/" << trials << " = " << ci.p << " is significantly <= " << p
         << " (Wilson CI [" << ci.lo << ", " << ci.hi << "] at alpha=" << alpha << ")";
}

/// Pooled two-proportion z-test: are two binomial samples consistent
/// with one underlying rate? Used to pin statistically-equivalent
/// implementations (e.g. reference pipeline vs LinkEngine) against each
/// other without demanding draw-for-draw identical RNG consumption.
inline ::testing::AssertionResult RatesConsistent(std::uint64_t h1, std::uint64_t n1,
                                                  std::uint64_t h2, std::uint64_t n2,
                                                  double alpha) {
  if (n1 == 0 || n2 == 0) {
    return ::testing::AssertionFailure() << "two-proportion test needs trials on both sides";
  }
  const double p1 = static_cast<double>(h1) / static_cast<double>(n1);
  const double p2 = static_cast<double>(h2) / static_cast<double>(n2);
  const double pooled = static_cast<double>(h1 + h2) / static_cast<double>(n1 + n2);
  const double se = std::sqrt(pooled * (1.0 - pooled) *
                              (1.0 / static_cast<double>(n1) + 1.0 / static_cast<double>(n2)));
  if (se == 0.0) {
    // Both samples all-hits or all-misses: consistent iff equal.
    if (p1 == p2) return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << "degenerate rates differ: " << p1 << " vs " << p2;
  }
  const double z = (p1 - p2) / se;
  const double z_crit = util::normal_quantile(1.0 - alpha / 2.0);
  if (std::abs(z) <= z_crit) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "rates " << h1 << "/" << n1 << " = " << p1 << " and " << h2 << "/" << n2 << " = "
         << p2 << " differ with |z| = " << std::abs(z) << " > " << z_crit
         << " at alpha=" << alpha;
}

/// Is a Poisson count consistent with its expected mean? Two-sided
/// z-test on (count - mean) / sqrt(mean); the normal approximation is
/// sound for means in the thousands, where the tests use it.
inline ::testing::AssertionResult PoissonNear(std::uint64_t count, double mean, double alpha) {
  if (!(mean > 0.0)) {
    return ::testing::AssertionFailure() << "Poisson test needs a positive mean, got " << mean;
  }
  const double z = (static_cast<double>(count) - mean) / std::sqrt(mean);
  const double z_crit = util::normal_quantile(1.0 - alpha / 2.0);
  if (std::abs(z) <= z_crit) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << "count " << count << " against Poisson mean " << mean
                                       << " has |z| = " << std::abs(z) << " > " << z_crit
                                       << " at alpha=" << alpha;
}

}  // namespace oci::test

#define EXPECT_RATE_NEAR(hits, trials, p, alpha) \
  EXPECT_TRUE(::oci::test::RateNear((hits), (trials), (p), (alpha)))
#define EXPECT_RATE_LT(hits, trials, p, alpha) \
  EXPECT_TRUE(::oci::test::RateLt((hits), (trials), (p), (alpha)))
#define EXPECT_RATE_GT(hits, trials, p, alpha) \
  EXPECT_TRUE(::oci::test::RateGt((hits), (trials), (p), (alpha)))
#define EXPECT_RATES_CONSISTENT(h1, n1, h2, n2, alpha) \
  EXPECT_TRUE(::oci::test::RatesConsistent((h1), (n1), (h2), (n2), (alpha)))
#define EXPECT_POISSON_NEAR(count, mean, alpha) \
  EXPECT_TRUE(::oci::test::PoissonNear((count), (mean), (alpha)))
