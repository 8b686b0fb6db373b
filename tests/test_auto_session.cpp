// The transparent auto-profiling library: linking tempest_auto starts
// the session before main (this very test binary is the subject — its
// constructor ran before gtest did). Run with TEMPEST_REPORT=0 via the
// ctest ENVIRONMENT property so the exit-time report stays quiet.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "core/api.hpp"
#include "core/auto_session.hpp"
#include "core/session.hpp"
#include "telemetry/metrics.hpp"

namespace {

TEST(AutoSession, StartedBeforeMain) {
  EXPECT_TRUE(tempest::core::auto_session_active());
  EXPECT_TRUE(tempest::core::Session::instance().active());
}

TEST(AutoSession, RecordsRegionsIntoTheAmbientSession) {
  auto& session = tempest::core::Session::instance();
  const std::size_t before = session.registry().total_events();
  {
    tempest::ScopedRegion region("auto_region");
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(session.registry().total_events(), before + 2);
}

TEST(AutoSession, TempdIsSampling) {
  // Give tempd at least one tick at the default 4 Hz. Tempd's own stats
  // belong to its thread until stop(); the live counter is the
  // race-free view of a running sampler.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const auto snap = tempest::telemetry::metrics().snapshot();
  EXPECT_GE(snap.counter(tempest::telemetry::Counter::kTempdTicks), 1u);
}

}  // namespace
