// Sensor backends: hwmon parsing against a fabricated sysfs tree,
// simulated sensors (quantisation, noise, offsets), replay, constant.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "sensors/hwmon.hpp"
#include "sensors/replay.hpp"
#include "sensors/sim_backend.hpp"
#include "thermal/rc_network.hpp"

namespace {

namespace fs = std::filesystem;
using namespace tempest::sensors;

class HwmonTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // One tree per test: ctest runs these in parallel processes, and a
    // shared tree would be removed under a neighbour mid-test.
    root_ = fs::path(::testing::TempDir()) /
            (std::string("hwmon_fake_") +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(root_);
    fs::create_directories(root_ / "hwmon0");
    fs::create_directories(root_ / "hwmon1");
    write(root_ / "hwmon0" / "name", "k8temp");
    write(root_ / "hwmon0" / "temp1_input", "34000");
    write(root_ / "hwmon0" / "temp1_label", "Core0");
    write(root_ / "hwmon0" / "temp2_input", "36500");
    write(root_ / "hwmon1" / "name", "acpitz");
    write(root_ / "hwmon1" / "temp1_input", "28000");
  }
  void write(const fs::path& p, const std::string& content) {
    std::ofstream out(p);
    out << content << "\n";
  }
  fs::path root_;
};

TEST_F(HwmonTest, EnumeratesChipsAndLabels) {
  HwmonBackend backend(root_);
  ASSERT_TRUE(backend.available());
  const auto sensors = backend.enumerate();
  ASSERT_EQ(sensors.size(), 3u);
  EXPECT_EQ(sensors[0].name, "Core0");            // explicit label
  EXPECT_EQ(sensors[1].name, "k8temp.temp2");     // chip-derived name
  EXPECT_EQ(sensors[2].name, "acpitz.temp1");
  EXPECT_EQ(sensors[0].source, "hwmon0/temp1");
}

TEST_F(HwmonTest, ReadsMillidegrees) {
  HwmonBackend backend(root_);
  EXPECT_DOUBLE_EQ(backend.read_celsius(0).value(), 34.0);
  EXPECT_DOUBLE_EQ(backend.read_celsius(1).value(), 36.5);
  EXPECT_DOUBLE_EQ(backend.read_celsius(2).value(), 28.0);
}

TEST_F(HwmonTest, OutOfRangeAndCorruptReadsError) {
  HwmonBackend backend(root_);
  EXPECT_FALSE(backend.read_celsius(9).is_ok());
  write(root_ / "hwmon0" / "temp1_input", "garbage");
  EXPECT_FALSE(backend.read_celsius(0).is_ok());
}

TEST(Hwmon, MissingRootYieldsNoSensors) {
  HwmonBackend backend("/nonexistent/path/hwmon");
  EXPECT_FALSE(backend.available());
  EXPECT_TRUE(backend.enumerate().empty());
}

TEST(SimBackend, QuantisesOffsetsAndValidatesNodes) {
  tempest::thermal::RcNetwork net;
  net.set_ambient_temp(25.0);
  net.add_node("die", 1.0, 38.6);
  net.add_node("sink", 1.0, 31.2);

  std::vector<SimSensorSpec> specs = {
      {"cpu", "die", 1.0, 0.0, 0.0},
      {"cpu_offset", "die", 1.0, 0.0, 2.0},
      {"sink_fine", "sink", 0.5, 0.0, 0.0},
      {"sink_raw", "sink", 0.0, 0.0, 0.0},
  };
  SimBackend backend(&net, specs);
  EXPECT_DOUBLE_EQ(backend.read_celsius(0).value(), 39.0);  // 38.6 -> 39
  EXPECT_DOUBLE_EQ(backend.read_celsius(1).value(), 41.0);  // 40.6 -> 41
  EXPECT_DOUBLE_EQ(backend.read_celsius(2).value(), 31.0);  // 31.2 -> 31.0 (0.5 step)
  EXPECT_DOUBLE_EQ(backend.read_celsius(3).value(), 31.2);  // raw
  EXPECT_FALSE(backend.read_celsius(4).is_ok());

  EXPECT_THROW(SimBackend(&net, {{"x", "missing_node", 1.0, 0.0, 0.0}}),
               std::out_of_range);
}

TEST(SimBackend, NoiseIsDeterministicPerSeed) {
  tempest::thermal::RcNetwork net;
  net.add_node("die", 1.0, 40.0);
  std::vector<SimSensorSpec> specs = {{"cpu", "die", 0.0, 0.5, 0.0}};
  SimBackend a(&net, specs, 123), b(&net, specs, 123), c(&net, specs, 456);
  const double ra = a.read_celsius(0).value();
  const double rb = b.read_celsius(0).value();
  const double rc = c.read_celsius(0).value();
  EXPECT_DOUBLE_EQ(ra, rb);
  EXPECT_NE(ra, rc);
  EXPECT_NEAR(ra, 40.0, 3.0);  // within 6 sigma
}

TEST(ReplayBackend, StepHoldSemantics) {
  std::vector<SensorInfo> sensors(1);
  sensors[0].name = "cpu";
  ReplayBackend backend(std::move(sensors),
                        {{{0.0, 30.0}, {1.0, 35.0}, {2.0, 40.0}}});
  backend.set_time(0.0);
  EXPECT_DOUBLE_EQ(backend.read_celsius(0).value(), 30.0);
  backend.set_time(1.5);
  EXPECT_DOUBLE_EQ(backend.read_celsius(0).value(), 35.0);
  backend.set_time(99.0);
  EXPECT_DOUBLE_EQ(backend.read_celsius(0).value(), 40.0);
  backend.set_time(-1.0);
  EXPECT_FALSE(backend.read_celsius(0).is_ok());
}

TEST(ReplayBackend, MismatchedSeriesCountThrows) {
  std::vector<SensorInfo> sensors(2);
  EXPECT_THROW(ReplayBackend(std::move(sensors), {{}}), std::invalid_argument);
}

TEST(ConstantBackend, FixedReadings) {
  ConstantBackend backend(3, 37.5);
  EXPECT_EQ(backend.enumerate().size(), 3u);
  EXPECT_DOUBLE_EQ(backend.read_celsius(2).value(), 37.5);
  backend.set_value(40.0);
  EXPECT_DOUBLE_EQ(backend.read_celsius(0).value(), 40.0);
  EXPECT_FALSE(backend.read_celsius(3).is_ok());
}

}  // namespace
