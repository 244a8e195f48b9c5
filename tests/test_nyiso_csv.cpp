#include "trace/nyiso_csv.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "sim/scenario.h"

namespace eotora::trace {
namespace {

std::vector<Series> synthetic_export() {
  // A 3-day "ISO export": hour-of-day column plus an LBMP price column with
  // a clean diurnal shape.
  Series hours{"hour", {}};
  Series lbmp{"LBMP", {}};
  for (int t = 0; t < 72; ++t) {
    hours.values.push_back(static_cast<double>(t % 24));
    lbmp.values.push_back(30.0 + 20.0 * ((t % 24) >= 16 ? 1.0 : 0.0));
  }
  return {hours, lbmp};
}

TEST(NyisoCsv, SelectsColumnAndDecomposes) {
  const auto series = make_price_series(synthetic_export(), "LBMP", 24);
  ASSERT_EQ(series.prices.size(), 72u);
  EXPECT_DOUBLE_EQ(series.prices[0], 30.0);
  EXPECT_DOUBLE_EQ(series.prices[16], 50.0);
  // Perfectly periodic input: trend equals the values, residual zero.
  EXPECT_DOUBLE_EQ(series.trend.at(0), 30.0);
  EXPECT_DOUBLE_EQ(series.trend.at(16), 50.0);
  EXPECT_NEAR(series.residual_stddev, 0.0, 1e-12);
}

TEST(NyisoCsv, UnknownColumnListsAvailable) {
  try {
    (void)make_price_series(synthetic_export(), "price", 24);
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("LBMP"), std::string::npos);
  }
}

TEST(NyisoCsv, RejectsShortOrNonPositiveSeries) {
  Series short_series{"LBMP", {1.0, 2.0}};
  EXPECT_THROW((void)make_price_series({short_series}, "LBMP", 24),
               std::invalid_argument);
  auto series = synthetic_export();
  series[1].values[5] = -1.0;
  EXPECT_THROW((void)make_price_series(series, "LBMP", 24),
               std::invalid_argument);
}

TEST(NyisoCsv, LoadsFromFile) {
  const std::string path = "/tmp/eotora_test_nyiso.csv";
  {
    std::ofstream file(path);
    file << "hour,LBMP\n";
    for (int t = 0; t < 48; ++t) {
      file << (t % 24) << ',' << (20.0 + (t % 24)) << '\n';
    }
  }
  const auto series = load_price_csv(path, "LBMP", 24);
  EXPECT_EQ(series.prices.size(), 48u);
  EXPECT_DOUBLE_EQ(series.prices[5], 25.0);
  std::remove(path.c_str());
}

TEST(NyisoCsv, DrivesTheSimulatorViaPriceOverride) {
  sim::ScenarioConfig config;
  config.devices = 5;
  config.mid_band_stations = 1;
  config.clusters = 1;
  config.servers_per_cluster = 2;
  config.seed = 3;
  sim::Scenario scenario(config);
  auto states = scenario.generate_states(30);
  const auto series = make_price_series(synthetic_export(), "LBMP", 24);
  sim::apply_price_series(states, series.prices);
  for (std::size_t t = 0; t < states.size(); ++t) {
    EXPECT_DOUBLE_EQ(states[t].price_per_mwh, series.prices[t % 72]);
  }
}

TEST(ApplyPriceSeries, WrapsAndValidates) {
  sim::ScenarioConfig config;
  config.devices = 3;
  config.mid_band_stations = 1;
  config.clusters = 1;
  config.servers_per_cluster = 1;
  config.seed = 4;
  sim::Scenario scenario(config);
  auto states = scenario.generate_states(5);
  sim::apply_price_series(states, {10.0, 20.0});
  EXPECT_DOUBLE_EQ(states[0].price_per_mwh, 10.0);
  EXPECT_DOUBLE_EQ(states[1].price_per_mwh, 20.0);
  EXPECT_DOUBLE_EQ(states[4].price_per_mwh, 10.0);
  EXPECT_THROW(sim::apply_price_series(states, {}), std::invalid_argument);
  EXPECT_THROW(sim::apply_price_series(states, {0.0}),
               std::invalid_argument);
}

}  // namespace
}  // namespace eotora::trace
