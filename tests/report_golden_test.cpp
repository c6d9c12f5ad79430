/// \file report_golden_test.cpp
/// Byte-identity of the ConsoleSink path: the report-based scenarios must
/// print exactly what the printf-based scenarios printed before the
/// ScenarioReport refactor. The golden strings below are verbatim captures
/// of the pre-refactor binaries at fixed seeds (spr_cli scenario ... with
/// the options each test sets), so any drift in the console stream — a
/// changed format string, a reordered block, a lost table — fails here.
///
/// The goldens replay sweeps at tiny sizes; each test runs in well under a
/// second.

#include <gtest/gtest.h>

#include "core/scenario.h"

namespace spr {
namespace {

int run_capturing(const char* name, const ScenarioOptions& opts,
                  std::string& captured) {
  testing::internal::CaptureStdout();
  int code = ScenarioSuite::builtin().run(name, opts);
  captured = testing::internal::GetCapturedStdout();
  return code;
}

TEST(ConsoleGolden, Fig5MaxHops) {
  ScenarioOptions opts;
  opts.networks = 1; opts.pairs = 2; opts.seed = 7; opts.threads = 2;
  std::string captured;
  ASSERT_EQ(run_capturing("fig5-max-hops", opts, captured), 0);
  const std::string expected = R"GOLD(== Fig. 5: maximum number of hops of a GF, LGF, SLGF, SLGF2 routing ==

Fig. 5 — IA (uniform) model, 1 networks x 2 pairs per point
nodes  GF  LGF  SLGF  SLGF2
---------------------------
  400   7    7     7      7
  450  10   12    12     12
  500   6    6     6      6
  550   7    8     8      8
  600  11    9     8      8
  650   5    5     5      6
  700   6    6     6      6
  750   6    8     8      8
  800   6    6     6      6
delivery ratio per scheme (worst point):  GF>=1.00  LGF>=1.00  SLGF>=1.00  SLGF2>=1.00

Fig. 5 — FA (forbidden areas) model, 1 networks x 2 pairs per point
nodes  GF  LGF  SLGF  SLGF2
---------------------------
  400  12    2     2     16
  450  39    2     2     15
  500   6    7     7      7
  550   6    6     6      6
  600   8    8     8      8
  650  12   12    12     12
  700   6    6     6      6
  750   9    9     9      9
  800  13   14    15     14
delivery ratio per scheme (worst point):  GF>=1.00  LGF>=0.50  SLGF>=0.50  SLGF2>=1.00

)GOLD";
  EXPECT_EQ(captured, expected);
}

TEST(ConsoleGolden, Ablation) {
  ScenarioOptions opts;
  opts.networks = 1; opts.pairs = 2; opts.seed = 7; opts.threads = 2;
  std::string captured;
  ASSERT_EQ(run_capturing("ablation", opts, captured), 0);
  const std::string expected = R"GOLD(== SLGF2 ablation: contribution of each mechanism (FA model) ==

avg-hops
nodes   SLGF  SLGF2  -eitherhand  -backup  -limitperim
------------------------------------------------------
  400   2.00   9.00        40.00    32.50         9.00
  600   6.00   6.00         6.00     6.00         6.00
  800  11.00  11.00        11.50    11.00        11.00

avg-length
nodes    SLGF   SLGF2  -eitherhand  -backup  -limitperim
--------------------------------------------------------
  400   27.83  125.92       497.57   451.50       125.92
  600   90.23   90.23        90.23    90.23        90.23
  800  148.76  152.87       152.87   150.52       152.87

perimeter-hops
nodes  SLGF  SLGF2  -eitherhand  -backup  -limitperim
-----------------------------------------------------
  400  0.00   0.00         0.00    14.00         0.00
  600  0.50   0.00         0.00     0.50         0.00
  800  3.50   0.00         0.00     3.00         0.00

delivery
nodes  SLGF  SLGF2  -eitherhand  -backup  -limitperim
-----------------------------------------------------
  400  0.50   1.00         1.00     1.00         1.00
  600  1.00   1.00         1.00     1.00         1.00
  800  1.00   1.00         1.00     1.00         1.00

)GOLD";
  EXPECT_EQ(captured, expected);
}

TEST(ConsoleGolden, HoleField) {
  ScenarioOptions opts;
  opts.networks = 2; opts.pairs = 2; opts.seed = 11; opts.threads = 2;
  std::string captured;
  ASSERT_EQ(run_capturing("hole-field", opts, captured), 0);
  const std::string expected = R"GOLD(== Hole field: unsafe labeling share and per-scheme delivery (FA model) ==

nodes  unsafe%  GF deliv  LGF deliv  SLGF deliv  SLGF2 deliv  SLGF2 perim
-------------------------------------------------------------------------
  500     17.3      1.00       1.00        1.00         1.00         0.00
  600     18.1      1.00       1.00        1.00         1.00         0.00
  700     18.1      1.00       1.00        1.00         1.00         0.00
)GOLD";
  EXPECT_EQ(captured, expected);
}

TEST(ConsoleGolden, FailureDynamics) {
  ScenarioOptions opts;
  opts.networks = 2; opts.seed = 3; opts.threads = 2;
  std::string captured;
  ASSERT_EQ(run_capturing("failure-dynamics", opts, captured), 0);
  const std::string expected = R"GOLD(== Failure dynamics: 2 trials, 700 nodes, 35m blast ==

scheme  delivered before  delivered after
-----------------------------------------
    GF               2/2              2/2
   LGF               2/2              1/2
  SLGF               2/2              1/2
 SLGF2               2/2              2/2
incremental relabeling: 39.5 flips, 306.5 re-evaluations per failure (mean over 2 trials)
)GOLD";
  EXPECT_EQ(captured, expected);
}

TEST(ConsoleGolden, MobileStream) {
  ScenarioOptions opts;
  opts.networks = 3; opts.seed = 9;
  std::string captured;
  ASSERT_EQ(run_capturing("mobile-stream", opts, captured), 0);
  const std::string expected = R"GOLD(== Mobile stream: 3 epochs, 600 nodes, dt=20s ==

epoch  time  links  delivered  hops  unsafe
-------------------------------------------
    0     0   5026        yes    10      18
    1    20   6359        yes     8       4
    2    40   7881        yes     5      12
delivered 3/3 epochs, mean hops 7.7
)GOLD";
  EXPECT_EQ(captured, expected);
}

TEST(ConsoleGolden, StreamingDelivery) {
  ScenarioOptions opts;
  opts.networks = 1; opts.pairs = 4; opts.threads = 2;
  std::string captured;
  ASSERT_EQ(run_capturing("streaming-delivery", opts, captured), 0);
  const std::string expected = R"GOLD(== Streaming delivery: 600-node FA networks, 1 streams x 4 packets per failure fraction, 4 mid-stream failure waves ==

fail%  GF deliv  LGF deliv  SLGF deliv  SLGF2 deliv  SLGF2 hops  SLGF2 stretch  relabel flips
---------------------------------------------------------------------------------------------
    0      1.00       1.00        1.00         1.00        6.00           1.15              0
    5      1.00       1.00        1.00         1.00        5.50           1.29              5
   10      1.00       0.75        1.00         1.00        8.75           1.11             17
   20      1.00       1.00        1.00         1.00        6.00           1.15             72
   30      1.00       1.00        1.00         1.00        6.00           1.32             33
incremental relabeling matched a from-scratch compute_safety at every wave: yes
sweep section x axis is the failure percentage (every network has 600 nodes)
)GOLD";
  EXPECT_EQ(captured, expected);
}

TEST(ConsoleGolden, MobilityRate) {
  ScenarioOptions opts;
  opts.networks = 1; opts.pairs = 4; opts.threads = 2;
  std::string captured;
  ASSERT_EQ(run_capturing("mobility-rate", opts, captured), 0);
  const std::string expected = R"GOLD(== Mobility rate: 500-node FA networks, 1 streams x 4 packets per cell, re-pin interval x speed sweep with incremental relabeling ==

repin s  speed m/s  GF deliv  LGF deliv  SLGF deliv  SLGF2 deliv  SLGF2 stretch  repins  promoted  demoted
----------------------------------------------------------------------------------------------------------
      4        0.5      1.00       1.00        1.00         1.00           1.18       2       106      106
      4        1.5      1.00       1.00        1.00         1.00           1.00       1        62       53
      4        3.0      1.00       1.00        1.00         1.00           1.17       2       221      142
      8        0.5      1.00       1.00        1.00         1.00           1.40       1        76       80
      8        1.5      1.00       1.00        1.00         1.00           1.33       1       116       90
      8        3.0      1.00       1.00        1.00         1.00           1.16       1        73       38
incremental with_moves relabeling matched a from-scratch compute_safety at every re-pin: yes
sweep section x axis is the max waypoint speed in 0.1 m/s units (every network has 500 nodes); one section per re-pin interval, in interval order
)GOLD";
  EXPECT_EQ(captured, expected);
}

}  // namespace
}  // namespace spr
