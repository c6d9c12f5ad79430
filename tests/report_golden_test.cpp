/// \file report_golden_test.cpp
/// Byte-identity of the ConsoleSink path: the report-based scenarios must
/// print exactly what the printf-based scenarios printed before the
/// ScenarioReport refactor. The golden strings below are verbatim captures
/// of the pre-refactor binaries at fixed seeds (spr_cli scenario ... with
/// the options each test sets), so any drift in the console stream — a
/// changed format string, a reordered block, a lost table — fails here.
///
/// The delivery, stretch and construction-cost goldens are captures of
/// the standalone bench binaries those scenarios replaced, run with 2
/// networks x 3 pairs per point.
///
/// The `figures` golden is the Fig. 5, 6 and 7 scenarios' output, captured
/// one after the other with the same options before `figures` replaced
/// them: one sweep per model now prints all three figures.
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

TEST(ConsoleGolden, Figures) {
  ScenarioOptions opts;
  opts.networks = 1; opts.pairs = 2; opts.seed = 7; opts.threads = 2;
  std::string captured;
  ASSERT_EQ(run_capturing("figures", opts, captured), 0);
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

== Fig. 6: average number of hops of a GF, LGF, SLGF, SLGF2 routing ==

Fig. 6 — IA (uniform) model, 1 networks x 2 pairs per point
nodes    GF    LGF   SLGF  SLGF2
--------------------------------
  400  4.00   4.00   4.00   4.00
  450  8.50  11.00  11.00  11.00
  500  6.00   6.00   6.00   6.00
  550  5.00   5.50   5.50   5.50
  600  8.50   7.50   7.00   7.00
  650  5.00   5.00   5.00   5.50
  700  5.00   5.00   5.00   5.00
  750  4.50   5.50   5.50   5.50
  800  5.00   6.00   6.00   6.00
delivery ratio per scheme (worst point):  GF>=1.00  LGF>=1.00  SLGF>=1.00  SLGF2>=1.00

Fig. 6 — FA (forbidden areas) model, 1 networks x 2 pairs per point
nodes     GF    LGF   SLGF  SLGF2
---------------------------------
  400   7.00   2.00   2.00   9.00
  450  20.50   2.00   2.00   8.50
  500   5.50   6.50   6.50   6.50
  550   5.50   6.00   6.00   6.00
  600   6.00   6.00   6.00   6.00
  650  10.50  10.50  10.50  10.50
  700   4.00   4.00   4.00   4.00
  750   7.00   7.00   7.00   7.00
  800  10.00  10.50  11.00  11.00
delivery ratio per scheme (worst point):  GF>=1.00  LGF>=0.50  SLGF>=0.50  SLGF2>=1.00

== Fig. 7: average length of a GF, LGF, SLGF, SLGF2 routing ==

Fig. 7 — IA (uniform) model, 1 networks x 2 pairs per point
nodes     GF    LGF   SLGF  SLGF2
---------------------------------
  400   67.3   67.3   65.8   65.8
  450  127.3  146.5  146.5  146.5
  500  102.3   89.6   89.6   89.6
  550   80.8   81.4   81.4   81.4
  600  123.3  117.1  109.8  109.8
  650   81.7   75.1   75.1   82.1
  700   78.9   73.4   73.4   73.4
  750   75.4   79.6   79.6   79.6
  800   85.5   90.0   90.0   90.0
delivery ratio per scheme (worst point):  GF>=1.00  LGF>=1.00  SLGF>=1.00  SLGF2>=1.00

Fig. 7 — FA (forbidden areas) model, 1 networks x 2 pairs per point
nodes     GF    LGF   SLGF  SLGF2
---------------------------------
  400  107.4   27.8   27.8  125.9
  450  178.3   31.2   31.2  131.6
  500   85.4   86.8   86.8   86.8
  550   92.2   91.1   91.1   91.1
  600   90.2   90.2   90.2   90.2
  650  163.8  163.5  159.3  159.3
  700   61.9   62.7   62.7   62.7
  750  106.2  105.4  105.4  105.4
  800  149.9  148.7  148.8  152.9
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

TEST(ConsoleGolden, Delivery) {
  ScenarioOptions opts;
  opts.networks = 2; opts.pairs = 3; opts.threads = 2;
  std::string captured;
  ASSERT_EQ(run_capturing("delivery", opts, captured), 0);
  const std::string expected = R"GOLD(== Delivery ratio per scheme (connected interior pairs) ==

IA (uniform) model, 2 networks x 3 pairs per point
nodes     GF    LGF   SLGF  SLGF2    MFR  Compass  Flooding
-----------------------------------------------------------
  400  1.000  1.000  1.000  1.000  1.000    1.000     1.000
  500  1.000  1.000  1.000  1.000  1.000    1.000     1.000
  600  1.000  1.000  1.000  1.000  1.000    1.000     1.000
  700  1.000  1.000  1.000  1.000  1.000    1.000     1.000
  800  1.000  1.000  1.000  1.000  1.000    1.000     1.000

FA (forbidden areas) model, 2 networks x 3 pairs per point
nodes     GF    LGF   SLGF  SLGF2    MFR  Compass  Flooding
-----------------------------------------------------------
  400  1.000  1.000  1.000  1.000  1.000    1.000     1.000
  500  1.000  1.000  1.000  1.000  1.000    1.000     1.000
  600  1.000  1.000  1.000  1.000  1.000    0.833     1.000
  700  1.000  0.667  1.000  1.000  0.500    0.500     1.000
  800  1.000  1.000  1.000  1.000  1.000    1.000     1.000

flooding = oracle (1.000 by construction on connected pairs);
MFR/Compass are greedy-only and show the raw local-minimum
rate that the recovery machinery must absorb.
)GOLD";
  EXPECT_EQ(captured, expected);
}

TEST(ConsoleGolden, Stretch) {
  ScenarioOptions opts;
  opts.networks = 2; opts.pairs = 3; opts.threads = 2;
  std::string captured;
  ASSERT_EQ(run_capturing("stretch", opts, captured), 0);
  const std::string expected = R"GOLD(== Path stretch vs optimal (delivered packets) ==

IA (uniform) model — hop stretch (routed hops / BFS-optimal hops)
nodes     GF    LGF   SLGF  SLGF2
---------------------------------
  400  1.074  1.074  1.074  1.074
  500  1.019  1.311  1.274  1.274
  600  1.019  1.181  1.181  1.181
  700  1.000  1.069  1.069  1.069
  800  1.028  1.049  1.049  1.049
IA (uniform) model — length stretch (routed meters / Dijkstra-optimal)
nodes     GF    LGF   SLGF  SLGF2
---------------------------------
  400  1.032  1.064  1.056  1.058
  500  1.061  1.223  1.212  1.212
  600  1.045  1.070  1.070  1.070
  700  1.068  1.024  1.024  1.024
  800  1.024  1.019  1.019  1.019

FA (forbidden areas) model — hop stretch (routed hops / BFS-optimal hops)
nodes     GF    LGF   SLGF  SLGF2
---------------------------------
  400  1.235  1.147  1.143  1.752
  500  2.232  1.025  1.025  1.036
  600  1.000  1.000  1.000  1.000
  700  1.035  1.331  1.350  1.072
  800  1.000  4.505  4.505  1.671
FA (forbidden areas) model — length stretch (routed meters / Dijkstra-optimal)
nodes     GF    LGF   SLGF  SLGF2
---------------------------------
  400  1.080  1.071  1.069  1.556
  500  1.644  1.022  1.022  1.044
  600  1.042  1.034  1.034  1.034
  700  1.067  1.292  1.292  1.031
  800  1.057  3.471  3.471  1.472

)GOLD";
  EXPECT_EQ(captured, expected);
}

TEST(ConsoleGolden, ConstructionCost) {
  ScenarioOptions opts;
  opts.networks = 2; opts.pairs = 3; opts.threads = 2;
  std::string captured;
  ASSERT_EQ(run_capturing("construction-cost", opts, captured), 0);
  const std::string expected = R"GOLD(== Construction cost of the safety information (Algorithm 2) ==

IA (uniform) model, 2 networks per point
nodes  rounds  broadcasts  bcast/node  receptions  naive bcast  saving
----------------------------------------------------------------------
  400     8.5         467        1.17        5250         3400   7.28x
  450     6.5         487        1.08        6258         2925   6.01x
  500     7.5         556        1.11        7834         3750   6.74x
  550     5.0         580        1.05        9250         2750   4.74x
  600     4.0         610        1.02       10476         2400   3.94x
  650     4.0         658        1.01       12170         2600   3.95x
  700     3.5         707        1.01       14109         2450   3.47x
  750     3.0         754        1.00       16154         2250   2.99x
  800     4.0         808        1.01       18736         3200   3.96x

FA (forbidden areas) model, 2 networks per point
nodes  rounds  broadcasts  bcast/node  receptions  naive bcast  saving
----------------------------------------------------------------------
  400     8.5         506        1.27        6494         3400   6.71x
  450    13.0         577        1.28        8258         5850  10.14x
  500    18.5         704        1.41       11440         9250  13.13x
  550    16.5         736        1.34       13266         9075  12.34x
  600    22.0         800        1.33       16894        13200  16.49x
  650    13.0         768        1.18       17408         8450  11.00x
  700    10.5         798        1.14       18287         7350   9.22x
  750    14.5         864        1.15       21793        10875  12.59x
  800    13.0         902        1.13       24572        10400  11.52x

broadcasts stay near one per node: only nodes whose status or
anchors change rebroadcast, matching the minimality claim.
)GOLD";
  EXPECT_EQ(captured, expected);
}

}  // namespace
}  // namespace spr
