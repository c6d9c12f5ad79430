#include "util/check.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "graph/unit_disk.h"
#include "util/task_pool.h"

namespace spr {
namespace {

TEST(Check, PassingCheckHasNoEffect) {
  ScopedCheckHandler guard(&throwing_check_handler);
  SPR_CHECK(1 + 1 == 2);
  SPR_CHECK(true, "context is never formatted on success");
  SPR_DCHECK(2 + 2 == 4, "nor for dchecks");
}

TEST(Check, FailureMessageCarriesExpressionAndContext) {
  ScopedCheckHandler guard(&throwing_check_handler);
  const int lhs = 3;
  try {
    SPR_CHECK(lhs == 4, "lhs=", lhs, " expected=", 4);
    FAIL() << "SPR_CHECK(false) did not reach the handler";
  } catch (const CheckError& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("SPR_CHECK(lhs == 4) failed"), std::string::npos)
        << message;
    EXPECT_NE(message.find("lhs=3 expected=4"), std::string::npos) << message;
    EXPECT_NE(message.find("util_check_test.cpp"), std::string::npos)
        << message;
  }
}

TEST(Check, ScopedHandlerRestoresPrevious) {
  {
    ScopedCheckHandler guard(&throwing_check_handler);
    EXPECT_THROW(SPR_CHECK(false), CheckError);
  }
  // Cannot fail a check here (the default handler aborts); instead verify
  // that installing and removing reports the expected previous handlers.
  CheckHandler previous = set_check_handler(&throwing_check_handler);
  EXPECT_EQ(previous, nullptr);
  EXPECT_EQ(set_check_handler(nullptr), &throwing_check_handler);
}

TEST(Check, DcheckCompilesOutInReleaseAndFiresInDebug) {
  ScopedCheckHandler guard(&throwing_check_handler);
  if (kDchecksEnabled) {
    EXPECT_THROW(SPR_DCHECK(false, "must fire"), CheckError);
  } else {
    SPR_DCHECK(false, "must not evaluate");  // no-op by construction
    SUCCEED();
  }
}

// ---------------------------------------------------------------------------
// Negative tests: violated invariants in real call paths are caught.

TEST(CheckedInvariants, SubmitToShutDownPoolIsCaught) {
  ScopedCheckHandler guard(&throwing_check_handler);
  TaskPool pool(2);
  pool.shutdown();
  EXPECT_THROW(pool.submit([] {}), CheckError);
}

// ---------------------------------------------------------------------------
// EdgeDiff normalization predicate (DCHECKed by with_moves producers).

TEST(EdgeDiffNormalized, AcceptsCanonicalDiff) {
  EdgeDiff diff;
  diff.added = {{0, 1}, {0, 2}, {1, 3}};
  diff.removed = {{0, 3}, {2, 3}};
  EXPECT_TRUE(edge_diff_normalized(diff));
  EXPECT_TRUE(edge_diff_normalized(EdgeDiff{}));
}

TEST(EdgeDiffNormalized, RejectsUnorderedPair) {
  EdgeDiff diff;
  diff.added = {{2, 1}};
  EXPECT_FALSE(edge_diff_normalized(diff));
  diff.added = {{1, 1}};  // self-loop
  EXPECT_FALSE(edge_diff_normalized(diff));
}

TEST(EdgeDiffNormalized, RejectsUnsortedOrDuplicateList) {
  EdgeDiff diff;
  diff.removed = {{1, 3}, {0, 2}};
  EXPECT_FALSE(edge_diff_normalized(diff));
  diff.removed = {{0, 2}, {0, 2}};
  EXPECT_FALSE(edge_diff_normalized(diff));
}

TEST(EdgeDiffNormalized, RejectsPairInBothLists) {
  EdgeDiff diff;
  diff.added = {{0, 1}, {2, 3}};
  diff.removed = {{2, 3}};
  EXPECT_FALSE(edge_diff_normalized(diff));
}

}  // namespace
}  // namespace spr
