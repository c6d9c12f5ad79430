#include "../util/check.h"  // EXPECT[header-hygiene] EXPECT[header-hygiene]

namespace spr_fixture {
inline int two() { return 2; }
}  // namespace spr_fixture
