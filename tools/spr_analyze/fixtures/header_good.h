#pragma once

#include "util/check.h"

namespace spr_fixture {
inline int three() { return 3; }
}  // namespace spr_fixture
