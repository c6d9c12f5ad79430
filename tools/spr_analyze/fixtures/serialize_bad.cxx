// Must-fire fixture: a file named `serialize*` sits in the ordered-only
// layer, where unordered containers are banned outright.
#include <unordered_map>

namespace spr_fixture {

struct Sink {
  std::unordered_map<int, int> by_id;  // EXPECT[unordered-iter]
};

}  // namespace spr_fixture
