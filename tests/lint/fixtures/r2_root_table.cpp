// Fixture: R2 violation — a RootTable iterates in slot order, which follows
// the keys and the insert/erase history, just like the std unordered
// containers.
#include "common/root_table.hpp"

namespace fixture {

struct Pending {
  rill::RootTable<int> roots_;

  int total() const {
    int n = 0;
    for (const auto& [root, count] : roots_) n += count;  // R2 (line 13)
    return n;
  }
};

}  // namespace fixture
