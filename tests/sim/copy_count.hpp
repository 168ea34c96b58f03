// A capture that counts its copies and moves, for pinning how often the
// engine and the network copy or move a scheduled callable.
#pragma once

namespace rill::testutil {

struct CopyCount {
  int copies{0};
  int moves{0};
};

/// Copying or moving one bumps the counts it points at.
class Counted {
 public:
  explicit Counted(CopyCount& count) noexcept : count_(&count) {}
  Counted(const Counted& other) noexcept : count_(other.count_) {
    ++count_->copies;
  }
  Counted(Counted&& other) noexcept : count_(other.count_) { ++count_->moves; }
  Counted& operator=(const Counted&) = delete;
  Counted& operator=(Counted&&) = delete;
  ~Counted() = default;

 private:
  CopyCount* count_;
};

}  // namespace rill::testutil
