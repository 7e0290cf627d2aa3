// Input for tools/lint_await_loops.py, never compiled: the lint must flag
// exactly the three loops marked FLAGGED and accept every other one.
struct Fixture {
  std::vector<int> items_;

  Co<void> MemberRange() {
    for (int x : items_) {  // FLAGGED: member range
      co_await Delay(x);
    }
  }

  Co<void> DotRange(Group& g) {
    for (int x : g.members) co_await Delay(x);  // FLAGGED: through '.'
  }

  Co<void> ArrowRange(Group* g) {
    for (auto& [id, v] : g->by_id) {  // FLAGGED: through '->'
      if (id != 0) {
        co_await Delay(id);
      }
    }
  }

  Co<void> Snapshot() {
    const std::vector<int> copy = items_;
    for (int x : copy) co_await Delay(x);
  }

  Co<void> Marked() {
    // await-safe: items_ is filled only in the constructor.
    for (int x : items_) co_await Delay(x);
  }

  Co<void> AwaitAfterLoop() {
    for (int x : items_) Use(x);
    co_await Delay(1);
  }

  Co<void> IndexLoop() {
    for (size_t i = 0; i < items_.size(); i++) co_await Delay(items_[i]);
  }

  const char* text = "for (int x : items_) co_await Delay(x);";
};
