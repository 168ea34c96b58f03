// R6 fixture — every scheduled callback here has a dangling capture and no
// legality route: no RILL_PINNED, no member-held handle cancelled by a
// destructor, no waiver.  Not compiled; scanned as tokens by rill_lint.
namespace fx {

struct Ticker {
  Engine& eng_;
  void arm() {
    eng_.schedule_detached(5, [this] { poke(); });
  }
  void poke();
};

struct Loose {
  Engine& eng_;
  TimerId pending_;
  void arm_local() {
    auto held_only_in_a_local = eng_.schedule(5, [this] { poke(); });
    consume(held_only_in_a_local);
  }
  void arm_refs(int& counter) {
    eng_.schedule_detached(5, [&counter] { ++counter; });
    eng_.schedule_detached(5, [&] { poke(); });
  }
  void poke();
  static void consume(TimerId id);
};

struct StoreClient {
  Store& store_;
  void fetch(VmId vm, std::vector<std::string> keys) {
    store_.get_batch(vm, keys, [this](bool ok, Values v) { use(ok, v); });
  }
  void drop(VmId vm, std::vector<std::string> keys, int& done) {
    store_.del_batch(vm, keys, [&done](bool ok) { done += ok; });
  }
  void use(bool ok, Values v);
};

}  // namespace fx
