// R6 fixture — all clean.  Held uses the member-handle + destructor-cancel
// route; Fabric uses the RILL_PINNED route; Values captures by value only.
namespace fx {

struct Held {
  Engine& eng_;
  TimerId pending_{};
  ~Held() { stop(); }
  void stop() { eng_.cancel(pending_); }
  void arm() {
    pending_ = eng_.schedule(5, [this] { tick(); });
  }
  void tick();
};

struct RILL_PINNED Fabric {
  Engine& eng_;
  void arm() {
    eng_.schedule_detached(5, [this] { tick(); });
  }
  void tick();
};

struct Values {
  Engine& eng_;
  void arm(int n) {
    eng_.schedule_detached(5, [n] { consume(n); });
  }
  static void consume(int n);
};

}  // namespace fx
